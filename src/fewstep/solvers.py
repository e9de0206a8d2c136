"""The generalized few-step solver: multistep, single-step, and predictor-corrector.

Every family shares the exponential-integrator wrapper

    x_i = R_i x_{i-1} - S_i * increment_i

with R_i = alpha_i/alpha_{i-1}, S_i = sigma_i (e^{h_i} - 1) for noise
prediction and R_i = sigma_i/sigma_{i-1}, S_i = alpha_i (e^{-h_i} - 1) for
data prediction, h_i the per-step log-SNR gap.  Wrapper factors always use the
step times.  :func:`wrapper_factors` (and its t-partials,
:func:`wrapper_partials`, for the reverse pass) is the one place this formula
lives.  Each grid keeps a :class:`GridTable` per (schedule, prediction), which
looks the schedule up at the steps once, so solves and reverse passes over one
grid ask the schedule nothing more, and the table keeps per model what
``model.prepare`` made of its score times, so the model computes its per-time
constants once; an ``ss`` solve adds one array lookup and one ``prepare`` for
its stage times, which move with its coefficients.

One stepping core runs every family.  Each step is a short list of
:class:`Row` s over x_{i-1} and the evaluations made so far, in one of two
shapes:

* a wrapper row ``R_i x_{i-1} - S_i sum_u w_u e_u``: the ``lms``/``pc``
  predictor, the ``pc`` corrector and the ``ss`` update;
* a stage row ``x_{i-1} + sum_u w_u e_u``: the ``ss`` stages, and the
  evaluation at the initial state that opens ``lms``/``pc`` (step 0).

A row may be evaluated at a time, which makes the next evaluation, and the
last row of a step is its state.  A solve keeps its states, stage states and
evaluations in one ``(slots, B d)`` buffer ``Z``, whose slot map is fixed per
layout so that every row's members (x_{i-1} and the evaluations it combines)
lie in one window ``Z[lo:hi]``; any other slot in a window is a state written
before the row.  So a row is a coefficient vector over its window: ``R_i`` on
x_{i-1} and ``-S_i w_u`` on the evaluations of a wrapper row, ``1`` and ``w_u``
for a stage row, and ``0`` on the other states, and running it is one
multiply and one reduction over the window's first axis,
``np.add.reduce(c[:, None] * Z[lo:hi], axis=0)``, which sums each column in
window order, so a draw gets the same bits whatever batch it is solved in (a
``np.dot`` would not: its bits depend on the column's position).
:func:`_coefficients` builds every row's vector of a solve at once from
``coeffs.values`` and the table's wrapper factors.  The family builders
(:func:`_multistep_rows`, :func:`_single_step_rows`) write the rows and the
slot map once per layout (:func:`_layout_plan`), with the index arrays the
coefficient vectors and the reverse pass read (:class:`Slots`), and the
grid's table keeps them in a :class:`Plan` per layout and model beside each
evaluation's prepared record, the one copy of its time's lookup; an ``ss``
plan takes its records, with its stage clamps, from the coefficients per
solve (:func:`_stage_times`).  :func:`solve` runs the rows, and
:func:`fewstep.backprop.backward` runs them transposed.

The model rejects a non-finite point with FloatingPointError, so a state
that a row evaluates is checked once, by the model: the last row of its
step, or the first row of the next step where that row restates it (stage 1
of an ``ss`` step), which then reports the state's own step.  The loop
checks the others.

The trace keeps, for the reverse pass, the buffer, the coefficient vectors,
the plan and the terms the model's ``evaluate`` kept for each evaluation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .coeffs import SolverCoefficients
from .errors import DivergenceError
from .grids import TimeGrid
from .schedules import NoiseSchedule


def wrapper_factors(at, prediction: str):
    """(R, S) of the update wrapper for every step of a grid, from the lookup
    ``at = schedule.at(steps)``; entry i-1 is step i."""
    alpha, sigma = at[:2]
    h = np.diff(np.log(alpha) - np.log(sigma))
    if prediction == "noise":
        return alpha[1:] / alpha[:-1], sigma[1:] * np.expm1(h)
    return sigma[1:] / sigma[:-1], alpha[1:] * np.expm1(-h)


def wrapper_partials(at, prediction: str):
    """(dR_prev, dR_next, dS_prev, dS_next): the t-partials of wrapper_factors per
    step, from the lookup ``at = schedule.at(steps)``."""
    a, s, da, ds = at
    h = np.diff(np.log(a) - np.log(s))
    dlam = da / a - ds / s
    if prediction != "noise":
        # data prediction is noise prediction with alpha and sigma swapped,
        # which negates the log-SNR
        a, s, da, ds, h, dlam = s, a, ds, da, -h, -dlam
    e_h = np.exp(h)
    return (-a[1:] * da[:-1] / (a[:-1] * a[:-1]), da[1:] / a[:-1],
            -s[1:] * e_h * dlam[:-1], ds[1:] * np.expm1(h) + s[1:] * e_h * dlam[1:])


class GridTable:
    """What solves on one grid read of the schedule and the model: the schedule's
    lookup ``at`` of the steps, made once, and from it the wrapper factors
    ``factors`` = [R_1..R_N, -S_1..-S_N, 1] that scale the coefficient vectors
    and, on first use, ``partials`` (of :func:`wrapper_partials`) and ``log_snr``
    (lambda and d lambda/dt at the steps); per model its prepared records of
    every score time (:meth:`prepared`), which hold their lookups, and, per
    layout and model, the :class:`Plan` a solve runs (:meth:`plan`)."""

    def __init__(self, schedule: NoiseSchedule, grid: TimeGrid, prediction: str):
        self.schedule, self.prediction = schedule, prediction
        self.score_times = grid.score_times
        self.at = np.array(schedule.at(grid.steps))
        R, S = wrapper_factors(self.at, prediction)
        self.factors = np.concatenate([R, -S, [1.0]])
        self.models, self.plans = {}, {}

    @classmethod
    def of(cls, schedule: NoiseSchedule, grid: TimeGrid, prediction: str) -> "GridTable":
        """The grid's table for (schedule, prediction), made on first use."""
        key = (schedule, prediction)
        if key not in grid.tables:
            grid.tables[key] = cls(schedule, grid, prediction)
        return grid.tables[key]

    def prepared(self, model):
        """``model.prepare`` of every score time at once, made on first use: for the
        mixture a :class:`~fewstep.scores.PreparedTimes` stack, whose iteration gives
        the records."""
        stack = self.models.get(model)
        if stack is None:
            stack = self.models[model] = model.prepare(self.schedule.at(self.score_times))
        return stack

    def plan(self, coeffs: SolverCoefficients, model) -> "Plan":
        """The :class:`Plan` of ``coeffs``' layout and ``model`` on this grid, made on
        first use; an ss plan still needs :func:`_stage_times`."""
        layout = (coeffs.kind, coeffs.order, coeffs.n_steps, coeffs.tied)
        plan = self.plans.get(layout + (model,))
        if plan is None:
            plan = _layout_plan(*layout)
            if coeffs.kind != "ss":     # evaluation m sits at score time m
                plan = plan._replace(preps=list(self.prepared(model))[:len(plan.slots.evals)])
            self.plans[layout + (model,)] = plan
        return plan

    @functools.cached_property
    def partials(self):
        return wrapper_partials(self.at, self.prediction)

    @functools.cached_property
    def log_snr(self):
        a, s, da, ds = self.at
        return np.log(a) - np.log(s), da / a - ds / s


class Row(NamedTuple):
    """One row of a step: ``R_i x_{i-1} - S_i sum_u w[u] e_{m[u]}`` (``wrapper``)
    or ``x_{i-1} + sum_u w[u] e_{m[u]}``, with e the evaluations in call order,
    written to slot ``out``.

    A row is structure only: its weights ``w`` are ``coeffs.values[slots]``; with
    ``implied`` the last weight is 1 - sum(the others), summed in order, and owns
    no slot.  Its coefficient vector, over the window ``Z[lo:hi]``, is entries
    ``at:to`` of the solve's (:func:`_coefficients`).  A row that ``restates`` is
    x_{i-1} itself, unchanged and evaluated (the opening evaluation of lms/pc,
    the first stage of an ss step), so it has no window and the model's check of
    its point is the check of the state of step i-1.  A row with an evaluation
    slot ``e`` is evaluated at its result, which makes the next evaluation (its
    prepared record is the :class:`Plan`'s).
    """

    wrapper: bool
    m: range
    slots: slice
    out: int
    e: int | None = None
    implied: bool = False
    restates: bool = False
    lo: int = 0
    hi: int = 0
    at: int = 0
    to: int = 0

    @property
    def evaluated(self) -> bool:
        return self.e is not None


class Slots(NamedTuple):
    """The slot map of a layout and the index arrays that read it.

    ``n`` slots; the slots of the states x_0..x_N, of each evaluation and of the
    point it was made at.  A solve's coefficient vectors are ``ext[src] *
    factors[scale]``, with ``ext`` = [values, 0, 1, the implied pc weights] (the
    weights ``values[implied]``, padded with slot ``len(values)`` = 0, summed
    across) and ``factors`` the table's.  The reverse pass takes the dot of row
    cotangent ``Zbar[pair_out]`` with member ``Z[pair_in]`` for each evaluation
    member, in sweep order; ``pair_pos`` is the member's coefficient entry and
    ``pair_step`` the step i of a wrapper row (N+1 for a stage row).  The
    coefficient gradient is the sum over ``scatter`` of ``scatter_sign`` times
    pair gradient ``scatter_pair`` into weight slot ``scatter_slot``, in that
    order: an implied weight's gradient is taken off each of its row's slots
    after the slot's own.  ``x_out``, ``x_in`` and ``x_step`` pair each wrapper
    row with x_{i-1}, in sweep order, and ``c_index`` holds the (N, k-1) slots of
    the ss stage offsets c.
    """

    n: int
    states: tuple
    evals: tuple
    points: tuple
    src: np.ndarray
    scale: np.ndarray
    implied: np.ndarray | None
    pair_out: np.ndarray
    pair_in: np.ndarray
    pair_pos: np.ndarray
    pair_step: np.ndarray
    scatter_pair: np.ndarray
    scatter_slot: np.ndarray
    scatter_sign: np.ndarray
    x_out: np.ndarray
    x_in: np.ndarray
    x_step: np.ndarray
    c_index: np.ndarray | None = None


class Plan(NamedTuple):
    """What a solve runs: ``steps``, the rows of steps 0..N, their ``slots``, and
    per evaluation in call order the model's prepared record of its time
    (``preps``), which holds the time's schedule lookup, and, for ss, whether its
    stage time was ``clamped``.

    A grid table keeps one per layout and model, over the rows and slots every
    table shares (:func:`_layout_plan`).  An lms/pc plan is complete; for an ss
    plan :func:`_stage_times` fills in the rest per solve, since stage times move
    with the coefficients.
    """

    steps: tuple
    slots: Slots
    preps: list | None = None
    clamped: np.ndarray | None = None


def _index(values, dtype=np.intp) -> np.ndarray:
    index = np.array(values, dtype=dtype)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=64)
def _layout_plan(kind: str, order: int, n_steps: int, tied: bool) -> Plan:
    """The rows and slots of a layout, which depend on nothing else, so every
    grid table shares one copy; immutable."""
    coeffs = SolverCoefficients(kind, order, n_steps, tied=tied)
    if kind == "ss":
        steps, c_index = _single_step_rows(coeffs), _index(
            [range(c.start, c.stop) for c in map(coeffs.ss_c_slice, range(1, n_steps + 1))]
        ).reshape(n_steps, order - 1)
    else:
        steps, c_index = _multistep_rows(coeffs), None
    return _place(steps, coeffs.values.size, n_steps, c_index)


def _multistep_rows(coeffs: SolverCoefficients) -> tuple:
    """lms/pc: evaluation m sits at score time m.  Step i predicts from the q
    most recent evaluations and evaluates the prediction (except at the last
    step of lms); pc then corrects over [new, recent, ..., oldest].

    Slots: x_0, e_0, then e_i, x_i for each step (lms makes no e_N), and the pc
    predictions at the end, so each row's window is [e_{i-q}, ..., x_{i-1}(, e_i)]
    and holds x_{i-q}..x_{i-2} besides."""
    n, correct = coeffs.n_steps, coeffs.kind == "pc"
    x_slot = [0] + [2 * i + 1 for i in range(1, n)] + [2 * n + correct]
    e_slot = [1] + [2 * i for i in range(1, n + 1)]
    steps = [(Row(False, range(0), slice(0, 0), 0, e=1, restates=True),)]
    for i in range(1, n + 1):
        b_slice = coeffs.b_slice(i)
        q = b_slice.stop - b_slice.start
        evaluated = i < n or correct
        rows = [Row(True, range(i - 1, i - 1 - q, -1), b_slice,
                    2 * n + 1 + i if correct else x_slot[i], e=e_slot[i] if evaluated else None)]
        if correct:
            rows.append(Row(True, range(i, i - 1 - q, -1), coeffs.corrector_slice(i), x_slot[i],
                            implied=True))
        steps.append(tuple(rows))
    return tuple(steps)


def _single_step_rows(coeffs: SolverCoefficients) -> tuple:
    """ss: k stage rows at log-SNR offsets from the step start (stage 1 at the
    start, stage j+1 at offset ``c``), then the update row over the k stage
    evaluations.  Slots per step: x_{i-1}, its k stage evaluations, the k-1
    stage states, then x_i."""
    n, k = coeffs.n_steps, coeffs.order
    steps = [()]
    for i in range(1, n + 1):
        base, a0, x = (i - 1) * k, coeffs.ss_a_slice(i).start, 2 * k * (i - 1)
        rows = [Row(False, range(base, base), slice(a0, a0), x, e=x + 1, restates=True)]
        for j in range(1, k):
            a_row = slice(a0 + j * (k - 1), a0 + j * k)    # stage j mixes stages l < j
            rows.append(Row(False, range(base, base + j), a_row, x + k + j, e=x + 1 + j))
        rows.append(Row(True, range(base, base + k), coeffs.ss_b_slice(i), x + 2 * k))
        steps.append(tuple(rows))
    return tuple(steps)


def _place(steps: tuple, n_values: int, n: int, c_index) -> Plan:
    """Give every combining row its window over x_{i-1} and its members and its
    coefficient entries, and make the :class:`Slots` of the layout."""
    zero, one, unit = n_values, n_values + 1, 2 * n       # ext entries; the factors' 1
    states, evals, points, src, scale, implied = [0], [], [], [], [], []
    placed = []
    for i, rows in enumerate(steps):
        x, out = states[-1], []
        for row in rows:
            if not row.restates:
                members = {x: (one, i - 1 if row.wrapper else unit)}
                for u, j in enumerate(row.m):
                    if row.implied and u == len(row.m) - 1:
                        weight = n_values + 2 + len(implied)
                        implied.append(range(row.slots.start, row.slots.stop))
                    else:
                        weight = row.slots.start + u
                    members[evals[j]] = (weight, n + i - 1 if row.wrapper else unit)
                lo, hi = min(members), max(members) + 1
                row = row._replace(lo=lo, hi=hi, at=len(src), to=len(src) + hi - lo)
                for slot in range(lo, hi):
                    w, f = members.get(slot, (zero, unit))
                    src.append(w)
                    scale.append(f)
            if row.evaluated:
                points.append(row.out)
                evals.append(row.e)
            out.append(row)
        placed.append(tuple(out))
        states.append(out[-1].out if out else 0)
    states = tuple(states[1:])

    pairs, scatter, x_pairs = [], [], []
    for i in range(len(placed) - 1, -1, -1):
        for row in reversed(placed[i]):
            if row.restates:
                continue
            first = len(pairs)
            for u, j in enumerate(row.m):
                pairs.append((row.out, evals[j], row.at + evals[j] - row.lo,
                              i if row.wrapper else n + 1))
            own = range(row.slots.start, row.slots.stop)
            scatter += [(first + u, slot, 1.0) for u, slot in enumerate(own)]
            if row.implied:
                scatter += [(len(pairs) - 1, slot, -1.0) for slot in own]
            if row.wrapper:
                x_pairs.append((row.out, states[i - 1], i))
    width = max(map(len, implied), default=0)
    scatter_pair, scatter_slot, scatter_sign = zip(*scatter)
    return Plan(tuple(placed), Slots(
        max(max(states), max(points, default=0), max(evals, default=0)) + 1,
        states, tuple(evals), tuple(points), _index(src), _index(scale),
        _index([list(r) + [zero] * (width - len(r)) for r in implied]) if implied else None,
        *map(_index, zip(*pairs)), _index(scatter_pair), _index(scatter_slot),
        _index(scatter_sign, float), *map(_index, zip(*x_pairs)), c_index))


def _coefficients(slots: Slots, values: np.ndarray, factors: np.ndarray):
    """(coefficient vectors, weights, scales) of every row of a solve, as one array
    each over the rows' windows: a coefficient is its weight (a slot of
    ``values``, an implied pc weight, 0 or 1) times its scale (R_i, -S_i or 1).
    An implied weight is 1 - (((w_0 + w_1) + ...) + w_{q-1}), as
    ``coeffs.corrector_weights`` forms it."""
    ext = [values, [0.0, 1.0]]
    if slots.implied is not None:
        w = np.append(values, 0.0)[slots.implied]
        total = w[:, 0]
        for u in range(1, w.shape[1]):
            total = total + w[:, u]
        ext.append(1.0 - total)
    weights = np.concatenate(ext)[slots.src]
    scales = factors[slots.scale]
    return weights * scales, weights, scales


def _stage_times(plan: Plan, coeffs: SolverCoefficients, schedule: NoiseSchedule,
                 table: GridTable, model, diagnostics: list) -> Plan:
    """The ss plan of this solve: each stage at lambda(t_{i-1}) + c, clipped to the
    schedule's log-SNR range, with its prepared record and clamp flag."""
    n = coeffs.n_steps
    raw_lams = table.log_snr[0][:-1, None] + np.concatenate(
        [np.zeros((n, 1)), coeffs.values[plan.slots.c_index]], axis=1)
    stage_lams = np.clip(raw_lams, *schedule.lambda_range())
    clamped = stage_lams != raw_lams
    for i, j in zip(*np.nonzero(clamped)):
        diagnostics.append({"event": "stage_clamp", "step": int(i + 1), "stage": int(j + 1),
                            "requested": float(raw_lams[i, j]), "used": float(stage_lams[i, j])})
    stage_at = [v.ravel() for v in schedule.at(schedule.time_from_lambda(stage_lams))]
    return plan._replace(preps=list(model.prepare(stage_at)), clamped=clamped.ravel())


def _evaluate(model, prediction, prep, x, step_index):
    """``(e, terms)``: the evaluation the family combines (eps, or x_hat for data
    prediction) and the terms the model keeps for its pullback.  The model
    raises FloatingPointError on a non-finite point, so x needs no check here."""
    try:
        out, terms = model.evaluate(prep, x, prediction)
    except FloatingPointError as exc:
        raise DivergenceError(f"score evaluation failed at step {step_index}: {exc}",
                              step_index=step_index) from exc
    if not np.isfinite(out).all():
        raise DivergenceError("score evaluation returned non-finite values",
                              step_index=step_index)
    return out, terms


def _buffer(n_slots: int, shape: tuple, fill=np.empty):
    """A solve's ``(n_slots, size)`` buffer and its ``(n_slots, *shape)`` view of one
    array per slot.  A batch of one value gets a zero second column: numpy sums a
    single column pairwise, not in window order."""
    size = math.prod(shape)
    if size > 1:
        Z = fill((n_slots, size))
        return Z, Z.reshape((n_slots,) + shape)
    Z = np.zeros((n_slots, 2))
    return Z, Z[:, :1].reshape((n_slots,) + shape)


def _spread(coefs: np.ndarray, size: int) -> np.ndarray:
    """Each coefficient repeated along a row of ``size``, so that a row's product
    with its window multiplies arrays of one shape, numpy's fast path."""
    spread = np.empty((coefs.size, size))
    spread[...] = coefs[:, None]
    return spread


@dataclasses.dataclass
class SolveTrace:
    """Full trajectory of one solve, with what the reverse pass needs: the buffer
    ``Z`` of every state, stage state and evaluation (``slots`` of the plan name
    them), the coefficient vectors the rows ran with (``coefs`` = ``weights`` *
    ``scales``, see :func:`_coefficients`), and the model's kept terms of each
    evaluation."""

    Z: np.ndarray
    view: np.ndarray             # Z as one array of the solve's shape per slot
    plan: Plan                   # the rows it ran, and each evaluation's record
    coefs: np.ndarray
    weights: np.ndarray
    scales: np.ndarray
    terms: list                  # the model's kept terms of each evaluation
    diagnostics: list
    kind: str

    @property
    def states(self):
        """x_0 .. x_N, views of the buffer."""
        return [self.view[s] for s in self.plan.slots.states]

    @property
    def evals(self):
        """Every evaluation in call order, views of the buffer."""
        return [self.view[s] for s in self.plan.slots.evals]

    @property
    def points(self):
        """The point each evaluation was made at, views of the buffer."""
        return [self.view[s] for s in self.plan.slots.points]

    @property
    def terminal(self):
        return self.view[self.plan.slots.states[-1]]

    @property
    def nfe_used(self) -> int:
        return len(self.terms)


def solve(coeffs: SolverCoefficients, schedule: NoiseSchedule, grid: TimeGrid,
          model, x_init: np.ndarray) -> SolveTrace:
    """Run the solver from t_0 = T down to t_N = t_min.

    x_init may be a single state (d,) or a batch (B, d); the trace keeps the
    given shape.  nfe_used counts score-model calls per sample, matching the
    per-step accounting of the solver family.  A state that is not finite
    raises DivergenceError with its step: the model rejects a state a row
    evaluates, and the loop checks every other one.
    """
    n = coeffs.n_steps
    if grid.n_steps != n:
        raise ValueError(f"grid has {grid.n_steps} steps but coefficients expect {n}")
    x = np.asarray(x_init, dtype=float)

    diagnostics: list = []
    table = GridTable.of(schedule, grid, coeffs.prediction)
    plan = table.plan(coeffs, model)
    if coeffs.kind == "ss":
        plan = _stage_times(plan, coeffs, schedule, table, model, diagnostics)
    steps, slots, preps = plan.steps, plan.slots, plan.preps
    coefs, weights, scales = _coefficients(slots, coeffs.values, table.factors)
    Z, view = _buffer(slots.n, x.shape)
    spread = _spread(coefs, Z.shape[1])
    view[0] = x
    terms = []
    # divergence surfaces as a DivergenceError below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in enumerate(steps):
            for row in rows:
                if not row.restates:
                    np.add.reduce(spread[row.at:row.to] * Z[row.lo:row.hi], axis=0,
                                  out=Z[row.out])
                if row.evaluated:
                    # a row restating x_{i-1} checks the state of step i-1 (x_0 at i = 0)
                    step = max(i - 1, 0) if row.restates else i
                    e, kept = _evaluate(model, coeffs.prediction, preps[len(terms)],
                                        view[row.out], step)
                    view[row.e] = e
                    terms.append(kept)
            if not (rows and rows[-1].evaluated or i < n and steps[i + 1][0].restates) \
                    and not np.isfinite(view[slots.states[i]]).all():
                raise DivergenceError(f"state at step {i} is not finite", step_index=i)

    return SolveTrace(Z=Z, view=view, plan=plan, coefs=coefs, weights=weights, scales=scales,
                      terms=terms, diagnostics=diagnostics, kind=coeffs.kind)

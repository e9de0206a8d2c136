"""The generalized few-step solver: multistep, single-step, and predictor-corrector.

Every family shares the exponential-integrator wrapper

    x_i = R_i x_{i-1} - S_i * increment_i

with R_i = alpha_i/alpha_{i-1}, S_i = sigma_i (e^{h_i} - 1) for noise
prediction and R_i = sigma_i/sigma_{i-1}, S_i = alpha_i (e^{-h_i} - 1) for
data prediction, h_i the per-step log-SNR gap.  Wrapper factors always use the
step times.  :func:`wrapper_factors` (and its t-partials,
:func:`wrapper_partials`, for the reverse pass) is the one place this formula
lives.  Each grid keeps a :class:`GridTable` per (schedule, prediction), so
solves and reverse passes over one grid look the schedule up once, and the
table keeps per model what ``model.prepare`` made of its score times, so the
model computes its per-time constants once; an ``ss`` solve adds one array
lookup and one ``prepare`` for its stage times, which move with its
coefficients.

One stepping core runs every family.  Each step is a short list of
:class:`Row` s over x_{i-1} and the evaluations made so far, in one of two
shapes:

* a wrapper row ``R_i x_{i-1} - S_i sum_u w_u e_u``: the ``lms``/``pc``
  predictor, the ``pc`` corrector and the ``ss`` update;
* a stage row ``x_{i-1} + sum_u w_u e_u``: the ``ss`` stages, and the
  evaluation at the initial state that opens ``lms``/``pc`` (step 0).

A row may be evaluated at a time, which appends the next evaluation, and the
last row of a step is its state.  A row is structure only: it names the
slots of ``coeffs.values`` its weights occupy (:func:`row_weights` reads
them, so both loops see the coefficients of the call), and where the time
derivative of its evaluation lands (a score time, or a stage's log-SNR
offset ``c`` and the step start).  The family builders
(:func:`_multistep_rows`, :func:`_single_step_rows`) only write rows, once
per layout, and the grid's table keeps them in a :class:`Plan` per layout and
model beside each evaluation's prepared record, the one copy of its time's
lookup; an ``ss`` plan takes its records, with its stage clamps, from the
coefficients per solve (:func:`_stage_times`).
:func:`solve` runs the rows, and :func:`fewstep.backprop.backward` runs them
transposed.

The model rejects a non-finite point with FloatingPointError, so a state
that a row evaluates is checked once, by the model: the last row of its
step, or the first row of the next step where that row restates it (stage 1
of an ``ss`` step), which then reports the state's own step.  The loop
checks the others.

The trace keeps, for the reverse pass, the plan and every evaluation with
the terms the model's ``evaluate`` kept for it and the point it was made at.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple

import numpy as np

from .coeffs import SolverCoefficients
from .errors import DivergenceError
from .grids import TimeGrid
from .schedules import NoiseSchedule


def wrapper_factors(schedule: NoiseSchedule, steps: np.ndarray, prediction: str):
    """(R, S) of the update wrapper for every step of a grid; entry i-1 is step i."""
    alpha, sigma = schedule.at(steps)[:2]
    h = np.diff(np.log(alpha) - np.log(sigma))
    if prediction == "noise":
        return alpha[1:] / alpha[:-1], sigma[1:] * np.expm1(h)
    return sigma[1:] / sigma[:-1], alpha[1:] * np.expm1(-h)


def wrapper_partials(schedule: NoiseSchedule, steps: np.ndarray, prediction: str):
    """(dR_prev, dR_next, dS_prev, dS_next): the t-partials of wrapper_factors per step."""
    a, s, da, ds = schedule.at(steps)
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
    """What solves on one grid read of the schedule and the model: the wrapper
    factors ``R``, ``S`` and, on first use, ``partials`` (of
    :func:`wrapper_partials`), ``log_snr`` (lambda and d lambda/dt at the steps),
    per model its prepared records of every score time (:meth:`prepared`), which
    hold their lookups, and, per layout and model, the :class:`Plan` a solve runs
    (:meth:`plan`)."""

    def __init__(self, schedule: NoiseSchedule, grid: TimeGrid, prediction: str):
        self.schedule, self.prediction = schedule, prediction
        self.steps, self.score_times = grid.steps, grid.score_times
        self.R, self.S = (f.tolist() for f in wrapper_factors(schedule, grid.steps, prediction))
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
                n_evals = sum(row.evaluated for rows in plan.steps for row in rows)
                plan = plan._replace(preps=list(self.prepared(model))[:n_evals])
            self.plans[layout + (model,)] = plan
        return plan

    @functools.cached_property
    def partials(self):
        return [f.tolist() for f in wrapper_partials(self.schedule, self.steps, self.prediction)]

    @functools.cached_property
    def log_snr(self):
        a, s, da, ds = self.schedule.at(self.steps)
        return np.log(a) - np.log(s), (da / a - ds / s).tolist()


class Row(NamedTuple):
    """One row of a step: ``R_i x_{i-1} - S_i sum_u w[u] e_{m[u]}`` (``wrapper``)
    or ``x_{i-1} + sum_u w[u] e_{m[u]}``, with e the evaluations in call order.

    A row is structure only: its weights ``w`` are ``coeffs.values[slots]``, read
    by :func:`row_weights`; with ``implied`` the last weight is 1 - sum(the
    others) and owns no slot.  An ``evaluated`` row is evaluated at its result,
    which appends the next evaluation (its prepared record is the
    :class:`Plan`'s).  The time derivative of that evaluation goes to score
    time ``tc``, or, for a stage at log-SNR lambda(t_{i-1}) + c, through d lambda
    to ``lam = (i-1, slot of c or None)``, unless the stage was clamped.  A row
    that ``restates`` is x_{i-1} itself, evaluated (the opening evaluation of
    lms/pc, the first stage of an ss step), so the model's check of its point is
    the check of the state of step i-1.
    """

    wrapper: bool
    m: range
    slots: slice
    implied: bool = False
    evaluated: bool = False
    tc: int | None = None
    lam: tuple | None = None
    restates: bool = False


class Plan(NamedTuple):
    """What a solve runs: ``steps``, the rows of steps 0..N, and per evaluation in
    call order the model's prepared record of its time (``preps``), which holds
    the time's schedule lookup, and, for ss, whether its stage time was ``clamped``.

    A grid table keeps one per layout and model, over the rows every table
    shares (:func:`_layout_plan`).  An lms/pc plan is complete; an ss plan
    keeps its rows and ``c_index``, the (N, k-1) positions of the stage offsets
    c in ``coeffs.values``, and :func:`_stage_times` fills in the rest per
    solve, since stage times move with the coefficients.
    """

    steps: tuple
    preps: list | None = None
    clamped: list | None = None
    c_index: np.ndarray | None = None


def row_weights(values: list, row: Row) -> list:
    """The weights of ``row``, from ``values = coeffs.values.tolist()``: its slots,
    then for ``implied`` 1 - sum(them), summed in order, which is how numpy sums
    fewer than 8 terms in ``coeffs.corrector_weights``."""
    w = values[row.slots]
    if row.implied:
        w.append(1.0 - sum(w))
    return w


@functools.lru_cache(maxsize=64)
def _layout_plan(kind: str, order: int, n_steps: int, tied: bool) -> Plan:
    """The rows of a layout, which depend on nothing else, so every grid table
    shares one copy; immutable, like the ss ``c_index``."""
    coeffs = SolverCoefficients(kind, order, n_steps, tied=tied)
    if kind == "ss":
        return _single_step_rows(coeffs)
    return Plan(_multistep_rows(coeffs))


def _multistep_rows(coeffs: SolverCoefficients) -> tuple:
    """lms/pc: evaluation m sits at score time m.  Step i predicts from the q
    most recent evaluations and evaluates the prediction (except at the last
    step of lms); pc then corrects over [new, recent, ..., oldest]."""
    n, correct = coeffs.n_steps, coeffs.kind == "pc"
    steps = [(Row(False, range(0), slice(0, 0), evaluated=True, tc=0, restates=True),)]
    for i in range(1, n + 1):
        b_slice = coeffs.b_slice(i)
        q = b_slice.stop - b_slice.start
        evaluated = i < n or correct
        rows = [Row(True, range(i - 1, i - 1 - q, -1), b_slice, evaluated=evaluated,
                    tc=i if evaluated else None)]
        if correct:
            rows.append(Row(True, range(i, i - 1 - q, -1), coeffs.corrector_slice(i),
                            implied=True))
        steps.append(tuple(rows))
    return tuple(steps)


def _single_step_rows(coeffs: SolverCoefficients) -> Plan:
    """ss: k stage rows at log-SNR offsets from the step start (stage 1 at the
    start, stage j+1 at offset ``c``), then the update row over the k stage
    evaluations."""
    n, k = coeffs.n_steps, coeffs.order
    steps = [()]
    for i in range(1, n + 1):
        base, a0, c0 = (i - 1) * k, coeffs.ss_a_slice(i).start, coeffs.ss_c_slice(i).start - 1
        rows = []
        for j in range(k):
            a_row = slice(a0 + j * (k - 1), a0 + j * k)    # stage j mixes stages l < j
            rows.append(Row(False, range(base, base + j), a_row, evaluated=True,
                            lam=(i - 1, c0 + j if j else None), restates=not j))
        rows.append(Row(True, range(base, base + k), coeffs.ss_b_slice(i)))
        steps.append(tuple(rows))
    c_slices = [coeffs.ss_c_slice(i) for i in range(1, n + 1)]
    c_index = np.array([range(c.start, c.stop) for c in c_slices], dtype=np.intp).reshape(n, k - 1)
    c_index.flags.writeable = False
    return Plan(tuple(steps), c_index=c_index)


def _stage_times(plan: Plan, coeffs: SolverCoefficients, schedule: NoiseSchedule,
                 table: GridTable, model, diagnostics: list) -> Plan:
    """The ss plan of this solve: each stage at lambda(t_{i-1}) + c, clipped to the
    schedule's log-SNR range, with its prepared record and clamp flag."""
    n = coeffs.n_steps
    raw_lams = table.log_snr[0][:-1, None] + np.concatenate(
        [np.zeros((n, 1)), coeffs.values[plan.c_index]], axis=1)
    stage_lams = np.clip(raw_lams, *schedule.lambda_range())
    clamped = stage_lams != raw_lams
    for i, j in zip(*np.nonzero(clamped)):
        diagnostics.append({"event": "stage_clamp", "step": int(i + 1), "stage": int(j + 1),
                            "requested": float(raw_lams[i, j]), "used": float(stage_lams[i, j])})
    stage_at = [v.ravel() for v in schedule.at(schedule.time_from_lambda(stage_lams))]
    return plan._replace(preps=list(model.prepare(stage_at)), clamped=clamped.ravel().tolist())


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


@dataclasses.dataclass
class SolveTrace:
    """Full trajectory of one solve, with what the reverse pass needs."""

    states: list                 # x_0 .. x_N
    plan: Plan                   # the rows it ran, and each evaluation's record
    evals: list                  # every evaluation, in call order
    terms: list                  # the model's kept terms of each evaluation
    points: list                 # the point each evaluation was made at
    diagnostics: list
    kind: str

    @property
    def terminal(self):
        return self.states[-1]

    @property
    def nfe_used(self) -> int:
        return len(self.evals)


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
    R, S, preps, values = table.R, table.S, plan.preps, coeffs.values.tolist()
    steps = plan.steps
    states, evals, terms, points = [], [], [], []
    # divergence surfaces as a DivergenceError below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in enumerate(steps):
            x_prev = x
            for row in rows:
                w, m = row_weights(values, row), row.m
                if row.wrapper:
                    acc = w[0] * evals[m[0]]
                    for u in range(1, len(m)):
                        acc += w[u] * evals[m[u]]
                    x = R[i - 1] * x_prev - S[i - 1] * acc
                else:
                    x = x_prev
                    for u, j in enumerate(m):
                        x = x + w[u] * evals[j]
                if row.evaluated:
                    # a row restating x_{i-1} checks the state of step i-1 (x_0 at i = 0)
                    step = max(i - 1, 0) if row.restates else i
                    e, kept = _evaluate(model, coeffs.prediction, preps[len(evals)], x, step)
                    evals.append(e)
                    terms.append(kept)
                    points.append(x)
            if not (rows and rows[-1].evaluated or i < n and steps[i + 1][0].restates) \
                    and not np.isfinite(x).all():
                raise DivergenceError(f"state at step {i} is not finite", step_index=i)
            states.append(x)

    return SolveTrace(states=states, plan=plan, evals=evals, terms=terms, points=points,
                      diagnostics=diagnostics, kind=coeffs.kind)

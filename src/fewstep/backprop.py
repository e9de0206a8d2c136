"""Hand-rolled reverse-mode differentiation through a full solve.

Given the cotangent of a terminal-state loss, walk the solver recursion
backwards and return cotangents for the coefficient vector, the time
parameters (through the schedule's analytic derivatives and the grid
parametrization), and the initial state.

The trace holds every score evaluation, the point it was made at and the
terms the model kept for it (for the mixture score, the responsibilities, one
``(J, B)`` array per evaluation), and its plan holds the model's prepared
record ``prep`` of each evaluation's time, whose first four entries are the
time's schedule lookup (alpha, sigma, alpha', sigma'), so nothing is
evaluated again.

The reverse pass runs in two sweeps.  The sequential sweep walks the steps
the solve ran, and each step's rows (see :mod:`~fewstep.solvers`), in
reverse, one loop for every family, and carries only what the recurrence
needs: the cotangents of the states and the evaluations.  A row's cotangent
is the state's cotangent (the last row) plus, if it was evaluated, the
x-part of its evaluation's pullback, ``model.pullback(prep, x, terms, cot)``;
it passes that on to x_{i-1} and to the evaluations it combined, with the
weights :func:`~fewstep.solvers.row_weights` reads from ``coeffs.values``
as the forward loop does.  For data prediction the pullback of eps is wrapped
in the chain rule of x_hat = (x - sigma eps) / alpha, for every model alike.

The batched pass then forms every scalar contraction over all M evaluations
of the trace at once, in two parts.  ``backward`` forms the coefficient
part: the dots of each row's cotangent with its evaluations, which its
weight slots take.  The time part forms the time derivatives, through the
model's one ``time_derivatives`` over what the pullbacks returned (with the
data prediction's chain-rule dots), the dots of each wrapper row's cotangent
with x_{i-1} and of its weights with its evaluation dots (R_i, S_i), the
step and score times, and their pullback to (xi, xi_c).  It runs when a time
block of the result is first read (:class:`AdjointResult`), so a step on
the coefficients alone never pays for it.  An ``ss`` stage's offset ``c`` is
a coefficient that its time derivative feeds, so for ``ss`` the time
derivatives are contracted in ``backward`` and the time part reuses them.
Each dot is the same pairwise sum over the same contiguous products as a
dot taken alone, and the scalars are accumulated into the weight slots, the
``c`` slots and the step and score times in the order of the sweep, so the
result is the bits of contracting one row at a time.  The wrapper factors,
their t-partials and d lambda/dt at the steps come from the grid's
:class:`~fewstep.solvers.GridTable`, so a sweep over a grid whose table
exists asks the schedule nothing, and the model prepares nothing.

Clamped quantities (stage-time clamps, score-time offset clips) contribute
zero gradient when saturated.
"""

from __future__ import annotations

import functools

import numpy as np

from .coeffs import SolverCoefficients
from .grids import LearnableTimeParams, TimeGrid, grid_gradient_vjp, materialize
from .schedules import NoiseSchedule
from .solvers import GridTable, SolveTrace, row_weights


def _time_block(index):
    return property(lambda self: self._time[index])


class AdjointResult:
    """Gradient blocks, index-compatible with their primals.

    :func:`backward` forms ``grad_coeffs`` and ``grad_x0``.  The time blocks,
    ``grad_steps``, ``grad_score_times`` and, when ``backward`` was given the
    time parameters, ``grad_xi`` and ``grad_xi_c`` (else None), are contracted
    together when the first of them is read, and kept.  They are contracted
    from the trace and from what ``backward`` captured (a copy of the
    coefficients, the dots, the pullback products and a copy of the time
    parameters), so a step taken on the coefficients or the time parameters in
    between does not move them.
    """

    grad_steps, grad_score_times, grad_xi, grad_xi_c = map(_time_block, range(4))

    def __init__(self, grad_coeffs: np.ndarray, grad_x0: np.ndarray, contract_time):
        self.grad_coeffs, self.grad_x0 = grad_coeffs, grad_x0
        self._contract_time = contract_time

    @functools.cached_property
    def _time(self):
        blocks, self._contract_time = self._contract_time(), None     # drop the captures
        return blocks


def loss_and_cotangent(outputs, targets):
    """Mean squared error over every entry, and its gradient in ``outputs``."""
    resid = outputs - targets
    return float(np.mean(resid * resid)), 2.0 * resid / resid.size


def _flat(arrays) -> np.ndarray:
    """Arrays of one shape as the rows of one (len(arrays), size) array."""
    return np.concatenate(arrays).reshape(len(arrays), -1)


def _row_dots(a, b) -> np.ndarray:
    """The dot of each row pair of two (P, size) arrays, each the pairwise sum over
    its contiguous products, so row k is ``float((a_k * b_k).sum())``."""
    return (a * b).sum(axis=1)


def backward(
    trace: SolveTrace,
    coeffs: SolverCoefficients,
    schedule: NoiseSchedule,
    model,
    loss_cotangent: np.ndarray,
    grid: TimeGrid,
    params: LearnableTimeParams | None = None,
) -> AdjointResult:
    """Exact reverse-mode derivative of x0 -> solve -> loss.

    Pass the coefficients and the grid the trace was produced with: the rows'
    weights are read from ``coeffs.values``.  Pass the learnable parameters
    the grid was materialized from to get cotangents on (xi, xi_c) too.  The
    time blocks are contracted when first read (see :class:`AdjointResult`).
    """
    n = coeffs.n_steps
    if grid.n_steps != n or trace.kind != coeffs.kind:
        raise ValueError("trace, coefficients, and grid disagree")
    if len(trace.states) != n + 1:
        raise ValueError("trace does not match the coefficient step count")

    xbar = np.asarray(loss_cotangent, dtype=float)
    if xbar.shape != np.asarray(trace.states[-1]).shape:
        raise ValueError("loss cotangent shape does not match the terminal state")

    table = GridTable.of(schedule, grid, coeffs.prediction)
    evals, R, S = trace.evals, table.R, table.S
    plan, values = trace.plan, coeffs.values.tolist()
    preps, points, terms = plan.preps, trace.points, trace.terms
    data = coeffs.prediction == "data"
    m = n_evals = len(evals)
    ebars = np.zeros((n_evals,) + xbar.shape)
    ebar, products = list(ebars), [None] * n_evals
    # each row's cotangent in sweep order, the pairs (row, evaluation) whose dots
    # its weight slots take, and per wrapper row the pair (row, step i-1) whose
    # dot with x_{i-1} R_i takes
    ybars, pair_rows, pair_evals, wrapper_rows, wrapper_states = [], [], [], [], []

    # sequential sweep: the cotangents of the states and the evaluations
    for i in range(len(plan.steps) - 1, -1, -1):
        ybar, xprev_bar = xbar, None
        for row in reversed(plan.steps[i]):
            if row.evaluated:
                m -= 1
                cot = ebar[m]
                if data:    # e = x_hat = (x - sigma eps) / alpha, linear in eps
                    a, s = preps[m][:2]
                    zbar, products[m] = model.pullback(preps[m], points[m], terms[m],
                                                       (-s / a) * cot)
                    zbar = zbar + cot / a
                else:
                    zbar, products[m] = model.pullback(preps[m], points[m], terms[m], cot)
                ybar = zbar if ybar is None else ybar + zbar
            w = row_weights(values, row)
            pair_rows += [len(ybars)] * len(row.m)
            pair_evals += row.m
            ybars.append(ybar)
            if row.wrapper:
                wrapper_rows.append(len(ybars) - 1)
                wrapper_states.append(i - 1)
                scale, share = -S[i - 1], R[i - 1] * ybar
            else:
                scale, share = 1.0, ybar
            for u, e in enumerate(row.m):
                ebar[e] += (scale * w[u]) * ybar
            xprev_bar = share if xprev_bar is None else xprev_bar + share
            ybar = None
        if xprev_bar is not None:
            xbar = xprev_bar

    # batched pass: the dots of each row's cotangent with its evaluations
    ybars, flat_evals = _flat(ybars), _flat(evals)
    dots = _row_dots(ybars[pair_rows], flat_evals[pair_evals]).tolist()

    def time_dots():
        """cot_m . d e_m/dt of every evaluation: the model's time derivatives, with
        the data prediction's chain-rule dots (eps is read back from the kept x_hat)."""
        tdots = model.time_derivatives(preps, points, terms, products)
        if data:
            a, s, da, ds = np.array([prep[:4] for prep in preps]).T
            eps = (_flat(points) - a[:, None] * flat_evals) / s[:, None]
            cots = ebars.reshape(n_evals, -1)
            tdots = tdots - (ds * _row_dots(cots, eps) + da * _row_dots(cots, flat_evals)) / a
        return tdots.tolist()

    # the coefficient accumulations, in the order of the sweep; an ss stage's
    # offset c is a coefficient, so ss contracts its time derivatives here, each
    # unclamped stage's taken through d lambda
    stage_dots = time_dots() if coeffs.kind == "ss" else None
    grad_values, m, p = [0.0] * len(values), n_evals, 0
    for i in range(len(plan.steps) - 1, -1, -1):
        for row in reversed(plan.steps[i]):
            if row.evaluated:
                m -= 1
                if row.lam is not None and not plan.clamped[m]:
                    # the stage time moves with lambda
                    a, s, da, ds = preps[m][:4]
                    stage_dots[m] *= 1.0 / (da / a - ds / s)
                    if row.lam[1] is not None:
                        grad_values[row.lam[1]] += stage_dots[m]
            row_dots = dots[p:p + len(row.m)]
            p += len(row.m)
            scale = -S[i - 1] if row.wrapper else 1.0
            g = [scale * d for d in row_dots]
            if row.implied:
                last = g.pop()
                g = [u - last for u in g]
            for slot, u in zip(range(row.slots.start, row.slots.stop), g):
                grad_values[slot] += u

    time_params = None if params is None else (params.xi.copy(), params.xi_c.copy(),
                                               params.clip_fraction)

    def contract_time():
        """(grad_steps, grad_score_times, grad_xi, grad_xi_c), accumulated in the
        order of the sweep."""
        tdots = stage_dots if stage_dots is not None else time_dots()
        rdots = _row_dots(ybars[wrapper_rows], _flat(trace.states)[wrapper_states]).tolist()
        tbar, tcbar = [0.0] * (n + 1), [0.0] * (n + 1)
        dR_p, dR_n, dS_p, dS_n = table.partials
        m, p, r = n_evals, 0, 0
        for i in range(len(plan.steps) - 1, -1, -1):
            rbar = sbar = 0.0
            for row in reversed(plan.steps[i]):
                if row.evaluated:
                    m -= 1
                    if row.tc is not None:
                        tcbar[row.tc] += tdots[m]
                    if row.lam is not None and not plan.clamped[m]:
                        step = row.lam[0]
                        tbar[step] += tdots[m] * table.log_snr[1][step]
                row_dots = dots[p:p + len(row.m)]
                p += len(row.m)
                if row.wrapper:
                    rbar += rdots[r]
                    r += 1
                    sbar -= float(np.dot(row_weights(values, row), row_dots))
            if i:
                tbar[i] += rbar * dR_n[i - 1] + sbar * dS_n[i - 1]
                tbar[i - 1] += rbar * dR_p[i - 1] + sbar * dS_p[i - 1]
        tbar, tcbar = np.array(tbar), np.array(tcbar)
        if time_params is None:
            return tbar, tcbar, None, None
        return (tbar, tcbar, *grid_gradient_vjp(LearnableTimeParams(*time_params), schedule,
                                                tbar, tcbar))

    return AdjointResult(np.array(grad_values), xbar, contract_time)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def check_gradients(
    coeffs: SolverCoefficients,
    schedule: NoiseSchedule,
    model,
    x0: np.ndarray,
    target: np.ndarray,
    grid: TimeGrid | None = None,
    params: LearnableTimeParams | None = None,
    fd_step: float = 1e-5,
):
    """Compare backward() against central finite differences on a squared loss.

    Returns a report dict with the relative deviation per gradient block
    (2-norm of the difference over the 2-norm of the reference); deviations
    above a caller-chosen tolerance are a failed check, not an exception.
    """
    from .solvers import solve

    def run(x):
        g = materialize(params, schedule) if params is not None else grid
        trace = solve(coeffs, schedule, g, model, x)
        return (trace, *loss_and_cotangent(trace.terminal, target), g)

    # the reverse pass steps on the grid the solve used
    trace, loss, cot, g = run(x0)
    res = backward(trace, coeffs, schedule, model, cot, grid=g, params=params)

    def fd_on(vector, x=x0):
        """Central differences of the loss in each entry of ``vector``, perturbed in
        place, with the solve started at ``x``."""
        grad = np.zeros_like(vector)
        for idx in range(vector.size):
            for sign in (+1.0, -1.0):
                vector.flat[idx] += sign * fd_step
                grad.flat[idx] += sign * run(x)[1]
                vector.flat[idx] -= sign * fd_step
        return grad / (2.0 * fd_step)

    def rel(err, ref):
        return float(np.linalg.norm(err - ref) / max(np.linalg.norm(ref), 1e-12))

    x0_work = np.array(x0, dtype=float)
    blocks = {"coefficients": rel(res.grad_coeffs, fd_on(coeffs.values)),
              "initial_state": rel(res.grad_x0, fd_on(x0_work, x0_work))}
    if params is not None:
        blocks["xi"] = rel(res.grad_xi, fd_on(params.xi))
        blocks["xi_c"] = rel(res.grad_xi_c, fd_on(params.xi_c))
    return {"loss": loss, "blocks": blocks, "max_relative_deviation": max(blocks.values())}

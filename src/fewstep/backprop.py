"""Hand-rolled reverse-mode differentiation through a full solve.

Given the cotangent of a terminal-state loss, walk the solver recursion
backwards and return cotangents for the coefficient vector, the time
parameters (through the schedule's analytic derivatives and the grid
parametrization), and the initial state.

The trace holds the solve's buffer ``Z`` of every state, stage state and
evaluation, the coefficient vectors its rows ran with, and the terms the
model kept for each evaluation (for the mixture score, the responsibilities,
one ``(J, B)`` array per evaluation), and its plan holds the model's prepared
record ``prep`` of each evaluation's time, whose first four entries are the
time's schedule lookup (alpha, sigma, alpha', sigma'), so nothing is
evaluated again.

The reverse pass runs in two sweeps.  The sequential sweep walks the steps
the solve ran, and each step's rows (see :mod:`~fewstep.solvers`), in
reverse, one loop for every family, and carries only what the recurrence
needs: the cotangents of the states and the evaluations, in a buffer
``Zbar`` with the slots of ``Z``.  An evaluated row first adds the x-part of
its evaluation's pullback, ``model.pullback(prep, x, terms, cot)``, into the
slot of the point it was made at, which completes the row's cotangent
``Zbar[out]``; a row then hands it to its window with its coefficient vector,
``Zbar[lo:hi] += c[:, None] * Zbar[out]``, which gives x_{i-1} and the
evaluations it combined their shares (and the other states of the window a
zero).  For data prediction the pullback of eps is wrapped in the chain rule
of x_hat = (x - sigma eps) / alpha, for every model alike.

The batched pass then forms every scalar contraction over all M evaluations
of the trace at once, in two parts.  ``backward`` forms the coefficient
part: the dot of each row's cotangent with each evaluation it combined,
taken from ``Z`` and ``Zbar`` by the layout's index arrays, which the row's
weight slots take, times -S_i for a wrapper row; the implied pc weight's dot
is taken off each of its row's slots.  The time part forms the time
derivatives, through the model's one ``time_derivatives`` over what the
pullbacks returned (with the data prediction's chain-rule dots), the dots of
each wrapper row's cotangent with x_{i-1} and of its weights with its
evaluation dots (R_i, S_i), the step and score times, and their pullback to
(xi, xi_c).  It runs when a time block of the result is first read
(:class:`AdjointResult`), so a step on the coefficients alone never pays for
it.  An ``ss`` stage's offset ``c`` is a coefficient that its time
derivative feeds, so for ``ss`` the time derivatives are contracted in
``backward`` and the time part reuses them.  Each dot is the same pairwise
sum over the same contiguous products as a dot taken alone, and the scalars
are accumulated into the weight slots, the ``c`` slots and the step and
score times in the order of the sweep.  The wrapper factors, their
t-partials and d lambda/dt at the steps come from the grid's
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
from .solvers import GridTable, SolveTrace, _buffer, _spread


def _time_block(index):
    return property(lambda self: self._time[index])


class AdjointResult:
    """Gradient blocks, index-compatible with their primals.

    :func:`backward` forms ``grad_coeffs`` and ``grad_x0``.  The time blocks,
    ``grad_steps``, ``grad_score_times`` and, when ``backward`` was given the
    time parameters, ``grad_xi`` and ``grad_xi_c`` (else None), are contracted
    together when the first of them is read, and kept.  They are contracted
    from the trace (whose coefficient vectors are the solve's own) and from
    what ``backward`` captured (the cotangent buffer, the dots, the pullback
    products and a copy of the time parameters), so a step taken on the
    coefficients or the time parameters in between does not move them.
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

    Pass the coefficients and the grid the trace was produced with; the rows run
    with the coefficient vectors the trace kept.  Pass the learnable parameters
    the grid was materialized from to get cotangents on (xi, xi_c) too.  The
    time blocks are contracted when first read (see :class:`AdjointResult`).
    """
    n = coeffs.n_steps
    if grid.n_steps != n or trace.kind != coeffs.kind:
        raise ValueError("trace, coefficients, and grid disagree")
    plan = trace.plan
    if len(plan.slots.states) != n + 1:
        raise ValueError("trace does not match the coefficient step count")

    xbar = np.asarray(loss_cotangent, dtype=float)
    if xbar.shape != trace.terminal.shape:
        raise ValueError("loss cotangent shape does not match the terminal state")

    table = GridTable.of(schedule, grid, coeffs.prediction)
    slots, preps, terms, Z, view = plan.slots, plan.preps, trace.terms, trace.Z, trace.view
    data = coeffs.prediction == "data"
    m = n_evals = len(terms)
    Zbar, vbar = _buffer(slots.n, xbar.shape, np.zeros)
    vbar[slots.states[-1]] = xbar
    spread, products = _spread(trace.coefs, Z.shape[1]), [None] * n_evals

    # sequential sweep: each row adds its evaluation's pullback into its point
    # slot, then hands its cotangent to its window
    for rows in reversed(plan.steps):
        for row in reversed(rows):
            if row.evaluated:
                m -= 1
                cot = vbar[row.e]
                if data:    # e = x_hat = (x - sigma eps) / alpha, linear in eps
                    a, s = preps[m][:2]
                    zbar, products[m] = model.pullback(preps[m], view[row.out], terms[m],
                                                       (-s / a) * cot)
                    zbar = zbar + cot / a
                else:
                    zbar, products[m] = model.pullback(preps[m], view[row.out], terms[m], cot)
                vbar[row.out] += zbar
            if not row.restates:
                Zbar[row.lo:row.hi] += spread[row.at:row.to] * Zbar[row.out]

    # batched pass: the dot of each row's cotangent with each evaluation it combined
    dots = _row_dots(Zbar[slots.pair_out], Z[slots.pair_in])

    def lookups():
        return np.array([prep[:4] for prep in preps]).T

    def time_dots():
        """cot_m . d e_m/dt of every evaluation: the model's time derivatives, with
        the data prediction's chain-rule dots (eps is read back from the kept x_hat)."""
        tdots = model.time_derivatives(preps, trace.points, terms, products)
        if data:
            a, s, da, ds = lookups()
            evals, cots = Z[list(slots.evals)], Zbar[list(slots.evals)]
            eps = (Z[list(slots.points)] - a[:, None] * evals) / s[:, None]
            tdots = tdots - (ds * _row_dots(cots, eps) + da * _row_dots(cots, evals)) / a
        return tdots

    # the coefficient gradient, accumulated in the order of the sweep
    g = trace.scales[slots.pair_pos] * dots
    grad_values = np.bincount(slots.scatter_slot, g[slots.scatter_pair] * slots.scatter_sign,
                              minlength=coeffs.values.size)
    stage_dots = None
    if coeffs.kind == "ss":
        # a stage's offset c is a coefficient: its time derivative, taken through
        # d lambda unless the stage was clamped
        a, s, da, ds = lookups()
        stage_dots = time_dots() * (1.0 / (da / a - ds / s))
        stage_dots[plan.clamped] = 0.0
        stage_dots = stage_dots.reshape(n, -1)
        grad_values[slots.c_index] = stage_dots[:, 1:]

    time_params = None if params is None else (params.xi.copy(), params.xi_c.copy(),
                                               params.clip_fraction)

    def contract_time():
        """(grad_steps, grad_score_times, grad_xi, grad_xi_c), accumulated in the
        order of the sweep."""
        tbar, tcbar = np.zeros(n + 1), np.zeros(n + 1)
        if stage_dots is None:      # evaluation m sits at score time m
            tcbar[:n_evals] = time_dots()
        else:                       # each stage's time moves with the step start
            terms_in_sweep = stage_dots * table.log_snr[1][:-1, None]
            tbar[:-1] = terms_in_sweep[:, -1]
            for j in range(terms_in_sweep.shape[1] - 2, -1, -1):
                tbar[:-1] += terms_in_sweep[:, j]
        rbar = np.bincount(slots.x_step, _row_dots(Zbar[slots.x_out], Z[slots.x_in]),
                           minlength=n + 1)[1:]
        sbar = -np.bincount(slots.pair_step, trace.weights[slots.pair_pos] * dots,
                            minlength=n + 2)[1:n + 1]
        dR_p, dR_n, dS_p, dS_n = table.partials
        tbar[:-1] += rbar * dR_p + sbar * dS_p
        tbar[1:] += rbar * dR_n + sbar * dS_n
        if time_params is None:
            return tbar, tcbar, None, None
        return (tbar, tcbar, *grid_gradient_vjp(LearnableTimeParams(*time_params), schedule,
                                                tbar, tcbar))

    return AdjointResult(grad_values, vbar[slots.states[0]].copy(), contract_time)


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

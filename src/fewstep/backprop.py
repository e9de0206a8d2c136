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
of the trace at once: the time derivatives, through the model's one
``time_derivatives`` over what the pullbacks returned (with the data
prediction's chain-rule dots), and the dots of each row's cotangent with its
evaluations (its weight slots) and, for wrapper rows, with x_{i-1} (R_i, S_i).
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

import dataclasses

import numpy as np

from .coeffs import SolverCoefficients
from .grids import LearnableTimeParams, TimeGrid, grid_gradient_vjp, materialize
from .schedules import NoiseSchedule
from .solvers import GridTable, SolveTrace, row_weights


@dataclasses.dataclass
class AdjointResult:
    """Gradient blocks, index-compatible with their primals."""

    grad_coeffs: np.ndarray
    grad_x0: np.ndarray
    grad_steps: np.ndarray
    grad_score_times: np.ndarray
    grad_xi: np.ndarray | None = None
    grad_xi_c: np.ndarray | None = None


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
    the grid was materialized from to get cotangents on (xi, xi_c) too.
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
    # each row's cotangent and weights in sweep order, and the pairs (row, array)
    # whose dots its weight slots and R, S take: its evaluations, then x_{i-1}
    # for a wrapper row, as indices into evals + states
    ybars, weights, pair_rows, pair_others = [], [], [], []

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
            pair_rows += [len(ybars)] * (len(row.m) + row.wrapper)
            pair_others += row.m
            ybars.append(ybar)
            weights.append(w)
            if row.wrapper:
                pair_others.append(n_evals + i - 1)
                scale, share = -S[i - 1], R[i - 1] * ybar
            else:
                scale, share = 1.0, ybar
            for u, e in enumerate(row.m):
                ebar[e] += (scale * w[u]) * ybar
            xprev_bar = share if xprev_bar is None else xprev_bar + share
            ybar = None
        if xprev_bar is not None:
            xbar = xprev_bar

    # batched pass: every scalar contraction over the trace
    tdots = model.time_derivatives(preps, points, terms, products)
    if data:        # eps is read back from the kept x_hat
        a, s, da, ds = np.array([prep[:4] for prep in preps]).T
        e = _flat(evals)
        eps = (_flat(points) - a[:, None] * e) / s[:, None]
        cots = ebars.reshape(n_evals, -1)
        tdots = tdots - (ds * _row_dots(cots, eps) + da * _row_dots(cots, e)) / a
    dots = _row_dots(_flat(ybars)[pair_rows], _flat(evals + trace.states)[pair_others])

    # the scalar accumulations, in the order of the sweep
    grad_values, tbar, tcbar = [0.0] * len(values), [0.0] * (n + 1), [0.0] * (n + 1)
    dR_p, dR_n, dS_p, dS_n = table.partials
    tdots, dots, weights = tdots.tolist(), dots.tolist(), iter(weights)
    m, p = n_evals, 0
    for i in range(len(plan.steps) - 1, -1, -1):
        rbar = sbar = 0.0
        for row in reversed(plan.steps[i]):
            w = next(weights)
            if row.evaluated:
                m -= 1
                tdot = tdots[m]
                if row.tc is not None:
                    tcbar[row.tc] += tdot
                if row.lam is not None and not plan.clamped[m]:
                    # the stage time moves with lambda
                    a, s, da, ds = preps[m][:4]
                    step, c = row.lam
                    tdot *= 1.0 / (da / a - ds / s)
                    if c is not None:
                        grad_values[c] += tdot
                    tbar[step] += tdot * table.log_snr[1][step]
            row_dots = dots[p:p + len(row.m)]
            p += len(row.m)
            if row.wrapper:
                rbar += dots[p]
                p += 1
                sbar -= float(np.dot(w, row_dots))
                scale = -S[i - 1]
            else:
                scale = 1.0
            g = [scale * d for d in row_dots]
            if row.implied:
                last = g.pop()
                g = [u - last for u in g]
            for slot, u in zip(range(row.slots.start, row.slots.stop), g):
                grad_values[slot] += u
        if i:
            tbar[i] += rbar * dR_n[i - 1] + sbar * dS_n[i - 1]
            tbar[i - 1] += rbar * dR_p[i - 1] + sbar * dS_p[i - 1]

    tbar, tcbar = np.array(tbar), np.array(tcbar)
    result = AdjointResult(grad_coeffs=np.array(grad_values), grad_x0=xbar, grad_steps=tbar,
                           grad_score_times=tcbar)
    if params is not None:
        result.grad_xi, result.grad_xi_c = grid_gradient_vjp(params, schedule, tbar, tcbar)
    return result


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

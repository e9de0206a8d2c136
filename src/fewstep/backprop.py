"""Hand-rolled reverse-mode differentiation through a full solve.

Given the cotangent of a terminal-state loss, walk the solver recursion
backwards and return cotangents for the coefficient vector, the time
parameters (through the schedule's analytic derivatives and the grid
parametrization), and the initial state.

The trace holds every score evaluation, the point it was made at and the
terms the model kept for it (for the mixture score, two ``(J, B)`` arrays per
evaluation), and its plan holds each evaluation's schedule lookup ``at`` =
(alpha, sigma, alpha', sigma') and the model's prepared constants ``prep`` of
its time, so nothing is evaluated again.  Each evaluation is released once,
through the model's ``pullback(prep, x, terms, cot)``, which returns the vjp
of eps and its time derivative contracted with the cotangent; for data
prediction, ``_release`` wraps it in the chain rule of x_hat = (x - sigma eps)
/ alpha, with eps read back from the kept x_hat, for every model alike.

One transposed loop serves every family: it walks the steps the solve ran,
and each step's rows (see :mod:`~fewstep.solvers`) in reverse.  A row's
cotangent is the state's cotangent (the last row) plus, if it was evaluated,
the release of its evaluation; it passes that on to x_{i-1}, to the
evaluations it combined, to the weight slots it names and, for wrapper rows,
to R_i and S_i.  The weights are read from ``coeffs.values`` by the same
:func:`~fewstep.solvers.row_weights` the forward loop uses.  The wrapper
factors, their t-partials and d lambda/dt at the steps come from the grid's
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
    loss_value: float = 0.0


def _dot(a, b) -> float:
    return float((a * b).sum())


def _release(model, prediction, at, prep, x, e, terms, cot):
    """(cotangent on x, cot . d(evaluation)/dt) of the evaluation e made at x, at the
    time of lookup ``at`` and prepared record ``prep``."""
    if prediction == "noise":
        return model.pullback(prep, x, terms, cot)
    # e = x_hat = (x - sigma eps) / alpha, linear in eps
    a, s, da, ds = at
    xbar, tdot = model.pullback(prep, x, terms, (-s / a) * cot)
    eps = (x - a * e) / s
    return xbar + cot / a, tdot - (ds * _dot(cot, eps) + da * _dot(cot, e)) / a


def backward(
    trace: SolveTrace,
    coeffs: SolverCoefficients,
    schedule: NoiseSchedule,
    model,
    loss_cotangent: np.ndarray,
    grid: TimeGrid | None = None,
    params: LearnableTimeParams | None = None,
    loss_value: float = 0.0,
) -> AdjointResult:
    """Exact reverse-mode derivative of x0 -> solve -> loss.

    Pass the coefficients and the grid the trace was produced with: the rows'
    weights are read from ``coeffs.values``.  Pass the learnable parameters
    it was materialized from to get cotangents on (xi, xi_c) too: the grid
    must then be ``materialize(params, schedule)``, and given only the
    parameters, backward materializes it itself.
    """
    if grid is None:
        if params is None:
            raise ValueError("backward needs the grid or the time parameters")
        grid = materialize(params, schedule)
    n = coeffs.n_steps
    if grid.n_steps != n or trace.kind != coeffs.kind:
        raise ValueError("trace, coefficients, and grid disagree")
    if len(trace.states) != n + 1:
        raise ValueError("trace does not match the coefficient step count")

    xbar = np.asarray(loss_cotangent, dtype=float)
    if xbar.shape != np.asarray(trace.states[-1]).shape:
        raise ValueError("loss cotangent shape does not match the terminal state")

    grad_values = np.zeros_like(coeffs.values)
    tbar = np.zeros(n + 1)
    tcbar = np.zeros(n + 1)
    table = GridTable.of(schedule, grid, coeffs.prediction)
    evals, R, S = trace.evals, table.R, table.S
    dR_p, dR_n, dS_p, dS_n = table.partials
    plan, values = trace.plan, coeffs.values.tolist()
    ats, preps, points, terms = plan.ats, plan.preps, trace.points, trace.terms
    ebar = [np.zeros_like(xbar) for _ in evals]
    m = len(evals)

    for i in range(len(plan.steps) - 1, -1, -1):
        rbar = sbar = 0.0
        ybar, xprev_bar = xbar, None
        for row in reversed(plan.steps[i]):
            if row.evaluated:
                m -= 1
                at = ats[m]
                zbar, tdot = _release(model, coeffs.prediction, at, preps[m], points[m],
                                      evals[m], terms[m], ebar[m])
                ybar = zbar if ybar is None else ybar + zbar
                if row.tc is not None:
                    tcbar[row.tc] += tdot
                if row.lam is not None and not plan.clamped[m]:
                    # the stage time moves with lambda
                    a, s, da, ds = at
                    step, c = row.lam
                    tdot *= 1.0 / (da / a - ds / s)
                    if c is not None:
                        grad_values[c] += tdot
                    tbar[step] += tdot * table.log_snr[1][step]
            w = row_weights(values, row)
            dots = [_dot(ybar, evals[u]) for u in row.m]
            if row.wrapper:
                rbar += _dot(ybar, trace.states[i - 1])
                sbar -= float(np.dot(w, dots))
                scale, share = -S[i - 1], R[i - 1] * ybar
            else:
                scale, share = 1.0, ybar
            g = scale * np.array(dots)
            grad_values[row.slots] += g[:-1] - g[-1] if row.implied else g
            for u, e in enumerate(row.m):
                ebar[e] += (scale * w[u]) * ybar
            xprev_bar = share if xprev_bar is None else xprev_bar + share
            ybar = None
        if i:
            tbar[i] += rbar * dR_n[i - 1] + sbar * dS_n[i - 1]
            tbar[i - 1] += rbar * dR_p[i - 1] + sbar * dS_p[i - 1]
        if xprev_bar is not None:
            xbar = xprev_bar

    result = AdjointResult(grad_coeffs=grad_values, grad_x0=xbar, grad_steps=tbar,
                           grad_score_times=tcbar, loss_value=loss_value)
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

    def run(cfs, pms, x):
        g = materialize(pms, schedule) if pms is not None else grid
        trace = solve(cfs, schedule, g, model, x)
        y = trace.terminal
        resid = y - target
        return trace, float(np.mean(resid * resid)), 2.0 * resid / resid.size, g

    # the reverse pass steps on the grid the solve used
    trace, loss, cot, g = run(coeffs, params, x0)
    res = backward(trace, coeffs, schedule, model, cot, grid=g, params=params,
                   loss_value=loss)

    def fd_on(vector, setter):
        grad = np.zeros_like(vector)
        for idx in range(vector.size):
            for sign in (+1.0, -1.0):
                vector.flat[idx] += sign * fd_step
                setter()
                grad.flat[idx] += sign * run(coeffs, params, x0)[1]
                vector.flat[idx] -= sign * fd_step
            setter()
        return grad / (2.0 * fd_step)

    def rel(err, ref):
        return float(np.linalg.norm(err - ref) / max(np.linalg.norm(ref), 1e-12))

    report = {"loss": loss, "blocks": {}}
    fd_coeffs = fd_on(coeffs.values, lambda: None)
    report["blocks"]["coefficients"] = rel(res.grad_coeffs, fd_coeffs)
    x0_work = np.array(x0, dtype=float)

    def fd_x0():
        grad = np.zeros_like(x0_work)
        for idx in range(x0_work.size):
            for sign in (+1.0, -1.0):
                x0_work.flat[idx] += sign * fd_step
                grad.flat[idx] += sign * run(coeffs, params, x0_work)[1]
                x0_work.flat[idx] -= sign * fd_step
        return grad / (2.0 * fd_step)

    report["blocks"]["initial_state"] = rel(res.grad_x0, fd_x0())
    if params is not None:
        report["blocks"]["xi"] = rel(res.grad_xi, fd_on(params.xi, lambda: None))
        report["blocks"]["xi_c"] = rel(res.grad_xi_c, fd_on(params.xi_c, lambda: None))
    report["max_relative_deviation"] = max(report["blocks"].values())
    return report

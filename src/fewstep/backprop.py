"""Hand-rolled reverse-mode differentiation through a full solve.

Given the cotangent of a terminal-state loss, walk the solver recursion
backwards and return cotangents for the coefficient vector, the time
parameters (through the schedule's analytic derivatives and the grid
parametrization), and the initial state.

What is kept and what is recomputed: the trace holds every score evaluation
and the terms the model kept for it (for the mixture score, two ``(J, B)``
arrays per evaluation).  Each evaluation is released once, through the
model's ``pullback(schedule, x, t, terms, cot)``, which returns the vjp of eps
and its time derivative contracted with the cotangent without running the
model again; for data prediction, ``_release`` wraps it in the chain rule of
x_hat = (x - sigma eps) / alpha, with eps read back from the cached x_hat,
for every model alike.  A trace whose cache was dropped has its
evaluations and terms recomputed at the recorded points, one evaluation
each, before the sweep.  The update wrapper and its t-partials come from
:mod:`~fewstep.solvers` (``wrapper_factors`` and ``wrapper_partials``), once
per sweep.

``lms`` and ``pc`` share one reverse sweep (``lms`` is ``pc`` without
corrector rows): each evaluation made at step i lives at that step's
prediction and is released there during step i.

Clamped quantities (stage-time clamps, score-time offset clips) contribute
zero gradient when saturated.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .coeffs import SolverCoefficients
from .errors import StateError
from .grids import LearnableTimeParams, TimeGrid, grid_gradient_vjp, materialize
from .schedules import NoiseSchedule
from .solvers import SolveTrace, _evaluate, wrapper_factors, wrapper_partials


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


def _release(model, prediction, schedule, x, t, e, terms, cot):
    """(cotangent on x, cot . d(evaluation)/dt) of the evaluation e made at (x, t)."""
    if prediction == "noise":
        return model.pullback(schedule, x, t, terms, cot)
    # e = x_hat = (x - sigma eps) / alpha, linear in eps
    a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
    da, ds = float(schedule.d_alpha(t)), float(schedule.d_sigma(t))
    xbar, tdot = model.pullback(schedule, x, t, terms, (-s / a) * cot)
    eps = (x - a * e) / s
    return xbar + cot / a, tdot - (ds * _dot(cot, eps) + da * _dot(cot, e)) / a


def _rematerialize_cache(trace, coeffs, schedule, grid, model):
    """(evaluations, kept terms), made again at the points the trace recorded."""
    # evaluation m sits at the initial state (m = 0) or at step m's prediction
    points = [trace.states[0]] + trace.pred_states[: trace.nfe_used - 1]
    made = [_evaluate(model, coeffs, schedule, x, float(grid.score_times[m]))
            for m, x in enumerate(points)]
    return [e for e, _ in made], [kept for _, kept in made]


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

    Pass the grid the trace was produced with.  Pass the learnable parameters
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

    if coeffs.kind == "ss":
        if trace.stage_records is None:
            raise StateError("single-step backward needs the trace's stage records")
        xbar = _backward_ss(trace, coeffs, schedule, grid, model, xbar,
                            grad_values, tbar, tcbar)
    else:
        cache, terms = trace.eps_cache, trace.eps_terms
        if cache is None:
            cache, terms = _rematerialize_cache(trace, coeffs, schedule, grid, model)
        xbar = _backward_multistep(trace, coeffs, schedule, grid, model, xbar, cache, terms,
                                   grad_values, tbar, tcbar)

    result = AdjointResult(grad_coeffs=grad_values, grad_x0=xbar, grad_steps=tbar,
                           grad_score_times=tcbar, loss_value=loss_value)
    if params is not None:
        result.grad_xi, result.grad_xi_c = grid_gradient_vjp(params, schedule, tbar, tcbar)
    return result


def _backward_multistep(trace, coeffs, schedule, grid, model, xbar, cache, terms,
                        grad_values, tbar, tcbar):
    n = coeffs.n_steps
    ebar = [np.zeros_like(xbar) for _ in cache]
    Rs, Ss = (f.tolist() for f in wrapper_factors(schedule, grid.steps, coeffs.prediction))
    dR_p, dR_n, dS_p, dS_n = (
        f.tolist() for f in wrapper_partials(schedule, grid.steps, coeffs.prediction))
    score_times = grid.score_times.tolist()

    def release(m, x):
        """Cotangent on the point x where evaluation m was made."""
        zbar, tdot = _release(model, coeffs.prediction, schedule, x, score_times[m],
                              cache[m], terms[m], ebar[m])
        tcbar[m] += tdot
        return zbar

    for i in range(n, 0, -1):
        q = coeffs.q(i)
        correct = coeffs.kind == "pc" and (i < n or trace.final_corrector)
        R, S = Rs[i - 1], Ss[i - 1]
        x_prev = trace.states[i - 1]
        rbar = sbar = 0.0
        pbar = xbar                      # the prediction is the state ...
        if correct:                      # ... unless a corrector row replaces it
            w = coeffs.corrector_weights(i)
            pool = [i] + [i - 1 - j for j in range(q)]
            dots = [_dot(xbar, cache[m]) for m in pool]
            rbar += _dot(xbar, x_prev)
            sbar -= float(np.dot(w, dots))
            wbar = np.array([-S * d for d in dots])
            # free weights; the oldest pool weight is 1 - sum(free)
            grad_values[coeffs.corrector_slice(i)] += wbar[:-1] - wbar[-1]
            for u, m in enumerate(pool):
                ebar[m] += (-S * w[u]) * xbar
        if i < len(cache):
            # the evaluation made at step i lives at its prediction; release it now
            zbar = release(i, trace.pred_states[i - 1])
            pbar = zbar if correct else pbar + zbar
        b_slice = coeffs.b_slice(i)
        b = coeffs.values[b_slice]
        dots = [_dot(pbar, cache[i - 1 - j]) for j in range(q)]
        rbar += _dot(pbar, x_prev)
        sbar -= float(np.dot(b, dots))
        gb = grad_values[b_slice]
        for j in range(q):
            gb[j] += -S * dots[j]
            ebar[i - 1 - j] += (-S * b[j]) * pbar
        xprev_bar = R * pbar
        if correct:
            xprev_bar = R * xbar + xprev_bar
        tbar[i] += rbar * dR_n[i - 1] + sbar * dS_n[i - 1]
        tbar[i - 1] += rbar * dR_p[i - 1] + sbar * dS_p[i - 1]
        xbar = xprev_bar
    return xbar + release(0, trace.states[0])


def _backward_ss(trace, coeffs, schedule, grid, model, xbar,
                 grad_values, tbar, tcbar):
    n, k = coeffs.n_steps, coeffs.order
    Rs, Ss = wrapper_factors(schedule, grid.steps, coeffs.prediction)
    dR_p, dR_n, dS_p, dS_n = wrapper_partials(schedule, grid.steps, coeffs.prediction)
    stage_times = np.array([rec.stage_times for rec in trace.stage_records])
    d_lam = schedule.d_lam(np.concatenate([stage_times.ravel(), grid.steps]))
    d_lam_stages, d_lam_steps = d_lam[: n * k].reshape(n, k), d_lam[n * k :]
    for i in range(n, 0, -1):
        rec = trace.stage_records[i - 1]
        b = coeffs.values[coeffs.ss_b_slice(i)]
        amat = coeffs.ss_a_matrix(i)
        R, S = Rs[i - 1], Ss[i - 1]
        delta = sum(b[j] * rec.kappas[j] for j in range(k))
        rbar, sbar = _dot(xbar, trace.states[i - 1]), -_dot(xbar, delta)
        gb = grad_values[coeffs.ss_b_slice(i)]
        kbar = []
        for j in range(k):
            gb[j] += -S * _dot(xbar, rec.kappas[j])
            kbar.append((-S * b[j]) * xbar)
        xprev_bar = R * xbar
        ga = grad_values[coeffs.ss_a_slice(i)].reshape(k, max(k - 1, 0))
        gc = grad_values[coeffs.ss_c_slice(i)]
        for j in range(k - 1, -1, -1):
            s_j = float(rec.stage_times[j])
            zbar, tdot = _release(model, coeffs.prediction, schedule, rec.stage_x[j], s_j,
                                  rec.kappas[j], rec.terms[j], kbar[j])
            if not rec.clamped[j]:
                ds_dlam = 1.0 / float(d_lam_stages[i - 1, j])
                if j >= 1:
                    gc[j - 1] += tdot * ds_dlam
                tbar[i - 1] += tdot * ds_dlam * float(d_lam_steps[i - 1])
            xprev_bar = xprev_bar + zbar
            for l in range(j):
                kbar[l] = kbar[l] + amat[j, l] * zbar
                ga[j, l] += _dot(zbar, rec.kappas[l])
        tbar[i] += rbar * dR_n[i - 1] + sbar * dS_n[i - 1]
        tbar[i - 1] += rbar * dR_p[i - 1] + sbar * dS_p[i - 1]
        xbar = xprev_bar
    return xbar


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

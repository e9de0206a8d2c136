"""The generalized few-step solver: multistep, single-step, and predictor-corrector.

Every family shares the exponential-integrator wrapper

    x_i = R_i x_{i-1} - S_i * increment_i

with R_i = alpha_i/alpha_{i-1}, S_i = sigma_i (e^{h_i} - 1) for noise
prediction and R_i = sigma_i/sigma_{i-1}, S_i = alpha_i (e^{-h_i} - 1) for
data prediction, h_i the per-step log-SNR gap.  The increment is the
coefficient-weighted combination of score evaluations defined by the family.
Score evaluations happen at the grid's score times; wrapper factors always
use the step times.  :func:`wrapper_factors` (and its t-partials,
:func:`wrapper_partials`, for the reverse pass) is the one place this formula
lives; it answers for a whole grid at once, so a solve asks the schedule once
per grid, not once per step.

``lms`` and ``pc`` run one multistep loop: each step predicts with its
multistep row and evaluates the model at the prediction; ``pc`` then
applies its corrector row, while for ``lms`` the prediction is the state.

The trace keeps, for the reverse pass, every evaluation and the terms the
model's ``evaluate`` returned with it (``eps_cache`` and ``eps_terms`` for
``lms``/``pc``, ``StageRecord.terms`` for ``ss``); a model without
``evaluate`` keeps no terms and is evaluated through ``epsilon`` or
``data_prediction``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .coeffs import SolverCoefficients
from .errors import DivergenceError, StateError
from .grids import TimeGrid
from .schedules import NoiseSchedule


def wrapper_factors(schedule: NoiseSchedule, steps: np.ndarray, prediction: str):
    """(R, S) of the update wrapper for every step of a grid; entry i-1 is step i."""
    alpha, sigma = schedule.alpha(steps), schedule.sigma(steps)
    h = np.diff(np.log(alpha) - np.log(sigma))
    if prediction == "noise":
        return alpha[1:] / alpha[:-1], sigma[1:] * np.expm1(h)
    return sigma[1:] / sigma[:-1], alpha[1:] * np.expm1(-h)


def wrapper_partials(schedule: NoiseSchedule, steps: np.ndarray, prediction: str):
    """(dR_prev, dR_next, dS_prev, dS_next): the t-partials of wrapper_factors per step."""
    a, s = schedule.alpha(steps), schedule.sigma(steps)
    da, ds = schedule.d_alpha(steps), schedule.d_sigma(steps)
    h = np.diff(np.log(a) - np.log(s))
    dlam = da / a - ds / s
    if prediction != "noise":
        # data prediction is noise prediction with alpha and sigma swapped,
        # which negates the log-SNR
        a, s, da, ds, h, dlam = s, a, ds, da, -h, -dlam
    e_h = np.exp(h)
    return (-a[1:] * da[:-1] / (a[:-1] * a[:-1]), da[1:] / a[:-1],
            -s[1:] * e_h * dlam[:-1], ds[1:] * np.expm1(h) + s[1:] * e_h * dlam[1:])


def _evaluate(model, coeffs, schedule, x, t, step_index=None):
    """``(e, terms)``: the evaluation the family combines (eps, or x_hat for data
    prediction) and the terms the model keeps for its pullback.

    A model without ``evaluate`` keeps none (``terms`` is None); its pullback
    must not need them.
    """
    evaluate = getattr(model, "evaluate", None)
    try:
        # divergence surfaces as a DivergenceError below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if evaluate is not None:
                out, terms = evaluate(schedule, x, t, coeffs.prediction)
            elif coeffs.prediction == "noise":
                out, terms = model.epsilon(schedule, x, t), None
            else:
                out, terms = model.data_prediction(schedule, x, t), None
    except FloatingPointError as exc:
        raise DivergenceError(f"score evaluation overflowed: {exc}",
                              step_index=step_index) from exc
    if step_index is not None and not np.all(np.isfinite(out)):
        raise DivergenceError("score evaluation returned non-finite values",
                              step_index=step_index)
    return out, terms


@dataclasses.dataclass
class StageRecord:
    """Forward data of one single-step solve step, kept for the reverse pass."""

    stage_x: list
    kappas: list
    terms: list                  # the model's kept terms of each stage evaluation
    stage_times: np.ndarray
    clamped: np.ndarray


@dataclasses.dataclass
class SolveTrace:
    """Full trajectory of one solve, with enough cached data to run backward."""

    states: list
    eps_cache: list | None       # lms/pc: every evaluation, in the order made
    eps_terms: list | None       # lms/pc: the model's kept terms of each evaluation
    pred_states: list | None     # lms/pc: each step's prediction (the lms state)
    stage_records: list | None
    nfe_used: int
    diagnostics: list
    kind: str
    final_corrector: bool

    @property
    def terminal(self):
        return self.states[-1]


def lms_step(coeffs: SolverCoefficients, R: np.ndarray, S: np.ndarray, i: int,
             x_prev: np.ndarray, eps_history):
    """Multistep update at step i; eps_history is most-recent-first.

    R and S are the grid's wrapper factors (see :func:`wrapper_factors`).
    """
    q = coeffs.q(i)
    if eps_history is None or len(eps_history) < q:
        raise StateError(f"step {i} needs {q} cached evaluations, got "
                         f"{0 if eps_history is None else len(eps_history)}")
    b = coeffs.values[coeffs.b_slice(i)]
    delta = sum(b[j] * eps_history[j] for j in range(q))
    return R[i - 1] * x_prev - S[i - 1] * delta


def _ss_stages(coeffs: SolverCoefficients, schedule: NoiseSchedule, grid: TimeGrid):
    """Requested and clamped stage log-SNRs, clamp flags and stage times, each (n, k).

    Row i-1 is step i: stage 1 sits at the step start, stage j+1 at the learned
    offset ``c`` from it, clipped to the schedule's log-SNR range.
    """
    n = coeffs.n_steps
    offsets = np.array([coeffs.values[coeffs.ss_c_slice(i)] for i in range(1, n + 1)])
    raw_lams = schedule.lam(grid.steps[:-1])[:, None] + np.concatenate(
        [np.zeros((n, 1)), offsets], axis=1)
    stage_lams = np.clip(raw_lams, *schedule.lambda_range())
    return raw_lams, stage_lams, stage_lams != raw_lams, schedule.time_from_lambda(stage_lams)


def ss_step(coeffs: SolverCoefficients, schedule: NoiseSchedule, stages,
            R: np.ndarray, S: np.ndarray, i: int, x_prev: np.ndarray, model,
            diagnostics: list | None = None):
    """Single-step update: k internal stages at learnable log-SNR offsets.

    ``stages`` is the grid's stage table (``_ss_stages``) and R, S its wrapper
    factors (see :func:`wrapper_factors`).
    """
    k = coeffs.order
    raw_lams, stage_lams, clamped, stage_times = (table[i - 1] for table in stages)
    if diagnostics is not None:
        for j in np.nonzero(clamped)[0]:
            diagnostics.append({"event": "stage_clamp", "step": i, "stage": int(j + 1),
                                "requested": float(raw_lams[j]), "used": float(stage_lams[j])})
    amat = coeffs.ss_a_matrix(i)
    b = coeffs.values[coeffs.ss_b_slice(i)]

    stage_x, kappas, terms = [], [], []
    for j in range(k):
        z = x_prev.copy()
        for l in range(j):
            z = z + amat[j, l] * kappas[l]
        stage_x.append(z)
        kappa, kept = _evaluate(model, coeffs, schedule, z, float(stage_times[j]),
                                step_index=i)
        kappas.append(kappa)
        terms.append(kept)
    delta = sum(b[j] * kappas[j] for j in range(k))
    record = StageRecord(stage_x=stage_x, kappas=kappas, terms=terms,
                         stage_times=stage_times, clamped=clamped)
    return R[i - 1] * x_prev - S[i - 1] * delta, record


def solve(coeffs: SolverCoefficients, schedule: NoiseSchedule, grid: TimeGrid,
          model, x_init: np.ndarray, final_corrector: bool = True) -> SolveTrace:
    """Run the solver from t_0 = T down to t_N = t_min.

    x_init may be a single state (d,) or a batch (B, d); the trace keeps the
    given shape.  nfe_used counts score-model calls per sample, matching the
    per-step accounting of the solver family.
    """
    n = coeffs.n_steps
    if grid.n_steps != n:
        raise ValueError(f"grid has {grid.n_steps} steps but coefficients expect {n}")
    x = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DivergenceError("initial state is not finite", step_index=0)

    states = [x]
    diagnostics: list = []
    nfe = 0
    eps_cache: list | None = None
    eps_terms: list | None = None
    pred_states: list | None = None
    stage_records: list | None = None
    R, S = wrapper_factors(schedule, grid.steps, coeffs.prediction)

    if coeffs.kind == "ss":
        stage_records = []
        stages = _ss_stages(coeffs, schedule, grid)
        for i in range(1, n + 1):
            x, record = ss_step(coeffs, schedule, stages, R, S, i, x, model,
                                diagnostics=diagnostics)
            nfe += coeffs.order
            stage_records.append(record)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"state diverged at step {i}", step_index=i)
            states.append(x)
    else:
        eps, kept = _evaluate(model, coeffs, schedule, x, float(grid.score_times[0]),
                              step_index=0)
        eps_cache, eps_terms = [eps], [kept]
        nfe += 1
        pred_states = []
        for i in range(1, n + 1):
            q = coeffs.q(i)
            pred = lms_step(coeffs, R, S, i, x, eps_cache[i - 1 :: -1][:q])
            correct = coeffs.kind == "pc" and (i < n or final_corrector)
            if i < n or correct:
                # the evaluation at the prediction is the next cache entry
                eps, kept = _evaluate(model, coeffs, schedule, pred,
                                      float(grid.score_times[i]), step_index=i)
                eps_cache.append(eps)
                eps_terms.append(kept)
                nfe += 1
            if correct:
                w = coeffs.corrector_weights(i)           # [new, recent, ..., oldest]
                pool = eps_cache[i :: -1][: q + 1]
                x = R[i - 1] * x - S[i - 1] * sum(w[u] * pool[u] for u in range(q + 1))
            else:
                x = pred
            pred_states.append(pred)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"state diverged at step {i}", step_index=i)
            states.append(x)

    return SolveTrace(states=states, eps_cache=eps_cache, eps_terms=eps_terms,
                      pred_states=pred_states,
                      stage_records=stage_records, nfe_used=nfe, diagnostics=diagnostics,
                      kind=coeffs.kind, final_corrector=final_corrector)

"""Time discretizations: fixed heuristics and the learnable monotone parametrization.

A grid is a strictly decreasing sequence ``t_0 = T > ... > t_N = t_min`` plus
a parallel sequence of *score times* — the times actually fed to the score
model.  Heuristic grids use identical step and score times; learnable grids
materialize the steps from logits through softmax, suffix-sum, and an affine
rescale pinning the endpoints, and offset the interior score times by a
clipped learnable vector.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DomainError
from .schedules import NoiseSchedule

GRID_KINDS = ("uniform", "quadratic", "edm", "logsnr")


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Step and score times, as read-only copies, so the solver's tables the grid
    keeps in ``tables`` (schedule lookups and the model's prepared constants)
    cannot go stale."""

    steps: np.ndarray
    score_times: np.ndarray

    def __post_init__(self):
        steps = np.array(self.steps, dtype=float)
        score = np.array(self.score_times, dtype=float)
        if steps.ndim != 1 or steps.shape != score.shape:
            raise ValueError("steps and score_times must be 1-d and congruent")
        if not np.all(np.diff(steps) < 0):
            raise ValueError("grid steps must be strictly decreasing")
        if not np.all(np.isfinite(score)):
            raise ValueError("score times must be finite")
        if score[0] != steps[0] or score[-1] != steps[-1]:
            raise ValueError("score times must pin both endpoints")
        for name, owned in (("steps", steps), ("score_times", score)):
            owned.flags.writeable = False
            object.__setattr__(self, name, owned)
        object.__setattr__(self, "tables", {})

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, so a copy has
        # read-only times and no tables of its own
        return TimeGrid, (self.steps, self.score_times)

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    def lambdas(self, schedule: NoiseSchedule) -> np.ndarray:
        return np.asarray(schedule.lam(self.steps), dtype=float)


def heuristic_grid(schedule: NoiseSchedule, n_steps: int, kind: str, rho: float = 7.0) -> TimeGrid:
    """One of the four standard discretizations over [t_min, T].

    'uniform' and 'quadratic' interpolate in t, 'logsnr' uniformly in the
    log-SNR, 'edm' uniformly in kappa^(1/rho) with kappa = sigma/alpha.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    T, eps = schedule.T, schedule.t_min
    frac = np.arange(n_steps + 1) / n_steps
    if kind == "uniform":
        steps = T + frac * (eps - T)
    elif kind == "quadratic":
        steps = T + frac**2 * (eps - T)
    elif kind == "logsnr":
        lam_T, lam_eps = schedule.lambda_range()
        steps = schedule.time_from_lambda(lam_T + frac * (lam_eps - lam_T))
    elif kind == "edm":
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        k_T, k_eps = float(schedule.kappa(T)), float(schedule.kappa(eps))
        ks = (k_T ** (1.0 / rho) + frac * (k_eps ** (1.0 / rho) - k_T ** (1.0 / rho))) ** rho
        steps = schedule.time_from_lambda(-np.log(ks))
    else:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    steps[0], steps[-1] = T, eps
    return TimeGrid(steps=steps, score_times=steps)


@dataclasses.dataclass
class LearnableTimeParams:
    """Logits xi for the step grid and clipped offsets xi_c for score times.

    Both vectors have length N+1.  The trainer mutates them between
    materializations; a materialized grid never aliases them.
    """

    xi: np.ndarray
    xi_c: np.ndarray
    clip_fraction: float = 0.5

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float).copy()
        self.xi_c = np.asarray(self.xi_c, dtype=float).copy()
        if self.xi.ndim != 1 or self.xi.shape != self.xi_c.shape:
            raise ValueError("xi and xi_c must be 1-d vectors of equal length")
        if len(self.xi) < 2:
            raise ValueError("need at least one step (length >= 2)")
        if not 0.0 < self.clip_fraction < 1.0:
            raise ValueError("clip_fraction must lie in (0, 1)")

    @property
    def n_steps(self) -> int:
        return len(self.xi) - 1

    @classmethod
    def zeros(cls, n_steps: int, clip_fraction: float = 0.5) -> "LearnableTimeParams":
        return cls(np.zeros(n_steps + 1), np.zeros(n_steps + 1), clip_fraction)

    @classmethod
    def from_grid(cls, grid: TimeGrid, schedule: NoiseSchedule,
                  clip_fraction: float = 0.5) -> "LearnableTimeParams":
        """Logits whose materialization reproduces the given grid exactly.

        The normalized grid fixes the softmax mass above each index up to one
        free tail weight; we place 1/(N+1) in the tail slot.
        """
        T, eps = schedule.T, schedule.t_min
        steps = np.asarray(grid.steps, dtype=float)
        if abs(steps[0] - T) > 1e-12 * T or abs(steps[-1] - eps) > max(1e-12 * T, 1e-15):
            raise DomainError("grid endpoints do not match the schedule domain")
        unit = (steps - eps) / (T - eps)          # 1 = u_0 > ... > u_N = 0
        tail = 1.0 / (len(steps))
        probs = np.empty_like(unit)
        probs[:-1] = (1.0 - tail) * (unit[:-1] - unit[1:])
        probs[-1] = tail
        if np.any(probs <= 0):
            raise ValueError("grid is not strictly decreasing")
        return cls(np.log(probs), np.zeros_like(probs), clip_fraction)


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _forward_parts(params: LearnableTimeParams, schedule: NoiseSchedule):
    probs = _softmax(params.xi)
    tau = np.cumsum(probs[::-1])[::-1]            # tau_i = sum_{n>=i} probs_n; tau_0 = 1
    span = schedule.T - schedule.t_min
    denom = tau[0] - tau[-1]
    steps = (tau - tau[-1]) / denom * span + schedule.t_min
    steps[0], steps[-1] = schedule.T, schedule.t_min
    gaps = -np.diff(steps)
    delta = params.clip_fraction * gaps.min()
    clipped = np.clip(params.xi_c, -delta, delta)
    score = steps.copy()
    score[1:-1] = steps[1:-1] + clipped[1:-1]
    return probs, tau, steps, delta, clipped, score


def materialize(params: LearnableTimeParams, schedule: NoiseSchedule) -> TimeGrid:
    """Build the strictly monotone grid with exact endpoints from the logits."""
    _, _, steps, _, _, score = _forward_parts(params, schedule)
    return TimeGrid(steps=steps, score_times=score)


def grid_gradient_vjp(
    params: LearnableTimeParams,
    schedule: NoiseSchedule,
    cot_steps: np.ndarray,
    cot_score_times: np.ndarray | None = None,
):
    """Exact VJP of materialize: cotangents on the grid -> cotangents on (xi, xi_c).

    The clip is a hard clamp: saturated offsets pass no gradient, and the
    dependence of the clip radius on the gaps is treated as constant.
    """
    probs, tau, steps, delta, _, _ = _forward_parts(params, schedule)
    cot_steps = np.asarray(cot_steps, dtype=float).copy()
    n = params.n_steps

    xibar_c = np.zeros_like(params.xi_c)
    if cot_score_times is not None:
        cot_score = np.asarray(cot_score_times, dtype=float)
        # score time = step + clip(offset): unit pass-through to the step,
        # pass-through to the offset only when unclipped.
        cot_steps = cot_steps + cot_score
        inside = np.abs(params.xi_c) < delta
        xibar_c[1:-1] = np.where(inside[1:-1], cot_score[1:-1], 0.0)

    span = schedule.T - schedule.t_min
    denom = tau[0] - tau[-1]
    # steps_i = (tau_i - tau_N) / (tau_0 - tau_N) * span + t_min
    unit = (tau - tau[-1]) / denom
    taubar = cot_steps * span / denom
    taubar[0] += -np.sum(cot_steps * unit) * span / denom
    taubar[-1] += np.sum(cot_steps * (unit - 1.0)) * span / denom
    probbar = np.cumsum(taubar)                   # dpn gets every taubar_i with i <= n
    xibar = probs * (probbar - float(np.dot(probs, probbar)))
    return xibar, xibar_c

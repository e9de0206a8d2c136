"""Analytic noise-prediction models standing in for a trained score network.

For a Gaussian-mixture data distribution with isotropic per-component
covariances, the marginal under the forward kernel stays a Gaussian mixture,
so the noise prediction ``eps(x, t) = -sigma_t * grad log p_t(x)`` is exact
and cheap, and its Jacobian (for the reverse-mode pass) and time derivative
are closed-form.  Mixture responsibilities are evaluated with log-sum-exp so
large |log-SNR| values stay stable.

The kernel never forms a (B, J, d) array: with isotropic components,
``|x - alpha mu_j|^2`` expands into ``|x|^2``, the ``(J,d)@(d,B)`` product
``mu_j.x`` and ``|mu_j|^2``, and every contraction the evaluation, its vjp
and its time derivative need is a per-component ``(J, B)`` term or a
``(B,J)@(J,d)`` product.  ``linearize(schedule, x, t, cot)`` returns all three
for one cotangent from one pass over those terms.

Shapes: ``x`` may be a single state ``(d,)`` or a batch ``(B, d)``; outputs
match the input.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .schedules import NoiseSchedule


@dataclasses.dataclass(frozen=True)
class GaussianMixtureScore:
    """Exact noise prediction for a Gaussian-mixture data distribution.

    weights: (J,) nonnegative, summing to 1
    means:   (J, d)
    scales:  (J,) per-component standard deviations (isotropic)
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        if w.ndim != 1 or m.ndim != 2 or s.ndim != 1:
            raise ValueError("weights (J,), means (J,d), scales (J,) expected")
        if not (len(w) == m.shape[0] == len(s)):
            raise ValueError("component counts disagree")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(s <= 0):
            raise ValueError("scales must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "scales", s)
        # per-component constants of every evaluation, as (J, 1) columns
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", np.log(w)[:, None])
        object.__setattr__(self, "_mean_sq", np.einsum("jd,jd->j", m, m)[:, None])
        object.__setattr__(self, "_scale_sq", (s * s)[:, None])

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @classmethod
    def isotropic(cls, dim: int, scale: float = 1.0, mean=None) -> "GaussianMixtureScore":
        """Single-component model N(mean, scale^2 I)."""
        mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=float)
        return cls(weights=np.array([1.0]), means=mean[None, :], scales=np.array([scale]))

    # -- internals ---------------------------------------------------------
    def _prepare(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[-1] != self.dim:
            raise ValueError(f"state dim {x2.shape[-1]} != model dim {self.dim}")
        if not np.isfinite(x2).all():
            raise FloatingPointError("non-finite state passed to score model")
        return x2, single

    def _parts(self, x2, alpha, sigma):
        """Per-component terms, laid out (J, B) so sums over components are
        row operations: variances v (J,1), projections mu_j.x, squared residual
        norms |x - alpha mu_j|^2, responsibilities gamma, g = gamma/v, its
        column sums (B,), and the scaled mean residual
        ubar = sum_j g_j (x - alpha mu_j) (B,d), with eps = sigma ubar.

        The squared norms use |x|^2 - 2 alpha x.mu_j + alpha^2 |mu_j|^2, clamped
        at 0, so no (B, J, d) array is formed; the rounding error this adds is of
        order eps_mach |x|^2 / v_j in the log-densities and eps_mach |x| sum_j g_j
        in ubar.
        """
        v = alpha * alpha * self._scale_sq + sigma * sigma
        xm = self.means @ x2.T
        sq = xm * (-2.0 * alpha)
        sq += (alpha * alpha) * self._mean_sq
        sq += np.einsum("bd,bd->b", x2, x2)
        np.maximum(sq, 0.0, out=sq)
        ell = sq * (-0.5 / v)
        ell += self._log_weights - 0.5 * self.dim * np.log(2.0 * np.pi * v)
        ell -= ell.max(axis=0)
        gamma = np.exp(ell, out=ell)
        gamma /= gamma.sum(axis=0)
        g = gamma / v
        g_sum = g.sum(axis=0)
        ubar = g_sum[:, None] * x2 - alpha * (g.T @ self.means)
        return v, xm, sq, gamma, g, g_sum, ubar

    def _time_derivative(self, x2, alpha, sigma, d_alpha, d_sigma, parts):
        """d eps/d t (B,d) through (alpha_t, sigma_t), from per-component terms.

        eps = sigma sum_j gamma_j u_j with u_j = (x - alpha mu_j)/v_j, so
        d eps/dt = sigma' ubar + sigma sum_j (gamma_j' u_j + gamma_j u_j'), where
        u_j' = -shift_j mu_j - rate_j u_j (rate = v'/v, shift = alpha'/v) and
        gamma_j' = gamma_j (dln_j - gamma.dln), dln_j = d log N_j/dt.
        """
        v, xm, sq, gamma, _, _, ubar = parts
        rate = 2.0 * (alpha * d_alpha * self._scale_sq + sigma * d_sigma) / v
        shift = d_alpha / v
        dln = shift * (xm - alpha * self._mean_sq) + (0.5 * rate / v) * sq - 0.5 * self.dim * rate
        k = gamma * (dln - (gamma * dln).sum(axis=0) - rate)
        kv = k / v
        coef = alpha * kv + gamma * shift
        return d_sigma * ubar + sigma * (kv.sum(axis=0)[:, None] * x2 - coef.T @ self.means)

    def _pull_x(self, x2, cot2, alpha, sigma, parts):
        """(d eps/d x)^T cot2, with d eps/d x = sigma [sum_j gamma_j/v_j I -
        sum_j gamma_j (u_j - ubar) u_j^T] symmetric, applied without forming it:
        u_j.cot = (x.cot - alpha mu_j.cot)/v_j needs only per-component terms."""
        v, _, _, gamma, g, g_sum, _ = parts
        dots = (np.einsum("bd,bd->b", x2, cot2) - alpha * (self.means @ cot2.T)) / v
        c = g * (dots - (gamma * dots).sum(axis=0))
        return sigma * (g_sum[:, None] * cot2 - c.sum(axis=0)[:, None] * x2
                        + alpha * (c.T @ self.means))

    # -- forward -------------------------------------------------------------
    def epsilon(self, schedule: NoiseSchedule, x, t):
        """Exact noise prediction -sigma_t * grad log p_t(x)."""
        t = schedule.check_time(t)
        x2, single = self._prepare(x)
        sigma = float(schedule.sigma(t))
        eps = sigma * self._parts(x2, float(schedule.alpha(t)), sigma)[-1]
        return eps[0] if single else eps

    def score(self, schedule: NoiseSchedule, x, t):
        """grad_x log p_t(x) = -epsilon / sigma_t."""
        t = schedule.check_time(t)
        return -self.epsilon(schedule, x, t) / float(schedule.sigma(t))

    def data_prediction(self, schedule: NoiseSchedule, x, t):
        """Tweedie transform x_hat = (x - sigma_t eps) / alpha_t."""
        t = schedule.check_time(t)
        a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
        return (np.asarray(x, dtype=float) - s * self.epsilon(schedule, x, t)) / a

    # -- derivatives -----------------------------------------------------------
    def epsilon_vjp(self, schedule: NoiseSchedule, x, t, cotangent):
        """(d eps / d x)^T cotangent, from the closed-form mixture Jacobian."""
        return self.linearize(schedule, x, t, cotangent)[1]

    def epsilon_time_partial(self, schedule: NoiseSchedule, x, t):
        """d eps / d t through (alpha_t, sigma_t)."""
        t = schedule.check_time(t)
        x2, single = self._prepare(x)
        alpha, sigma = float(schedule.alpha(t)), float(schedule.sigma(t))
        out = self._time_derivative(x2, alpha, sigma, float(schedule.d_alpha(t)),
                                    float(schedule.d_sigma(t)), self._parts(x2, alpha, sigma))
        return out[0] if single else out

    def linearize(self, schedule: NoiseSchedule, x, t, cot):
        """``(eps, (d eps/d x)^T cot, cot . d eps/d t)`` at (x, t), from one
        evaluation of the mixture internals.

        The second equals :meth:`epsilon_vjp`; the third is ``cot`` contracted
        with :meth:`epsilon_time_partial`, a float summed over the batch.
        """
        t = schedule.check_time(t)
        x2, single = self._prepare(x)
        cot = np.asarray(cot, dtype=float)
        cot2 = cot[None, :] if single else cot
        alpha, sigma = float(schedule.alpha(t)), float(schedule.sigma(t))
        parts = self._parts(x2, alpha, sigma)
        xbar = self._pull_x(x2, cot2, alpha, sigma, parts)
        deps_dt = self._time_derivative(x2, alpha, sigma, float(schedule.d_alpha(t)),
                                        float(schedule.d_sigma(t)), parts)
        eps = sigma * parts[-1]
        tdot = float(np.vdot(cot2, deps_dt))
        return (eps[0], xbar[0], tdot) if single else (eps, xbar, tdot)

    def epsilon_fn(self, schedule: NoiseSchedule):
        """Plain (x, t) -> eps callable, for integrators."""
        return lambda x, t: self.epsilon(schedule, x, t)


def default_mixture(dim: int = 2) -> GaussianMixtureScore:
    """The toy benchmark: three well-separated components.

    For dim > 2 the means live in the first two coordinates; higher dims only
    add noise directions, which is enough for scaling tests.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    base = np.array([[2.0, 0.0], [-1.2, 1.8], [-1.2, -1.8]])
    means = np.zeros((3, dim))
    means[:, : min(2, dim)] = base[:, : min(2, dim)]
    return GaussianMixtureScore(
        weights=np.array([0.5, 0.3, 0.2]),
        means=means,
        scales=np.array([0.45, 0.55, 0.35]),
    )


class CountingScoreModel:
    """Wraps a score model and counts evaluation / vjp / time-partial /
    linearization rows.

    Used to assert NFE accounting and the rematerialization memory contract.
    """

    def __init__(self, inner):
        self.inner = inner
        self.reset()

    def reset(self):
        self.n_epsilon = 0
        self.n_vjp = 0
        self.n_time_partial = 0
        self.n_linearize = 0

    @property
    def dim(self):
        return self.inner.dim

    def epsilon(self, schedule, x, t):
        x2 = np.atleast_2d(np.asarray(x))
        self.n_epsilon += x2.shape[0] if x2.ndim == 2 else 1
        return self.inner.epsilon(schedule, x, t)

    def epsilon_vjp(self, schedule, x, t, cotangent):
        x2 = np.atleast_2d(np.asarray(x))
        self.n_vjp += x2.shape[0] if x2.ndim == 2 else 1
        return self.inner.epsilon_vjp(schedule, x, t, cotangent)

    def epsilon_time_partial(self, schedule, x, t):
        self.n_time_partial += np.atleast_2d(np.asarray(x)).shape[0]
        return self.inner.epsilon_time_partial(schedule, x, t)

    def linearize(self, schedule, x, t, cot):
        self.n_linearize += np.atleast_2d(np.asarray(x)).shape[0]
        return self.inner.linearize(schedule, x, t, cot)

    # the transforms of epsilon call the counted epsilon, so each counts once
    def data_prediction(self, schedule, x, t):
        return GaussianMixtureScore.data_prediction(self, schedule, x, t)

    def score(self, schedule, x, t):
        return GaussianMixtureScore.score(self, schedule, x, t)

    def epsilon_fn(self, schedule):
        return lambda x, t: self.epsilon(schedule, x, t)

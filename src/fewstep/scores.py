"""Analytic noise-prediction models standing in for a trained score network.

For a Gaussian-mixture data distribution with isotropic per-component
covariances, the marginal under the forward kernel stays a Gaussian mixture,
so the noise prediction ``eps(x, t) = -sigma_t * grad log p_t(x)`` is exact
and cheap, and its Jacobian (for the reverse-mode pass) and time derivative
are closed-form.  Mixture responsibilities are evaluated with log-sum-exp so
large |log-SNR| values stay stable.

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
        if not np.all(np.isfinite(x2)):
            raise FloatingPointError("non-finite state passed to score model")
        return x2, single

    def _parts(self, x2, alpha, sigma):
        """Variances v (J,), residuals r = x - alpha mu (B,J,d), their squared norms
        (B,J), scaled residuals u = r/v (B,J,d) and responsibilities gamma (B,J)."""
        v = alpha * alpha * self.scales**2 + sigma * sigma          # (J,)
        r = x2[:, None, :] - alpha * self.means[None, :, :]          # (B,J,d)
        sq = np.sum(r * r, axis=-1)                                  # (B,J)
        logn = -0.5 * self.dim * np.log(2.0 * np.pi * v)[None, :] - 0.5 * sq / v[None, :]
        with np.errstate(divide="ignore"):
            logw = np.where(self.weights > 0, np.log(self.weights), -np.inf)
        ell = logw[None, :] + logn
        ell -= ell.max(axis=1, keepdims=True)
        gamma = np.exp(ell)
        gamma /= gamma.sum(axis=1, keepdims=True)
        u = r / v[None, :, None]
        return v, r, sq, u, gamma

    # -- forward -------------------------------------------------------------
    def epsilon(self, schedule: NoiseSchedule, x, t):
        """Exact noise prediction -sigma_t * grad log p_t(x)."""
        t = float(schedule.check_time(t))
        x2, single = self._prepare(x)
        eps = self._epsilon_raw(x2, float(schedule.alpha(t)), float(schedule.sigma(t)))
        return eps[0] if single else eps

    def _epsilon_raw(self, x2, alpha, sigma):
        _, _, _, u, gamma = self._parts(x2, alpha, sigma)
        return sigma * np.einsum("bj,bjd->bd", gamma, u)

    def score(self, schedule: NoiseSchedule, x, t):
        """grad_x log p_t(x) = -epsilon / sigma_t."""
        t = float(schedule.check_time(t))
        return -self.epsilon(schedule, x, t) / float(schedule.sigma(t))

    def data_prediction(self, schedule: NoiseSchedule, x, t):
        """Tweedie transform x_hat = (x - sigma_t eps) / alpha_t."""
        t = float(schedule.check_time(t))
        a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
        return (np.asarray(x, dtype=float) - s * self.epsilon(schedule, x, t)) / a

    # -- derivatives -----------------------------------------------------------
    def epsilon_vjp(self, schedule: NoiseSchedule, x, t, cotangent):
        """(d eps / d x)^T cotangent, from the closed-form mixture Jacobian."""
        t = float(schedule.check_time(t))
        x2, single = self._prepare(x)
        cot = np.asarray(cotangent, dtype=float)
        cot2 = cot[None, :] if single else cot
        out = self._epsilon_vjp_raw(x2, cot2, float(schedule.alpha(t)), float(schedule.sigma(t)))
        return out[0] if single else out

    def _epsilon_vjp_raw(self, x2, cot2, alpha, sigma):
        v, _, _, u, gamma = self._parts(x2, alpha, sigma)
        ubar = np.einsum("bj,bjd->bd", gamma, u)
        return self._pull_x(v, u, gamma, ubar, cot2, sigma)[0]

    @staticmethod
    def _pull_x(v, u, gamma, ubar, cot2, sigma):
        """(d eps/d x)^T cot2, plus dots = u.cot2 (B,J) and gamma.dots (B,)."""
        # d eps/d x = sigma [ sum_j gamma_j / v_j I - sum_j gamma_j (u_j - ubar) u_j^T ],
        # symmetric, applied without forming the matrix.
        dots = np.einsum("bjd,bd->bj", u, cot2)
        gdots = np.einsum("bj,bj->b", gamma, dots)
        diag = np.einsum("bj,j->b", gamma, 1.0 / v)[:, None] * cot2
        mix = np.einsum("bj,bjd,bj->bd", gamma, u, dots) - ubar * gdots[:, None]
        return sigma * (diag - mix), dots, gdots

    def linearize(self, schedule: NoiseSchedule, x, t):
        """(eps, pullback) at (x, t), both from one evaluation of the mixture internals.

        ``pullback(cot)`` returns ``((d eps/d x)^T cot, cot . d eps/d t)``: the
        first equals :meth:`epsilon_vjp` bit for bit, the second is the
        cotangent contracted with :meth:`epsilon_time_partial` (a float summed
        over the batch), formed from (B, J) terms only.
        """
        t = float(schedule.check_time(t))
        x2, single = self._prepare(x)
        alpha, sigma = float(schedule.alpha(t)), float(schedule.sigma(t))
        d_alpha, d_sigma = float(schedule.d_alpha(t)), float(schedule.d_sigma(t))
        v, r, sq, u, gamma = self._parts(x2, alpha, sigma)
        ubar = np.einsum("bj,bjd->bd", gamma, u)
        eps = sigma * ubar

        def pullback(cot):
            cot = np.asarray(cot, dtype=float)
            cot2 = cot[None, :] if single else cot
            xbar, dots, gdots = self._pull_x(v, u, gamma, ubar, cot2, sigma)
            # d eps/dt = sigma' ubar + sigma sum_j (d gamma_j/dt u_j + gamma_j d u_j/dt), with
            # d gamma_j/dt = gamma_j (dln_j - gamma.dln), dln_j = d log N_j/dt, and
            # cot.(d u_j/dt) = -alpha'(cot.mu_j)/v_j - dots_j v_j'/v_j; so only (B,J) terms
            rate = 2.0 * (alpha * d_alpha * self.scales**2 + sigma * d_sigma) / v   # v_j'/v_j
            shift = d_alpha / v
            rmu = np.einsum("bjd,jd->bj", r, self.means)
            dln = shift * rmu + (0.5 * rate / v) * sq - 0.5 * self.dim * rate
            terms = dln * (dots - gdots[:, None]) - rate * dots - shift * (cot2 @ self.means.T)
            tdot = d_sigma * np.sum(gdots) + sigma * np.einsum("bj,bj->", gamma, terms)
            return (xbar[0] if single else xbar), float(tdot)

        return (eps[0] if single else eps), pullback

    def epsilon_alpha_sigma_partials(self, x2, alpha, sigma):
        """(d eps/d alpha, d eps/d sigma), each (B, d); inputs must be batched."""
        v, r, sq, u, gamma = self._parts(x2, alpha, sigma)
        mu = self.means
        dv_da = 2.0 * alpha * self.scales**2                        # (J,)
        dv_ds = 2.0 * sigma * np.ones_like(v)

        # d u_j = (d r_j) / v_j - r_j dv_j / v_j^2, with d r_j/d alpha = -mu_j
        du_da = -mu[None, :, :] / v[None, :, None] - r * (dv_da / v**2)[None, :, None]
        du_ds = -r * (dv_ds / v**2)[None, :, None]

        rmu = np.einsum("bjd,jd->bj", r, mu)
        # d log N_j for each parameter
        dln_da = -0.5 * self.dim * (dv_da / v)[None, :] + rmu / v[None, :] \
            + 0.5 * sq * (dv_da / v**2)[None, :]
        dln_ds = -0.5 * self.dim * (dv_ds / v)[None, :] + 0.5 * sq * (dv_ds / v**2)[None, :]

        def assemble(dln, du, extra):
            centered = dln - np.einsum("bj,bj->b", gamma, dln)[:, None]
            dgamma = gamma * centered
            term = np.einsum("bj,bjd->bd", dgamma, u) + np.einsum("bj,bjd->bd", gamma, du)
            return sigma * term + extra

        ubar = np.einsum("bj,bjd->bd", gamma, u)
        deps_da = assemble(dln_da, du_da, 0.0)
        deps_ds = assemble(dln_ds, du_ds, ubar)
        return deps_da, deps_ds

    def epsilon_time_partial(self, schedule: NoiseSchedule, x, t):
        """d eps / d t through (alpha_t, sigma_t)."""
        t = float(schedule.check_time(t))
        x2, single = self._prepare(x)
        da, ds = self.epsilon_alpha_sigma_partials(
            x2, float(schedule.alpha(t)), float(schedule.sigma(t))
        )
        out = da * float(schedule.d_alpha(t)) + ds * float(schedule.d_sigma(t))
        return out[0] if single else out

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

    def linearize(self, schedule, x, t):
        self.n_linearize += np.atleast_2d(np.asarray(x)).shape[0]
        return self.inner.linearize(schedule, x, t)

    # the transforms of epsilon call the counted epsilon, so each counts once
    def data_prediction(self, schedule, x, t):
        return GaussianMixtureScore.data_prediction(self, schedule, x, t)

    def score(self, schedule, x, t):
        return GaussianMixtureScore.score(self, schedule, x, t)

    def epsilon_fn(self, schedule):
        return lambda x, t: self.epsilon(schedule, x, t)

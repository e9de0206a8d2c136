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
``(B,J)@(J,d)`` product.

The model makes no schedule call: every method takes ``at``, the lookup
``(alpha_t, sigma_t, d alpha/dt, d sigma/dt)`` of the evaluation time that
:meth:`~fewstep.schedules.NoiseSchedule.at` returns.

One kernel, ``_parts``, serves the forward and the reverse pass.
``evaluate(at, x)`` returns the evaluation together with the terms it keeps:
the responsibilities gamma and the projections mu_j.x, two ``(J, B)``
arrays.  ``pullback(at, x, terms, cot)`` turns them into
the vjp and the time derivative contracted with ``cot``, recomputing only
per-component constants and ``|x - alpha mu_j|^2``; it forms neither the
``(B, d)`` time derivative nor its ``(B,J)@(J,d)`` product.  The pullback is
of eps only: the data-prediction chain rule is applied once, for every model,
by :mod:`~fewstep.backprop`.

Shapes: ``x`` may be a single state ``(d,)`` or a batch ``(B, d)``; outputs
match the input.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True, eq=False)
class GaussianMixtureScore:
    """Exact noise prediction for a Gaussian-mixture data distribution.

    weights: (J,) nonnegative, summing to 1
    means:   (J, d)
    scales:  (J,) per-component standard deviations (isotropic)

    The model keeps read-only copies of these arrays, so neither its cached
    per-component constants nor the terms a solve keeps for the reverse pass
    can go stale; two models are equal only if they are the same object.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        m = np.atleast_2d(np.array(self.means, dtype=float))
        s = np.atleast_1d(np.array(self.scales, dtype=float))
        if w.ndim != 1 or m.ndim != 2 or s.ndim != 1:
            raise ValueError("weights (J,), means (J,d), scales (J,) expected")
        if not (len(w) == m.shape[0] == len(s)):
            raise ValueError("component counts disagree")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(s <= 0):
            raise ValueError("scales must be positive")
        for name, owned in (("weights", w), ("means", m), ("scales", s)):
            owned.flags.writeable = False
            object.__setattr__(self, name, owned)
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

    def _sq_norms(self, x2, xm, alpha):
        """|x - alpha mu_j|^2 (J, B) as |x|^2 - 2 alpha x.mu_j + alpha^2 |mu_j|^2, clamped
        at 0; the rounding error this adds is of order eps_mach |x|^2 / v_j in the
        log-densities and eps_mach |x| sum_j gamma_j / v_j in eps / sigma."""
        sq = xm * (-2.0 * alpha)
        sq += (alpha * alpha) * self._mean_sq
        sq += np.einsum("bd,bd->b", x2, x2)
        return np.maximum(sq, 0.0, out=sq)

    def _parts(self, x2, alpha, sigma):
        """The mixture kernel: (ubar, gamma, xm), laid out (J, B) so sums over
        components are row operations.  xm holds the projections mu_j.x, gamma the
        responsibilities, and ubar = sum_j gamma_j (x - alpha mu_j) / v_j (B, d) the
        scaled mean residual, with eps = sigma ubar and v_j the component variances."""
        v = alpha * alpha * self._scale_sq + sigma * sigma
        xm = self.means @ x2.T
        ell = self._sq_norms(x2, xm, alpha) * (-0.5 / v)
        ell += self._log_weights - 0.5 * self.dim * np.log(2.0 * np.pi * v)
        ell -= ell.max(axis=0)
        gamma = np.exp(ell, out=ell)
        gamma /= gamma.sum(axis=0)
        g = gamma / v
        ubar = g.sum(axis=0)[:, None] * x2 - alpha * (g.T @ self.means)
        return ubar, gamma, xm

    def _slopes(self, x2, alpha, sigma, d_alpha, d_sigma, gamma, xm):
        """(v, shift, f): how the terms of eps move in t, from the kept (gamma, xm).

        eps = sigma sum_j gamma_j u_j with u_j = (x - alpha mu_j)/v_j, so
        d eps/dt = sum_j gamma_j (f_j u_j - sigma shift_j mu_j), where
        shift = alpha'/v, f = sigma' + sigma (dln - gamma.dln - rate), rate = v'/v
        and dln_j = d log N_j/dt.  shift is None where alpha' = 0 (VE, EDM).
        """
        v = alpha * alpha * self._scale_sq + sigma * sigma
        rate = 2.0 * (alpha * d_alpha * self._scale_sq + sigma * d_sigma) / v
        dln = (0.5 * rate / v) * self._sq_norms(x2, xm, alpha) - 0.5 * self.dim * rate
        shift = None
        if d_alpha:
            shift = d_alpha / v
            dln += shift * (xm - alpha * self._mean_sq)
        return v, shift, d_sigma + sigma * (dln - (gamma * dln).sum(axis=0) - rate)

    # -- forward -------------------------------------------------------------
    def evaluate(self, at, x, prediction: str = "noise"):
        """``(e, terms)``: the evaluation e -- eps, or the data prediction x_hat for
        ``prediction="data"`` -- and the kept terms (gamma, mu.x), two (J, B) arrays
        from which :meth:`pullback` differentiates eps without re-running the kernel."""
        x2, single = self._prepare(x)
        alpha, sigma = at[0], at[1]
        ubar, gamma, xm = self._parts(x2, alpha, sigma)
        out = sigma * ubar
        if prediction == "data":
            # Tweedie: x_hat = (x - sigma eps) / alpha
            out = (x2 - sigma * out) / alpha
        return (out[0] if single else out), (gamma, xm)

    def epsilon(self, at, x):
        """Exact noise prediction -sigma_t * grad log p_t(x)."""
        return self.evaluate(at, x)[0]

    def data_prediction(self, at, x):
        """Tweedie transform x_hat = (x - sigma_t eps) / alpha_t."""
        return self.evaluate(at, x, "data")[0]

    # -- derivatives -----------------------------------------------------------
    def pullback(self, at, x, terms, cot):
        """``((d eps/d x)^T cot, cot . d eps/d t)`` at the float arrays x and cot of
        one shape; the second is a float summed over the batch.

        ``terms`` are the ones :meth:`evaluate` returned at (at, x), so x is not
        checked again and the kernel does not run.  d eps/d x = sigma [sum_j
        gamma_j/v_j I - sum_j gamma_j (u_j - ubar) u_j^T] is applied without
        forming it, and the time derivative is contracted with cot before it is
        formed: both need only the per-component dots x.cot and mu_j.cot.
        """
        alpha, sigma, d_alpha, d_sigma = at
        gamma, xm = terms
        single = x.ndim == 1
        x2, cot2 = (x[None, :], cot[None, :]) if single else (x, cot)
        v, shift, f = self._slopes(x2, alpha, sigma, d_alpha, d_sigma, gamma, xm)
        mc = self.means @ cot2.T
        dots = (np.einsum("bd,bd->b", x2, cot2) - alpha * mc) / v      # u_j . cot
        g = gamma / v
        gd = gamma * dots
        cg = g * (dots - gd.sum(axis=0))
        xbar = sigma * (g.sum(axis=0)[:, None] * cot2 - cg.sum(axis=0)[:, None] * x2
                        + alpha * (cg.T @ self.means))
        tdots = f * gd
        if shift is not None:
            tdots -= (sigma * shift) * gamma * mc
        return (xbar[0] if single else xbar), float(tdots.sum())

    def epsilon_vjp(self, at, x, cotangent):
        """(d eps / d x)^T cotangent: :meth:`evaluate`, then :meth:`pullback` on its terms."""
        x, cotangent = np.asarray(x, dtype=float), np.asarray(cotangent, dtype=float)
        return self.pullback(at, x, self.evaluate(at, x)[1], cotangent)[0]

    def epsilon_time_partial(self, at, x):
        """d eps / d t through (alpha_t, sigma_t)."""
        x2, single = self._prepare(x)
        alpha, sigma, d_alpha, d_sigma = at
        _, gamma, xm = self._parts(x2, alpha, sigma)
        v, shift, f = self._slopes(x2, alpha, sigma, d_alpha, d_sigma, gamma, xm)
        w = gamma * f / v
        coef = alpha * w if shift is None else alpha * w + sigma * shift * gamma
        out = w.sum(axis=0)[:, None] * x2 - coef.T @ self.means
        return out[0] if single else out


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
    """Wraps a score model and counts the rows of its evaluations (``epsilon``
    and ``evaluate``) and of its pullbacks.

    Used to assert NFE accounting and the evaluation budget of the reverse pass.
    """

    def __init__(self, inner):
        self.inner = inner
        self.reset()

    def reset(self):
        self.n_epsilon = 0
        self.n_pullback = 0

    @property
    def dim(self):
        return self.inner.dim

    @staticmethod
    def _rows(x):
        return np.atleast_2d(np.asarray(x)).shape[0]

    def epsilon(self, at, x):
        self.n_epsilon += self._rows(x)
        return self.inner.epsilon(at, x)

    def evaluate(self, at, x, prediction="noise"):
        self.n_epsilon += self._rows(x)
        return self.inner.evaluate(at, x, prediction)

    def pullback(self, at, x, terms, cot):
        self.n_pullback += self._rows(x)
        return self.inner.pullback(at, x, terms, cot)

    # goes through the counted evaluate, so it counts once
    def data_prediction(self, at, x):
        return GaussianMixtureScore.data_prediction(self, at, x)

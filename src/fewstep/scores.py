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

The model makes no schedule call.  Its one per-time step is
``prepare(at)``: from ``at``, the lookup ``(alpha_t, sigma_t, d alpha/dt,
d sigma/dt)`` of the evaluation time that
:meth:`~fewstep.schedules.NoiseSchedule.at` returns, it makes the record of
everything the kernel computes from those four numbers alone (the component
variances v, -1/(2v), alpha^2 |mu_j|^2, the log-normalizers and -2 alpha,
as ``(J, 1)`` columns), and on first use the slope constants of the time
derivative.  Every other method takes that record ``p``.  Given arrays of
K times, ``prepare`` stacks the constants of all K times into three arrays,
and iterating the stack gives the K records; :class:`~fewstep.solvers.GridTable`
keeps such a stack per model for the score times of its grid, so repeated
solves on one grid compute no per-time constant.

One kernel, ``_parts``, serves the forward and the reverse pass.
``evaluate(p, x)`` returns the evaluation together with the terms it keeps:
the responsibilities gamma and the projections mu_j.x, two ``(J, B)``
arrays.  The reverse pass takes two methods.  ``pullback(p, x, terms, cot)``
returns the vjp of one evaluation and the ``(J, B)`` products
(gamma_j u_j.cot, mu_j.cot) that its time derivative needs; it forms no
time derivative.  ``time_derivatives(preps, points, terms, products)``
contracts cot with d eps/dt for M evaluations at once, as ``(M, J, B)``
arrays, rebuilding ``|x - alpha mu_j|^2`` from the kept mu_j.x and the
points; it forms neither the ``(B, d)`` time derivative nor its
``(B,J)@(J,d)`` product, and it is the only place that contraction is made.
Both are of eps only: the data-prediction chain rule is applied once, for
every model, by :mod:`~fewstep.backprop`.

Shapes: ``x`` may be a single state ``(d,)`` or a batch ``(B, d)``; outputs
match the input.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import NamedTuple

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

    # -- per-time constants --------------------------------------------------
    def _columns(self, alpha, sigma):
        """(v, -1/(2v), alpha^2 |mu_j|^2, log w_j - d/2 log(2 pi v)): the kernel's
        constants of the times (alpha, sigma) broadcast over, (J, 1) for one time."""
        a2 = alpha * alpha
        v = a2 * self._scale_sq
        v += sigma * sigma
        lognorm = np.log(2.0 * np.pi * v)
        lognorm *= -0.5 * self.dim
        lognorm += self._log_weights
        return v, -0.5 / v, a2 * self._mean_sq, lognorm

    def _slope_columns(self, alpha, sigma, d_alpha, d_sigma, v):
        """(rate, rate/(2v), d rate/2, shift, alpha |mu_j|^2, sigma shift): the
        time derivative's constants, with rate = v'/v and shift = alpha'/v."""
        rate = 2.0 * (alpha * d_alpha * self._scale_sq + sigma * d_sigma) / v
        shift = d_alpha / v
        return (rate, 0.5 * rate / v, 0.5 * self.dim * rate, shift,
                alpha * self._mean_sq, sigma * shift)

    def prepare(self, at):
        """The constants of the evaluation time(s) whose schedule lookup is ``at`` =
        ``(alpha, sigma, alpha', sigma')``: a :class:`Prepared` record for float
        entries, a :class:`PreparedTimes` stack for 1-d arrays of K times."""
        if isinstance(at[0], np.ndarray):
            return PreparedTimes(self, at)
        alpha = at[0]
        return Prepared(*at, -2.0 * alpha, *self._columns(alpha, at[1]))

    # -- internals ---------------------------------------------------------
    def _as_batch(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[-1] != self.dim:
            raise ValueError(f"state dim {x2.shape[-1]} != model dim {self.dim}")
        if not np.isfinite(x2).all():
            raise FloatingPointError("non-finite state passed to score model")
        return x2, single

    @staticmethod
    def _sq_norms(x2, xm, p):
        """|x - alpha mu_j|^2 (J, B) as |x|^2 - 2 alpha x.mu_j + alpha^2 |mu_j|^2, clamped
        at 0, or (M, J, B) for M evaluations stacked as x2 (M, 1, B, d); the rounding
        error this adds is of order eps_mach |x|^2 / v_j in the log-densities and
        eps_mach |x| sum_j gamma_j / v_j in eps / sigma."""
        sq = xm * p.m2a
        sq += p.a2m
        sq += np.einsum("...d,...d->...", x2, x2)
        return np.maximum(sq, 0.0, out=sq)

    def _parts(self, x2, p):
        """The mixture kernel: (ubar, gamma, xm), laid out (J, B) so sums over
        components are row operations.  xm holds the projections mu_j.x, gamma the
        responsibilities, and ubar = sum_j gamma_j (x - alpha mu_j) / v_j (B, d) the
        scaled mean residual, with eps = sigma ubar and v_j the component variances."""
        xm = self.means @ x2.T
        ell = self._sq_norms(x2, xm, p)
        ell *= p.nhiv
        ell += p.lognorm
        ell -= ell.max(axis=0)
        gamma = np.exp(ell, out=ell)
        gamma /= gamma.sum(axis=0)
        g = gamma / p.v
        ubar = g.sum(axis=0)[:, None] * x2 - p.alpha * (g.T @ self.means)
        return ubar, gamma, xm

    def _slopes(self, x2, p, gamma, xm):
        """(shift, sigma shift, f): how the terms of eps move in t, from the kept (gamma, xm),
        at one record p, or at a record :meth:`_stacked` made of M evaluations.

        eps = sigma sum_j gamma_j u_j with u_j = (x - alpha mu_j)/v_j, so
        d eps/dt = sum_j gamma_j (f_j u_j - sigma shift_j mu_j), where
        shift = alpha'/v, f = sigma' + sigma (dln - gamma.dln - rate), rate = v'/v
        and dln_j = d log N_j/dt.  shift is None where alpha' = 0 (VE, EDM).
        """
        if p.source is None:        # a record of its own: made now
            slopes = self._slope_columns(p.alpha, p.sigma, p.d_alpha, p.d_sigma, p.v)
        else:                       # read from its stack, which makes them on first use
            slopes = p.source.slopes[:, p.index]
        rate, half_rate_v, dim_rate, shift, alpha_mean_sq, sigma_shift = slopes
        dln = half_rate_v * self._sq_norms(x2, xm, p) - dim_rate
        if np.any(p.d_alpha):
            dln += shift * (xm - alpha_mean_sq)
        else:
            shift = None
        dln -= (gamma * dln).sum(axis=-2, keepdims=True)
        dln -= rate
        return shift, sigma_shift, p.d_sigma + p.sigma * dln

    # -- forward -------------------------------------------------------------
    def evaluate(self, p, x, prediction: str = "noise"):
        """``(e, terms)``: the evaluation e -- eps, or the data prediction x_hat for
        ``prediction="data"`` -- at the prepared time p, and the kept terms
        (gamma, mu.x), two (J, B) arrays from which :meth:`pullback` and
        :meth:`time_derivatives` differentiate eps without re-running the kernel.

        FloatingPointError if x is not finite: every model's ``evaluate`` rejects
        a non-finite point, and :func:`~fewstep.solvers.solve` checks no state
        that a row evaluates."""
        x2, single = self._as_batch(x)
        ubar, gamma, xm = self._parts(x2, p)
        sigma = p.sigma
        out = sigma * ubar
        if prediction == "data":
            # Tweedie: x_hat = (x - sigma eps) / alpha
            out = (x2 - sigma * out) / p.alpha
        return (out[0] if single else out), (gamma, xm)

    def epsilon(self, p, x):
        """Exact noise prediction -sigma_t * grad log p_t(x) at the prepared time p."""
        return self.evaluate(p, x)[0]

    # -- derivatives -----------------------------------------------------------
    def pullback(self, p, x, terms, cot):
        """``((d eps/d x)^T cot, products)`` at the float arrays x and cot of one shape;
        ``products`` are the (J, B) arrays (gamma_j u_j.cot, mu_j.cot) from which
        :meth:`time_derivatives` contracts cot with d eps/dt.

        ``terms`` are the ones :meth:`evaluate` returned at (p, x), so x is not
        checked again and the kernel does not run.  d eps/d x = sigma [sum_j
        gamma_j/v_j I - sum_j gamma_j (u_j - ubar) u_j^T] is applied without
        forming it: it needs only the per-component dots x.cot and mu_j.cot.
        """
        alpha, sigma, v = p.alpha, p.sigma, p.v
        gamma, xm = terms
        single = x.ndim == 1
        x2, cot2 = (x[None, :], cot[None, :]) if single else (x, cot)
        mc = self.means @ cot2.T
        dots = (np.einsum("bd,bd->b", x2, cot2) - alpha * mc) / v      # u_j . cot
        g = gamma / v
        gd = gamma * dots
        cg = g * (dots - gd.sum(axis=0))
        xbar = sigma * (g.sum(axis=0)[:, None] * cot2 - cg.sum(axis=0)[:, None] * x2
                        + alpha * (cg.T @ self.means))
        return (xbar[0] if single else xbar), (gd, mc)

    def time_derivatives(self, preps, points, terms, products):
        """``cot_m . d eps/dt`` of M evaluations as an (M,) array, summed over each batch.

        Evaluation m was made at the prepared time ``preps[m]`` and the point
        ``points[m]`` (all of one shape), :meth:`evaluate` kept ``terms[m]`` and
        :meth:`pullback` with cotangent cot_m returned ``products[m]``.  The M
        evaluations are contracted at once, as (M, J, B) arrays: d eps/dt =
        sum_j gamma_j (f_j u_j - sigma shift_j mu_j) (see :meth:`_slopes`) is
        never formed, only sum f gamma u.cot - sigma shift gamma mu.cot.
        """
        x = _stack(points)[:, None]
        gamma, xm = (_stack(u) for u in zip(*terms))
        gd, mc = (_stack(u) for u in zip(*products))
        shift, sigma_shift, f = self._slopes(x, self._stacked(preps), gamma, xm)
        tdots = f * gd
        if shift is not None:
            tdots -= sigma_shift * gamma * mc
        return tdots.reshape(len(preps), -1).sum(axis=1)

    def _stacked(self, preps):
        """One :class:`Prepared` of the M records ``preps``: scalars (M, 1, 1), columns
        (M, J, 1), reading its slope constants from the stack the records are views
        of, or from a stack made of their lookups."""
        source, first = preps[0].source, preps[0].index
        index = [q.index for q in preps]
        if source is None or any(q.source is not source for q in preps):
            source, index = self.prepare(tuple(np.array([q[:4] for q in preps]).T)), slice(None)
        elif index == list(range(first, first + len(preps))):     # views, not copies
            index = slice(first, first + len(preps))
        return Prepared(*source.scalars[:, index, None, None], *source.columns[:, index],
                        source, index)

    def epsilon_vjp(self, p, x, cotangent):
        """(d eps / d x)^T cotangent: :meth:`evaluate`, then :meth:`pullback` on its terms."""
        x, cotangent = np.asarray(x, dtype=float), np.asarray(cotangent, dtype=float)
        return self.pullback(p, x, self.evaluate(p, x)[1], cotangent)[0]

    def epsilon_time_partial(self, p, x):
        """d eps / d t through (alpha_t, sigma_t)."""
        x2, single = self._as_batch(x)
        _, gamma, xm = self._parts(x2, p)
        shift, sigma_shift, f = self._slopes(x2, p, gamma, xm)
        w = gamma * f / p.v
        coef = p.alpha * w if shift is None else p.alpha * w + sigma_shift * gamma
        out = w.sum(axis=0)[:, None] * x2 - coef.T @ self.means
        return out[0] if single else out


class Prepared(NamedTuple):
    """What :class:`GaussianMixtureScore` computes from one time's lookup
    (alpha, sigma, alpha', sigma') alone; the columns are (J, 1).

    A record taken from a :class:`PreparedTimes` stack holds views of its arrays
    and reads the time derivative's constants from it (``source``, ``index``); a
    record of its own makes them when asked.
    """

    alpha: float
    sigma: float
    d_alpha: float
    d_sigma: float
    m2a: float                   # -2 alpha
    v: np.ndarray                # component variances alpha^2 s_j^2 + sigma^2
    nhiv: np.ndarray             # -1 / (2 v)
    a2m: np.ndarray              # alpha^2 |mu_j|^2
    lognorm: np.ndarray          # log w_j - d/2 log(2 pi v)
    source: "PreparedTimes | None" = None
    index: int = 0


class PreparedTimes:
    """The :class:`Prepared` constants of K times in three stacked arrays:
    ``scalars`` (5, K) holds alpha, sigma, alpha', sigma' and -2 alpha,
    ``columns`` (4, K, J, 1) the kernel's columns and ``slopes`` (6, K, J, 1) the
    time derivative's, made on first use, so only times that are differentiated pay
    for them.  Iterating gives the K records, whose columns are views."""

    __slots__ = ("model", "scalars", "columns", "_slopes")

    def __init__(self, model: GaussianMixtureScore, at):
        alpha, sigma, d_alpha, d_sigma = (np.asarray(c, dtype=float) for c in at)
        self.model = model
        self.scalars = np.stack([alpha, sigma, d_alpha, d_sigma, -2.0 * alpha])
        self.columns = np.stack(model._columns(alpha[:, None, None], sigma[:, None, None]))
        self._slopes = None

    def __len__(self):
        return self.scalars.shape[1]

    def __iter__(self):
        return itertools.starmap(Prepared, zip(*self.scalars.tolist(), *self.columns,
                                               itertools.repeat(self), range(len(self))))

    @property
    def slopes(self):
        if self._slopes is None:
            alpha, sigma, d_alpha, d_sigma = self.scalars[:4, :, None, None]
            self._slopes = np.stack(self.model._slope_columns(alpha, sigma, d_alpha, d_sigma,
                                                              self.columns[0]))
        return self._slopes


def _stack(arrays):
    """M arrays of one shape (..., n) as one (M, -1, n) array."""
    return np.concatenate(arrays).reshape(len(arrays), -1, arrays[0].shape[-1])


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


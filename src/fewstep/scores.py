"""Analytic noise-prediction models standing in for a trained score network.

For a Gaussian-mixture data distribution with isotropic per-component
covariances, the marginal under the forward kernel stays a Gaussian mixture,
so the noise prediction ``eps(x, t) = -sigma_t * grad log p_t(x)`` is exact
and cheap, and its Jacobian (for the reverse-mode pass) and time derivative
are closed-form.  Mixture responsibilities are evaluated with log-sum-exp so
large |log-SNR| values stay stable.

The kernel is two matrix products around a softmax, and never forms a
(B, J, d) array.  With v_j = alpha^2 s_j^2 + sigma^2 the component variances
at the time, the log-densities ``log w_j N(x; alpha mu_j, v_j I)`` of a
batch are the (J, B) array

    ell = win @ x.T + nhiv |x|^2 + c,

with ``win = alpha mu / v`` (J, d), ``nhiv = -1/(2v)`` and ``c = nhiv alpha^2
|mu_j|^2 + log w_j - d/2 log(2 pi v)`` (J, 1): the expansion of
``|x - alpha mu_j|^2``.  Where it cancels, at x = alpha mu_j, its rounding
error is of order eps_mach alpha^2 |mu_j|^2 / v_j in ell; the tests hold the
kernel to one that forms every ``x - alpha mu_j``, at both ends of a
schedule, at |x| = 8 sigma, and near and at the scaled means.  The softmax
over j gives the responsibilities gamma, and eps = sigma sum_j gamma_j
(x - alpha mu_j)/v_j is

    o = gamma.T @ wout,  eps = o[:, :1] x - o[:, 1:],

with ``wout = sigma [1/v | alpha mu / v]`` (J, 1+d).

The model makes no schedule call.  Its one per-time step is
``prepare(at)``: from ``at``, the lookup ``(alpha_t, sigma_t, d alpha/dt,
d sigma/dt)`` of the evaluation time that
:meth:`~fewstep.schedules.NoiseSchedule.at` returns, it makes the record of
the time: the lookup and nhiv, c, win and wout, views of one ``(J, 3+2d)``
array.  Every other method takes that record ``p``.  Given arrays of K times
(or their lookups as one (4, K) array), ``prepare`` stacks the constants of
all K times in one pass, filling their factor rows column by column, and on
first use the slope constants of the time derivative; iterating the stack
gives the K records, and the record of one time is that of a stack of one.
Each entry of a stack is computed as its own record would be, so a record's
bits do not depend on the times stacked with it.
:class:`~fewstep.solvers.GridTable` keeps such a stack per model for the
score times of its grid, so repeated solves on one grid compute no per-time
constant; an ss solve stacks its stage times, and the adaptive teacher the
five stage times of each step attempt.

``evaluate(p, x)`` returns the evaluation together with the one term it
keeps, gamma.  The reverse pass takes two methods.  ``pullback(p, x, gamma,
cot)`` returns the vjp of one evaluation, as products with wout, and the
``(J, B)`` products (gamma_j u_j.cot, mu_j.cot), u_j = (x - alpha mu_j)/v_j,
that its time derivative needs; it forms no time derivative.
``time_derivatives(preps, points, terms, products)`` contracts cot with
d eps/dt for M evaluations at once, as ``(M, J, B)`` arrays, making mu_j.x
of all M points in one product; it forms neither the ``(B, d)`` time
derivative nor its ``(B,J)@(J,d)`` product, and it is the only place that
contraction is made.  Both are of eps only: the data-prediction chain rule is
applied once, for every model, by :mod:`~fewstep.backprop`.

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
        # per-component constants of every evaluation
        ones, mean_sq = np.ones((len(w), 1)), np.einsum("jd,jd->j", m, m)[:, None]
        with np.errstate(divide="ignore"):
            log_norm = np.log(w)[:, None] - 0.5 * m.shape[1] * np.log(2.0 * np.pi)
        object.__setattr__(self, "_log_norm", log_norm)
        object.__setattr__(self, "_mean_sq", mean_sq)
        object.__setattr__(self, "_scale_sq", (s * s)[:, None])
        object.__setattr__(self, "_basis", np.concatenate([ones, mean_sq, m, ones, m], axis=1))

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
    def _variances(self, alpha, sigma):
        """The component variances v = alpha^2 s_j^2 + sigma^2 of the times (alpha, sigma)."""
        v = (alpha * alpha) * self._scale_sq
        v += sigma * sigma
        return v

    def _factors(self, alpha, sigma):
        """The time factors (K, 1, 3+2d) of the kernel's columns (see :meth:`_kernel`)
        of the K times (alpha, sigma), each (K, 1, 1), written column by column."""
        d = self.means.shape[1]
        factors = np.empty(alpha.shape[:-1] + (3 + 2 * d,))
        factors[..., :1] = -0.5
        factors[..., 1:2] = -0.5 * (alpha * alpha)
        factors[..., 2:2 + d] = alpha
        factors[..., 2 + d:3 + d] = sigma
        factors[..., 3 + d:] = sigma * alpha
        return factors

    def _kernel(self, alpha, sigma, factors):
        """The kernel's columns [nhiv | c | win | wout] (..., J, 3+2d) of the times
        (alpha, sigma) broadcast over, from their row of :meth:`_factors` (..., 1, 3+2d):
        the per-component basis [1 | |mu_j|^2 | mu_j | 1 | mu_j] scaled by
        [-1/2, -alpha^2/2, alpha, sigma, sigma alpha] / v, with log w_j - d/2 log(2 pi v)
        added to c."""
        v = self._variances(alpha, sigma)
        kernel = self._basis * factors
        kernel /= v
        lognorm = np.log(v)
        lognorm *= -0.5 * self.dim
        lognorm += self._log_norm
        kernel[..., 1:2] += lognorm
        return kernel

    def _columns(self, kernel):
        """(nhiv, c, win, wout): views of a kernel's columns."""
        d = self.dim
        return kernel[..., :1], kernel[..., 1:2], kernel[..., 2:2 + d], kernel[..., 2 + d:]

    def _slope_columns(self, alpha, sigma, d_alpha, d_sigma):
        """(rate, rate/(2v), shift): the time derivative's constants, with v'/v = rate
        and alpha'/v = shift."""
        v = self._variances(alpha, sigma)
        rate = 2.0 * (alpha * d_alpha * self._scale_sq + sigma * d_sigma) / v
        return rate, 0.5 * rate / v, d_alpha / v

    def prepare(self, at):
        """The constants of the evaluation time(s) whose schedule lookup is ``at`` =
        ``(alpha, sigma, alpha', sigma')``: a :class:`Prepared` record for float
        entries, a :class:`PreparedTimes` stack for 1-d arrays of K times (or a
        (4, K) array)."""
        if isinstance(at[0], np.ndarray):
            return PreparedTimes(self, at)
        return next(iter(PreparedTimes(self, np.array(at, dtype=float)[:, None])))

    # -- internals ---------------------------------------------------------
    def _slopes(self, x, xm, gamma, at, slopes):
        """(shift, sigma shift, f): how the terms of eps move in t, from gamma, the
        projections xm = mu_j.x and the points x, at the lookups ``at`` (4, M, 1, 1)
        and slope constants ``slopes`` (3, M, J, 1) of M evaluations; x is (M, 1, B, d)
        or (B, d) for M = 1, and the results are (M, J, B).

        eps = sigma sum_j gamma_j u_j with u_j = (x - alpha mu_j)/v_j, so
        d eps/dt = sum_j gamma_j (f_j u_j - sigma shift_j mu_j), where
        shift = alpha'/v, f = sigma' + sigma (dln - gamma.dln - rate), rate = v'/v
        and dln_j = d log N_j/dt, which needs |x - alpha mu_j|^2: expanded as
        |x|^2 - 2 alpha x.mu_j + alpha^2 |mu_j|^2 and clamped at 0.  shift is None
        where alpha' = 0 (VE, EDM).
        """
        alpha, sigma, d_alpha, d_sigma = at
        rate, half_rate_v, shift = slopes
        sq = xm * (-2.0 * alpha)
        sq += (alpha * alpha) * self._mean_sq
        sq += np.einsum("...d,...d->...", x, x)
        dln = half_rate_v * np.maximum(sq, 0.0, out=sq)
        dln -= 0.5 * self.dim * rate
        if np.any(d_alpha):
            dln += shift * (xm - alpha * self._mean_sq)
            sigma_shift = sigma * shift
        else:
            shift = sigma_shift = None
        dln -= (gamma * dln).sum(axis=-2, keepdims=True)
        dln -= rate
        return shift, sigma_shift, d_sigma + sigma * dln

    # -- forward -------------------------------------------------------------
    def evaluate(self, p, x, prediction: str = "noise"):
        """``(e, gamma)``: the evaluation e -- eps, or the data prediction x_hat for
        ``prediction="data"`` -- at the prepared time p, and the responsibilities
        gamma (J, B), the one term from which :meth:`pullback` and
        :meth:`time_derivatives` differentiate eps without re-running the kernel.

        FloatingPointError if x is not finite: every model's ``evaluate`` rejects
        a non-finite point, and :func:`~fewstep.solvers.solve` checks no state
        that a row evaluates."""
        x2 = np.asarray(x, dtype=float)
        single = x2.ndim == 1
        if single:
            x2 = x2[None, :]
        if x2.shape[-1] != self.means.shape[1]:
            raise ValueError(f"state dim {x2.shape[-1]} != model dim {self.means.shape[1]}")
        if not np.isfinite(x2).all():
            raise FloatingPointError("non-finite state passed to score model")
        ell = p.win @ x2.T
        ell += p.nhiv * np.einsum("bd,bd->b", x2, x2)
        ell += p.c
        ell -= ell.max(axis=0)
        gamma = np.exp(ell, out=ell)
        gamma /= gamma.sum(axis=0)
        o = gamma.T @ p.wout
        out = o[:, :1] * x2
        out -= o[:, 1:]
        if prediction == "data":
            # Tweedie: x_hat = (x - sigma eps) / alpha
            out = (x2 - p.sigma * out) / p.alpha
        return (out[0] if single else out), gamma

    def epsilon(self, p, x):
        """Exact noise prediction -sigma_t * grad log p_t(x) at the prepared time p."""
        return self.evaluate(p, x)[0]

    # -- derivatives -----------------------------------------------------------
    def pullback(self, p, x, gamma, cot):
        """``((d eps/d x)^T cot, products)`` at the float arrays x and cot of one shape;
        ``products`` are the (J, B) arrays (gamma_j u_j.cot, mu_j.cot) from which
        :meth:`time_derivatives` contracts cot with d eps/dt.

        ``gamma`` is the term :meth:`evaluate` returned at (p, x), so x is not
        checked again and the kernel does not run.  d eps/d x = sigma [sum_j
        gamma_j/v_j I - sum_j gamma_j (u_j - ubar) u_j^T], with ubar = sum_j gamma_j
        u_j, is applied without forming it, from the per-component dots x.cot and
        mu_j.cot and two products with wout: sigma sum_j gamma_j/v_j is
        gamma.T @ wout[:, :1] and, with r_j = gamma_j (u_j - ubar).cot and
        o = r.T @ wout, sigma sum_j r_j u_j is o[:, :1] x - o[:, 1:].
        """
        single = x.ndim == 1
        x2, cot2 = (x[None, :], cot[None, :]) if single else (x, cot)
        mc = self.means @ cot2.T
        dots = (np.einsum("bd,bd->b", x2, cot2) - p.alpha * mc) * (-2.0 * p.nhiv)  # u_j.cot
        gd = gamma * dots
        r = gamma * (dots - gd.sum(axis=0))
        o = r.T @ p.wout
        xbar = (gamma.T @ p.wout[:, :1]) * cot2
        xbar -= o[:, :1] * x2
        xbar += o[:, 1:]
        return (xbar[0] if single else xbar), (gd, mc)

    def time_derivatives(self, preps, points, terms, products):
        """``cot_m . d eps/dt`` of M evaluations as an (M,) array, summed over each batch.

        Evaluation m was made at the prepared time ``preps[m]`` and the point
        ``points[m]`` (all of one shape), :meth:`evaluate` kept ``terms[m]`` and
        :meth:`pullback` with cotangent cot_m returned ``products[m]``.  The M
        evaluations are contracted at once, as (M, J, B) arrays, with the
        projections mu_j.x of all M points made in one product: d eps/dt =
        sum_j gamma_j (f_j u_j - sigma shift_j mu_j) (see :meth:`_slopes`) is
        never formed, only sum f gamma u.cot - sigma shift gamma mu.cot.
        """
        x = _stack(points)
        gamma = _stack(terms)
        gd, mc = (_stack(u) for u in zip(*products))
        xm = self.means @ x.transpose(0, 2, 1)
        shift, sigma_shift, f = self._slopes(x[:, None], xm, gamma, *self._stacked(preps))
        tdots = f * gd
        if shift is not None:
            tdots -= sigma_shift * gamma * mc
        return tdots.reshape(len(preps), -1).sum(axis=1)

    def _stacked(self, preps):
        """(lookups (4, M, 1, 1), slope constants (3, M, J, 1)) of the M records
        ``preps``: read from the stack the records are views of, or, for records of
        several stacks, from a stack made of their lookups."""
        source, first = preps[0].source, preps[0].index
        index = [q.index for q in preps]
        if any(q.source is not source for q in preps):
            source, index = self.prepare(np.array([q[:4] for q in preps]).T), slice(None)
        elif index == list(range(first, first + len(preps))):     # views, not copies
            index = slice(first, first + len(preps))
        return source.scalars[:, index, None, None], source.slopes[:, index]

    def epsilon_vjp(self, p, x, cotangent):
        """(d eps / d x)^T cotangent: :meth:`evaluate`, then :meth:`pullback` on its term."""
        x, cotangent = np.asarray(x, dtype=float), np.asarray(cotangent, dtype=float)
        return self.pullback(p, x, self.evaluate(p, x)[1], cotangent)[0]

    def epsilon_time_partial(self, p, x):
        """d eps / d t through (alpha_t, sigma_t)."""
        single = np.ndim(x) == 1
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        gamma = self.evaluate(p, x2)[1]
        shift, sigma_shift, f = self._slopes(x2, self.means @ x2.T, gamma, *self._stacked([p]))
        w = gamma * f[0] / self._variances(p.alpha, p.sigma)
        coef = p.alpha * w if shift is None else p.alpha * w + sigma_shift[0] * gamma
        out = w.sum(axis=0)[:, None] * x2 - coef.T @ self.means
        return out[0] if single else out


class Prepared(NamedTuple):
    """What :class:`GaussianMixtureScore` computes from one time's lookup
    (alpha, sigma, alpha', sigma') alone, for :meth:`~GaussianMixtureScore.evaluate`
    and :meth:`~GaussianMixtureScore.pullback`.

    Every record is entry ``index`` of a :class:`PreparedTimes` stack
    (``source``): its arrays are views of the time's columns of the stack's
    kernel (see :meth:`~GaussianMixtureScore._kernel`), and it reads the time
    derivative's constants from the stack.
    """

    alpha: float
    sigma: float
    d_alpha: float
    d_sigma: float
    nhiv: np.ndarray             # -1 / (2 v), v the component variances (J, 1)
    c: np.ndarray                # nhiv alpha^2 |mu_j|^2 + log w_j - d/2 log(2 pi v) (J, 1)
    win: np.ndarray              # alpha mu / v (J, d)
    wout: np.ndarray             # sigma [1/v | alpha mu / v] (J, 1+d)
    source: "PreparedTimes"
    index: int


class PreparedTimes:
    """The :class:`Prepared` constants of K times in three stacked arrays:
    ``scalars`` (4, K) holds alpha, sigma, alpha' and sigma', ``kernel``
    (K, J, 3+2d) the columns [nhiv | c | win | wout] of each time, and ``slopes``
    (3, K, J, 1) the time derivative's, made on first use, so only times that are
    differentiated pay for them.  Iterating gives the K records, whose arrays are
    views of ``kernel``."""

    __slots__ = ("model", "scalars", "kernel", "_slopes")

    def __init__(self, model: GaussianMixtureScore, at):
        self.model = model
        self.scalars = np.array(at, dtype=float)
        alpha, sigma = self.scalars[:2, :, None, None]
        self.kernel = model._kernel(alpha, sigma, model._factors(alpha, sigma))
        self._slopes = None

    def __len__(self):
        return self.scalars.shape[1]

    def __iter__(self):
        return itertools.starmap(Prepared, zip(
            *self.scalars.tolist(), *self.model._columns(self.kernel),
            itertools.repeat(self), range(len(self))))

    @property
    def slopes(self):
        if self._slopes is None:
            self._slopes = np.stack(self.model._slope_columns(*self.scalars[:, :, None, None]))
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


"""Noise schedules, the log-SNR change of variables, and exponential-integrator helpers.

A schedule fixes the forward perturbation kernel ``p(x_t | x_0) = N(alpha_t x_0,
sigma_t^2 I)`` on ``[t_min, T]`` and everything derived from it: the log-SNR
``lam(t) = log(alpha_t / sigma_t)``, the drift/diffusion coefficients of the
probability-flow ODE, and the phi functions that appear when the ODE is solved
in the log-SNR variable.  Each kind writes two formulas: the lookup
``(alpha, sigma, d alpha/dt, d sigma/dt)`` of a time, which :meth:`NoiseSchedule.at`
returns after checking the time, and the inverse of ``lam``; every other
per-time quantity is read from ``at``.  All schedules here are smooth with
strictly decreasing SNR, so ``lam`` is strictly decreasing and invertible in
closed form, on scalars or whole arrays of log-SNR values.

Solving runs from ``T`` down to ``t_min`` (never to 0, for numerical
stability); ``tilde_sigma`` is the noise scale of the terminal marginal used
to draw initial states.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError

# Below this |h| the closed forms of the phi functions cancel catastrophically
# in double precision; switch to the (rapidly convergent) Taylor series.
PHI_SERIES_CUTOFF = 1e-4
_PHI_SERIES_TERMS = 10
# The 32-point Gauss-Legendre rule on [-1, 1]: the phi functions' integral here
# and the exponential-multistep preset weights in coeffs.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclasses.dataclass(frozen=True)
class NoiseSchedule:
    """Base class; a concrete kind writes only its per-time formula ``_at`` and
    ``_time_from_lambda``, the closed-form inverse of ``lam``.  Every other
    per-time quantity is read from :meth:`at`."""

    T: float = 1.0
    t_min: float = 1e-3
    tilde_sigma: float | None = None

    def __post_init__(self):
        if not (0.0 < self.t_min < self.T):
            raise DomainError(f"need 0 < t_min < T, got t_min={self.t_min}, T={self.T}")
        if self.tilde_sigma is None:
            object.__setattr__(self, "tilde_sigma", self._default_tilde_sigma())
        if self.tilde_sigma <= 0.0:
            raise DomainError(f"tilde_sigma must be positive, got {self.tilde_sigma}")
        lam_range = float(self.lam(self.T)), float(self.lam(self.t_min))
        object.__setattr__(self, "_lam_range", lam_range)

    def _at(self, t):
        """(alpha, sigma, d alpha/dt, d sigma/dt) at t, unchecked."""
        raise NotImplementedError

    def at(self, t):
        """(alpha, sigma, d alpha/dt, d sigma/dt) in one lookup, at t as
        :meth:`check_time` returns it: floats for a scalar, else arrays."""
        t = self.check_time(t)
        out = self._at(t)
        return tuple(map(float, out)) if isinstance(t, float) else out

    def _default_tilde_sigma(self) -> float:
        return float(self.sigma(self.T))

    # -- derived quantities ----------------------------------------------
    def alpha(self, t):
        return self.at(t)[0]

    def sigma(self, t):
        return self.at(t)[1]

    def lam(self, t):
        """Log signal-to-noise ratio log(alpha_t / sigma_t)."""
        a, s = self.at(t)[:2]
        return np.log(a) - np.log(s)

    def kappa(self, t):
        """Noise-to-signal ratio sigma_t / alpha_t (strictly increasing)."""
        a, s = self.at(t)[:2]
        return s / a

    def f(self, t):
        """Drift coefficient d log(alpha_t) / dt of the probability-flow ODE."""
        a, _, da, _ = self.at(t)
        return da / a

    def g_sq(self, t):
        """Squared diffusion coefficient d(sigma_t^2)/dt - 2 f(t) sigma_t^2."""
        a, s, da, ds = self.at(t)
        return 2.0 * s * ds - 2.0 * (da / a) * s * s

    def check_time(self, t):
        """Validate t in [t_min, T] (tiny fp slack; NaN is rejected) and return it
        clipped exactly: a float for a Python or NumPy scalar, else an array."""
        lo, hi = self.t_min, self.T
        slack = 1e-9 * (hi - lo)
        if isinstance(t, (float, int)):
            if not lo - slack <= t <= hi + slack:
                raise DomainError(f"time {t} outside schedule domain [{lo}, {hi}]")
            return float(min(max(t, lo), hi))
        t = np.asarray(t, dtype=float)
        if not np.all((t >= lo - slack) & (t <= hi + slack)):
            raise DomainError(f"time {t} outside schedule domain [{lo}, {hi}]")
        return np.clip(t, lo, hi)

    def lambda_range(self):
        """(lam(T), lam(t_min)), computed once: the increasing span reverse solves traverse."""
        return self._lam_range

    def time_from_lambda(self, lam):
        """Invert lam(t) in closed form: a float for a scalar, an array for an array."""
        lam_lo, lam_hi = self._lam_range
        lam = np.asarray(lam, dtype=float)
        slack = 1e-9 * (lam_hi - lam_lo)
        if np.any(lam < lam_lo - slack) or np.any(lam > lam_hi + slack):
            raise DomainError(f"lambda {lam} outside [{lam_lo}, {lam_hi}]")
        t = np.where(lam <= lam_lo, self.T,
                     np.where(lam >= lam_hi, self.t_min, self._time_from_lambda(lam)))
        return float(t) if t.ndim == 0 else t

    def _time_from_lambda(self, lam):
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class VpLinearSchedule(NoiseSchedule):
    """Variance-preserving schedule with beta(t) linear in t.

    alpha_t = exp(-1/2 int_0^t beta), sigma_t = sqrt(1 - alpha_t^2).  The
    beta range follows the common convention for this family; it is a config
    default, not a claim about any particular pretrained model.
    """

    beta_min: float = 0.1
    beta_max: float = 20.0

    def beta(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * (t / self.T)

    def _log_alpha(self, t):
        return -0.5 * self.beta_min * t - (self.beta_max - self.beta_min) * t * t / (4.0 * self.T)

    def _at(self, t):
        log_alpha = self._log_alpha(t)
        a, s, beta = np.exp(log_alpha), np.sqrt(-np.expm1(2.0 * log_alpha)), self.beta(t)
        return a, s, -0.5 * beta * a, 0.5 * beta * a * a / s

    def _time_from_lambda(self, lam):
        # alpha^2 = sigmoid(2 lam), so c = -log(alpha) = a t^2 + b t; take the
        # positive root in the form that does not cancel (and allows b = 0)
        c = 0.5 * np.logaddexp(0.0, -2.0 * lam)
        a = (self.beta_max - self.beta_min) / (4.0 * self.T)
        b = 0.5 * self.beta_min
        return 2.0 * c / (b + np.sqrt(b * b + 4.0 * a * c))

    def _default_tilde_sigma(self) -> float:
        return 1.0


@dataclasses.dataclass(frozen=True)
class VeSchedule(NoiseSchedule):
    """Variance-exploding schedule: alpha = 1, sigma_t = t."""

    T: float = 10.0
    t_min: float = 0.01

    def _at(self, t):
        # t ** 0.0 and 0.0 * t: 1 and 0 as a float, or as arrays of t's shape
        return t ** 0.0, t, 0.0 * t, t ** 0.0

    def _time_from_lambda(self, lam):
        return np.exp(-lam)


@dataclasses.dataclass(frozen=True)
class EdmSchedule(VeSchedule):
    """Same process as VeSchedule but with the wide time range conventional
    for this parametrization (t in [0.002, 80])."""

    T: float = 80.0
    t_min: float = 0.002


SCHEDULE_KINDS = {
    "vp_linear": VpLinearSchedule,
    "ve": VeSchedule,
    "edm": EdmSchedule,
}


def phi_functions(h: float, order: int) -> np.ndarray:
    """phi_1(h) ... phi_order(h) as an ``(order,)`` array.

    phi_k(z) = int_0^1 e^{(1-u) z} u^{k-1}/(k-1)! du, with phi_k(0) = 1/k! and
    the recurrence phi_{k+1}(z) = (phi_k(z) - phi_k(0)) / z.  The series is
    used for small |h|.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h = float(h)
    values = np.empty(order)
    if abs(h) < PHI_SERIES_CUTOFF:
        for k in range(1, order + 1):
            acc = 0.0
            term_fact = math.factorial(k)
            # phi_k(h) = sum_n h^n / (n + k)!
            hp = 1.0
            for n in range(_PHI_SERIES_TERMS):
                acc += hp / term_fact
                hp *= h
                term_fact *= n + k + 1
            values[k - 1] = acc
    else:
        # Upward recurrence (phi_{k+1} = (phi_k - phi_k(0))/h) cancels badly for
        # moderate h, so evaluate the top order from its defining integral and
        # recurse downward, which is stable.
        u = 0.5 * (GL_NODES + 1.0)
        top = 0.5 * float(
            np.dot(GL_WEIGHTS, np.exp((1.0 - u) * h) * u ** (order - 1))
        ) / math.factorial(order - 1)
        values[order - 1] = top
        for k in range(order - 1, 0, -1):
            values[k - 1] = h * values[k] + 1.0 / math.factorial(k)
    return values


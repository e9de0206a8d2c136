"""The slow reference step the fast solvers are tested against.

It integrates the exact log-SNR form of one probability-flow step with SciPy,
so it is an oracle of the tests, not a sampling path; the package itself
imports no SciPy.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp


class NumericalError(RuntimeError):
    """The reference step failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def d_lam(schedule, t):
    """d lam / dt = alpha'/alpha - sigma'/sigma."""
    a, s, da, ds = schedule.at(t)
    return da / a - ds / s


def exact_step_integrand(
    schedule,
    x_prev: np.ndarray,
    t_prev: float,
    t_next: float,
    eps_fn,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    quad_nodes: int = 48,
    agreement_tol: float = 1e-8,
) -> np.ndarray:
    """Reference one-step solution via the exact log-SNR integral form.

    Integrates the noise-prediction term ``eps_fn(x, t)`` against e^{-lam}
    with Gauss-Legendre quadrature along a tightly-resolved trajectory, and
    raises :class:`NumericalError` if two quadrature orders disagree.
    """
    if not t_next < t_prev:
        raise ValueError("exact step requires t_next < t_prev (reverse time)")
    t_prev = float(schedule.check_time(t_prev))
    t_next = float(schedule.check_time(t_next))
    x_prev = np.asarray(x_prev, dtype=float)
    lam_p = float(schedule.lam(t_prev))
    lam_n = float(schedule.lam(t_next))

    def rhs(lam, y):
        t = schedule.time_from_lambda(lam)
        x = y.reshape(x_prev.shape)
        dloga = float(schedule.f(t)) / float(d_lam(schedule, t))
        dx = dloga * x - float(schedule.sigma(t)) * eps_fn(x, t)
        return dx.ravel()

    sol = solve_ivp(
        rhs, (lam_p, lam_n), x_prev.ravel(), method="RK45",
        rtol=rtol, atol=atol, dense_output=True,
    )
    if not sol.success:
        raise NumericalError("trajectory resolution failed", {"message": sol.message})

    alpha_p = float(schedule.alpha(t_prev))
    alpha_n = float(schedule.alpha(t_next))

    def quadrature(n_nodes):
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        mid, half = 0.5 * (lam_p + lam_n), 0.5 * (lam_n - lam_p)
        lams = mid + half * nodes
        total = np.zeros_like(x_prev)
        for lam, t, w in zip(lams, schedule.time_from_lambda(lams), weights):
            x = sol.sol(lam).reshape(x_prev.shape)
            total += w * math.exp(-lam) * eps_fn(x, t)
        return half * total

    q_hi = quadrature(quad_nodes)
    q_lo = quadrature(max(8, quad_nodes // 2))
    deviation = float(np.max(np.abs(q_hi - q_lo)))
    scale = max(1.0, float(np.max(np.abs(q_hi))))
    if deviation > agreement_tol * scale:
        raise NumericalError(
            "quadrature did not converge",
            {"deviation": deviation, "nodes": quad_nodes, "tol": agreement_tol},
        )
    return (alpha_n / alpha_p) * x_prev - alpha_n * q_hi

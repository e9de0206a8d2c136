"""Walk through the noise schedules and the log-SNR machinery.

Every solver in this package lives in the log-SNR variable lambda(t) =
log(alpha_t / sigma_t).  This script shows the three schedule kinds, the
round trip between t and lambda, the phi functions of the exponential
integrator, and a fine log-SNR solve against the closed-form Gaussian flow.
"""

import numpy as np

from fewstep import (EdmSchedule, GaussianMixtureScore, VeSchedule, VpLinearSchedule,
                     heuristic_grid, init_preset, phi_functions, solve)
from fewstep.teachers import exact_gaussian_solution

print("=== Schedule kinds ===")
for schedule in (VpLinearSchedule(), VeSchedule(), EdmSchedule()):
    lam_lo, lam_hi = schedule.lambda_range()
    print(f"{type(schedule).__name__:<18} t in [{schedule.t_min:g}, {schedule.T:g}]  "
          f"lambda in [{lam_lo:+.2f}, {lam_hi:+.2f}]  tilde_sigma={schedule.tilde_sigma:g}")

print("\n=== t <-> lambda round trip (VP schedule) ===")
vp = VpLinearSchedule()
ts = np.linspace(vp.t_min, vp.T, 500)
worst = np.max(np.abs(vp.time_from_lambda(vp.lam(ts)) - ts))
print(f"worst |t - t_lambda(lambda(t))| over 500 samples: {worst:.2e}")

print("\n=== Probability-flow ODE coefficients at a few times ===")
for t in (0.1, 0.5, 0.9):
    print(f"t={t}: drift f(t)={vp.f(t):+.4f}  diffusion g^2(t)={vp.g_sq(t):+.4f}")

print("\n=== phi functions ===")
print("phi_k(0) = 1/k!:", phi_functions(0.0, 4))
for h in (0.5, 2.0):
    table = phi_functions(h, 3)
    recur = (table[0] - 1.0) / h
    print(f"h={h}: phi_1..3 = {np.round(table, 6)}  "
          f"recurrence check |phi_2 - (phi_1 - 1)/h| = {abs(table[1] - recur):.1e}")

print("\n=== Log-SNR solves vs. the closed-form Gaussian flow ===")
# the exponential Adams-Bashforth preset integrates the phi-weighted increments
# above; refining a grid uniform in lambda brings it onto the exact flow
model = GaussianMixtureScore.isotropic(2, scale=1.0)
print(f"{'|solve - exact|':<18} " + " ".join(f"{f'N={n}':>9}" for n in (25, 50, 100, 200)))
for schedule in (VpLinearSchedule(), VeSchedule()):
    x = schedule.tilde_sigma * np.array([0.4, -0.2])
    expected = exact_gaussian_solution(schedule, model, x)
    errs = []
    for n in (25, 50, 100, 200):
        grid = heuristic_grid(schedule, n, "logsnr")
        coeffs = init_preset("lms", 3, n, "adams_bashforth", schedule=schedule, grid=grid)
        errs.append(np.linalg.norm(solve(coeffs, schedule, grid, model, x).terminal - expected))
    print(f"{type(schedule).__name__:<18} " + " ".join(f"{e:9.2e}" for e in errs))

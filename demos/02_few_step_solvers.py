"""Run the generalized solver family at small step counts against a teacher.

Compares the classical presets (constant-coefficient multistep, the
phi-function predictor-corrector, the midpoint single-step method) on a
curved three-component mixture problem, and shows the cost accounting that
each solve reports as ``trace.nfe_used``: one score evaluation per multistep
step, one extra for the closing corrector, k per single-step update.
"""

import numpy as np

from fewstep import (TeacherConfig, VeSchedule, default_mixture, heuristic_grid,
                     init_preset, solve, teacher_solve)

schedule = VeSchedule()
model = default_mixture(2)
teacher = TeacherConfig(kind="adaptive_rk", rel_tol=1e-10, abs_tol=1e-12)

rng = np.random.default_rng(3)
xs = schedule.tilde_sigma * rng.standard_normal((200, 2))
reference = teacher_solve(teacher, schedule, model, xs)

print(f"{'solver':<22} {'NFE=4':>10} {'NFE=6':>10} {'NFE=8':>10}")
solvers = [
    ("multistep k=3", "lms", "ipndm", 3),
    ("multistep exp-AB k=3", "lms", "adams_bashforth", 3),
    ("pred-corrector k=3", "pc", "unipc", 3),
    ("single-step k=2", "ss", "dpmpp", 2),
]
for label, kind, preset, order in solvers:
    errs = []
    for nfe in (4, 6, 8):
        n_steps = nfe if kind != "ss" else max(order, nfe // order)
        grid = heuristic_grid(schedule, n_steps, "logsnr")
        coeffs = init_preset(kind, order, n_steps, preset, schedule=schedule, grid=grid)
        out = solve(coeffs, schedule, grid, model, xs).terminal
        errs.append(np.linalg.norm(out - reference, axis=-1).mean())
    print(f"{label:<22} " + " ".join(f"{e:10.4f}" for e in errs))

print("\n=== Score-evaluation accounting (single sample) ===")
x = xs[0]
for label, kind, preset, order, n, formula in (
        ("multistep", "lms", "ipndm", 3, 6, "N"),
        ("pred-corrector", "pc", "unipc", 3, 6, "N + 1"),
        ("single-step", "ss", "dpmpp", 2, 6, "k N")):
    grid = heuristic_grid(schedule, n, "logsnr")
    coeffs = init_preset(kind, order, n, preset, schedule=schedule, grid=grid)
    trace = solve(coeffs, schedule, grid, model, x)
    print(f"{label:<15} {n} steps, k={order} -> {trace.nfe_used} evaluations ({formula})")

print("\nNote the single-step family pays k evaluations per step, which is why")
print("its effective step size is larger at an equal evaluation budget.")

"""Distill a high-accuracy teacher into learned solver coefficients.

The training loop matches the student's terminal state (started from a
perturbed input inside a small trust ball) to the teacher's output for the
unperturbed input, with projected SGD keeping the perturbation inside the
ball.  At evaluation time only fresh, unperturbed noise is used.
"""

import numpy as np

from fewstep import (TeacherConfig, TrainConfig, VeSchedule, default_mixture,
                     evaluate, generate_dataset, heuristic_grid, init_preset,
                     train_s4s)

schedule = VeSchedule()
model = default_mixture(2)
teacher = TeacherConfig(kind="adaptive_rk", rel_tol=1e-8, abs_tol=1e-10)

n_steps = 6
grid = heuristic_grid(schedule, n_steps, "logsnr")
coeffs = init_preset("lms", 3, n_steps, "ipndm", schedule=schedule, grid=grid)

print("Generating 200 teacher trajectories (150 train / 50 validation)...")
dataset = generate_dataset(teacher, schedule, model, 200, seed=0, val_fraction=0.25)

config = TrainConfig(epochs=15, batch_size=20, seed=0)
result = train_s4s(dataset, coeffs, grid, schedule, model, config)
print(f"trained for {len(result.history)} updates; trust-ball radius r = {result.r:.4f}")
print(f"projection violations: {result.projection_violations}")

losses = [h["train_loss"] for h in result.history]
print(f"training loss: first batch {losses[0]:.5f} -> last batch {losses[-1]:.5f}")

print("\n=== Held-out evaluation on fresh noise ===")
base = evaluate(coeffs, schedule, model, teacher, grid=grid, n_eval=300, seed=99)
learned = evaluate(result.coeffs, schedule, model, teacher, grid=grid, n_eval=300, seed=99)
print(f"{'':<12} {'mean':>9} {'median':>9} {'max':>9}")
for label, m in (("classical", base), ("learned", learned)):
    print(f"{label:<12} {m['mean_error']:9.4f} {m['median_error']:9.4f} {m['max_error']:9.4f}")
print(f"mean error reduced by {100 * (1 - learned['mean_error'] / base['mean_error']):.0f}%")

print("\n=== Learned vs. classical weights (post-warmup rows) ===")
for i in range(3, n_steps + 1):
    before = coeffs.values[coeffs.b_slice(i)]
    after = result.coeffs.values[result.coeffs.b_slice(i)]
    print(f"step {i}: {np.round(before, 3)} -> {np.round(after, 3)}")

print("\n=== Effect of the trust-ball radius ===")
for mult in (0.0, 1.0, 2.0):
    cfg = TrainConfig(epochs=15, batch_size=20, seed=0,
                      radius_override=mult * result.r)
    res = train_s4s(dataset, coeffs, grid, schedule, model, cfg)
    print(f"r = {mult:.0f} x default: final training loss {res.final_train_loss:.6f}")
print("a wider ball gives the under-parametrized student slack to fit the teacher.")

"""Learn the time discretization together with the solver coefficients.

The time grid is parametrized by logits: softmax, a suffix sum, and an
affine rescale pin the endpoints and keep the steps strictly decreasing,
while a clipped offset vector lets the score-model input times detach
slightly from the integration times.  Alternating minimization trains the
two blocks in turns against the same teacher set and trust ball.
"""

import numpy as np

from fewstep import (LearnableTimeParams, TeacherConfig, TrainConfig, VeSchedule,
                     default_mixture, evaluate, generate_dataset, heuristic_grid,
                     init_preset, materialize, train_s4s, train_s4s_alt,
                     train_schedule_only)

schedule = VeSchedule()
model = default_mixture(2)
teacher = TeacherConfig(kind="adaptive_rk", rel_tol=1e-8, abs_tol=1e-10)
n_steps = 6

grid = heuristic_grid(schedule, n_steps, "logsnr")
coeffs = init_preset("lms", 3, n_steps, "ipndm", schedule=schedule, grid=grid)
print("start: log-SNR grid,", np.round(grid.steps, 3))

budget = 16  # total epochs, shared by every variant below
dataset = generate_dataset(teacher, schedule, model, 200, seed=1, val_fraction=0.25)
results = {}
for mode in ("coefficients only", "schedule only", "alternating"):
    params = LearnableTimeParams.from_grid(grid, schedule)
    cfg = TrainConfig(epochs=budget, alternations=8, phase_epochs=1,
                      batch_size=20, seed=1)
    if mode == "coefficients only":
        res = train_s4s(dataset, coeffs, grid, schedule, model, cfg)
    elif mode == "schedule only":
        res = train_schedule_only(dataset, coeffs, params, schedule, model, cfg)
    else:
        res = train_s4s_alt(dataset, coeffs, params, schedule, model, cfg)
    results[mode] = res
    metrics = evaluate(res.coeffs, schedule, model, teacher,
                       grid=None if res.params is not None else grid,
                       params=res.params, n_eval=300, seed=123)
    print(f"{mode:<18} validation loss {res.final_val_loss:.5f}   "
          f"fresh-noise mean error {metrics['mean_error']:.4f}")

alt = results["alternating"]
learned_grid = materialize(alt.params, schedule)
print("\nlearned integration times :", np.round(learned_grid.steps, 3))
print("learned score-input times :", np.round(learned_grid.score_times, 3))
print("log-SNR positions moved from uniform spacing:")
print("  before:", np.round(grid.lambdas(schedule), 2))
print("  after :", np.round(learned_grid.lambdas(schedule), 2))
print("\nWith both halves of the design space learned at the same update budget,")
print("the alternating run matches or beats either block trained alone.")

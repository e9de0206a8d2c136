import dataclasses
import inspect

import numpy as np
import pytest

from fewstep.coeffs import init_preset
from fewstep.grids import LearnableTimeParams, heuristic_grid, materialize
from fewstep.teachers import TeacherConfig, generate_dataset
from fewstep.training import (TRAIN_MODES, TrainConfig, evaluate, evaluation_reference,
                              project_ball, radius_for, train_in_mode, train_joint, train_s4s,
                              train_s4s_alt, train_schedule_only)

FAST_TEACHER = TeacherConfig(kind="fine_fixed", fine_nfe=60)


@pytest.fixture
def problem(ve, mixture):
    n = 5
    grid = heuristic_grid(ve, n, "logsnr")
    coeffs = init_preset("lms", 3, n, "ipndm", schedule=ve, grid=grid)
    dataset = generate_dataset(FAST_TEACHER, ve, mixture, 40, seed=21, val_fraction=0.25)
    return ve, mixture, grid, coeffs, dataset


class TestProjectBall:
    def test_inside_identity(self):
        x = np.zeros(3)
        xp = np.array([0.1, 0.0, 0.0])
        assert np.array_equal(project_ball(xp, x, 1.0, 1.0), xp)

    def test_radial_scaling(self):
        x = np.zeros(2)
        xp = np.array([2.0, 0.0])
        out = project_ball(xp, x, 0.5, 2.0)  # radius = 1.0
        assert np.allclose(out, [1.0, 0.0])

    def test_idempotent(self, rng):
        x = rng.standard_normal(4)
        xp = x + 3.0 * rng.standard_normal(4)
        once = project_ball(xp, x, 0.3, 1.5)
        assert np.allclose(project_ball(once, x, 0.3, 1.5), once)

    def test_zero_radius_snaps_to_center(self, rng):
        x = rng.standard_normal(4)
        assert np.allclose(project_ball(x + 1.0, x, 0.0, 2.0), x)

    def test_batched(self, rng):
        x = rng.standard_normal((5, 3))
        xp = x + rng.standard_normal((5, 3))
        out = project_ball(xp, x, 0.1, 1.0)
        assert np.all(np.linalg.norm(out - x, axis=-1) <= 0.1 + 1e-12)

    @pytest.mark.parametrize("d", [2, 64])
    def test_batched_equals_per_row_loop(self, d, rng):
        x = rng.standard_normal((400, d))
        xp = x + rng.uniform(0.0, 2.0, size=(400, 1)) * rng.standard_normal((400, d))
        radius = 0.5 * np.sqrt(d)
        inside = np.linalg.norm(xp - x, axis=-1) <= radius
        assert 0 < inside.sum() < len(x)

        def per_row(xp_row, x_row):
            diff = xp_row - x_row
            nrm = float(np.linalg.norm(diff))
            return xp_row.copy() if nrm <= radius else x_row + (radius / nrm) * diff

        batched = project_ball(xp, x, radius, 1.0)
        assert np.array_equal(batched, np.stack([per_row(a, b) for a, b in zip(xp, x)]))
        assert np.array_equal(batched, np.stack([project_ball(a, b, radius, 1.0)
                                                 for a, b in zip(xp, x)]))
        assert np.array_equal(batched[inside], xp[inside])


def test_radius_rule():
    cfg = TrainConfig()
    assert abs(radius_for(cfg, 6) - cfg.radius_scale / 6**2.5) < 1e-15
    assert radius_for(dataclasses.replace(cfg, radius_override=0.25), 6) == 0.25


class TestTrainS4s:
    def test_zero_radius_freezes_inputs(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=2, batch_size=10, seed=0, radius_override=0.0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        assert result.status == "ok"
        assert np.array_equal(result.x_prime, dataset.x_init[: dataset.n_train])

    def test_self_distillation_is_stationary(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        from fewstep.solvers import solve

        dataset.teacher_out[:] = solve(coeffs, ve, grid, mixture, dataset.x_init).terminal
        cfg = TrainConfig(epochs=1, batch_size=10, seed=0, radius_override=0.0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        assert all(h["train_loss"] <= 1e-28 for h in result.history)
        assert np.allclose(result.coeffs.values, coeffs.values)

    def test_training_reduces_validation_loss(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=8, batch_size=10, seed=0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        first_val = next(h["val_loss"] for h in result.history
                         if np.isfinite(h["val_loss"]))
        assert result.final_val_loss < first_val
        assert result.projection_violations == 0

    def test_history_lays_out_the_loss_columns(self, problem):
        # the record is kept as columns; history gives one dict per iteration,
        # with the validation loss at each epoch's last iteration
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=3, batch_size=10, seed=0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        history = result.history
        per_epoch = len(history) // 3
        assert result.losses.shape == (len(history), 2) and len(result.phases) == len(history)
        assert [h["iteration"] for h in history] == list(range(1, len(history) + 1))
        assert all(h["phase"] == "coeffs" and h["r"] == result.r for h in history)
        assert [h["train_loss"] for h in history] == result.losses[:, 0].tolist()
        finite = [i for i, h in enumerate(history) if np.isfinite(h["val_loss"])]
        assert finite == [per_epoch - 1, 2 * per_epoch - 1, 3 * per_epoch - 1]
        assert result.final_val_loss == history[-1]["val_loss"]
        assert result.final_train_loss == history[-1]["train_loss"]

    def test_projection_invariant_and_persistence(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=3, batch_size=10, seed=0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        radius = result.r * ve.tilde_sigma
        gaps = np.linalg.norm(result.x_prime - dataset.x_init[: dataset.n_train], axis=-1)
        assert np.all(gaps <= radius + 1e-12)
        moved = np.count_nonzero(gaps > 0)
        assert moved > 0  # the run returns the perturbed inputs it moved

    def test_divergence_restores_last_checkpoint(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=4, batch_size=10, seed=0, lr_coeffs=1e160)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        assert result.status == "diverged"
        assert np.all(np.isfinite(result.coeffs.values))

    def test_deterministic_given_seed(self, ve, mixture, problem):
        _, _, grid, coeffs, _ = problem
        runs = []
        for _ in range(2):
            ds = generate_dataset(FAST_TEACHER, ve, mixture, 40, seed=21, val_fraction=0.25)
            cfg = TrainConfig(epochs=3, batch_size=10, seed=7)
            runs.append(train_s4s(ds, coeffs, grid, ve, mixture, cfg))
        assert np.array_equal(runs[0].coeffs.values, runs[1].coeffs.values)


@pytest.mark.parametrize("mode, overrides", [
    *((mode, {}) for mode in TRAIN_MODES),
    ("s4s", {"lr_coeffs": 1e160}),
], ids=[*TRAIN_MODES, "s4s-diverged"])
def test_training_leaves_its_dataset_alone(problem, mode, overrides):
    # the perturbed inputs are the run's own state: training the same dataset
    # object twice gives the same solver, and the dataset keeps its bits
    ve, mixture, grid, coeffs, dataset = problem
    records = dataset.records.copy()
    cfg = TrainConfig(epochs=2, alternations=1, phase_epochs=1, batch_size=10, seed=0,
                      **overrides)
    first, second = (train_in_mode(mode, dataset, coeffs, grid, ve, mixture, cfg, 0.5)
                     for _ in range(2))
    assert dataset.records.tobytes() == records.tobytes()
    assert first.status == ("diverged" if overrides else "ok")
    assert np.array_equal(first.coeffs.values, second.coeffs.values)
    if mode != "s4s":
        assert np.array_equal(first.params.xi, second.params.xi)
        assert np.array_equal(first.params.xi_c, second.params.xi_c)
    x = dataset.x_init[: dataset.n_train]
    assert first.x_prime.shape == x.shape
    assert np.array_equal(first.x_prime, second.x_prime)
    assert np.all(np.linalg.norm(first.x_prime - x, axis=-1)
                  <= first.r * ve.tilde_sigma + 1e-12)
    if not overrides:
        assert not np.array_equal(first.x_prime, x)


class TestAlternatingAndJoint:
    def test_zero_alternations_returns_inputs(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(alternations=0, seed=0)
        result = train_s4s_alt(dataset, coeffs, params, ve, mixture, cfg)
        assert np.array_equal(result.coeffs.values, coeffs.values)
        assert np.array_equal(result.params.xi, params.xi)

    def test_joint_with_frozen_time_equals_s4s(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(epochs=3, batch_size=10, seed=3, lr_time=0.0)
        joint = train_joint(dataset, coeffs, params, ve, mixture, cfg)
        s4s = train_s4s(dataset, coeffs, grid, ve, mixture,
                        dataclasses.replace(cfg, radius_override=joint.r))
        assert np.allclose(joint.coeffs.values, s4s.coeffs.values, rtol=0, atol=1e-12)

    def test_joint_with_frozen_coeffs_equals_schedule_only(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(epochs=3, batch_size=10, seed=3, lr_coeffs=0.0)
        joint = train_joint(dataset, coeffs, params, ve, mixture, cfg)
        sched = train_schedule_only(dataset, coeffs, params, ve, mixture,
                                    dataclasses.replace(cfg, radius_override=joint.r))
        assert np.allclose(joint.params.xi, sched.params.xi, rtol=0, atol=1e-12)
        assert np.array_equal(joint.coeffs.values, coeffs.values)

    def test_time_step_that_collapses_the_grid_is_a_divergence(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(alternations=2, phase_epochs=1, batch_size=10, seed=0, lr_time=1e4)
        result = train_s4s_alt(dataset, coeffs, params, ve, mixture, cfg)
        # the first time step merges grid points; the start is the last good state
        assert result.status == "diverged"
        assert np.array_equal(result.params.xi, params.xi)
        assert np.array_equal(result.grid.steps, materialize(params, ve).steps)
        assert np.array_equal(result.coeffs.values, coeffs.values)
        assert np.array_equal(result.x_prime, dataset.x_init[: dataset.n_train])

    def test_alternating_shares_input_pool_and_radius(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(alternations=2, phase_epochs=1, batch_size=10, seed=0)
        result = train_s4s_alt(dataset, coeffs, params, ve, mixture, cfg)
        assert result.status == "ok"
        assert {h["phase"] for h in result.history} == {"time", "coeffs"}
        rs = {h["r"] for h in result.history}
        assert len(rs) == 1  # one shared radius across both phases
        assert result.projection_violations == 0


class TestTimeContraction:
    """A training iteration contracts the time derivatives only when it reads a time
    block, or, for ss, whose stage offsets are coefficients, in every backward."""

    @pytest.mark.parametrize("kind, order, preset", [("lms", 3, "ipndm"), ("pc", 3, "unipc"),
                                                     ("ss", 2, "dpmpp")])
    def test_s4s_contracts_time_derivatives_only_for_ss(self, problem, counting, kind, order,
                                                        preset):
        ve, mixture, grid, _, dataset = problem
        coeffs = init_preset(kind, order, grid.n_steps, preset, schedule=ve, grid=grid)
        counting.clear()
        result = train_s4s(dataset, coeffs, grid, ve, mixture,
                           TrainConfig(epochs=2, batch_size=10, seed=0))
        assert result.status == "ok" and len(result.phases) == 6
        assert counting["time_derivatives"] == (len(result.phases) if kind == "ss" else 0)

    def test_s4s_alt_contracts_once_per_time_iteration(self, problem, counting):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        counting.clear()
        result = train_s4s_alt(dataset, coeffs, params, ve, mixture,
                               TrainConfig(alternations=2, phase_epochs=1, batch_size=10, seed=0))
        assert result.status == "ok"
        assert counting["time_derivatives"] == result.phases.count("time") == 6


class TestEvaluate:
    def test_teacher_as_student_is_exact(self, ve, mixture):
        teacher = TeacherConfig(kind="fine_fixed", fine_nfe=50, fine_order=3)
        grid = heuristic_grid(ve, 50, "logsnr")
        coeffs = init_preset("pc", 3, 50, "unipc", schedule=ve, grid=grid)
        metrics = evaluate(coeffs, ve, mixture, teacher, grid=grid, n_eval=20, seed=5)
        assert metrics["mean_error"] <= 1e-10

    def test_seed_reproducible(self, ve, mixture):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset("lms", 3, 5, "ipndm", schedule=ve, grid=grid)
        a = evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=30, seed=4)
        b = evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=30, seed=4)
        assert a == b

    def test_shared_reference_matches_own_teacher_solve(self, ve, mixture):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset("lms", 3, 5, "ipndm", schedule=ve, grid=grid)
        reference = evaluation_reference(FAST_TEACHER, ve, mixture, 30, seed=4)
        assert reference.shape == (30, mixture.dim)
        own = evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=30, seed=4)
        shared = evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=30, seed=4,
                          reference=reference)
        assert shared == own

    def test_reference_of_wrong_shape_rejected(self, ve, mixture):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset("lms", 3, 5, "ipndm", schedule=ve, grid=grid)
        reference = evaluation_reference(FAST_TEACHER, ve, mixture, 29, seed=4)
        with pytest.raises(ValueError, match="shape"):
            evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=30, seed=4,
                     reference=reference)

    @pytest.mark.parametrize("n_eval", [0, -1])
    def test_draw_count_below_one_rejected(self, ve, mixture, n_eval):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset("lms", 3, 5, "ipndm", schedule=ve, grid=grid)
        with pytest.raises(ValueError, match="n_eval must be >= 1"):
            evaluate(coeffs, ve, mixture, FAST_TEACHER, grid=grid, n_eval=n_eval, seed=4)

    def test_no_access_to_perturbed_inputs(self):
        # inference-style evaluation draws its own noise; structurally there is
        # no dataset (and hence no x_prime) in reach
        names = set(inspect.signature(evaluate).parameters)
        assert "dataset" not in names and "records" not in names


def test_joint_vs_alternating_comparison_records_both(problem, capsys):
    # the ablation harness output: both losses recorded for comparison
    ve, mixture, grid, coeffs, dataset = problem
    params = LearnableTimeParams.from_grid(grid, ve)
    cfg = TrainConfig(epochs=4, alternations=2, phase_epochs=1, batch_size=10, seed=2)
    joint = train_joint(dataset, coeffs, params, ve, mixture, cfg)
    alt = train_s4s_alt(dataset, coeffs, params, ve, mixture, cfg)
    assert np.isfinite(joint.final_val_loss) and np.isfinite(alt.final_val_loss)
    print(f"joint {joint.final_val_loss:.6f} vs alternating {alt.final_val_loss:.6f}")

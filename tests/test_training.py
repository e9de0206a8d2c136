import dataclasses
import inspect

import numpy as np
import pytest

from fewstep.coeffs import init_preset
from fewstep.grids import LearnableTimeParams, heuristic_grid
from fewstep.teachers import TeacherConfig, generate_dataset
from fewstep.training import (TrainConfig, evaluate, evaluation_reference, project_ball,
                              radius_for, train_joint, train_s4s, train_s4s_alt,
                              train_schedule_only)

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
        for rec in dataset.train_records:
            assert np.array_equal(rec.x_prime, rec.x_init)

    def test_self_distillation_is_stationary(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        from fewstep.solvers import solve

        xs = np.stack([rec.x_init for rec in dataset.records])
        outs = solve(coeffs, ve, grid, mixture, xs).terminal
        for rec, out in zip(dataset.records, outs):
            rec.teacher_out = out
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

    def test_projection_invariant_and_persistence(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        cfg = TrainConfig(epochs=3, batch_size=10, seed=0)
        result = train_s4s(dataset, coeffs, grid, ve, mixture, cfg)
        radius = result.r * ve.tilde_sigma
        moved = 0
        for rec in dataset.train_records:
            gap = np.linalg.norm(rec.x_prime - rec.x_init)
            assert gap <= radius + 1e-12
            moved += gap > 0
        assert moved > 0  # the perturbed inputs persist with their records

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
        joint = train_joint(_clone(dataset, ve, mixture), coeffs, params, ve, mixture, cfg)
        s4s = train_s4s(_clone(dataset, ve, mixture), coeffs, grid, ve, mixture,
                        dataclasses.replace(cfg, radius_override=joint.r))
        assert np.allclose(joint.coeffs.values, s4s.coeffs.values, rtol=0, atol=1e-12)

    def test_joint_with_frozen_coeffs_equals_schedule_only(self, problem):
        ve, mixture, grid, coeffs, dataset = problem
        params = LearnableTimeParams.from_grid(grid, ve)
        cfg = TrainConfig(epochs=3, batch_size=10, seed=3, lr_coeffs=0.0)
        joint = train_joint(_clone(dataset, ve, mixture), coeffs, params, ve, mixture, cfg)
        sched = train_schedule_only(_clone(dataset, ve, mixture), coeffs, params, ve,
                                    mixture, dataclasses.replace(cfg, radius_override=joint.r))
        assert np.allclose(joint.params.xi, sched.params.xi, rtol=0, atol=1e-12)
        assert np.array_equal(joint.coeffs.values, coeffs.values)

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


class TestEvaluate:
    def test_teacher_as_student_is_exact(self, ve, mixture):
        teacher = TeacherConfig(kind="fine_fixed", fine_nfe=50, fine_order=3)
        grid = heuristic_grid(ve, 50, "logsnr")
        coeffs = init_preset("pc", 3, 50, "unipc", schedule=ve, grid=grid)
        from fewstep.solvers import solve as _solve  # same construction as the teacher

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

    def test_no_access_to_perturbed_inputs(self):
        # inference-style evaluation draws its own noise; structurally there is
        # no dataset (and hence no x_prime) in reach
        names = set(inspect.signature(evaluate).parameters)
        assert "dataset" not in names and "records" not in names


def _clone(dataset, schedule, model):
    return generate_dataset(FAST_TEACHER, schedule, model, len(dataset.records),
                            seed=dataset.seed,
                            val_fraction=dataset.n_val / len(dataset.records))


def test_joint_vs_alternating_comparison_records_both(problem, capsys):
    # the ablation harness output: both losses recorded for comparison
    ve, mixture, grid, coeffs, dataset = problem
    params = LearnableTimeParams.from_grid(grid, ve)
    cfg = TrainConfig(epochs=4, alternations=2, phase_epochs=1, batch_size=10, seed=2)
    joint = train_joint(_clone(dataset, ve, mixture), coeffs, params, ve, mixture, cfg)
    alt = train_s4s_alt(_clone(dataset, ve, mixture), coeffs, params, ve, mixture, cfg)
    assert np.isfinite(joint.final_val_loss) and np.isfinite(alt.final_val_loss)
    print(f"joint {joint.final_val_loss:.6f} vs alternating {alt.final_val_loss:.6f}")

"""Acceptance suite: one test per criterion, each printing its verdict line.

Benchmarks are pinned here, including tolerances; nothing is deferred to
later calibration.  The training criteria share one projection-violation
ledger that the invariant criterion checks at the end.
"""

import time

import numpy as np
import pytest

from fewstep.backprop import check_gradients
from fewstep.coeffs import SolverCoefficients, init_preset, table_param_count
from fewstep.grids import LearnableTimeParams, heuristic_grid, materialize
from fewstep.schedules import VeSchedule, VpLinearSchedule
from fewstep.scores import GaussianMixtureScore, default_mixture
from fewstep.solvers import solve
from fewstep.teachers import TeacherConfig, exact_gaussian_solution, generate_dataset, teacher_solve
from fewstep.training import TrainConfig, evaluate, train_s4s, train_s4s_alt, train_schedule_only

# the fixed Gaussian-mixture benchmark used by the training criteria
BENCH_SCHEDULE = VeSchedule()
BENCH_MODEL = default_mixture(2)
BENCH_TEACHER = TeacherConfig(kind="adaptive_rk", rel_tol=1e-8, abs_tol=1e-10)

VIOLATIONS = []


def _verdict(number, passed, detail):
    print(f"\n[criterion {number:>2}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


def _bench_dataset(count, seed, val_fraction=0.25):
    return generate_dataset(BENCH_TEACHER, BENCH_SCHEDULE, BENCH_MODEL, count,
                            seed=seed, val_fraction=val_fraction)


def test_criterion_1_solver_convergence_order():
    """Classical-preset order contract on the isotropic-Gaussian problem."""
    started = time.perf_counter()
    schedule = VeSchedule(T=11.0, t_min=0.01)
    model = GaussianMixtureScore.isotropic(2, scale=0.6)
    x0 = schedule.tilde_sigma * np.array([1.3, -0.4])
    exact = exact_gaussian_solution(schedule, model, x0)
    summary = []
    passed = True
    for k in (1, 2, 3):
        errs = []
        for n in (10, 20, 40, 80):
            grid = heuristic_grid(schedule, n, "logsnr")
            coeffs = init_preset("lms", k, n, "adams_bashforth",
                                 schedule=schedule, grid=grid)
            errs.append(np.linalg.norm(solve(coeffs, schedule, grid, model, x0).terminal
                                       - exact))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # empirical order over the halving sequence N = 10,20,40,80
        order = float(np.log2(errs[0] / errs[-1]) / 3.0)
        summary.append(f"k={k}: order {order:.2f}")
        passed &= abs(order - k) <= 0.3
    elapsed = time.perf_counter() - started
    passed &= elapsed < 10.0
    _verdict(1, passed, ", ".join(summary) + f" (within ±0.3; {elapsed:.1f}s < 10s)")


def test_criterion_2_gradient_correctness():
    """Adjoint vs central differences on 100 random d=2, N=4, k=2 instances."""
    started = time.perf_counter()
    schedule = VeSchedule()
    model = default_mixture(2)
    rng = np.random.default_rng(2024)
    worst = {}
    for _ in range(100):
        grid = heuristic_grid(schedule, 4, "logsnr")
        params = LearnableTimeParams.from_grid(grid, schedule)
        params.xi += 0.1 * rng.standard_normal(params.xi.shape)
        delta = params.clip_fraction * np.min(-np.diff(materialize(params, schedule).steps))
        params.xi_c += 0.3 * delta * rng.standard_normal(params.xi_c.shape)
        coeffs = init_preset("lms", 2, 4, "gaussian", seed=int(rng.integers(2**31)))
        x0 = schedule.tilde_sigma * rng.standard_normal(2)
        target = rng.standard_normal(2)
        report = check_gradients(coeffs, schedule, model, x0, target, params=params)
        for block, dev in report["blocks"].items():
            worst[block] = max(worst.get(block, 0.0), dev)
    elapsed = time.perf_counter() - started
    passed = max(worst.values()) <= 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _verdict(2, passed, f"max relative deviation per block: {detail} "
                        f"(tol 1e-4; {elapsed:.1f}s < 60s)")


@pytest.fixture(scope="module")
def s4s_improvement_runs():
    runs = {}
    datasets = [_bench_dataset(160, seed=1000 + seed) for seed in range(5)]
    for nfe in (4, 6, 8):
        per_seed = []
        for seed, dataset in enumerate(datasets):
            grid = heuristic_grid(BENCH_SCHEDULE, nfe, "logsnr")
            coeffs = init_preset("lms", 3, nfe, "ipndm", schedule=BENCH_SCHEDULE, grid=grid)
            cfg = TrainConfig(epochs=15, batch_size=20, seed=seed)
            result = train_s4s(dataset, coeffs, grid, BENCH_SCHEDULE, BENCH_MODEL, cfg)
            VIOLATIONS.append(result.projection_violations)
            base = evaluate(coeffs, BENCH_SCHEDULE, BENCH_MODEL, BENCH_TEACHER,
                            grid=grid, n_eval=150, seed=77 + seed)
            learned = evaluate(result.coeffs, BENCH_SCHEDULE, BENCH_MODEL, BENCH_TEACHER,
                               grid=grid, n_eval=150, seed=77 + seed)
            per_seed.append((base["mean_error"], learned["mean_error"]))
        runs[nfe] = per_seed
    return runs


def test_criterion_3_s4s_improves_over_initialization(s4s_improvement_runs):
    """Learned coefficients beat the classical initialization on fresh noise."""
    started = time.perf_counter()
    passed = True
    parts = []
    for nfe, rows in s4s_improvement_runs.items():
        wins = sum(learned < base for base, learned in rows)
        passed &= wins >= 4
        parts.append(f"NFE={nfe}: {wins}/5 seeds improved")
    elapsed = time.perf_counter() - started
    _verdict(3, passed, "; ".join(parts) + " (need >=4/5 at each NFE)")


@pytest.fixture(scope="module")
def alternating_comparison_runs():
    nfe, total_epochs, alternations = 6, 16, 8
    rows = []
    for seed in range(5):
        grid = heuristic_grid(BENCH_SCHEDULE, nfe, "logsnr")
        coeffs = init_preset("lms", 3, nfe, "ipndm", schedule=BENCH_SCHEDULE, grid=grid)
        cfg = TrainConfig(epochs=total_epochs, alternations=alternations,
                          phase_epochs=total_epochs // (2 * alternations),
                          batch_size=20, seed=seed)
        dataset = _bench_dataset(160, seed=500 + seed)
        out = {}
        for mode in ("coefficients", "schedule", "alternating"):
            params = LearnableTimeParams.from_grid(grid, BENCH_SCHEDULE)
            if mode == "coefficients":
                res = train_s4s(dataset, coeffs, grid, BENCH_SCHEDULE, BENCH_MODEL, cfg)
            elif mode == "schedule":
                res = train_schedule_only(dataset, coeffs, params, BENCH_SCHEDULE,
                                          BENCH_MODEL, cfg)
            else:
                res = train_s4s_alt(dataset, coeffs, params, BENCH_SCHEDULE,
                                    BENCH_MODEL, cfg)
            VIOLATIONS.append(res.projection_violations)
            out[mode] = res.final_val_loss
        rows.append(out)
    return rows


def test_criterion_4_alternating_dominates_single_block(alternating_comparison_runs):
    """At equal update budget, alternating training beats either block alone."""
    means = {mode: float(np.mean([row[mode] for row in alternating_comparison_runs]))
             for mode in ("coefficients", "schedule", "alternating")}
    passed = means["alternating"] <= min(means["coefficients"], means["schedule"])
    _verdict(4, passed,
             f"5-seed mean validation loss: alternating {means['alternating']:.5f} "
             f"<= min(coefficients {means['coefficients']:.5f}, "
             f"schedule {means['schedule']:.5f})")


@pytest.fixture(scope="module")
def relaxation_runs():
    nfe = 6
    grid = heuristic_grid(BENCH_SCHEDULE, nfe, "logsnr")
    coeffs = init_preset("lms", 3, nfe, "ipndm", schedule=BENCH_SCHEDULE, grid=grid)
    r0 = 8.818 / coeffs.values.size**2.5
    finals = {0.0: [], 1.0: [], 2.0: []}
    for seed in range(5):
        dataset = _bench_dataset(120, seed=900 + seed)
        for mult in finals:
            cfg = TrainConfig(epochs=12, batch_size=20, seed=seed,
                              radius_override=mult * r0)
            res = train_s4s(dataset, coeffs, grid, BENCH_SCHEDULE, BENCH_MODEL, cfg)
            VIOLATIONS.append(res.projection_violations)
            finals[mult].append(res.final_train_loss)
    return {mult: float(np.mean(v)) for mult, v in finals.items()}


def test_criterion_5_relaxed_objective_trend(relaxation_runs):
    """A larger trust ball never makes the training objective harder."""
    m = relaxation_runs
    passed = m[0.0] >= m[1.0] >= m[2.0]
    _verdict(5, passed, f"mean final training loss: r=0 {m[0.0]:.6f} >= "
                        f"r0 {m[1.0]:.6f} >= 2*r0 {m[2.0]:.6f}")


@pytest.fixture(scope="module")
def consistency_runs():
    nfe = 6
    grid = heuristic_grid(BENCH_SCHEDULE, nfe, "logsnr")
    coeffs = init_preset("lms", 3, nfe, "ipndm", schedule=BENCH_SCHEDULE, grid=grid)
    finals = {False: [], True: []}
    for seed in range(5):
        dataset = _bench_dataset(120, seed=700 + seed)
        for constrained in (False, True):
            cfg = TrainConfig(epochs=12, batch_size=20, seed=seed,
                              consistency=constrained)
            res = train_s4s(dataset, coeffs, grid, BENCH_SCHEDULE, BENCH_MODEL, cfg)
            VIOLATIONS.append(res.projection_violations)
            finals[constrained].append(res.final_train_loss)
    return {k: float(np.mean(v)) for k, v in finals.items()}


def test_criterion_9_consistency_constraint_does_not_help(consistency_runs):
    """Restricting rows to sum to 1 cannot beat the unconstrained run by >10%."""
    unconstrained, constrained = consistency_runs[False], consistency_runs[True]
    passed = constrained >= 0.9 * unconstrained
    direction = ">=" if constrained >= unconstrained else "<"
    _verdict(9, passed,
             f"mean final loss constrained {constrained:.6f} {direction} "
             f"unconstrained {unconstrained:.6f} (fail only if constrained "
             f"beats by >10%)")


def test_criterion_6_projection_invariant(s4s_improvement_runs,
                                          alternating_comparison_runs,
                                          relaxation_runs, consistency_runs):
    """Every optimizer step across every training run stayed inside the ball."""
    total = sum(VIOLATIONS)
    runs = len(VIOLATIONS)
    _verdict(6, total == 0,
             f"{total} violations of ||x' - x|| <= r*sigma + 1e-12 across "
             f"{runs} instrumented training runs")


def test_criterion_7_parameter_count_formulas():
    """Learnable-parameter counts for every family and (k, N) pair."""
    checked = 0
    passed = True
    for k in range(1, 5):
        for n in range(k, 11):
            lms = SolverCoefficients(kind="lms", order=k, n_steps=n).param_count()
            ss = SolverCoefficients(kind="ss", order=k, n_steps=n).param_count()
            pc = SolverCoefficients(kind="pc", order=k, n_steps=n).param_count()
            passed &= lms == k * (2 * n + 1 - k) // 2 == table_param_count("lms", k, n)
            passed &= ss == (k * k + k - 1) * n
            passed &= pc == k * (2 * n + 1 - k)
            checked += 3
    passed &= table_param_count("lms", 3, 3) == 6
    _verdict(7, passed, f"{checked} (kind, k, N) counts match, including the "
                        f"6-parameter multistep instance at N=k=3")


def test_criterion_8_schedule_parametrization():
    """Monotone learnable grids with exact endpoints; log-SNR heuristic uniform."""
    ve = VeSchedule()
    passed = True
    uniform = materialize(LearnableTimeParams.zeros(8), ve)
    passed &= bool(np.allclose(uniform.steps, np.linspace(ve.T, ve.t_min, 9), atol=1e-12))
    rng = np.random.default_rng(8)
    for _ in range(25):
        params = LearnableTimeParams(rng.normal(scale=2.0, size=9),
                                     rng.normal(size=9))
        grid = materialize(params, ve)
        passed &= grid.steps[0] == ve.T and grid.steps[-1] == ve.t_min
        passed &= bool(np.all(np.diff(grid.steps) < 0))
        # opposing saturated offsets across the minimal gap may tie score times
        passed &= bool(np.all(np.diff(grid.score_times) <= 0))
    for schedule in (ve, VpLinearSchedule()):
        lams = heuristic_grid(schedule, 16, "logsnr").lambdas(schedule)
        passed &= float(np.max(np.abs(np.diff(lams, 2)))) <= 1e-8
    _verdict(8, passed, "zero logits -> uniform grid; 25 random grids strictly "
                        "monotone with exact endpoints; log-SNR grids uniform "
                        "in lambda to 1e-8")


def test_criterion_10_teacher_oracle_cross_validation():
    """Independent teachers agree on shared instances."""
    rng = np.random.default_rng(10)
    worst_gauss, worst_mix = 0.0, 0.0
    for schedule in (VeSchedule(), VpLinearSchedule()):
        gauss = GaussianMixtureScore.isotropic(2, scale=1.0)
        xs = schedule.tilde_sigma * rng.standard_normal((8, 2))
        exact = teacher_solve(TeacherConfig(kind="exact_gaussian"), schedule, gauss, xs)
        rk = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-10,
                                         abs_tol=1e-12), schedule, gauss, xs)
        fine = teacher_solve(TeacherConfig(kind="fine_fixed", fine_nfe=400),
                             schedule, gauss, xs)
        worst_gauss = max(worst_gauss,
                          float(np.max(np.linalg.norm(exact - rk, axis=-1))),
                          float(np.max(np.linalg.norm(exact - fine, axis=-1))),
                          float(np.max(np.linalg.norm(rk - fine, axis=-1))))
        mixture = default_mixture(2)
        rk_m = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-10,
                                           abs_tol=1e-12), schedule, mixture, xs)
        fine_m = teacher_solve(TeacherConfig(kind="fine_fixed", fine_nfe=400),
                               schedule, mixture, xs)
        worst_mix = max(worst_mix, float(np.max(np.linalg.norm(rk_m - fine_m, axis=-1))))
    passed = worst_gauss <= 1e-6 and worst_mix <= 1e-6
    _verdict(10, passed, f"single-Gaussian three-way max deviation {worst_gauss:.2e}, "
                         f"mixture two-way {worst_mix:.2e} (tol 1e-6)")

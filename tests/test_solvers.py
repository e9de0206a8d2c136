import gc
import math
import tracemalloc

import numpy as np
import pytest

from fewstep.backprop import backward
from fewstep.coeffs import SolverCoefficients, init_preset
from fewstep.errors import DivergenceError
from fewstep.grids import TimeGrid, heuristic_grid
from fewstep.schedules import VeSchedule, VpLinearSchedule
from fewstep.solvers import row_weights, solve, wrapper_factors
from fewstep.teachers import TeacherConfig, exact_gaussian_solution, teacher_solve
from oracle import exact_step_integrand


def _first_step(grid):
    """The one-step grid of a grid's first step."""
    return TimeGrid(steps=grid.steps[:2], score_times=grid.score_times[:2])


class TestLmsStep:
    def test_first_order_is_exponential_euler(self, ve, mixture):
        grid = _first_step(heuristic_grid(ve, 4, "logsnr"))
        coeffs = SolverCoefficients(kind="lms", order=1, n_steps=1)
        coeffs.values[:] = 1.0
        x = np.array([1.0, -2.0])
        eps = mixture.epsilon(mixture.prepare(ve.at(float(grid.steps[0]))), x)
        out = solve(coeffs, ve, grid, mixture, x).terminal
        t0, t1 = grid.steps[0], grid.steps[1]
        h = float(ve.lam(t1) - ve.lam(t0))
        expected = (float(ve.alpha(t1) / ve.alpha(t0)) * x
                    - float(ve.sigma(t1)) * math.expm1(h) * eps)
        assert np.allclose(out, expected, rtol=1e-14)

    def test_zero_coefficients_rescale_only(self, vp, mixture):
        grid = heuristic_grid(vp, 2, "logsnr")
        coeffs = SolverCoefficients(kind="lms", order=2, n_steps=2)
        x = np.array([0.5, 0.25])
        states = solve(coeffs, vp, grid, mixture, x).states
        for t, state in zip(grid.steps[1:], states[1:]):
            assert np.allclose(state, float(vp.alpha(t) / vp.alpha(grid.steps[0])) * x)

    def test_classical_two_step_row_has_third_order_local_error(self, ve, gauss):
        # one step with (3/2, -1/2) against the quadrature reference; halving h
        # divides the defect by ~8.  The first step's weight is the one that
        # lands on the exact flow: for an isotropic Gaussian eps is parallel
        # to x, so the second step starts from the exact state and history
        def local_error(h):
            lam1 = float(ve.lam(2.0))
            lams = np.array([lam1 - h, lam1, lam1 + h])
            times = np.array([ve.time_from_lambda(l) for l in lams])
            x0, x1 = (exact_gaussian_solution(ve, gauss, np.array([8.0, -3.0]), t_end=t)
                      for t in times[:2])
            ref = exact_step_integrand(ve, x1, times[1], times[2],
                                       lambda s, t: gauss.epsilon(gauss.prepare(ve.at(t)), s))
            g = TimeGrid(steps=times, score_times=times.copy())
            R, S = wrapper_factors(ve, g.steps, "noise")
            eps0 = gauss.epsilon(gauss.prepare(ve.at(times[0])), x0)
            coeffs = SolverCoefficients(kind="lms", order=2, n_steps=2)
            coeffs.values[coeffs.b_slice(1)] = np.dot(R[0] * x0 - x1, eps0) / (
                S[0] * np.dot(eps0, eps0))
            coeffs.values[coeffs.b_slice(2)] = [1.5, -0.5]
            states = solve(coeffs, ve, g, gauss, x0).states
            assert np.linalg.norm(states[1] - x1) <= 1e-13 * np.linalg.norm(x1)
            return np.linalg.norm(states[2] - ref)

        ratio = local_error(0.2) / local_error(0.1)
        assert 6.5 <= ratio <= 9.5


class TestSingleStep:
    def test_order_one_degenerates_to_lms(self, ve, mixture):
        grid = _first_step(heuristic_grid(ve, 4, "logsnr"))
        ss = SolverCoefficients(kind="ss", order=1, n_steps=1)
        ss.values[ss.ss_b_slice(1)] = [0.8]
        lms = SolverCoefficients(kind="lms", order=1, n_steps=1)
        lms.values[lms.b_slice(1)] = [0.8]
        x = np.array([1.0, 1.0])
        out_ss = solve(ss, ve, grid, mixture, x).terminal
        out_lms = solve(lms, ve, grid, mixture, x).terminal
        assert np.allclose(out_ss, out_lms, rtol=1e-14)

    def test_midpoint_preset_matches_handcoded_reference(self, ve, mixture):
        n = 6
        grid = heuristic_grid(ve, n, "logsnr")
        x = ve.tilde_sigma * np.array([0.9, 0.4])
        xr = x.copy()
        for i in range(1, n + 1):
            t_p, t_n = grid.steps[i - 1], grid.steps[i]
            h = float(ve.lam(t_n) - ve.lam(t_p))
            s_mid = ve.time_from_lambda(float(ve.lam(t_p)) + h / 2)
            eps_p = mixture.epsilon(mixture.prepare(ve.at(float(t_p))), xr)
            u = xr - float(ve.sigma(s_mid)) * math.expm1(h / 2) * eps_p
            eps_mid = mixture.epsilon(mixture.prepare(ve.at(float(s_mid))), u)
            xr = xr - float(ve.sigma(t_n)) * math.expm1(h) * eps_mid
        coeffs = init_preset("ss", 2, n, "dpmpp", schedule=ve, grid=grid)
        ours = solve(coeffs, ve, grid, mixture, x).terminal
        assert np.linalg.norm(ours - xr) <= 1e-12

    def test_stage_clamp_recorded(self, ve, mixture):
        grid = heuristic_grid(ve, 3, "logsnr")
        coeffs = init_preset("ss", 2, 3, "dpmpp", schedule=ve, grid=grid)
        for i in range(1, 4):
            coeffs.values[coeffs.ss_c_slice(i)] = [1e3]  # far past lambda range
        trace = solve(coeffs, ve, grid, mixture, np.ones(2))
        clamps = [d for d in trace.diagnostics if d["event"] == "stage_clamp"]
        assert len(clamps) == 3 and clamps[0]["step"] == 1


class TestPredictorCorrector:
    def test_degenerate_corrector_equals_lms(self, ve, mixture):
        # unit-sum predictor rows with zero oldest weight; corrector = the same
        # weights with nothing on the new evaluation (the implied oldest pool
        # weight is then exactly the predictor's zero)
        n = 5
        grid = heuristic_grid(ve, n, "logsnr")
        pc = SolverCoefficients(kind="pc", order=2, n_steps=n)
        lms = SolverCoefficients(kind="lms", order=2, n_steps=n)
        for i in range(1, n + 1):
            row = [1.0] if pc.q(i) == 1 else [1.0, 0.0]
            pc.values[pc.b_slice(i)] = row
            lms.values[lms.b_slice(i)] = row
            pc.values[pc.corrector_slice(i)] = [0.0] if pc.q(i) == 1 else [0.0, 1.0]
        x = np.array([2.0, -1.0])
        out_pc = solve(pc, ve, grid, mixture, x).terminal
        out_lms = solve(lms, ve, grid, mixture, x).terminal
        assert np.allclose(out_pc, out_lms, rtol=0, atol=1e-13)

    def test_unified_pc_matches_handcoded_reference(self, ve, mixture):
        for n, k in ((6, 3), (5, 2)):
            grid = heuristic_grid(ve, n, "logsnr")
            x0 = ve.tilde_sigma * np.array([0.7, -1.1])
            ref = _unipc_reference(ve, mixture, grid.steps, k, x0)
            coeffs = init_preset("pc", k, n, "unipc", schedule=ve, grid=grid)
            ours = solve(coeffs, ve, grid, mixture, x0).terminal
            assert np.linalg.norm(ours - ref) <= 1e-10


class TestSolve:
    def test_single_step_first_order_closed_form(self, ve, gauss):
        grid = heuristic_grid(ve, 1, "logsnr")
        coeffs = SolverCoefficients(kind="lms", order=1, n_steps=1)
        coeffs.values[:] = 1.0
        x = ve.tilde_sigma * np.array([1.0, 0.5])
        out = solve(coeffs, ve, grid, gauss, x).terminal
        t0, t1 = grid.steps
        eps = gauss.epsilon(gauss.prepare(ve.at(float(t0))), x)
        h = float(ve.lam(t1) - ve.lam(t0))
        expected = x - float(ve.sigma(t1)) * math.expm1(h) * eps  # alpha ratio is 1
        assert np.allclose(out, expected, rtol=1e-14)

    def test_zero_model_telescopes_alpha_ratio(self, vp, zero_model):
        grid = heuristic_grid(vp, 7, "logsnr")
        coeffs = init_preset("lms", 3, 7, "ipndm", schedule=vp, grid=grid)
        x = np.array([3.0, -2.0])
        out = solve(coeffs, vp, grid, zero_model, x).terminal
        ratio = float(vp.alpha(vp.t_min) / vp.alpha(vp.T))
        assert np.allclose(out, ratio * x, rtol=1e-12)

    def test_twenty_step_classical_solver_accuracy(self, gauss):
        # frozen from the exact-solution oracle on the benchmark toy; the
        # classical constant-coefficient preset lands near 3.7e-3 here
        ve = VeSchedule()
        grid = heuristic_grid(ve, 20, "logsnr")
        coeffs = init_preset("lms", 4, 20, "ipndm", schedule=ve, grid=grid)
        x = ve.tilde_sigma * np.array([0.8, -0.5])
        exact = exact_gaussian_solution(ve, gauss, x)
        err = np.linalg.norm(solve(coeffs, ve, grid, gauss, x).terminal - exact)
        assert err <= 5e-3

    def test_determinism(self, ve, mixture):
        grid = heuristic_grid(ve, 6, "logsnr")
        coeffs = init_preset("lms", 3, 6, "ipndm", schedule=ve, grid=grid)
        x = np.array([[1.0, 2.0], [0.5, -0.5]])
        a = solve(coeffs, ve, grid, mixture, x)
        b = solve(coeffs, ve, grid, mixture, x)
        assert all(np.array_equal(u, v) for u, v in zip(a.states, b.states))

    def test_nfe_accounting(self, ve, mixture, counting):
        x = np.ones(2)
        for kind, preset, order, expected in (
            ("lms", "ipndm", 3, 8),
            ("pc", "unipc", 3, 9),
            ("ss", "dpmpp", 2, 16),
        ):
            grid = heuristic_grid(ve, 8, "logsnr")
            coeffs = init_preset(kind, order, 8, preset, schedule=ve, grid=grid)
            for prediction in ("noise", "data"):
                coeffs.prediction = prediction
                counting.clear()
                trace = solve(coeffs, ve, grid, mixture, x)
                assert trace.nfe_used == expected == counting["evaluate"]

    def test_divergence_carries_step_index(self, ve, mixture):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = SolverCoefficients(kind="lms", order=1, n_steps=4)
        coeffs.values[:] = 1e200
        with pytest.raises(DivergenceError) as err:
            solve(coeffs, ve, grid, mixture, np.ones(2))
        assert err.value.step_index >= 1

    def test_corrector_rows_imply_the_oldest_weight_as_corrector_weights(self, ve, zero_model,
                                                                        rng):
        grid = heuristic_grid(ve, 6, "logsnr")
        for order in (1, 2, 3, 4):
            coeffs = SolverCoefficients(kind="pc", order=order, n_steps=6)
            for _ in range(25):
                coeffs.values[:] = rng.normal(size=coeffs.values.size) * 10.0 ** rng.integers(
                    -3, 4, size=coeffs.values.size)
                steps = solve(coeffs, ve, grid, zero_model, np.ones(2)).plan.steps
                values = coeffs.values.tolist()
                for i in range(1, 7):
                    assert row_weights(values, steps[i][1]) == \
                        coeffs.corrector_weights(i).tolist()

    def test_grid_mismatch_rejected(self, ve, mixture):
        coeffs = SolverCoefficients(kind="lms", order=2, n_steps=4)
        grid = heuristic_grid(ve, 5, "logsnr")
        with pytest.raises(ValueError):
            solve(coeffs, ve, grid, mixture, np.ones(2))


FAMILIES = [("lms", 3, "ipndm"), ("pc", 2, "unipc"), ("ss", 2, "gaussian")]


def _row_slots(coeffs, i):
    """``(row kind, slot)``: one slot each row of step i reads a weight from."""
    if coeffs.kind == "ss":
        k = coeffs.order
        return [("stage", coeffs.ss_a_slice(i).start + k - 1),     # stage 2 mixes stage 1
                ("update", coeffs.ss_b_slice(i).start)]
    slots = [("predictor", coeffs.b_slice(i).start)]
    if coeffs.kind == "pc":
        slots.append(("corrector", coeffs.corrector_slice(i).start))
    return slots


class TestPlans:
    """Rows are built once per grid table; a solve reads its weights from the
    coefficients, and each state is checked for finiteness once."""

    @pytest.mark.parametrize("kind, order, preset", FAMILIES)
    @pytest.mark.parametrize("prediction", ["noise", "data"])
    @pytest.mark.parametrize("schedule_name", ["ve", "vp"])
    def test_second_solve_with_new_weights_matches_a_fresh_grid(self, request, kind, order,
                                                                 preset, prediction,
                                                                 schedule_name, mixture, rng):
        schedule = request.getfixturevalue(schedule_name)
        grid = heuristic_grid(schedule, 6, "logsnr")
        coeffs = init_preset(kind, order, 6, preset, schedule=schedule, grid=grid,
                             prediction=prediction, seed=2)
        x = rng.standard_normal((4, 2))
        cot = rng.standard_normal((4, 2))
        for _ in range(2):
            trace = solve(coeffs, schedule, grid, mixture, x)
            fresh_grid = heuristic_grid(schedule, 6, "logsnr")
            fresh = solve(coeffs, schedule, fresh_grid, mixture, x)
            assert all(np.array_equal(u, v) for u, v in zip(trace.states, fresh.states))
            got = backward(trace, coeffs, schedule, mixture, cot, grid=grid)
            ref = backward(fresh, coeffs, schedule, mixture, cot, grid=fresh_grid)
            for block in ("grad_coeffs", "grad_x0", "grad_steps", "grad_score_times"):
                assert np.array_equal(getattr(got, block), getattr(ref, block)), block
            coeffs.values *= 1.0 + 0.05 * rng.standard_normal(coeffs.values.size)

    @pytest.mark.parametrize("kind, preset, read, bound_kib", [
        ("lms", "ipndm", "coeffs", 8.4), ("pc", "unipc", "coeffs", 9.0),
        ("lms", "ipndm", "time", 10.0), ("pc", "unipc", "time", 10.7)])
    @pytest.mark.parametrize("schedule_name", ["ve", "vp"])
    def test_grid_tables_do_not_grow(self, request, kind, preset, read, bound_kib,
                                     schedule_name, mixture, rng):
        # what a grid's tables retain after one N=8 solve and reverse pass at B=20:
        # the wrapper factors, the plan with one record per evaluation, and the
        # model's stack; a pass that reads a time block also builds the factors'
        # partials and the stack's slope constants.  One array view more per record
        # adds 1.2/1.3 KiB over the 8/9 records of lms/pc, and each bound lies about
        # 0.55 KiB above the largest size measured on VE and VP-linear (lms/pc
        # 7.83/8.45 KiB reading the coefficient blocks only, 9.49/10.22 KiB reading a
        # time block too), so a record that gains an array fails here
        schedule = request.getfixturevalue(schedule_name)
        x, cot = rng.standard_normal((2, 20, 2))

        def solve_and_backward(grid):
            coeffs = init_preset(kind, 3, 8, preset, schedule=schedule, grid=grid)
            trace = solve(coeffs, schedule, grid, mixture, x)
            res = backward(trace, coeffs, schedule, mixture, cot, grid=grid)
            res.grad_coeffs
            if read == "time":
                res.grad_steps

        solve_and_backward(heuristic_grid(schedule, 8, "logsnr"))      # builds the layout
        grid = heuristic_grid(schedule, 8, "logsnr")
        tracemalloc.start()
        try:
            solve_and_backward(grid)
            gc.collect()
            with_tables = tracemalloc.get_traced_memory()[0]
            grid.tables.clear()
            gc.collect()
            retained = with_tables - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained <= bound_kib * 1024

    @pytest.mark.parametrize("kind, order, preset", FAMILIES)
    def test_second_solve_on_a_table_reuses_its_rows(self, kind, order, preset, ve, mixture):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset(kind, order, 5, preset, schedule=ve, grid=grid, seed=1)
        first = solve(coeffs, ve, grid, mixture, np.ones(2)).plan
        coeffs.values += 0.01
        second = solve(coeffs, ve, grid, mixture, np.ones(2)).plan
        assert second.steps is first.steps
        if kind == "ss":            # the stage times moved with the coefficients
            assert [p.sigma for p in second.preps] != [p.sigma for p in first.preps]
        else:                       # lookups and records too: the plan is the table's
            assert second is first

    @pytest.mark.parametrize("kind, order, preset", FAMILIES)
    @pytest.mark.parametrize("model_name", ["mixture", "zero_model"])
    def test_non_finite_state_raises_at_its_step(self, request, kind, order, preset,
                                                 model_name, ve):
        # a state some row of its own step evaluated is rejected by the model, any
        # other one by the loop; either way the error names the step
        model = request.getfixturevalue(model_name)
        grid = heuristic_grid(ve, 5, "logsnr")
        base = init_preset(kind, order, 5, preset, schedule=ve, grid=grid, seed=1)
        for i in range(1, 6):
            for row_kind, slot in _row_slots(base, i):
                coeffs = base.copy()
                coeffs.values[slot] = np.inf
                with pytest.raises(DivergenceError) as err:
                    solve(coeffs, ve, grid, model, np.ones((3, 2)))
                assert err.value.step_index == i, (row_kind, i)
        with pytest.raises(DivergenceError) as err:
            solve(base, ve, grid, model, np.array([1.0, np.nan]))
        assert err.value.step_index == 0


    @pytest.mark.parametrize("schedule_name", ["ve", "vp"])
    def test_ss_checks_each_state_once(self, request, schedule_name, mixture, monkeypatch):
        # stage 1 of step i evaluates x_{i-1} as it is, so the model's check of that
        # point is the check of state i-1: 12 points and 12 evaluations are checked,
        # and the loop checks only the terminal state
        schedule = request.getfixturevalue(schedule_name)
        grid = heuristic_grid(schedule, 6, "logsnr")
        coeffs = init_preset("ss", 2, 6, "dpmpp", schedule=schedule, grid=grid)
        x = schedule.tilde_sigma * np.random.default_rng(0).standard_normal((100, 2))
        solve(coeffs, schedule, grid, mixture, x)
        calls, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
        solve(coeffs, schedule, grid, mixture, x)
        monkeypatch.undo()
        assert len(calls) == 25
        with pytest.raises(DivergenceError) as err:
            solve(coeffs, schedule, grid, mixture, np.full((3, 2), np.nan))
        assert err.value.step_index == 0
        for i in range(1, 7):           # blow-up of the state of step i
            blown = coeffs.copy()
            blown.values[blown.ss_b_slice(i)] = np.inf
            with pytest.raises(DivergenceError) as err:
                solve(blown, schedule, grid, mixture, x)
            assert err.value.step_index == i


class TestDataPrediction:
    def test_zero_data_prediction_rescales_by_sigma_ratio(self, ve):
        class RescaleModel:
            dim = 2

            def prepare(self, at):
                return at[1]

            def evaluate(self, sigma, x, prediction="noise"):
                x = np.asarray(x, dtype=float)
                return (x / sigma if prediction == "noise"
                        else np.zeros_like(x)), None

        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = SolverCoefficients(kind="lms", order=2, n_steps=5, prediction="data")
        coeffs.values[coeffs.b_slice(1)] = [1.0]
        x = np.array([4.0, 1.0])
        out = solve(coeffs, ve, grid, RescaleModel(), x).terminal
        ratio = float(ve.sigma(ve.t_min) / ve.sigma(ve.T))
        assert np.allclose(out, ratio * x, rtol=1e-12)

    def test_first_order_noise_and_data_agree(self, vp, mixture):
        # algebraic identity through the Tweedie transform
        grid = heuristic_grid(vp, 4, "logsnr")
        noise = SolverCoefficients(kind="lms", order=1, n_steps=4)
        noise.values[:] = 1.0
        data = SolverCoefficients(kind="lms", order=1, n_steps=4, prediction="data")
        data.values[:] = 1.0
        x = np.array([1.4, -0.3])
        out_n = solve(noise, vp, grid, mixture, x).terminal
        out_d = solve(data, vp, grid, mixture, x).terminal
        assert np.allclose(out_n, out_d, rtol=0, atol=1e-12)

    def test_parameter_counts_identical_to_noise(self):
        for kind in ("lms", "ss", "pc"):
            n_noise = SolverCoefficients(kind=kind, order=2, n_steps=6).param_count()
            n_data = SolverCoefficients(kind=kind, order=2, n_steps=6,
                                        prediction="data").param_count()
            assert n_noise == n_data

    @pytest.mark.parametrize("schedule", [VeSchedule(), VpLinearSchedule()], ids=["ve", "vp"])
    @pytest.mark.parametrize("kind, least", [("pc", 3.7), ("lms", 2.7)])
    def test_unipc_order(self, schedule, kind, least, mixture):
        # the data form solves against the phi functions of -h: pc-3 then reads
        # order ~4.1-4.3 and lms-3 ~2.8-2.9 from N=32 to 64 (~2.2 with those of +h)
        xs = schedule.tilde_sigma * np.random.default_rng(0).standard_normal((50, 2))
        ref = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-11, abs_tol=1e-13),
                            schedule, mixture, xs)
        errs = []
        for n in (8, 16, 32, 64):
            grid = heuristic_grid(schedule, n, "logsnr")
            coeffs = init_preset(kind, 3, n, "unipc", schedule=schedule, grid=grid,
                                 prediction="data")
            out = solve(coeffs, schedule, grid, mixture, xs).terminal
            errs.append(np.linalg.norm(out - ref, axis=-1).mean())
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert np.log2(errs[-2] / errs[-1]) >= least, errs


def _unipc_reference(schedule, model, times, k, x):
    """Literal unified predictor-corrector recursion, independent code path."""
    lam = lambda t: float(schedule.lam(t))
    alpha = lambda t: float(schedule.alpha(t))
    sigma = lambda t: float(schedule.sigma(t))
    eps_list = [model.epsilon(model.prepare(schedule.at(float(times[0]))), x)]
    t_list = [float(times[0])]
    for i in range(1, len(times)):
        t_prev, t = t_list[-1], float(times[i])
        order = min(k, i)
        h = lam(t) - lam(t_prev)
        rks, d1s = [], []
        for m in range(1, order):
            tm = t_list[-(m + 1)]
            rk = (lam(tm) - lam(t_prev)) / h
            rks.append(rk)
            d1s.append((eps_list[-(m + 1)] - eps_list[-1]) / rk)
        rks.append(1.0)
        rks = np.array(rks)
        rows, rhs = [], []
        h_phi_1 = np.expm1(h)
        h_phi_k = h_phi_1 / h - 1.0
        fact = 1.0
        for j in range(1, order + 1):
            rows.append(rks ** (j - 1))
            rhs.append(h_phi_k * fact / h_phi_1)
            fact *= j + 1
            h_phi_k = h_phi_k / h - 1.0 / fact
        rows, rhs = np.stack(rows), np.array(rhs)
        x_t_ = (alpha(t) / alpha(t_prev)) * x - sigma(t) * h_phi_1 * eps_list[-1]
        if order > 1:
            rhos_p = np.linalg.solve(rows[:-1, :-1], rhs[:-1])
            pred_res = sum(rhos_p[m] * d1s[m] for m in range(order - 1))
        else:
            pred_res = 0.0
        x_pred = x_t_ - sigma(t) * h_phi_1 * pred_res
        model_t = model.epsilon(model.prepare(schedule.at(t)), x_pred)
        rhos_c = np.array([rhs[0]]) if order == 1 else np.linalg.solve(rows, rhs)
        corr_res = sum(rhos_c[m] * d1s[m] for m in range(order - 1)) if order > 1 else 0.0
        x = x_t_ - sigma(t) * h_phi_1 * (corr_res + rhos_c[-1] * (model_t - eps_list[-1]))
        eps_list.append(model_t)
        t_list.append(t)
    return x

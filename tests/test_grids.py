import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewstep.grids import (LearnableTimeParams, TimeGrid, grid_gradient_vjp,
                           heuristic_grid, materialize)
from fewstep.schedules import VeSchedule


class TestHeuristicGrids:
    def test_uniform_is_affine(self, ve):
        grid = heuristic_grid(ve, 4, "uniform")
        expected = ve.T + np.arange(5) / 4 * (ve.t_min - ve.T)
        assert np.allclose(grid.steps, expected, atol=1e-14)
        assert np.array_equal(grid.steps, grid.score_times)

    def test_quadratic_formula(self, ve):
        grid = heuristic_grid(ve, 2, "quadratic")
        assert np.isclose(grid.steps[1], ve.T + 0.25 * (ve.t_min - ve.T), atol=1e-14)

    def test_logsnr_lambda_midpoint(self, vp):
        grid = heuristic_grid(vp, 2, "logsnr")
        lam_lo, lam_hi = float(vp.lam(vp.T)), float(vp.lam(vp.t_min))
        assert abs(float(vp.lam(grid.steps[1])) - 0.5 * (lam_lo + lam_hi)) <= 1e-9

    def test_logsnr_uniform_in_lambda(self, edm):
        lams = heuristic_grid(edm, 16, "logsnr").lambdas(edm)
        assert np.max(np.abs(np.diff(lams, 2))) <= 1e-8

    def test_edm_rho_one_uniform_in_kappa(self, vp):
        grid = heuristic_grid(vp, 8, "edm", rho=1.0)
        kappas = np.array([float(vp.kappa(t)) for t in grid.steps])
        assert np.max(np.abs(np.diff(kappas, 2))) <= 1e-7

    def test_edm_closed_form_on_identity_kappa(self, edm):
        # kappa(t) = t here, so the grid has the classic power-interpolated form
        rho = 7.0
        grid = heuristic_grid(edm, 5, "edm", rho=rho)
        frac = np.arange(6) / 5
        expected = (edm.T ** (1 / rho) + frac * (edm.t_min ** (1 / rho) - edm.T ** (1 / rho))) ** rho
        assert np.allclose(grid.steps, expected, rtol=1e-9)

    def test_exact_endpoints(self, vp):
        for kind in ("uniform", "quadratic", "edm", "logsnr"):
            grid = heuristic_grid(vp, 7, kind)
            assert grid.steps[0] == vp.T and grid.steps[-1] == vp.t_min

    def test_unknown_kind_rejected(self, ve):
        with pytest.raises(ValueError, match="unknown grid kind"):
            heuristic_grid(ve, 4, "geometric")

    def test_step_count_validated(self, ve):
        with pytest.raises(ValueError):
            heuristic_grid(ve, 0, "uniform")


class TestTimeGridValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            TimeGrid(steps=np.array([1.0, 1.0, 0.5]), score_times=np.array([1.0, 1.0, 0.5]))

    def test_rejects_unpinned_score_endpoints(self):
        with pytest.raises(ValueError):
            TimeGrid(steps=np.array([1.0, 0.5, 0.1]), score_times=np.array([0.9, 0.5, 0.1]))

    def test_grid_arrays_are_read_only(self, ve):
        grid = heuristic_grid(ve, 4, "logsnr")
        with pytest.raises(ValueError):
            grid.steps[1] = 5.0
        with pytest.raises(ValueError):
            grid.score_times[1] = 5.0

    def test_pickle_and_deepcopy_rebuild_through_the_constructor(self, ve):
        # a copy has read-only times and no tables of its own, so writing to
        # its times cannot leave a table stale
        grid = heuristic_grid(ve, 4, "logsnr")
        grid.tables["kept"] = object()
        for other in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
            assert np.array_equal(other.steps, grid.steps)
            assert np.array_equal(other.score_times, grid.score_times)
            assert not other.steps.flags.writeable and not other.score_times.flags.writeable
            assert other.tables == {}
        assert "kept" in grid.tables

    def test_callers_arrays_stay_writeable_and_unaliased(self):
        steps = np.array([1.0, 0.5, 0.1])
        score = np.array([1.0, 0.4, 0.1])
        grid = TimeGrid(steps=steps, score_times=score)
        steps[1] = 0.7
        score[1] = 0.6
        assert grid.steps[1] == 0.5 and grid.score_times[1] == 0.4


class TestMaterialize:
    def test_zero_logits_give_uniform_grid(self, ve):
        grid = materialize(LearnableTimeParams.zeros(6), ve)
        assert np.allclose(grid.steps, np.linspace(ve.T, ve.t_min, 7), atol=1e-12)

    def test_zero_offsets_give_equal_score_times(self, ve, rng):
        params = LearnableTimeParams(rng.normal(size=9), np.zeros(9))
        grid = materialize(params, ve)
        assert np.array_equal(grid.steps, grid.score_times)

    def test_offsets_respect_clip(self, ve, rng):
        params = LearnableTimeParams(rng.normal(size=9), 100.0 * rng.normal(size=9),
                                     clip_fraction=0.4)
        grid = materialize(params, ve)
        delta = 0.4 * np.min(-np.diff(grid.steps))
        inner = np.abs(grid.score_times[1:-1] - grid.steps[1:-1])
        assert np.all(inner <= delta + 1e-15)
        assert np.all(np.diff(grid.score_times) <= 0)

    def test_from_grid_reproduces_heuristics(self, vp):
        for kind in ("uniform", "logsnr", "edm"):
            grid = heuristic_grid(vp, 6, kind)
            params = LearnableTimeParams.from_grid(grid, vp)
            back = materialize(params, vp)
            assert np.allclose(back.steps, grid.steps, rtol=0, atol=1e-12 * vp.T)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-4, max_value=4), min_size=3, max_size=12))
def test_materialized_grid_always_monotone_with_exact_endpoints(logits):
    ve = VeSchedule()
    params = LearnableTimeParams(np.array(logits), np.zeros(len(logits)))
    grid = materialize(params, ve)
    assert grid.steps[0] == ve.T and grid.steps[-1] == ve.t_min
    assert np.all(np.diff(grid.steps) < 0)


class TestGridVjp:
    def _setup(self, rng, n=6):
        ve = VeSchedule()
        params = LearnableTimeParams(rng.normal(scale=0.5, size=n + 1),
                                     np.zeros(n + 1))
        grid = materialize(params, ve)
        delta = params.clip_fraction * np.min(-np.diff(grid.steps))
        params.xi_c[:] = 0.3 * delta * rng.normal(size=n + 1)
        return ve, params

    def test_zero_cotangent_gives_zero(self, rng):
        ve, params = self._setup(rng)
        xibar, xibar_c = grid_gradient_vjp(params, ve, np.zeros(7), np.zeros(7))
        assert np.allclose(xibar, 0.0) and np.allclose(xibar_c, 0.0)

    def test_matches_finite_differences(self, rng):
        ve, params = self._setup(rng)
        cot_steps = rng.normal(size=7)
        cot_score = rng.normal(size=7)
        xibar, xibar_c = grid_gradient_vjp(params, ve, cot_steps, cot_score)

        def objective():
            g = materialize(params, ve)
            return float(np.dot(cot_steps, g.steps) + np.dot(cot_score, g.score_times))

        step = 1e-7
        for vec, grad in ((params.xi, xibar), (params.xi_c, xibar_c)):
            fd = np.zeros_like(vec)
            for i in range(vec.size):
                vec[i] += step
                up = objective()
                vec[i] -= 2 * step
                fd[i] = (up - objective()) / (2 * step)
                vec[i] += step
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_clipped_offset_gets_zero_gradient(self, rng):
        ve, params = self._setup(rng)
        params.xi_c[2] = 1e6  # saturated far beyond the clip
        _, xibar_c = grid_gradient_vjp(params, ve, np.zeros(7), np.ones(7))
        assert xibar_c[2] == 0.0
        assert xibar_c[0] == 0.0 and xibar_c[-1] == 0.0  # pinned endpoints

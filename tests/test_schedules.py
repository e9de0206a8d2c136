import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fewstep.errors import DomainError
from fewstep import coeffs
from fewstep.schedules import (GL_NODES, GL_WEIGHTS, SCHEDULE_KINDS, EdmSchedule, VeSchedule,
                               VpLinearSchedule, phi_functions)
from oracle import NumericalError, exact_step_integrand

ALL_SCHEDULES = [VpLinearSchedule(), VeSchedule(), EdmSchedule()]


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_snr_and_lambda_strictly_decreasing(schedule):
    ts = np.linspace(schedule.t_min, schedule.T, 2000)
    snr = (schedule.alpha(ts) / schedule.sigma(ts)) ** 2
    assert np.all(np.diff(snr) < 0)
    assert np.all(np.diff(schedule.lam(ts)) < 0)
    assert np.all(schedule.alpha(ts) > 0) and np.all(schedule.sigma(ts) > 0)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_lambda_round_trip(schedule):
    ts = np.linspace(schedule.t_min, schedule.T, 1000)
    worst = max(abs(schedule.time_from_lambda(float(schedule.lam(t))) - t) for t in ts)
    assert worst <= 1e-10 * schedule.T


def test_ve_lambda_at_unit_sigma():
    # alpha == 1, so lambda = -log(sigma); sigma = 1 at t = 1
    ve = VeSchedule()
    alpha, sigma, _, _ = ve.at(1.0)
    assert sigma == 1.0 and math.log(alpha) - math.log(sigma) == 0.0 == ve.lam(1.0)


def test_vp_lambda_ordering():
    vp = VpLinearSchedule()
    assert float(vp.lam(vp.t_min)) > float(vp.lam(vp.T))
    assert float(vp.lam(vp.T)) < 0.0  # alpha_T << sigma_T


def test_vp_log_alpha_matches_numerical_beta_integration():
    vp = VpLinearSchedule()
    sol = solve_ivp(lambda t, y: [-0.5 * vp.beta(t)], (0.0, vp.T), [0.0],
                    rtol=1e-10, atol=1e-12)
    expected = math.exp(sol.y[0, -1])
    assert abs(float(vp.alpha(vp.T)) - expected) <= 1e-8 * expected


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_domain_errors(schedule):
    # every per-time quantity is read from at, so each checks the time as at does
    for method in (schedule.at, schedule.alpha, schedule.sigma, schedule.lam, schedule.kappa,
                   schedule.f, schedule.g_sq):
        with pytest.raises(DomainError):
            method(schedule.T * 1.5)
        with pytest.raises(DomainError):
            method(schedule.t_min * 0.1)
    lam_lo, lam_hi = schedule.lambda_range()
    assert (lam_lo, lam_hi) == (float(schedule.lam(schedule.T)),
                                float(schedule.lam(schedule.t_min)))
    with pytest.raises(DomainError):
        schedule.time_from_lambda(lam_hi + 1.0)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_check_time_scalar_and_array_paths_agree(schedule):
    slack = 1e-9 * (schedule.T - schedule.t_min)
    inside = [schedule.t_min - 0.5 * slack, schedule.t_min, 0.5 * (schedule.t_min + schedule.T),
              schedule.T, schedule.T + 0.5 * slack]
    outside = [schedule.t_min - 2.0 * slack, schedule.T + 2.0 * slack, math.nan, math.inf]
    for t in inside:
        for scalar in (t, np.float64(t)):
            clipped = schedule.check_time(scalar)
            assert type(clipped) is float
            assert clipped == schedule.check_time(np.array([t]))[0]
            assert schedule.t_min <= clipped <= schedule.T
    for t in outside:
        for value in (t, np.float64(t), np.array([t]), np.array([schedule.T, t])):
            with pytest.raises(DomainError):
                schedule.check_time(value)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_at_equals_the_single_methods(schedule):
    # scalar and array lookups agree bit for bit, and alpha and sigma are read from them
    ts = np.concatenate([np.linspace(schedule.t_min, schedule.T, 257),
                         np.random.default_rng(1).uniform(schedule.t_min, schedule.T, 256)])
    looked_up = schedule.at(ts)
    assert all(isinstance(got, np.ndarray) for got in looked_up)
    assert np.array_equal(looked_up[0], schedule.alpha(ts))
    assert np.array_equal(looked_up[1], schedule.sigma(ts))
    for k, t in enumerate(ts):
        for scalar in (float(t), np.float64(t)):
            values = schedule.at(scalar)
            assert all(type(v) is float for v in values)
            assert np.array_equal(values, [v[k] for v in looked_up])


@pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
def test_kinds_write_only_their_lookup(kind):
    # a kind writes its per-time formula once, as _at; the base class derives the rest
    own = vars(SCHEDULE_KINDS[kind])
    assert not {"alpha", "sigma", "d_alpha", "d_sigma", "at"} & set(own)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_at_checks_the_domain_as_check_time_does(schedule):
    slack = 1e-9 * (schedule.T - schedule.t_min)
    inside = [schedule.t_min - 0.5 * slack, schedule.T + 0.5 * slack]
    for t in inside:
        clipped = schedule.check_time(t)
        assert schedule.at(t) == schedule.at(clipped)
        assert np.array_equal(schedule.at(np.array([t]))[1], [schedule.at(clipped)[1]])
    for t in (schedule.t_min - 2.0 * slack, schedule.T + 2.0 * slack, math.nan, math.inf):
        for value in (t, np.float64(t), np.array([schedule.T, t])):
            with pytest.raises(DomainError):
                schedule.at(value)


def test_time_from_lambda_boundaries_and_midpoint(vp):
    lam_lo, lam_hi = vp.lambda_range()
    assert vp.time_from_lambda(lam_lo) == vp.T
    assert vp.time_from_lambda(lam_hi) == vp.t_min
    # independent bisection oracle for the midpoint
    mid = 0.5 * (lam_lo + lam_hi)
    lo, hi = vp.t_min, vp.T
    for _ in range(80):
        c = 0.5 * (lo + hi)
        if float(vp.lam(c)) > mid:
            lo = c
        else:
            hi = c
    assert abs(vp.time_from_lambda(mid) - 0.5 * (lo + hi)) <= 1e-9


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
def test_ode_coefficients_match_finite_differences(schedule):
    ts = np.linspace(schedule.t_min * 2, schedule.T * 0.98, 7)
    for t in ts:
        h = 1e-6 * schedule.T
        fd_f = (np.log(schedule.alpha(t + h)) - np.log(schedule.alpha(t - h))) / (2 * h)
        assert abs(schedule.f(t) - fd_f) <= 1e-6 * max(abs(fd_f), 1e-3)
        sig_sq = lambda u: float(schedule.sigma(u)) ** 2
        fd_g = (sig_sq(t + h) - sig_sq(t - h)) / (2 * h) - 2 * fd_f * sig_sq(t)
        assert abs(schedule.g_sq(t) - fd_g) <= 1e-6 * max(abs(fd_g), 1e-3)


class TestClosedFormInverse:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
    def test_array_matches_scalar_calls(self, schedule):
        lams = np.linspace(*schedule.lambda_range(), 37)
        out = schedule.time_from_lambda(lams)
        assert isinstance(out, np.ndarray) and out.shape == lams.shape
        assert np.array_equal(out, [schedule.time_from_lambda(float(l)) for l in lams])
        assert isinstance(schedule.time_from_lambda(float(lams[5])), float)

    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=["vp", "ve", "edm"])
    def test_one_entry_out_of_range_rejects_the_array(self, schedule):
        lam_lo, lam_hi = schedule.lambda_range()
        lams = np.linspace(lam_lo, lam_hi, 5)
        lams[2] = lam_hi + 1e-3 * (lam_hi - lam_lo)
        with pytest.raises(DomainError):
            schedule.time_from_lambda(lams)

    @pytest.mark.parametrize("schedule", ALL_SCHEDULES + [VpLinearSchedule(beta_min=0.0)],
                             ids=["vp", "ve", "edm", "vp-beta-min-0"])
    def test_round_trip_relative_error(self, schedule):
        ts = np.geomspace(schedule.t_min, schedule.T, 2000)
        back = schedule.time_from_lambda(schedule.lam(ts))
        assert np.max(np.abs(back - ts) / ts) <= 1e-13


class TestPhiFunctions:
    def test_values_at_zero(self):
        assert np.allclose(phi_functions(0.0, 3), [1.0, 0.5, 1.0 / 6.0])

    def test_closed_forms_at_one(self):
        vals = phi_functions(1.0, 2)
        assert abs(vals[0] - (math.e - 1.0)) < 1e-14
        assert abs(vals[1] - (math.e - 2.0)) < 1e-14

    def test_direct_formula_agreement(self):
        for h in (0.3, 1.7, -0.9):
            vals = phi_functions(h, 2)
            assert abs(vals[0] - math.expm1(h) / h) < 1e-14
            assert abs(vals[1] - (math.expm1(h) - h) / h**2) < 1e-12

    def test_recurrence(self):
        vals = phi_functions(0.5, 4)
        assert abs(vals[1] - (vals[0] - 1.0) / 0.5) < 1e-12
        for k in (2, 3):
            recur = (vals[k - 1] - 1.0 / math.factorial(k)) / 0.5
            assert abs(vals[k] - recur) < 1e-12 * abs(vals[k])

    def test_one_gauss_legendre_rule(self):
        # the module's 32-point rule serves phi_functions and the preset weights
        # in coeffs, and is the rule leggauss(32) returns
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(GL_NODES, nodes) and np.array_equal(GL_WEIGHTS, weights)
        assert coeffs.GL_NODES is GL_NODES and coeffs.GL_WEIGHTS is GL_WEIGHTS
        for h, order in ((0.7, 3), (-2.5, 4), (12.0, 2)):
            u = 0.5 * (nodes + 1.0)
            top = 0.5 * float(np.dot(weights, np.exp((1.0 - u) * h) * u ** (order - 1))) \
                / math.factorial(order - 1)
            assert phi_functions(h, order)[-1] == top

    def test_branch_crossover(self):
        below = phi_functions(np.nextafter(1e-4, 0.0), 4)
        above = phi_functions(np.nextafter(1e-4, 1.0), 4)
        assert np.max(np.abs(below - above)) <= 1e-10

    def test_order_validation(self):
        with pytest.raises(ValueError):
            phi_functions(0.1, 0)


class TestExactStepReference:
    def test_zero_score_reduces_to_signal_scaling(self, vp):
        x = np.array([0.7, -1.2])
        out = exact_step_integrand(vp, x, 0.8, 0.3, lambda s, t: np.zeros_like(s))
        ratio = float(vp.alpha(0.3) / vp.alpha(0.8))
        assert np.allclose(out, ratio * x, rtol=0, atol=1e-14)

    def test_constant_score_closed_form(self, vp):
        c = np.array([0.4, -0.2])
        x = np.array([1.0, 2.0])
        t_prev, t_next = 0.9, 0.5
        out = exact_step_integrand(vp, x, t_prev, t_next, lambda s, t: c)
        h = float(vp.lam(t_next) - vp.lam(t_prev))
        expected = (float(vp.alpha(t_next) / vp.alpha(t_prev)) * x
                    - float(vp.sigma(t_next)) * math.expm1(h) * c)
        assert np.allclose(out, expected, rtol=1e-10)

    def test_matches_gaussian_closed_form(self, ve, gauss):
        from fewstep.teachers import exact_gaussian_solution

        x = np.array([2.0, -1.0])
        t_prev, t_next = 6.0, 2.0
        start = exact_gaussian_solution(ve, gauss, x * ve.tilde_sigma, t_end=t_prev)
        out = exact_step_integrand(ve, start, t_prev, t_next,
                                   lambda s, t: gauss.epsilon(gauss.prepare(ve.at(t)), s))
        expected = exact_gaussian_solution(ve, gauss, x * ve.tilde_sigma, t_end=t_next)
        assert np.linalg.norm(out - expected) <= 1e-8

    def test_forward_time_rejected(self, vp):
        with pytest.raises(ValueError):
            exact_step_integrand(vp, np.zeros(2), 0.3, 0.8, lambda s, t: s)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.011, max_value=9.99))
def test_round_trip_property(t):
    ve = VeSchedule()
    assert abs(ve.time_from_lambda(float(ve.lam(t))) - t) <= 1e-10 * ve.T


def test_exact_step_reports_quadrature_non_convergence(ve):
    # a score oscillating far faster than the quadrature resolves
    wild = lambda s, t: np.sin(500.0 * float(ve.lam(t))) * np.ones_like(s)
    with pytest.raises(NumericalError) as err:
        exact_step_integrand(ve, np.ones(2), 2.0, 1.0, wild, rtol=1e-5,
                             atol=1e-8, quad_nodes=16)
    assert "deviation" in err.value.diagnostics

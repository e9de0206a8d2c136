import numpy as np
import pytest

from fewstep.coeffs import init_preset
from fewstep.grids import heuristic_grid
from fewstep.scores import GaussianMixtureScore, default_mixture
from fewstep.solvers import GridTable, solve


def einsum_parts(model, x2, alpha, sigma):
    """The former kernel: residuals r = x - alpha mu formed as (B, J, d) arrays."""
    v = alpha * alpha * model.scales**2 + sigma * sigma
    r = x2[:, None, :] - alpha * model.means[None, :, :]
    sq = np.sum(r * r, axis=-1)
    logn = -0.5 * model.dim * np.log(2.0 * np.pi * v)[None, :] - 0.5 * sq / v[None, :]
    ell = np.log(model.weights)[None, :] + logn
    ell -= ell.max(axis=1, keepdims=True)
    gamma = np.exp(ell)
    gamma /= gamma.sum(axis=1, keepdims=True)
    return v, r, sq, r / v[None, :, None], gamma


def einsum_oracle(model, schedule, x2, t, cot2):
    """(eps, (d eps/d x)^T cot, d eps/d t) of the former einsum kernel, all (B, d)."""
    alpha, sigma = float(schedule.alpha(t)), float(schedule.sigma(t))
    v, r, sq, u, gamma = einsum_parts(model, x2, alpha, sigma)
    ubar = np.einsum("bj,bjd->bd", gamma, u)
    dots = np.einsum("bjd,bd->bj", u, cot2)
    gdots = np.einsum("bj,bj->b", gamma, dots)
    diag = np.einsum("bj,j->b", gamma, 1.0 / v)[:, None] * cot2
    mix = np.einsum("bj,bjd,bj->bd", gamma, u, dots) - ubar * gdots[:, None]
    vjp = sigma * (diag - mix)

    mu = model.means
    dv_da, dv_ds = 2.0 * alpha * model.scales**2, 2.0 * sigma * np.ones_like(v)
    du_da = -mu[None, :, :] / v[None, :, None] - r * (dv_da / v**2)[None, :, None]
    du_ds = -r * (dv_ds / v**2)[None, :, None]
    rmu = np.einsum("bjd,jd->bj", r, mu)
    dln_da = (-0.5 * model.dim * (dv_da / v)[None, :] + rmu / v[None, :]
              + 0.5 * sq * (dv_da / v**2)[None, :])
    dln_ds = -0.5 * model.dim * (dv_ds / v)[None, :] + 0.5 * sq * (dv_ds / v**2)[None, :]

    def assemble(dln, du, extra):
        dgamma = gamma * (dln - np.einsum("bj,bj->b", gamma, dln)[:, None])
        term = np.einsum("bj,bjd->bd", dgamma, u) + np.einsum("bj,bjd->bd", gamma, du)
        return sigma * term + extra

    deps_dt = (assemble(dln_da, du_da, 0.0) * float(schedule.at(t)[2])
               + assemble(dln_ds, du_ds, ubar) * float(schedule.at(t)[3]))
    return sigma * ubar, vjp, deps_dt


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def direct_mixture_score(model, schedule, x, t):
    """Independent direct-density gradient: plain density sum, no log-sum-exp."""
    a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
    v = a * a * model.scales**2 + s * s
    dens = 0.0
    grad = np.zeros_like(x)
    for w, mu, vj in zip(model.weights, model.means, v):
        r = x - a * mu
        nj = w * np.exp(-0.5 * np.dot(r, r) / vj) / (2 * np.pi * vj) ** (model.dim / 2)
        dens += nj
        grad += nj * (-r / vj)
    return grad / dens


class TestEpsilon:
    def test_zero_at_symmetric_point(self, ve):
        model = GaussianMixtureScore.isotropic(2, scale=1.0)
        assert np.allclose(model.epsilon(model.prepare(ve.at(1.0)), np.zeros(2)), 0.0)

    def test_unit_balance_point(self, ve):
        # at t=1 on this schedule alpha=sigma=1, so eps = x * 1/(1+1)
        model = GaussianMixtureScore.isotropic(2, scale=1.0)
        out = model.epsilon(model.prepare(ve.at(1.0)), np.array([2.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0], atol=1e-14)

    def test_single_component_mixture_degenerates(self, ve):
        iso = GaussianMixtureScore.isotropic(2, scale=0.7, mean=[0.3, -0.4])
        mix = GaussianMixtureScore(weights=[1.0], means=[[0.3, -0.4]], scales=[0.7])
        x = np.array([1.1, 0.2])
        at = ve.at(2.5)
        assert np.allclose(iso.epsilon(iso.prepare(at), x), mix.epsilon(mix.prepare(at), x))

    def test_matches_direct_density_score(self, ve, mixture, rng):
        for _ in range(50):
            x = rng.normal(scale=3.0, size=2)
            t = float(rng.uniform(ve.t_min, ve.T))
            eps = mixture.epsilon(mixture.prepare(ve.at(t)), x)
            score = direct_mixture_score(mixture, ve, x, t)
            assert np.allclose(eps, -float(ve.sigma(t)) * score, rtol=1e-10, atol=1e-12)

    def test_batched_matches_loop(self, ve, mixture, rng):
        xs = rng.normal(size=(5, 2))
        p = mixture.prepare(ve.at(3.0))
        batch = mixture.epsilon(p, xs)
        rows = np.stack([mixture.epsilon(p, x) for x in xs])
        assert np.allclose(batch, rows)

    def test_non_finite_input_rejected(self, ve, mixture):
        with pytest.raises(FloatingPointError):
            mixture.epsilon(mixture.prepare(ve.at(1.0)), np.array([np.nan, 0.0]))

    def test_stable_at_extreme_log_snr(self, edm, mixture):
        out = mixture.epsilon(mixture.prepare(edm.at(edm.T)), np.array([50.0, -30.0]))
        assert np.all(np.isfinite(out))
        out = mixture.epsilon(mixture.prepare(edm.at(edm.t_min)), np.array([0.5, 0.1]))
        assert np.all(np.isfinite(out))


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixtureScore(weights=[0.5, 0.4], means=[[0.0], [1.0]], scales=[1.0, 1.0])

    def test_scales_positive(self):
        with pytest.raises(ValueError):
            GaussianMixtureScore(weights=[1.0], means=[[0.0]], scales=[0.0])

    def test_default_mixture_weights(self):
        model = default_mixture(2)
        assert abs(model.weights.sum() - 1.0) <= 1e-12
        assert model.n_components == 3

    def test_high_dimension_supported(self, ve):
        model = default_mixture(64)
        out = model.epsilon(model.prepare(ve.at(2.0)), np.ones(64))
        assert out.shape == (64,)


class TestOwnership:
    def test_model_copies_the_callers_arrays(self, ve):
        w, m, s = np.array([0.6, 0.4]), np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.5, 0.7])
        model = GaussianMixtureScore(weights=w, means=m, scales=s)
        x = np.array([0.3, -0.2])
        before = model.epsilon(model.prepare(ve.at(1.0)), x)
        m[1, 0] = 5.0
        w[:] = [0.1, 0.9]
        s[0] = 2.0
        assert model.means[1, 0] == 0.0 and model.weights[0] == 0.6 and model.scales[0] == 0.5
        assert np.array_equal(model.epsilon(model.prepare(ve.at(1.0)), x), before)
        fresh = GaussianMixtureScore(weights=[0.6, 0.4], means=[[1.0, 0.0], [0.0, 0.0]],
                                     scales=[0.5, 0.7])
        assert np.array_equal(fresh.epsilon(fresh.prepare(ve.at(1.0)), x), before)

    def test_arrays_are_read_only(self):
        model = default_mixture(2)
        for arr in (model.weights, model.means, model.scales):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_equality_is_identity_and_never_raises(self):
        a, b = default_mixture(2), default_mixture(2)
        assert a == a and not (a == b) and a != b
        assert len({a, b}) == 2


class TestDerivatives:
    def test_isotropic_vjp_is_scalar_multiple(self, ve):
        model = GaussianMixtureScore.isotropic(2, scale=1.0)
        t = 2.0
        a, s = float(ve.alpha(t)), float(ve.sigma(t))
        cot = np.array([0.3, -0.7])
        out = model.epsilon_vjp(model.prepare(ve.at(t)), np.array([0.9, 0.4]), cot)
        assert np.allclose(out, s / (a * a + s * s) * cot, rtol=1e-12)

    def test_zero_cotangent(self, ve, mixture):
        out = mixture.epsilon_vjp(mixture.prepare(ve.at(1.5)), np.ones(2), np.zeros(2))
        assert np.allclose(out, 0.0)

    def test_vjp_matches_finite_differences(self, ve, mixture, rng):
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            x = rng.normal(scale=2.5, size=2)
            t = float(rng.uniform(ve.t_min, ve.T))
            cot = rng.normal(size=2)
            p = mixture.prepare(ve.at(t))
            analytic = mixture.epsilon_vjp(p, x, cot)
            fd = np.zeros(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                fd[i] = np.dot(cot, mixture.epsilon(p, x + e)
                               - mixture.epsilon(p, x - e)) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, np.linalg.norm(analytic - fd) / denom)
        assert worst <= 1e-5

    def test_time_partial_matches_finite_differences(self, ve, mixture, rng):
        for _ in range(30):
            x = rng.normal(scale=2.0, size=2)
            t = float(rng.uniform(2 * ve.t_min, 0.9 * ve.T))
            dt = 1e-6
            fd = (mixture.epsilon(mixture.prepare(ve.at(t + dt)), x)
                  - mixture.epsilon(mixture.prepare(ve.at(t - dt)), x)) / (2 * dt)
            analytic = mixture.epsilon_time_partial(mixture.prepare(ve.at(t)), x)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def _wide_mixture():
    rng = np.random.default_rng(64)
    return GaussianMixtureScore(weights=np.full(64, 1.0 / 64), means=rng.normal(size=(64, 64)),
                                scales=rng.uniform(0.2, 1.0, size=64))


class TestLinearize:
    """evaluate followed by pullback on its terms: eps, the vjp and the time derivative."""

    @pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "d64j64"])
    @pytest.mark.parametrize("batch", [None, 5], ids=["single", "batched"])
    def test_matches_separate_derivatives(self, request, schedule_name, wide, batch, rng):
        schedule = request.getfixturevalue(schedule_name)
        model = _wide_mixture() if wide else default_mixture(2)
        shape = (model.dim,) if batch is None else (batch, model.dim)
        for _ in range(10):
            t = float(rng.uniform(schedule.t_min, schedule.T))
            x = float(schedule.sigma(t)) * rng.uniform(0.5, 2.0) * rng.normal(size=shape)
            cot = rng.normal(size=shape)
            p = model.prepare(schedule.at(t))
            eps, terms = model.evaluate(p, x)
            xbar, products = model.pullback(p, x, terms, cot)
            (tdot,) = model.time_derivatives([p], [x], [terms], [products])
            assert np.array_equal(eps, model.epsilon(p, x))
            assert np.array_equal(xbar, model.epsilon_vjp(p, x, cot))
            # relative to the scale of the dot product, which itself can cancel
            parts = cot * model.epsilon_time_partial(p, x)
            assert isinstance(tdot, float)
            assert abs(tdot - np.sum(parts)) <= 1e-12 * np.sum(np.abs(parts))


def _oracle_points(schedule, model, rng, t):
    """Batches at time t: typical draws, draws at |x| = 8 sigma, and draws within
    a few percent of one scaled component mean, where |x| >> |x - alpha mu_j|."""
    a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
    mean = a * model.means[rng.integers(model.n_components, size=6)]
    near, far = rng.normal(size=(2, 6, model.dim))
    near *= rng.uniform(1e-3, 3e-2, size=(6, 1)) * np.linalg.norm(mean, axis=1, keepdims=True) \
        / np.linalg.norm(near, axis=1, keepdims=True)
    return [s * rng.normal(size=(6, model.dim)) + mean,
            8.0 * s * far / np.linalg.norm(far, axis=1, keepdims=True),
            mean + near]


def _assert_contraction_close(tdot, cot, deps_dt):
    # relative to the scale of the dot product, which itself can cancel
    parts = cot * deps_dt
    assert abs(tdot - np.sum(parts)) <= 1e-12 * np.sum(np.abs(parts))


class TestAgainstEinsumOracle:
    """The (B, J)-only kernel reproduces the former (B, J, d) einsum kernel, through
    evaluate, pullback and the batched time contraction."""

    @pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "d64j64"])
    def test_epsilon_vjp_and_time_partial(self, request, schedule_name, wide, rng):
        schedule = request.getfixturevalue(schedule_name)
        model = _wide_mixture() if wide else default_mixture(2)
        times = [schedule.t_min, schedule.T] + list(rng.uniform(schedule.t_min, schedule.T, 8))
        for t in times:
            p = model.prepare(schedule.at(t))
            points = _oracle_points(schedule, model, rng, float(t))
            cots, oracles, kept, products = [], [], [], []
            for x in points:
                cots.append(rng.normal(size=x.shape))
                oracles.append(einsum_oracle(model, schedule, x, t, cots[-1]))
                eps, terms = model.evaluate(p, x)
                xbar, prods = model.pullback(p, x, terms, cots[-1])
                kept.append(terms)
                products.append(prods)
                assert _rel(eps, oracles[-1][0]) <= 1e-12
                assert _rel(xbar, oracles[-1][1]) <= 1e-12
                assert _rel(model.epsilon_time_partial(p, x), oracles[-1][2]) <= 1e-12
            tdots = model.time_derivatives([p] * len(points), points, kept, products)
            for tdot, cot, oracle in zip(tdots, cots, oracles):
                _assert_contraction_close(tdot, cot, oracle[2])

    @pytest.mark.parametrize("schedule_name", ["ve", "vp"])
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "d64j64"])
    def test_points_where_the_expansion_cancels(self, request, schedule_name, wide, rng):
        # at x = alpha mu_j the log-density expansion |x|^2 - 2 alpha x.mu_j +
        # alpha^2 |mu_j|^2 cancels to rounding, unclamped; |x| = 8 sigma is a far draw.
        # eps and u_j.cot vanish with x - alpha mu_j as well (eps is ~1e-11 at t_min),
        # so eps and the time contraction are held to 1e-12 of the size of the terms
        # they subtract, and gamma and the vjp to 1e-12 of their own size
        schedule = request.getfixturevalue(schedule_name)
        model = _wide_mixture() if wide else default_mixture(2)
        mean_norms = np.linalg.norm(model.means, axis=1)
        for t in (schedule.t_min, schedule.T):
            a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
            p = model.prepare(schedule.at(t))
            far = rng.normal(size=(4, model.dim))
            for x in (a * model.means, 8.0 * s * far / np.linalg.norm(far, axis=1, keepdims=True)):
                cot = rng.normal(size=x.shape)
                eps_ref, vjp_ref, deps_dt = einsum_oracle(model, schedule, x, t, cot)
                v, _, _, _, gamma_ref = einsum_parts(model, x, a, s)
                eps, gamma = model.evaluate(p, x)
                xbar, products = model.pullback(p, x, gamma, cot)
                (tdot,) = model.time_derivatives([p], [x], [gamma], [products])
                assert _rel(gamma, gamma_ref.T) <= 1e-12
                assert _rel(xbar, vjp_ref) <= 1e-12
                # |x| + alpha |mu_j| over v_j: the size of the operands of u_j
                size = (np.linalg.norm(x, axis=1)[:, None] + a * mean_norms) / v
                eps_size = s * np.einsum("bj,bj->b", gamma_ref, size)
                assert np.linalg.norm(eps - eps_ref) <= 1e-12 * np.linalg.norm(eps_size)
                _, sigma_shift, f = model._slopes(x, model.means @ x.T, gamma,
                                                  *model._stacked([p]))
                terms = np.abs(f[0]) * gamma * size.T
                if sigma_shift is not None:
                    terms += np.abs(sigma_shift[0]) * gamma * mean_norms[:, None]
                tdot_size = np.sum(terms * np.linalg.norm(cot, axis=1))
                assert abs(tdot - np.sum(cot * deps_dt)) <= 1e-12 * tdot_size

    def test_schedule_ends_with_large_states(self, ve, edm, mixture, rng):
        # VE at t=T and EDM at t=80 draw |x| of order 10 and 80-110
        for schedule in (ve, edm):
            x = schedule.tilde_sigma * rng.normal(size=(50, 2))
            assert np.max(np.linalg.norm(x, axis=1)) > 0.9 * 1.4 * schedule.T
            cot = rng.normal(size=x.shape)
            eps, vjp, deps_dt = einsum_oracle(mixture, schedule, x, schedule.T, cot)
            p = mixture.prepare(schedule.at(schedule.T))
            got_eps, terms = mixture.evaluate(p, x)
            got_vjp, products = mixture.pullback(p, x, terms, cot)
            (tdot,) = mixture.time_derivatives([p], [x], [terms], [products])
            assert _rel(got_eps, eps) <= 1e-12
            assert _rel(got_vjp, vjp) <= 1e-12
            _assert_contraction_close(tdot, cot, deps_dt)


class TestDataPrediction:
    def test_round_trip_identity(self, ve, mixture, rng):
        for _ in range(20):
            x = rng.normal(scale=2.0, size=2)
            t = float(rng.uniform(ve.t_min, ve.T))
            a, s = float(ve.alpha(t)), float(ve.sigma(t))
            p = mixture.prepare(ve.at(t))
            xhat = mixture.evaluate(p, x, "data")[0]
            eps_back = (x - a * xhat) / s
            assert np.allclose(eps_back, mixture.epsilon(p, x), rtol=0, atol=1e-12)


def test_counting_wrapper_tracks_calls(ve, mixture, counting):
    mixture.epsilon(mixture.prepare(ve.at(1.0)), np.ones((3, 2)))
    mixture.evaluate(mixture.prepare(ve.at(1.0)), np.ones(2), "data")
    assert counting["evaluate"] == 4 and counting["pullback"] == 0
    mixture.prepare(ve.at(np.array([1.0, 0.5])))
    assert counting["prepare"] == 4
    counting.clear()
    assert counting["evaluate"] == 0 and counting["prepare"] == 0


def test_counting_wrapper_counts_pullback_rows(ve, mixture, counting):
    x, p = np.ones((4, 2)), mixture.prepare(ve.at(1.0))
    eps, terms = mixture.evaluate(p, x)
    mixture.pullback(p, x, terms, np.ones((4, 2)))
    mixture.pullback(p, np.ones(2), mixture.evaluate(p, np.ones(2))[1], np.ones(2))
    assert counting["pullback"] == 5 and counting["evaluate"] == 5 and counting["prepare"] == 1
    assert np.array_equal(eps, mixture.epsilon(p, x))


class TestPrepared:
    """The per-time constants: one record per time, or stacked over a grid's times."""

    @pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
    def test_kernel_matches_the_inline_constants_bit_for_bit(self, request, schedule_name,
                                                            mixture, rng, inline_epsilon):
        schedule = request.getfixturevalue(schedule_name)
        for t in [schedule.t_min, schedule.T] + list(rng.uniform(schedule.t_min, schedule.T, 6)):
            at = schedule.at(float(t))
            x = float(schedule.sigma(t)) * rng.normal(size=(7, 2))
            assert np.array_equal(mixture.epsilon(mixture.prepare(at), x),
                                  inline_epsilon(mixture, at, x))

    @pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
    @pytest.mark.parametrize("prediction", ["noise", "data"])
    def test_table_records_equal_a_fresh_prepare(self, request, schedule_name, prediction,
                                                 mixture, rng):
        # the stacked constants a grid's table keeps give the evaluation, its
        # terms, the pullback and the time derivative of a record made per time
        schedule = request.getfixturevalue(schedule_name)
        grid = heuristic_grid(schedule, 6, "logsnr")
        records = list(GridTable.of(schedule, grid, prediction).prepared(mixture))
        assert len(records) == len(grid.score_times)
        for t, kept in zip(grid.score_times, records):
            fresh = mixture.prepare(schedule.at(float(t)))
            for shape in ((2,), (5, 2)):
                x = float(schedule.sigma(t)) * rng.normal(size=shape)
                cot = rng.normal(size=shape)
                e, terms = mixture.evaluate(kept, x, prediction)
                e_ref, terms_ref = mixture.evaluate(fresh, x, prediction)
                assert np.array_equal(e, e_ref)
                assert all(np.array_equal(u, v) for u, v in zip(terms, terms_ref))
                xbar, products = mixture.pullback(kept, x, terms, cot)
                xbar_ref, products_ref = mixture.pullback(fresh, x, terms_ref, cot)
                assert np.array_equal(xbar, xbar_ref)
                assert np.array_equal(
                    mixture.time_derivatives([kept], [x], [terms], [products]),
                    mixture.time_derivatives([fresh], [x], [terms_ref], [products_ref]))
                assert np.array_equal(mixture.epsilon_time_partial(kept, x),
                                      mixture.epsilon_time_partial(fresh, x))

    @pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_stack_of_any_times_equals_records_prepared_one_at_a_time(self, request,
                                                                     schedule_name, k,
                                                                     mixture, rng):
        # times in no grid, stacked from scalar lookups as the adaptive teacher
        # stacks a step attempt's stage times, the schedule's ends among them
        schedule = request.getfixturevalue(schedule_name)
        ends = [schedule.t_min, schedule.T]
        time_sets = ([[t] for t in ends] if k == 1 else
                     [ends + list(rng.uniform(schedule.t_min, schedule.T, k - 2))])
        for times in time_sets:
            lookups = [schedule.at(float(t)) for t in times]
            stack = mixture.prepare(np.array(lookups).T)
            assert len(stack) == k
            for t, at, kept in zip(times, lookups, stack):
                fresh = mixture.prepare(at)
                x = float(schedule.sigma(t)) * rng.normal(size=(5, 2))
                cot = rng.normal(size=(5, 2))
                for prediction in ("noise", "data"):
                    e, terms = mixture.evaluate(kept, x, prediction)
                    e_ref, terms_ref = mixture.evaluate(fresh, x, prediction)
                    assert np.array_equal(e, e_ref) and np.array_equal(terms, terms_ref)
                xbar, products = mixture.pullback(kept, x, terms, cot)
                xbar_ref, products_ref = mixture.pullback(fresh, x, terms_ref, cot)
                assert np.array_equal(xbar, xbar_ref)
                assert all(np.array_equal(u, v) for u, v in zip(products, products_ref))

    def test_stack_builds_pullback_constants_on_first_use(self, vp, mixture):
        stack = mixture.prepare(vp.at(np.array([1.0, 0.5, 0.1])))
        assert stack._slopes is None and len(stack) == 3
        first = stack.slopes
        assert first.shape == (3, 3, mixture.n_components, 1)
        assert stack.slopes is first


@pytest.mark.parametrize("kind, order, preset", [("lms", 3, "ipndm"), ("pc", 3, "unipc"),
                                                 ("ss", 2, "gaussian")])
@pytest.mark.parametrize("schedule_name", ["ve", "vp", "edm"])
@pytest.mark.parametrize("prediction", ["noise", "data"])
@pytest.mark.parametrize("shape", [(2,), (5, 2)], ids=["single", "batched"])
def test_time_contraction_over_a_trace_equals_one_evaluation_at_a_time(
        request, kind, order, preset, schedule_name, prediction, shape, mixture, rng):
    # the reverse pass contracts every evaluation of a trace at once; each entry
    # must be the bits of contracting that evaluation alone
    schedule = request.getfixturevalue(schedule_name)
    grid = heuristic_grid(schedule, 6, "logsnr")
    coeffs = init_preset(kind, order, 6, preset, schedule=schedule, grid=grid,
                         prediction=prediction, seed=3)
    if preset == "gaussian":        # random weights, kept small
        coeffs.values *= 0.2
    trace = solve(coeffs, schedule, grid, mixture, schedule.tilde_sigma * rng.normal(size=shape))
    preps, points, terms = trace.plan.preps, trace.points, trace.terms
    products = [mixture.pullback(p, x, kept, rng.normal(size=shape))[1]
                for p, x, kept in zip(preps, points, terms)]
    batched = mixture.time_derivatives(preps, points, terms, products)
    single = [mixture.time_derivatives(*([u] for u in args))[0]
              for args in zip(preps, points, terms, products)]
    assert batched.shape == (trace.nfe_used,)
    assert np.array_equal(batched, single)

import itertools

import numpy as np
import pytest

from fewstep.backprop import backward, check_gradients
from fewstep.coeffs import init_preset
from fewstep.grids import LearnableTimeParams, heuristic_grid, materialize
from fewstep.schedules import VpLinearSchedule
from fewstep.solvers import solve


def _random_params(schedule, n, rng, offset_scale=0.3):
    grid = heuristic_grid(schedule, n, "logsnr")
    params = LearnableTimeParams.from_grid(grid, schedule)
    params.xi += 0.1 * rng.standard_normal(params.xi.shape)
    delta = params.clip_fraction * np.min(-np.diff(materialize(params, schedule).steps))
    params.xi_c += offset_scale * delta * rng.standard_normal(params.xi_c.shape)
    return params


class TestLinearChain:
    def test_zero_model_adjoint_is_scaled_identity(self, vp, zero_model):
        grid = heuristic_grid(vp, 5, "logsnr")
        coeffs = init_preset("lms", 2, 5, "ipndm", schedule=vp, grid=grid)
        x = np.array([1.0, -3.0])
        trace = solve(coeffs, vp, grid, zero_model, x)
        res = backward(trace, coeffs, vp, zero_model, trace.terminal, grid=grid)
        ratio = float(vp.alpha(vp.t_min) / vp.alpha(vp.T))
        assert np.allclose(res.grad_x0, ratio * trace.terminal, rtol=1e-12)
        assert np.all(np.isfinite(res.grad_coeffs))

    def test_linearity_in_cotangent(self, ve, mixture, rng):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = init_preset("lms", 2, 4, "ipndm", schedule=ve, grid=grid)
        x = rng.standard_normal(2)
        trace = solve(coeffs, ve, grid, mixture, x)
        cot = rng.standard_normal(2)
        one = backward(trace, coeffs, ve, mixture, cot, grid=grid)
        two = backward(trace, coeffs, ve, mixture, 2.0 * cot, grid=grid)
        assert np.allclose(2.0 * one.grad_coeffs, two.grad_coeffs, rtol=1e-12)
        assert np.allclose(2.0 * one.grad_x0, two.grad_x0, rtol=1e-12)
        assert np.allclose(2.0 * one.grad_steps, two.grad_steps, rtol=1e-12)


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("kind,preset,order", [
        ("lms", "gaussian", 2),
        ("pc", "gaussian", 2),
        ("ss", "gaussian", 2),
    ])
    def test_blocks_match_fd(self, ve, mixture, rng, kind, preset, order):
        params = _random_params(ve, 4, rng)
        coeffs = init_preset(kind, order, 4, preset, seed=int(rng.integers(2**31)))
        coeffs.values *= 0.5
        x0 = ve.tilde_sigma * rng.standard_normal(2)
        target = rng.standard_normal(2)
        report = check_gradients(coeffs, ve, mixture, x0, target, params=params)
        assert report["max_relative_deviation"] <= 1e-5

    @pytest.mark.parametrize("kind", ["lms", "pc"])
    def test_data_prediction_blocks_match_fd(self, ve, mixture, rng, kind):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = init_preset(kind, 2, 4, "gaussian", seed=11)
        coeffs.prediction = "data"
        x0 = ve.tilde_sigma * rng.standard_normal(2)
        report = check_gradients(coeffs, ve, mixture, x0, rng.standard_normal(2), grid=grid)
        assert report["max_relative_deviation"] <= 1e-5

    @pytest.mark.parametrize("schedule", ["ve", "vp"])
    def test_data_prediction_time_blocks_match_fd(self, schedule, mixture, rng, request):
        schedule = request.getfixturevalue(schedule)
        params = _random_params(schedule, 4, rng)
        coeffs = init_preset("lms", 2, 4, "ipndm", schedule=schedule,
                             grid=materialize(params, schedule), prediction="data")
        x0 = schedule.tilde_sigma * rng.standard_normal(2)
        report = check_gradients(coeffs, schedule, mixture, x0, rng.standard_normal(2),
                                 params=params)
        assert report["max_relative_deviation"] <= 1e-5

    def test_zero_loss_gives_zero_gradients(self, ve, mixture):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = init_preset("lms", 2, 4, "ipndm", schedule=ve, grid=grid)
        x0 = np.array([1.0, 2.0])
        target = solve(coeffs, ve, grid, mixture, x0).terminal
        report = check_gradients(coeffs, ve, mixture, x0, target, grid=grid)
        trace = solve(coeffs, ve, grid, mixture, x0)
        res = backward(trace, coeffs, ve, mixture, np.zeros(2), grid=grid)
        assert report["loss"] == 0.0
        assert np.allclose(res.grad_coeffs, 0.0) and np.allclose(res.grad_x0, 0.0)


# classical presets; dpmpp is defined for noise prediction only
FD_PRESETS = {("lms", "noise"): "ipndm", ("lms", "data"): "ipndm",
              ("pc", "noise"): "unipc", ("pc", "data"): "unipc",
              ("ss", "noise"): "dpmpp", ("ss", "data"): "gaussian"}


@pytest.mark.parametrize("prediction", ["noise", "data"])
@pytest.mark.parametrize("schedule_name", ["ve", "vp"])
@pytest.mark.parametrize("kind", ["lms", "pc", "ss"])
def test_fd_audit_every_family_schedule_and_prediction(request, mixture, kind,
                                                       schedule_name, prediction):
    # learnable time parameters and a batched x0, at the audit tolerance
    rng = np.random.default_rng(3)
    schedule = request.getfixturevalue(schedule_name)
    params = _random_params(schedule, 4, rng)
    coeffs = init_preset(kind, 2, 4, FD_PRESETS[kind, prediction], schedule=schedule,
                         grid=materialize(params, schedule), prediction=prediction, seed=3)
    if FD_PRESETS[kind, prediction] == "gaussian":
        coeffs.values *= 0.5
    x0 = schedule.tilde_sigma * rng.standard_normal((3, 2))
    report = check_gradients(coeffs, schedule, mixture, x0, rng.standard_normal((3, 2)),
                             params=params)
    assert report["max_relative_deviation"] <= 1e-4, report["blocks"]


class TestDeadParameters:
    def test_ss_inert_mixing_entries_get_zero_gradient(self, ve, mixture, rng):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = init_preset("ss", 3, 4, "gaussian", seed=5)
        x = rng.standard_normal(2)
        trace = solve(coeffs, ve, grid, mixture, x)
        res = backward(trace, coeffs, ve, mixture, np.ones(2), grid=grid)
        for i in range(1, 5):
            gmat = res.grad_coeffs[coeffs.ss_a_slice(i)].reshape(3, 2)
            # row j may use only entries l < j; the rest are structurally inert
            assert gmat[0, 0] == 0.0 and gmat[0, 1] == 0.0 and gmat[1, 1] == 0.0


def test_tied_gradient_is_sum_of_untied_rows(ve, mixture, rng):
    n, k = 7, 3
    grid = heuristic_grid(ve, n, "logsnr")
    tied = init_preset("lms", k, n, "ipndm", schedule=ve, grid=grid, tied=True)
    untied = init_preset("lms", k, n, "ipndm", schedule=ve, grid=grid)
    x = rng.standard_normal(2)
    cot = rng.standard_normal(2)

    trace_t = solve(tied, ve, grid, mixture, x)
    trace_u = solve(untied, ve, grid, mixture, x)
    assert np.allclose(trace_t.terminal, trace_u.terminal)

    res_t = backward(trace_t, tied, ve, mixture, cot, grid=grid)
    res_u = backward(trace_u, untied, ve, mixture, cot, grid=grid)
    shared = res_t.grad_coeffs[tied.b_slice(k)]
    summed = sum(res_u.grad_coeffs[untied.b_slice(i)] for i in range(k, n + 1))
    assert np.allclose(shared, summed, rtol=1e-12)


class TestRematerialization:
    def test_remade_evaluations_match_kept(self, ve, mixture, rng):
        # the trace keeps each evaluation with the point it was made at, its
        # record (in its plan, one per evaluated row, led by the time's schedule
        # lookup) and the model's terms for it: remaking it there reproduces both
        grid = heuristic_grid(ve, 5, "logsnr")
        for (kind, preset), prediction in itertools.product(
                [("lms", "ipndm"), ("pc", "unipc"), ("ss", "gaussian")], ["noise", "data"]):
            coeffs = init_preset(kind, 2, 5, preset, schedule=ve, grid=grid,
                                 prediction=prediction, seed=5)
            for x in (rng.standard_normal(2), rng.standard_normal((3, 2))):
                trace = solve(coeffs, ve, grid, mixture, x)
                preps = trace.plan.preps
                n_evaluated = sum(row.evaluated for rows in trace.plan.steps for row in rows)
                assert len(trace.points) == len(preps) == n_evaluated == trace.nfe_used
                for e, kept, point, prep in zip(trace.evals, trace.terms, trace.points, preps):
                    remade, terms = mixture.evaluate(mixture.prepare(prep[:4]), point,
                                                     prediction)
                    assert np.array_equal(remade, e), (kind, prediction, x.shape)
                    assert all(np.array_equal(u, v) for u, v in zip(terms, kept))

    def test_backward_evaluation_budget(self, ve, mixture, rng, counting):
        # a kept trace holds each evaluation and the model's terms for it, so
        # backward pulls each evaluation back once and evaluates nothing
        grid = heuristic_grid(ve, 6, "logsnr")
        coeffs = init_preset("lms", 3, 6, "ipndm", schedule=ve, grid=grid)
        x = rng.standard_normal(2)
        trace = solve(coeffs, ve, grid, mixture, x)
        forward_evals = counting["evaluate"]
        counting.clear()
        backward(trace, coeffs, ve, mixture, np.ones(2), grid=grid)
        assert counting["evaluate"] == 0
        assert counting["pullback"] == forward_evals == 6


def test_mismatched_trace_rejected(ve, mixture):
    grid = heuristic_grid(ve, 4, "logsnr")
    coeffs = init_preset("lms", 2, 4, "ipndm", schedule=ve, grid=grid)
    trace = solve(coeffs, ve, grid, mixture, np.ones(2))
    other = init_preset("pc", 2, 4, "unipc", schedule=ve, grid=grid)
    with pytest.raises(ValueError):
        backward(trace, other, ve, mixture, np.ones(2), grid=grid)
    with pytest.raises(ValueError):
        backward(trace, coeffs, ve, mixture, np.ones(3), grid=grid)
    with pytest.raises(TypeError):      # the grid is a required argument
        backward(trace, coeffs, ve, mixture, np.ones(2))


class CountingVp(VpLinearSchedule):
    """Logs the name of every public method looked up on it."""

    log: list = []

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if not name.startswith("_") and callable(value):
            CountingVp.log.append(name)
        return value


@pytest.mark.parametrize("kind, preset", [("lms", "ipndm"), ("pc", "unipc"), ("ss", "gaussian")])
@pytest.mark.parametrize("prediction", ["noise", "data"])
def test_schedule_calls_do_not_grow_with_steps(kind, preset, prediction, mixture):
    # once the grid's table exists, solve + backward (a time block read) asks the
    # schedule the same things at every N: nothing for lms/pc, the stage-time
    # lookup for ss
    schedule, x = CountingVp(), np.ones((3, 2))
    calls = []
    for n in (4, 8):
        grid = heuristic_grid(schedule, n, "logsnr")
        coeffs = init_preset(kind, 2, n, preset, schedule=schedule, grid=grid,
                             prediction=prediction, seed=3)
        for _ in range(2):
            CountingVp.log.clear()
            trace = solve(coeffs, schedule, grid, mixture, x)
            backward(trace, coeffs, schedule, mixture, np.ones_like(x), grid=grid).grad_steps
        calls.append(list(CountingVp.log))
    assert calls[0] == calls[1]
    assert calls[0] == ([] if kind != "ss" else
                        ["lambda_range", "at", "time_from_lambda", "check_time", "beta"])


@pytest.mark.parametrize("kind, preset", [("lms", "ipndm"), ("pc", "unipc"), ("ss", "gaussian")])
@pytest.mark.parametrize("prediction", ["noise", "data"])
def test_model_prepares_nothing_once_the_table_exists(kind, preset, prediction, mixture,
                                                      counting):
    # the grid's table keeps the model's constants of its score times, so solve +
    # backward (a time block read) prepare nothing for lms/pc, and the k*N stage
    # times for ss
    schedule, x = VpLinearSchedule(), np.ones((3, 2))
    for n in (4, 8):
        grid = heuristic_grid(schedule, n, "logsnr")
        coeffs = init_preset(kind, 2, n, preset, schedule=schedule, grid=grid,
                             prediction=prediction, seed=3)
        solve(coeffs, schedule, grid, mixture, x)
        counting.clear()
        trace = solve(coeffs, schedule, grid, mixture, x)
        backward(trace, coeffs, schedule, mixture, np.ones_like(x), grid=grid).grad_steps
        assert counting["prepare"] == (0 if kind != "ss" else 2 * n)


TIME_BLOCKS = ("grad_steps", "grad_score_times", "grad_xi", "grad_xi_c")


@pytest.mark.parametrize("kind, preset", [("lms", "ipndm"), ("pc", "unipc"), ("ss", "dpmpp")])
def test_time_blocks_are_contracted_once_when_first_read(kind, preset, ve, mixture, rng,
                                                         counting):
    # lms/pc contract the time derivatives only when a time block is read; ss, whose
    # stage offsets are coefficients, in backward itself, and the time blocks reuse them
    params = _random_params(ve, 5, rng)
    grid = materialize(params, ve)
    coeffs = init_preset(kind, 2, 5, preset, schedule=ve, grid=grid)
    x = ve.tilde_sigma * rng.standard_normal((4, 2))
    trace = solve(coeffs, ve, grid, mixture, x)
    res = backward(trace, coeffs, ve, mixture, rng.standard_normal((4, 2)), grid=grid,
                   params=params)
    res.grad_coeffs, res.grad_x0
    assert counting["time_derivatives"] == (kind == "ss")
    first = [getattr(res, block) for block in TIME_BLOCKS]
    assert counting["time_derivatives"] == 1
    assert all(getattr(res, block) is got for block, got in zip(TIME_BLOCKS, first))
    assert counting["time_derivatives"] == 1


@pytest.mark.parametrize("kind, preset, prediction", [
    ("lms", "ipndm", "noise"), ("lms", "ipndm", "data"), ("pc", "unipc", "noise"),
    ("pc", "unipc", "data"), ("ss", "dpmpp", "noise")])
def test_time_blocks_ignore_later_steps_on_their_inputs(kind, preset, prediction, vp,
                                                        mixture, rng):
    # the trainer steps coeffs.values, then params.xi and xi_c, in place before
    # train_joint reads grad_xi: the time blocks are those of the backward call
    params = _random_params(vp, 5, rng)
    grid = materialize(params, vp)
    coeffs = init_preset(kind, 2, 5, preset, schedule=vp, grid=grid, prediction=prediction)
    if kind == "ss":        # push the last step's stage past the log-SNR range
        coeffs.values[coeffs.ss_c_slice(5)] = 50.0
    x = vp.tilde_sigma * rng.standard_normal((4, 2))
    trace = solve(coeffs, vp, grid, mixture, x)
    assert (kind == "ss") == any(d["event"] == "stage_clamp" for d in trace.diagnostics)
    cot = rng.standard_normal((4, 2))
    read_now = backward(trace, coeffs, vp, mixture, cot, grid=grid, params=params)
    expected = [getattr(read_now, block) for block in TIME_BLOCKS]
    read_later = backward(trace, coeffs, vp, mixture, cot, grid=grid, params=params)
    coeffs.values -= 0.1 * read_later.grad_coeffs
    params.xi += 0.2 * rng.standard_normal(params.xi.shape)
    params.xi_c *= 10.0             # saturates the offsets' clips
    for block, want in zip(TIME_BLOCKS, expected):
        assert np.array_equal(getattr(read_later, block), want), block

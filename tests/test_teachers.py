import json
import struct

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fewstep import artifacts, teachers
from fewstep.errors import AccuracyError, CompatibilityError
from fewstep.schedules import EdmSchedule, VeSchedule, VpLinearSchedule
from fewstep.scores import GaussianMixtureScore, default_mixture
from fewstep.teachers import (_DATASET_MAGIC, DATASET_VERSION, TEACHER_KINDS, TeacherConfig,
                              _rk45,
                              dataset_checksum, exact_gaussian_solution,
                              generate_dataset, load_dataset, save_dataset,
                              teacher_solve)


class TestExactGaussian:
    def test_ve_closed_form(self, ve):
        model = GaussianMixtureScore.isotropic(2, scale=1.0)
        x = np.array([3.0, -1.0])
        out = exact_gaussian_solution(ve, model, x)
        factor = np.sqrt((ve.t_min**2 + 1.0) / (ve.T**2 + 1.0))
        assert np.allclose(out, factor * x, rtol=1e-14)

    def test_nonzero_mean(self, vp):
        model = GaussianMixtureScore.isotropic(2, scale=0.5, mean=[1.0, -2.0])
        x = np.array([0.3, 0.4])
        out = exact_gaussian_solution(vp, model, x)

        def gamma(t):
            a, s = float(vp.alpha(t)), float(vp.sigma(t))
            return np.hypot(a * 0.5, s)

        mu = np.array([1.0, -2.0])
        expected = (float(vp.alpha(vp.t_min)) * mu
                    + gamma(vp.t_min) / gamma(vp.T) * (x - float(vp.alpha(vp.T)) * mu))
        assert np.allclose(out, expected, rtol=1e-13)

    def test_rejects_mixtures(self, ve, mixture):
        with pytest.raises(AccuracyError):
            exact_gaussian_solution(ve, mixture, np.zeros(2))

    def test_agrees_with_adaptive_rk(self, ve, vp, rng):
        for schedule in (ve, vp):
            model = GaussianMixtureScore.isotropic(2, scale=1.0)
            xs = schedule.tilde_sigma * rng.standard_normal((4, 2))
            exact = exact_gaussian_solution(schedule, model, xs)
            rk = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-10,
                                             abs_tol=1e-12), schedule, model, xs)
            assert np.max(np.linalg.norm(exact - rk, axis=-1)) <= 1e-8


class TestTeacherKinds:
    def test_zero_score_gives_alpha_ratio(self, vp, zero_model):
        x = np.array([[2.0, -1.0]])
        ratio = float(vp.alpha(vp.t_min) / vp.alpha(vp.T))
        rk = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-10,
                                         abs_tol=1e-12), vp, zero_model, x)
        assert np.allclose(rk, ratio * x, rtol=1e-8)
        fine = teacher_solve(TeacherConfig(kind="fine_fixed", fine_nfe=50), vp, zero_model, x)
        assert np.allclose(fine, ratio * x, rtol=1e-10)

    def test_wide_gaussian_approaches_alpha_ratio(self, vp):
        # the closed form degenerates to the signal-scaling map as s -> inf
        model = GaussianMixtureScore.isotropic(2, scale=1e8)
        x = np.array([1.0, 1.0])
        out = exact_gaussian_solution(vp, model, x)
        ratio = float(vp.alpha(vp.t_min) / vp.alpha(vp.T))
        assert np.allclose(out, ratio * x, atol=1e-6)

    def test_mixture_oracle_cross_agreement(self, ve, mixture, rng):
        xs = ve.tilde_sigma * rng.standard_normal((6, 2))
        rk = teacher_solve(TeacherConfig(kind="adaptive_rk", rel_tol=1e-10,
                                         abs_tol=1e-12), ve, mixture, xs)
        fine = teacher_solve(TeacherConfig(kind="fine_fixed", fine_nfe=400), ve, mixture, xs)
        assert np.max(np.linalg.norm(rk - fine, axis=-1)) <= 1e-6

    def test_determinism(self, ve, mixture):
        cfg = TeacherConfig(kind="adaptive_rk")
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(teacher_solve(cfg, ve, mixture, x),
                              teacher_solve(cfg, ve, mixture, x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TeacherConfig(kind="exactish")


class TestRk45:
    """The in-package Dormand-Prince pair against SciPy's ``RK45``."""

    @staticmethod
    def counted_teacher_rhs(schedule, model, x):
        calls = []

        def rhs(t, y):
            calls.append(t)
            state = y.reshape(x.shape)
            eps = model.epsilon(model.prepare(schedule.at(t)), state)
            return (float(schedule.f(t)) * state
                    + float(schedule.g_sq(t)) / (2.0 * float(schedule.sigma(t))) * eps).ravel()

        return rhs, calls

    @pytest.mark.parametrize("schedule", [VeSchedule(), VpLinearSchedule(), EdmSchedule()],
                             ids=["ve", "vp", "edm"])
    @pytest.mark.parametrize("batch", [8, 50])
    @pytest.mark.parametrize("tol", [(1e-8, 1e-10), (1e-3, 1e-6)], ids=["tight", "loose"])
    def test_equals_solve_ivp_bit_for_bit(self, schedule, batch, tol):
        model = default_mixture(2)
        x = schedule.tilde_sigma * np.random.default_rng(batch).standard_normal((batch, 2))
        rhs, calls = self.counted_teacher_rhs(schedule, model, x)
        ref = solve_ivp(rhs, (schedule.T, schedule.t_min), x.ravel(), method="RK45",
                        rtol=tol[0], atol=tol[1])
        rhs_port, calls_port = self.counted_teacher_rhs(schedule, model, x)
        out = _rk45(rhs_port, schedule.T, x.ravel(), schedule.t_min, *tol)
        assert np.array_equal(out, ref.y[:, -1])
        assert calls_port == calls
        # two evaluations choose the first step, six more per attempted step:
        # more attempts than accepted steps means some were rejected
        accepted = len(ref.t) - 1
        assert len(calls) > 2 + 6 * accepted

    def test_step_below_float_spacing_raises(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        with pytest.raises(AccuracyError, match="step size"):
            _rk45(lambda t, y: y * y, 0.0, np.ones(1), 2.0, 1e-8, 1e-10)

    @pytest.mark.parametrize("schedule", [VeSchedule(), VpLinearSchedule(), EdmSchedule()],
                             ids=["ve", "vp", "edm"])
    @pytest.mark.parametrize("batch", [2, 5, 50, 160])
    def test_teacher_result_equals_solve_ivp(self, schedule, batch, mixture, rng):
        # the teacher's RHS forms f and g^2 from one schedule lookup, reused when
        # a step's last stage and its FSAL call share a time, and its error norm
        # is np.linalg.norm's arithmetic; the labels are still those of solve_ivp
        # on the RHS written with schedule.f/g_sq
        x = schedule.tilde_sigma * rng.standard_normal((batch, 2))
        rhs, _ = self.counted_teacher_rhs(schedule, mixture, x)
        ref = solve_ivp(rhs, (schedule.T, schedule.t_min), x.ravel(), method="RK45",
                        rtol=1e-8, atol=1e-10)
        out = teacher_solve(TeacherConfig(kind="adaptive_rk"), schedule, mixture, x)
        assert np.array_equal(out, ref.y[:, -1].reshape(x.shape))


    @pytest.mark.parametrize("schedule", [VeSchedule(), VpLinearSchedule(), EdmSchedule()],
                             ids=["ve", "vp", "edm"])
    @pytest.mark.parametrize("batch", [5, 50])
    def test_labels_equal_the_inline_kernel(self, schedule, batch, mixture, rng, inline_epsilon):
        # the RHS prepares the model once per call; the labels are those of the
        # kernel that formed every per-time constant inside the call
        x = schedule.tilde_sigma * rng.standard_normal((batch, 2))

        def rhs(t, y):
            state = y.reshape(x.shape)
            a, s, da, ds = at = schedule.at(t)
            f = da / a
            gs = 2.0 * s * ds - 2.0 * f * s * s
            return (f * state + gs / (2.0 * s) * inline_epsilon(mixture, at, state)).ravel()

        ref = _rk45(rhs, schedule.T, x.ravel(), schedule.t_min, 1e-8, 1e-10)
        out = teacher_solve(TeacherConfig(kind="adaptive_rk"), schedule, mixture, x)
        assert np.array_equal(out, ref.reshape(x.shape))


@pytest.mark.parametrize("schedule", [VeSchedule(), VpLinearSchedule()], ids=["ve", "vp"])
def test_each_step_attempt_prepares_its_stage_times_in_one_call(schedule, mixture, rng,
                                                                counting, monkeypatch):
    # t0 and the first-step probe are prepared alone, each step attempt's five
    # stage times in one stacked call that its first-same-as-last call reads
    # too, so no time is prepared twice
    calls = []
    counted = GaussianMixtureScore.prepare

    def prepare(self, at):
        calls.append(np.size(at[0]))
        return counted(self, at)

    monkeypatch.setattr(GaussianMixtureScore, "prepare", prepare)
    batch = 20
    x = schedule.tilde_sigma * rng.standard_normal((batch, 2))
    teacher_solve(TeacherConfig(kind="adaptive_rk"), schedule, mixture, x)
    rhs_calls = counting["evaluate"] // batch     # two choose the first step, six per attempt
    attempts = (rhs_calls - 2) // 6
    assert attempts > 0 and rhs_calls == 2 + 6 * attempts
    assert counting["prepare"] == 2 + 5 * attempts
    assert len(calls) <= attempts + 2


@pytest.mark.parametrize("kind", TEACHER_KINDS)
def test_empty_batch_gives_an_empty_result_without_integrating(kind, monkeypatch):
    def no_integration(*args):
        raise AssertionError("an empty batch was integrated")

    monkeypatch.setattr(teachers, "_rk45", no_integration)
    monkeypatch.setattr(teachers, "solve", no_integration)
    model = GaussianMixtureScore.isotropic(3, scale=0.5)
    out = teacher_solve(TeacherConfig(kind=kind), VeSchedule(), model, np.zeros((0, 3)))
    assert out.shape == (0, 3)


class TestDatasets:
    def test_same_seed_identical(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        a = generate_dataset(cfg, ve, mixture, 12, seed=9)
        b = generate_dataset(cfg, ve, mixture, 12, seed=9)
        assert dataset_checksum(a) == dataset_checksum(b)

    def test_records_stack_the_draws_and_their_teacher_outputs(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 9, seed=1)
        assert ds.records.shape == (9, 2, 2)
        draws = ve.tilde_sigma * np.random.default_rng(1).standard_normal((9, 2))
        assert np.array_equal(ds.x_init, draws)
        assert np.array_equal(ds.teacher_out, teacher_solve(cfg, ve, mixture, draws))

    def test_default_split_fractions(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 900, seed=2)
        assert ds.n_train == 700 and ds.n_val == 200
        assert len(ds.records[: ds.n_train]) == 700 and len(ds.records[ds.n_train :]) == 200

    def test_round_trip_bit_exact(self, tmp_path, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 7, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert dataset_checksum(back) == dataset_checksum(ds)
        assert back.n_train == ds.n_train and back.dim == ds.dim

    # (bytes kept of the whole file, payload size); 7 dim-2 records of
    # two float64 vectors make a 7 * 32 = 224-byte payload
    @pytest.mark.parametrize("keep", [
        lambda n, p: n - 1, lambda n, p: n - 16, lambda n, p: n - 40,
        lambda n, p: n - p,        # header only
        lambda n, p: n - p - 20,   # inside the JSON header
        lambda n, p: 10,           # inside the header length
    ], ids=["record-1", "record-16", "record-40", "no-payload", "header-json",
            "header-length"])
    def test_truncated_file_rejected(self, tmp_path, ve, mixture, keep):
        ds = generate_dataset(TeacherConfig(kind="fine_fixed", fine_nfe=40), ve, mixture,
                              7, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: keep(len(blob), 7 * 32)])
        with pytest.raises(CompatibilityError, match="records.fsd"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path, ve, mixture):
        ds = generate_dataset(TeacherConfig(kind="fine_fixed", fine_nfe=40), ve, mixture,
                              3, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CompatibilityError, match="records.fsd"):
            load_dataset(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, ve, mixture):
        ds = generate_dataset(TeacherConfig(kind="fine_fixed", fine_nfe=40), ve, mixture,
                              3, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        saved = dataset_checksum(ds)
        ds.records = ds.records.astype(object)
        ds.records[-1, 1] = ["not a number", "x"]
        with pytest.raises(ValueError):
            save_dataset(ds, path)
        assert dataset_checksum(load_dataset(path)) == saved
        assert [p.name for p in tmp_path.iterdir()] == ["records.fsd"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fsd"
        path.write_bytes(b"not a dataset")
        with pytest.raises(CompatibilityError):
            load_dataset(path)

    def test_version_1_file_rejected_naming_its_version(self, tmp_path):
        # the layout before datasets became one container array: a u64 id
        # ahead of each record's three float64 vectors, no array directory
        header = json.dumps({"version": 1, "count": 1, "n_train": 1, "n_val": 0, "dim": 2,
                             "seed": 0, "teacher_kind": "adaptive_rk"}).encode()
        path = tmp_path / "old.fsd"
        path.write_bytes(b"FSTDATA1" + struct.pack("<I", len(header)) + header
                         + struct.pack("<Q", 0) + np.zeros(6).tobytes())
        with pytest.raises(CompatibilityError, match=r"old\.fsd.*version 1"):
            load_dataset(path)

    def test_version_2_file_rejected_naming_its_version(self, tmp_path):
        # the layout that also stored a perturbed-input column: (count, 3, dim)
        header = {"version": 2, "n_train": 1, "dim": 2, "seed": 0, "teacher_kind": "adaptive_rk"}
        path = tmp_path / "old.fsd"
        artifacts.write(path, _DATASET_MAGIC, header, {"records": np.zeros((1, 3, 2))})
        with pytest.raises(CompatibilityError, match=r"old\.fsd.*version 2"):
            load_dataset(path)

    @pytest.mark.parametrize("directory", [None, "records", [{"name": "records"}],
                                           [{"name": "records", "size": -6}]],
                             ids=["missing", "not-a-list", "no-size", "negative-size"])
    def test_bad_array_directory_rejected(self, tmp_path, directory):
        fields = {"version": DATASET_VERSION, "n_train": 1, "dim": 2, "seed": 0,
                  "teacher_kind": "x"}
        if directory is not None:
            fields["arrays"] = directory
        header = json.dumps(fields).encode()
        path = tmp_path / "bad.fsd"
        path.write_bytes(b"FSTDATA1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CompatibilityError, match="bad.fsd.*array directory"):
            load_dataset(path)

    def test_count_validated(self, ve, mixture):
        with pytest.raises(ValueError):
            generate_dataset(TeacherConfig(), ve, mixture, 0, seed=0)

    # 12 values: three dim-2 records, which no dim-4 reading fits
    @pytest.mark.parametrize("fields", [{"dim": 4}, {"dim": 0}, {"dim": "2"}, {"n_train": 4},
                                        {"n_train": "1"}],
                             ids=["dim-not-dividing", "dim-zero", "dim-string", "n_train-over",
                                  "n_train-string"])
    def test_header_that_does_not_fit_the_records_rejected(self, tmp_path, fields):
        header = {"version": DATASET_VERSION, "n_train": 1, "dim": 2, "seed": 0,
                  "teacher_kind": "adaptive_rk", **fields}
        path = tmp_path / "foreign.fsd"
        artifacts.write(path, _DATASET_MAGIC, header, {"records": np.zeros(12)})
        with pytest.raises(CompatibilityError, match="foreign.fsd"):
            load_dataset(path)

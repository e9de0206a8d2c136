import numpy as np
import pytest

from fewstep.errors import AccuracyError
from fewstep.scores import GaussianMixtureScore
from fewstep.teachers import (TeacherConfig, dataset_checksum, exact_gaussian_solution,
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


class TestDatasets:
    def test_same_seed_identical(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        a = generate_dataset(cfg, ve, mixture, 12, seed=9)
        b = generate_dataset(cfg, ve, mixture, 12, seed=9)
        assert dataset_checksum(a) == dataset_checksum(b)

    def test_perturbed_inputs_start_at_the_draws(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 9, seed=1)
        for rec in ds.records:
            assert np.array_equal(rec.x_init, rec.x_prime)
            assert rec.x_prime is not rec.x_init

    def test_default_split_fractions(self, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 900, seed=2)
        assert ds.n_train == 700 and ds.n_val == 200
        assert len(ds.train_records) == 700 and len(ds.val_records) == 200

    def test_round_trip_bit_exact(self, tmp_path, ve, mixture):
        cfg = TeacherConfig(kind="fine_fixed", fine_nfe=40)
        ds = generate_dataset(cfg, ve, mixture, 7, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert dataset_checksum(back) == dataset_checksum(ds)
        assert back.n_train == ds.n_train and back.dim == ds.dim

    # (bytes kept of the whole file, payload size); 7 dim-2 records of
    # u64 id + three float64 vectors make a 7 * 56 = 392-byte payload
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
        path.write_bytes(blob[: keep(len(blob), 7 * 56)])
        with pytest.raises(ValueError, match="records.fsd"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path, ve, mixture):
        ds = generate_dataset(TeacherConfig(kind="fine_fixed", fine_nfe=40), ve, mixture,
                              3, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="records.fsd"):
            load_dataset(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, ve, mixture):
        ds = generate_dataset(TeacherConfig(kind="fine_fixed", fine_nfe=40), ve, mixture,
                              3, seed=3)
        path = tmp_path / "records.fsd"
        save_dataset(ds, path)
        saved = dataset_checksum(ds)
        ds.records[-1].teacher_out = np.array(["not a number", "x"])
        with pytest.raises(ValueError):
            save_dataset(ds, path)
        assert dataset_checksum(load_dataset(path)) == saved
        assert [p.name for p in tmp_path.iterdir()] == ["records.fsd"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fsd"
        path.write_bytes(b"not a dataset")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_count_validated(self, ve, mixture):
        with pytest.raises(ValueError):
            generate_dataset(TeacherConfig(), ve, mixture, 0, seed=0)

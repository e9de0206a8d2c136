import csv
import dataclasses
import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from fewstep.checkpoints import load_checkpoint, save_checkpoint
from fewstep.cli import main as cli_main
from fewstep.coeffs import init_preset
from fewstep.configs import (DatasetSpec, ExperimentConfig, GridSpec, ModelSpec,
                             ScheduleSpec, SolverSpec, TeacherSpec, build_grid,
                             build_model, build_schedule, config_from_dict,
                             config_hash, config_to_dict, load_config, save_config)
from fewstep.errors import CompatibilityError, ConfigError
from fewstep import experiments
from fewstep.experiments import ResultTable, SweepSpec, run_cell, run_sweep, sweep_cells
from fewstep.grids import LearnableTimeParams, heuristic_grid
from fewstep.training import TrainConfig


def tiny_config(**overrides):
    cfg = ExperimentConfig(
        seed=5,
        schedule=ScheduleSpec(kind="ve"),
        model=ModelSpec(kind="gaussian_mixture", dim=2),
        solver=SolverSpec(kind="lms", order=3, preset="ipndm"),
        grid=GridSpec(kind="logsnr"),
        teacher=TeacherSpec(kind="fine_fixed", fine_nfe=60),
        dataset=DatasetSpec(n_train=24, n_val=8),
        train=TrainConfig(epochs=3, batch_size=8, alternations=2, phase_epochs=1),
        nfe_list=[4, 6],
    )
    return dataclasses.replace(cfg, **overrides)


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg
        assert config_to_dict(back) == config_to_dict(cfg)
        assert config_hash(back) == config_hash(cfg)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"solver": {"kind": "lms", "ordr": 3}})
        assert "solver.ordr" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"solvers": {}})
        assert "solvers" in str(err.value)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"kind": "spline"}})
        with pytest.raises(ConfigError):
            config_from_dict({"nfe_list": []})
        with pytest.raises(ConfigError):
            config_from_dict({"version": 99})

    def test_builders(self):
        cfg = tiny_config()
        schedule = build_schedule(cfg.schedule)
        model = build_model(cfg.model)
        assert model.dim == 2
        grid, params = build_grid(cfg, schedule, 6)
        assert grid.n_steps == 6 and params is None
        cfg2 = tiny_config(grid=GridSpec(kind="logsnr", learnable=True))
        _, params = build_grid(cfg2, schedule, 6)
        assert isinstance(params, LearnableTimeParams)

    def test_custom_mixture_spec(self):
        spec = ModelSpec(kind="gaussian_mixture", dim=1, weights=[0.4, 0.6],
                         means=[[0.0], [2.0]], scales=[0.5, 0.25])
        model = build_model(spec)
        assert model.n_components == 2


class TestCheckpoints:
    def test_round_trip(self, tmp_path, ve):
        grid = heuristic_grid(ve, 5, "logsnr")
        coeffs = init_preset("pc", 2, 5, "unipc", schedule=ve, grid=grid)
        params = LearnableTimeParams.from_grid(grid, ve)
        snapshot = np.arange(10.0).reshape(5, 2)
        path = tmp_path / "model.fsc"
        save_checkpoint(path, coeffs, "a" * 64, params=params,
                        x_prime_snapshot=snapshot, extra={"mode": "s4s"})
        back, back_params, back_snap, header = load_checkpoint(path, "a" * 64)
        assert np.array_equal(back.values, coeffs.values)
        assert back.kind == "pc" and back.order == 2 and back.n_steps == 5
        assert np.array_equal(back_params.xi, params.xi)
        assert np.array_equal(back_snap, snapshot)
        assert header["extra"]["mode"] == "s4s"

    def test_hash_mismatch_refused_unless_forced(self, tmp_path, ve):
        grid = heuristic_grid(ve, 4, "logsnr")
        coeffs = init_preset("lms", 2, 4, "ipndm", schedule=ve, grid=grid)
        path = tmp_path / "model.fsc"
        save_checkpoint(path, coeffs, "a" * 64)
        with pytest.raises(CompatibilityError):
            load_checkpoint(path, "b" * 64)
        back, _, _, _ = load_checkpoint(path, "b" * 64, force=True)
        assert np.array_equal(back.values, coeffs.values)


class TestCells:
    def test_infeasible_cell_marked(self):
        cfg = tiny_config(solver=SolverSpec(kind="lms", order=6, preset="ipndm"))
        row = run_cell(cfg, nfe=4, mode="baseline")
        assert row["status"] == "infeasible"

    def test_baseline_cell(self):
        row = run_cell(tiny_config(), nfe=4, mode="baseline")
        assert row["status"] == "ok"
        assert row["delta_vs_baseline"] == 0.0
        assert row["nfe_used"] == 4

    def test_trained_cell_records_delta(self):
        row = run_cell(tiny_config(), nfe=4, mode="s4s")
        assert row["status"] == "ok"
        assert row["mean_error"] == row["baseline_mean_error"] + row["delta_vs_baseline"]
        assert np.isfinite(row["final_train_loss"])

    def test_failure_recorded_not_raised(self):
        cfg = tiny_config(model=ModelSpec(kind="gaussian_mixture", dim=2,
                                          weights=[0.5, 0.6],
                                          means=[[0.0, 0.0], [1.0, 1.0]],
                                          scales=[1.0, 1.0]))
        row = run_cell(cfg, nfe=4, mode="baseline")
        assert row["status"] == "failed" and "sum to 1" in row["message"]


class TestSweep:
    def test_cross_product_resume_and_csv(self, tmp_path):
        spec = SweepSpec(
            base=tiny_config(),
            schedules=[ScheduleSpec(kind="ve"), ScheduleSpec(kind="vp_linear")],
            solvers=[SolverSpec(kind="lms", order=3, preset="ipndm")],
            nfe_list=[4, 6],
            modes=["baseline"],
        )
        out = tmp_path / "sweep"
        seen = []
        table = run_sweep(spec, out, workers=1, progress=seen.append)
        assert len(table.rows) == 4
        assert sum(s.startswith("done") for s in seen) == 4
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and rows[0]["status"] == "ok"

        seen2 = []
        table2 = run_sweep(spec, out, workers=1, progress=seen2.append)
        assert len(table2.rows) == 4
        assert all(s.startswith("skip") for s in seen2)

    def test_truncated_cell_file_is_rerun(self, tmp_path):
        spec = SweepSpec(base=tiny_config(), schedules=[ScheduleSpec(kind="ve")],
                         solvers=[SolverSpec(kind="lms", order=3, preset="ipndm")],
                         nfe_list=[4, 6], modes=["baseline"])
        out = tmp_path / "sweep"
        first = run_sweep(spec, out, workers=1)
        cell = out / "cells" / "ve_lms-3-ipndm_4_baseline.json"
        cell.write_text(cell.read_text()[:40])
        seen = []
        table = run_sweep(spec, out, workers=1, progress=seen.append)
        assert [s.split(" ")[:2] for s in seen] == [
            ["redo", "ve_lms-3-ipndm_4_baseline"], ["skip", "ve_lms-3-ipndm_6_baseline"],
            ["done", "ve_lms-3-ipndm_4_baseline:"]]
        redone = json.loads(cell.read_text())
        key = ("ve", "lms", 4, "baseline")
        assert redone["mean_error"] == first.rows[key]["mean_error"]
        assert table.rows[key]["mean_error"] == first.rows[key]["mean_error"]

    def test_formatted_table(self):
        table = ResultTable()
        table.add({"schedule": "ve", "solver": "lms", "nfe": 4, "mode": "baseline",
                   "status": "ok", "mean_error": 0.5, "delta_vs_baseline": 0.0})
        text = table.formatted()
        assert "ve" in text and "baseline" in text


ACCURACY_COLUMNS = ("status", "mean_error", "median_error", "max_error",
                    "mean_error_normalized", "baseline_mean_error", "delta_vs_baseline",
                    "final_train_loss", "final_val_loss", "r", "nfe_used")


def _accuracy(row):
    return {c: row[c] for c in ACCURACY_COLUMNS}


class TestSharedReference:
    """Each distinct evaluation reference is solved once per sweep and cached."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = experiments.evaluation_reference

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "evaluation_reference", counting)
        return calls

    def test_one_solve_per_reference_and_none_on_resume(self, tmp_path, counted):
        spec = SweepSpec(
            base=tiny_config(),
            schedules=[ScheduleSpec(kind="ve"), ScheduleSpec(kind="vp_linear")],
            solvers=[SolverSpec(kind="lms", order=3, preset="ipndm"),
                     SolverSpec(kind="pc", order=3, preset="unipc")],
            nfe_list=[4], modes=["baseline", "s4s"])
        out = tmp_path / "sweep"
        table = run_sweep(spec, out, workers=1)
        assert len(counted) == 2
        assert len(list((out / "datasets").glob("reference_*.npy"))) == 2
        for key, cfg, nfe, mode in sweep_cells(spec):
            row = table.rows[(cfg.schedule.kind, cfg.solver.kind, nfe, mode)]
            assert _accuracy(row) == _accuracy(run_cell(cfg, nfe, mode)), key
        counted.clear()
        shutil.rmtree(out / "cells")
        again = run_sweep(spec, out, workers=1)
        assert counted == []
        assert {k: _accuracy(r) for k, r in again.rows.items()} == \
               {k: _accuracy(r) for k, r in table.rows.items()}

    def test_uncached_cell_solves_its_reference_once(self, counted):
        row = run_cell(tiny_config(), nfe=4, mode="s4s")
        assert row["status"] == "ok" and len(counted) == 1

    def test_cached_reference_of_wrong_shape_fails_the_cell(self, tmp_path):
        spec = SweepSpec(base=tiny_config(), schedules=[ScheduleSpec(kind="ve")],
                         solvers=[SolverSpec(kind="lms", order=3, preset="ipndm")],
                         nfe_list=[4], modes=["baseline"])
        out = tmp_path / "sweep"
        run_sweep(spec, out, workers=1)
        (path,) = (out / "datasets").glob("reference_*.npy")
        np.save(path, np.zeros((3, 2)))
        shutil.rmtree(out / "cells")
        (row,) = run_sweep(spec, out, workers=1).rows.values()
        assert row["status"] == "failed" and "shape" in row["message"]


class TestCli:
    def _write_config(self, tmp_path, cfg=None):
        path = tmp_path / "config.json"
        save_config(cfg or tiny_config(), path)
        return path

    def test_generate_teacher_deterministic_checksum(self, tmp_path):
        runner = CliRunner()
        cfg_path = self._write_config(tmp_path)
        outs = []
        for name in ("a.fsd", "b.fsd"):
            result = runner.invoke(cli_main, ["generate-teacher", "--config",
                                              str(cfg_path), "--out",
                                              str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            outs.append(result.output)
        checksum = [line for line in outs[0].splitlines() if "checksum" in line]
        assert checksum and checksum == [line for line in outs[1].splitlines()
                                         if "checksum" in line]
        assert "train 24 / val 8" in outs[0]

    def test_generate_teacher_rejects_empty_count(self, tmp_path):
        cfg = tiny_config(dataset=DatasetSpec(n_train=1, n_val=0))
        cfg_path = self._write_config(tmp_path, dataclasses.replace(
            cfg, dataset=DatasetSpec(n_train=1, n_val=0)))
        # zero total is unrepresentable through validation; check the CLI guard
        doc = json.loads(cfg_path.read_text())
        doc["dataset"] = {"n_train": 0, "n_val": 0}
        cfg_path.write_text(json.dumps(doc))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["generate-teacher", "--config", str(cfg_path),
                                          "--out", str(tmp_path / "x.fsd")])
        assert result.exit_code != 0

    def test_malformed_config_names_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"epochs": 3, "epochz": 1}}))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["generate-teacher", "--config", str(path),
                                          "--out", str(tmp_path / "x.fsd")])
        assert result.exit_code != 0
        assert "train.epochz" in result.output

    def test_train_matches_library_call(self, tmp_path, ve, mixture):
        from fewstep.teachers import generate_dataset, load_dataset, save_dataset
        from fewstep.teachers import TeacherConfig
        from fewstep.training import train_s4s

        runner = CliRunner()
        cfg = tiny_config()
        cfg_path = self._write_config(tmp_path, cfg)
        data_path = tmp_path / "data.fsd"
        result = runner.invoke(cli_main, ["generate-teacher", "--config", str(cfg_path),
                                          "--out", str(data_path)])
        assert result.exit_code == 0, result.output
        out_dir = tmp_path / "run"
        result = runner.invoke(cli_main, ["train", "--config", str(cfg_path),
                                          "--dataset", str(data_path), "--mode", "s4s",
                                          "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        coeffs, _, _, header = load_checkpoint(out_dir / "checkpoint.fsc",
                                               config_hash(cfg))
        # same seed, same dataset: the library path reproduces the checkpoint
        dataset = load_dataset(data_path)
        schedule = build_schedule(cfg.schedule)
        model = build_model(cfg.model)
        grid = heuristic_grid(schedule, 4, cfg.grid.kind)
        init = init_preset("lms", 3, 4, "ipndm", schedule=schedule, grid=grid)
        ref = train_s4s(dataset, init, grid, schedule, model,
                        dataclasses.replace(cfg.train, seed=cfg.seed))
        assert np.array_equal(coeffs.values, ref.coeffs.values)
        with open(out_dir / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"iteration", "phase", "train_loss",
                                         "val_loss", "r"}

    def test_evaluate_marks_incompatible_nfe(self, tmp_path):
        runner = CliRunner()
        cfg = tiny_config()
        cfg_path = self._write_config(tmp_path, cfg)
        data_path = tmp_path / "data.fsd"
        runner.invoke(cli_main, ["generate-teacher", "--config", str(cfg_path),
                                 "--out", str(data_path)])
        out_dir = tmp_path / "run"
        runner.invoke(cli_main, ["train", "--config", str(cfg_path), "--dataset",
                                 str(data_path), "--mode", "s4s", "--out", str(out_dir)])
        csv_path = tmp_path / "eval.csv"
        result = runner.invoke(cli_main, ["evaluate", "--checkpoint",
                                          str(out_dir / "checkpoint.fsc"),
                                          "--config", str(cfg_path),
                                          "--out", str(csv_path)])
        assert result.exit_code == 0, result.output
        with open(csv_path) as fh:
            rows = {int(r["nfe"]): r for r in csv.DictReader(fh)}
        assert rows[4]["status"] == "ok"
        assert rows[6]["status"] == "infeasible"  # checkpoint trained at N=4

    def test_selftest_passes(self):
        result = CliRunner().invoke(cli_main, ["selftest"])
        assert result.exit_code == 0, result.output

    def test_check_grad_small(self):
        result = CliRunner().invoke(cli_main, ["check-grad", "--instances", "2"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output


def test_default_dataset_spec_is_700_200():
    spec = DatasetSpec()
    assert spec.n_train == 700 and spec.n_val == 200


def test_cli_train_alternating_mode(tmp_path):
    runner = CliRunner()
    cfg = tiny_config(grid=GridSpec(kind="logsnr", learnable=True))
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)
    data_path = tmp_path / "data.fsd"
    result = runner.invoke(cli_main, ["generate-teacher", "--config", str(cfg_path),
                                      "--out", str(data_path)])
    assert result.exit_code == 0, result.output
    out_dir = tmp_path / "alt"
    result = runner.invoke(cli_main, ["train", "--config", str(cfg_path),
                                      "--dataset", str(data_path),
                                      "--mode", "s4s-alt", "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    coeffs, params, snap, header = load_checkpoint(out_dir / "checkpoint.fsc",
                                                   config_hash(cfg))
    assert params is not None and header["extra"]["mode"] == "s4s-alt"
    assert snap.shape == (32, 2)

"""Experiment cells, the sweep runner, and the result table.

A cell is one (schedule, solver, NFE, mode) combination run end to end:
build the problem, reuse or generate the teacher dataset, train if the mode
asks for it, then evaluate on fresh noise against the teacher's reference
solution of that noise.  A sweep runs its cells in the calling process, or
in a process pool when ``workers > 1``, and writes one JSON result file per
cell under ``<out>/cells``; it resumes by skipping cells whose files parse
and re-running the rest.  ``<out>/datasets`` caches the teacher's training
datasets (``.fsd``) and evaluation references (``.fsr``), so each is
solved once per sweep and reused by every cell, worker and resume that
needs it; a cached file that fails its load check fails its cells.  Every
file is written atomically (temporary file, then rename), so a killed run
never leaves a half-written artifact behind under its final name.
Aggregation collects the rows into one CSV.  Cell failures are recorded in
place and never abort the sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import artifacts
from .coeffs import init_preset
from .configs import ExperimentConfig, build_model, build_schedule, config_to_dict
from .grids import heuristic_grid
from .errors import CompatibilityError
from .teachers import generate_dataset, load_dataset, save_dataset
from .training import TRAIN_MODES, evaluate, evaluation_reference, train_in_mode

MODES = ("baseline",) + TRAIN_MODES
N_EVAL = 200  # fresh-noise draws per cell evaluation
_REFERENCE_MAGIC, _REFERENCE_VERSION = b"FSTREFS1", 1

RESULT_COLUMNS = [
    "schedule", "solver", "order", "preset", "prediction", "mode", "nfe",
    "status", "mean_error", "median_error", "max_error",
    "mean_error_normalized", "baseline_mean_error", "delta_vs_baseline", "delta_se",
    "final_train_loss", "final_val_loss", "r", "nfe_used", "wall_time_s",
    "seed", "message",
]


class ResultTable:
    """Rows keyed by (schedule, solver, nfe, mode); every requested cell present."""

    def __init__(self):
        self.rows = {}

    def add(self, row: dict):
        key = (row["schedule"], row["solver"], row["nfe"], row["mode"])
        self.rows[key] = row

    def ordered(self):
        return [self.rows[key] for key in sorted(self.rows)]

    def write_csv(self, path):
        artifacts.write_csv(path, RESULT_COLUMNS, self.ordered())

    def formatted(self) -> str:
        lines = [f"{'schedule':<10} {'solver':<6} {'mode':<13} {'nfe':>4} "
                 f"{'status':<10} {'mean_err':>12} {'delta':>12}"]
        for row in self.ordered():
            mean = row.get("mean_error", "")
            delta = row.get("delta_vs_baseline", "")
            fmt = lambda v: f"{v:.6g}" if isinstance(v, float) else str(v)
            lines.append(f"{row['schedule']:<10} {row['solver']:<6} {row['mode']:<13} "
                         f"{row['nfe']:>4} {row['status']:<10} {fmt(mean):>12} {fmt(delta):>12}")
        return "\n".join(lines)


def _cell_seed(base_seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _cache_tag(cfg: ExperimentConfig, *extra) -> str:
    """Key of a cached teacher solve: the specs it depends on plus ``extra``."""
    doc = config_to_dict(cfg)
    key = [doc["schedule"], doc["model"], doc["teacher"], *extra]
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]


def _dataset_for(cfg: ExperimentConfig, schedule, model, teacher, cache_dir=None):
    count = cfg.dataset.n_train + cfg.dataset.n_val
    val_fraction = cfg.dataset.n_val / count
    if cache_dir is None:
        return generate_dataset(teacher, schedule, model, count, cfg.seed, val_fraction)
    path = Path(cache_dir) / f"dataset_{_cache_tag(cfg, count, cfg.seed)}.fsd"
    if path.exists():
        return load_dataset(path)
    dataset = generate_dataset(teacher, schedule, model, count, cfg.seed, val_fraction)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, path)
    return dataset


def _reference_for(cfg: ExperimentConfig, schedule, model, teacher, seed, cache_dir=None):
    """The teacher's solution of the fresh noise every evaluation with ``seed`` draws."""
    if cache_dir is None:
        return evaluation_reference(teacher, schedule, model, N_EVAL, seed)
    path = Path(cache_dir) / f"reference_{_cache_tag(cfg, N_EVAL, seed)}.fsr"
    shape = [N_EVAL, model.dim]
    if path.exists():
        header, arrays = artifacts.read(path, _REFERENCE_MAGIC, _REFERENCE_VERSION)
        if header.get("shape") != shape:
            raise CompatibilityError(f"{path} holds shape {header.get('shape')}, "
                                     f"expected {shape}")
        artifacts.require(path, arrays, ("reference",), what="array")
        return artifacts.reshaped(path, arrays["reference"], shape)
    reference = evaluation_reference(teacher, schedule, model, N_EVAL, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    artifacts.write(path, _REFERENCE_MAGIC, {"version": _REFERENCE_VERSION, "shape": shape},
                    {"reference": reference})
    return reference


def build_cell(cfg: ExperimentConfig, nfe: int):
    """The problem of one cell: ``(schedule, model, teacher, grid, coeffs)``.

    ``grid`` is the config's heuristic grid with ``nfe`` steps and ``coeffs``
    the solver preset on it, the point every training mode starts from.
    """
    schedule = build_schedule(cfg.schedule)
    model, teacher = build_model(cfg.model), cfg.teacher
    grid = heuristic_grid(schedule, nfe, cfg.grid.kind, rho=cfg.grid.rho)
    coeffs = init_preset(cfg.solver.kind, cfg.solver.order, nfe, cfg.solver.preset,
                         schedule=schedule, grid=grid, prediction=cfg.solver.prediction,
                         seed=cfg.seed, tied=cfg.solver.tied)
    return schedule, model, teacher, grid, coeffs


def metric_columns(metrics: dict) -> dict:
    """The result-table columns of one ``evaluate`` result."""
    return {key: metrics[key] for key in ("mean_error", "median_error", "max_error",
                                          "mean_error_normalized", "nfe_used")}


def run_cell(cfg: ExperimentConfig, nfe: int, mode: str, cache_dir=None) -> dict:
    """One experiment cell; failures become the row's status, never exceptions."""
    row = {
        "schedule": cfg.schedule.kind, "solver": cfg.solver.kind,
        "order": cfg.solver.order, "preset": cfg.solver.preset,
        "prediction": cfg.solver.prediction, "mode": mode, "nfe": nfe,
        "status": "ok", "seed": cfg.seed, "message": "",
    }
    if mode not in MODES:
        row.update(status="failed", message=f"unknown mode {mode!r}")
        return row
    if cfg.solver.order > nfe:
        row.update(status="infeasible", message="order exceeds step count")
        return row
    started = time.perf_counter()
    try:
        schedule, model, teacher, grid, coeffs = build_cell(cfg, nfe)
        eval_seed = _cell_seed(cfg.seed, f"eval:{cfg.schedule.kind}:{nfe}")
        reference = _reference_for(cfg, schedule, model, teacher, eval_seed, cache_dir)
        baseline = evaluate(coeffs, schedule, model, teacher, grid=grid, n_eval=N_EVAL,
                            seed=eval_seed, reference=reference)
        row["baseline_mean_error"] = baseline["mean_error"]
        if mode == "baseline":
            row.update(metric_columns(baseline), delta_vs_baseline=0.0, delta_se=0.0,
                       final_train_loss="", final_val_loss="", r="")
            return row
        dataset = _dataset_for(cfg, schedule, model, teacher, cache_dir)
        result = train_in_mode(mode, dataset, coeffs, grid, schedule, model,
                               dataclasses.replace(cfg.train, seed=cfg.seed),
                               cfg.grid.clip_fraction)
        if result.status != "ok":
            row.update(status=result.status, message="training diverged")
        metrics = evaluate(result.coeffs, schedule, model, teacher, grid=result.grid,
                           n_eval=N_EVAL, seed=eval_seed, reference=reference)
        paired = np.subtract(metrics["errors"], baseline["errors"])
        row.update(metric_columns(metrics),
                   delta_vs_baseline=metrics["mean_error"] - baseline["mean_error"],
                   delta_se=float(paired.std(ddof=1) / np.sqrt(paired.size)),
                   final_train_loss=result.final_train_loss,
                   final_val_loss=result.final_val_loss, r=result.r)
    except Exception as exc:  # cell isolation: failures become rows
        row.update(status="failed", message=f"{type(exc).__name__}: {exc}")
    finally:
        row["wall_time_s"] = round(time.perf_counter() - started, 3)
    return row


@dataclasses.dataclass
class SweepSpec:
    base: ExperimentConfig
    schedules: list
    solvers: list
    nfe_list: list
    modes: list


def sweep_cells(spec: SweepSpec):
    cells = []
    for sched in spec.schedules:
        for solver in spec.solvers:
            for nfe in spec.nfe_list:
                for mode in spec.modes:
                    cfg = dataclasses.replace(spec.base, schedule=sched, solver=solver)
                    key = f"{sched.kind}_{solver.kind}-{solver.order}-{solver.preset}_{nfe}_{mode}"
                    cells.append((key, cfg, nfe, mode))
    return cells


def _run_cell_job(args):
    key, cfg, nfe, mode, cache_dir = args
    return key, run_cell(cfg, nfe, mode, cache_dir=cache_dir)


def run_sweep(spec: SweepSpec, out_dir, workers: int = 1, progress=None) -> ResultTable:
    """Resumable cross-product sweep; one JSON file per cell under out_dir/cells.

    A cell file that is missing or does not parse (say, one cut short by a
    kill while an older version wrote it in place) leaves its cell pending;
    the cell is re-run, its file rewritten, and ``progress`` gets ``redo <key>``.
    """
    out = Path(out_dir)
    cell_dir = out / "cells"
    cell_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out / "datasets"

    table = ResultTable()
    pending = []
    for key, cfg, nfe, mode in sweep_cells(spec):
        path = cell_dir / f"{key}.json"
        try:
            with open(path) as fh:
                table.add(json.load(fh))
            if progress:
                progress(f"skip {key} (done)")
            continue
        except FileNotFoundError:
            pass
        except ValueError:
            if progress:
                progress(f"redo {key} (unreadable result file)")
        pending.append((key, cfg, nfe, mode, str(cache_dir)))

    def record(key, row):
        artifacts.write_atomic(cell_dir / f"{key}.json",
                               json.dumps(row, indent=2, sort_keys=True).encode())
        table.add(row)
        if progress:
            progress(f"done {key}: {row['status']}")

    if workers > 1 and pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, row in pool.map(_run_cell_job, pending):
                record(key, row)
    else:
        for job in pending:
            key, row = _run_cell_job(job)
            record(key, row)

    table.write_csv(out / "results.csv")
    return table

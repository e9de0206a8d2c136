"""Command-line entry points: dataset generation, training, evaluation, sweeps,
gradient checking, and a quick invariant self-test.

Every command takes a JSON config (see configs.py); all randomness flows from
its seed, so reruns reproduce outputs bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import artifacts
from .backprop import check_gradients
from .checkpoints import load_checkpoint, save_checkpoint
from .coeffs import SolverCoefficients, init_preset, table_param_count
from .configs import (ExperimentConfig, ScheduleSpec, SolverSpec, _parse_section,
                      build_model, build_schedule, config_from_dict, config_hash,
                      load_config, validate_config)
from .errors import CompatibilityError, ConfigError
from .experiments import (MODES, N_EVAL, ResultTable, SweepSpec, _dataset_for, build_cell,
                          metric_columns, run_sweep)
from .grids import LearnableTimeParams, heuristic_grid, materialize
from .schedules import phi_functions
from .scores import default_mixture
from .solvers import solve
from .teachers import dataset_checksum, load_dataset, save_dataset
from .training import TRAIN_MODES, evaluate, train_in_mode


@click.group()
def main():
    """Few-step diffusion ODE solvers with learned coefficients and time steps."""


def _load(config_path) -> ExperimentConfig:
    try:
        return load_config(config_path)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command("generate-teacher")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def cli_generate_teacher(config_path, out_path, seed):
    """Generate the teacher dataset described by the config."""
    cfg = _load(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    dataset = _dataset_for(cfg, build_schedule(cfg.schedule), build_model(cfg.model),
                           cfg.teacher)
    save_dataset(dataset, out_path)
    click.echo(f"records: {dataset.n_train + dataset.n_val} "
               f"(train {dataset.n_train} / val {dataset.n_val})")
    click.echo(f"dim: {dataset.dim}  teacher: {dataset.teacher_kind}")
    click.echo(f"checksum: {dataset_checksum(dataset)}")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(TRAIN_MODES), default="s4s")
@click.option("--nfe", type=click.IntRange(min=1), default=None,
              help="Step count; default: first nfe_list entry.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def cli_train(config_path, dataset_path, mode, nfe, out_dir):
    """Train a solver on an existing dataset; writes checkpoint + history CSV."""
    cfg = _load(config_path)
    nfe = cfg.nfe_list[0] if nfe is None else nfe
    if cfg.solver.order > nfe:
        raise click.ClickException(
            f"solver order {cfg.solver.order} exceeds step count {nfe}")
    schedule, model, _, grid, coeffs = build_cell(cfg, nfe)
    try:
        dataset = load_dataset(dataset_path)
    except CompatibilityError as exc:
        raise click.ClickException(str(exc)) from exc
    if dataset.dim != model.dim:
        raise click.ClickException(
            f"dataset dim {dataset.dim} does not match model dim {model.dim}")
    result = train_in_mode(mode, dataset, coeffs, grid, schedule, model,
                           dataclasses.replace(cfg.train, seed=cfg.seed), cfg.grid.clip_fraction)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.fsc", result.coeffs, config_hash(cfg),
                    params=result.params, x_prime_snapshot=result.x_prime,
                    extra={"mode": mode, "nfe": nfe, "status": result.status})
    artifacts.write_csv(out / "history.csv",
                        ["iteration", "phase", "train_loss", "val_loss", "r"], result.history)
    click.echo(f"status: {result.status}  r: {result.r:.6g}  "
               f"final train loss: {result.final_train_loss:.6g}")
    if result.status != "ok":
        sys.exit(1)


@main.command("evaluate")
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--force", is_flag=True, help="Evaluate despite a config-hash mismatch.")
@click.option("--seed", type=int, default=None,
              help="Seed of the evaluation noise; default: the config seed.")
def cli_evaluate(ckpt_path, config_path, out_path, force, seed):
    """Evaluate a checkpoint on fresh noise; writes a result-table CSV."""
    cfg = _load(config_path)
    try:
        coeffs, params, _, header = load_checkpoint(ckpt_path, config_hash(cfg), force)
        schedule, model, teacher, grid, _ = build_cell(cfg, coeffs.n_steps)
    except (CompatibilityError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    snap_shape = header.get("x_prime_shape")
    if snap_shape and snap_shape[-1] != model.dim:
        raise click.ClickException(
            f"checkpoint was trained at dim {snap_shape[-1]} but the config "
            f"model has dim {model.dim}")
    if params is not None:
        grid = materialize(params, schedule)
    seed = cfg.seed if seed is None else seed
    table = ResultTable()
    for nfe in cfg.nfe_list:
        row = {"schedule": cfg.schedule.kind, "solver": coeffs.kind,
               "order": coeffs.order, "preset": cfg.solver.preset,
               "prediction": coeffs.prediction, "mode": header["extra"].get("mode", ""),
               "nfe": nfe, "seed": seed, "message": "", "status": "ok"}
        if coeffs.order > nfe or coeffs.n_steps != nfe:
            row.update(status="infeasible",
                       message="checkpoint step count does not cover this NFE"
                       if coeffs.n_steps != nfe else "order exceeds step count")
        else:
            row.update(metric_columns(evaluate(coeffs, schedule, model, teacher, grid=grid,
                                               n_eval=N_EVAL, seed=seed)))
        table.add(row)
    table.write_csv(out_path)
    click.echo(table.formatted())


def _sweep_spec(doc) -> SweepSpec:
    """Parse a sweep document; its ``version`` and ``nfe_list`` follow the config rules."""
    for key in doc:
        if key not in ("version", "base", "schedules", "solvers", "nfe_list", "modes"):
            raise ConfigError(f"unknown key {key}", key=key)
    # the sweep's own version and nfe_list replace the base's, and are checked with it
    base = config_from_dict({**doc.get("base", {}),
                             **{key: doc[key] for key in ("version", "nfe_list") if key in doc}})
    modes = list(doc.get("modes", ["baseline", "s4s"]))
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}", key="modes")
    schedules = [_parse_section(ScheduleSpec, s, "schedules") for s in doc["schedules"]]
    solvers = [_parse_section(SolverSpec, s, "solvers") for s in doc["solvers"]]
    for schedule in schedules:
        validate_config(dataclasses.replace(base, schedule=schedule))
    for solver in solvers:
        validate_config(dataclasses.replace(base, solver=solver))
    return SweepSpec(base=base, schedules=schedules, solvers=solvers,
                     nfe_list=base.nfe_list, modes=modes)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--workers", type=int, default=1, help="Worker processes.")
def cli_sweep(config_path, out_dir, workers):
    """Run the cross-product sweep described by a sweep config document."""
    with open(config_path) as fh:
        doc = json.load(fh)
    try:
        spec = _sweep_spec(doc)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    table = run_sweep(spec, out_dir, workers=workers, progress=click.echo)
    click.echo(table.formatted())
    failures = [r for r in table.ordered() if r["status"] == "failed"]
    if failures:
        click.echo(f"{len(failures)} cell(s) failed", err=True)
        sys.exit(1)


@main.command("check-grad")
@click.option("--instances", type=int, default=20)
@click.option("--tolerance", type=float, default=1e-4)
@click.option("--seed", type=int, default=0)
def cli_check_grad(instances, tolerance, seed):
    """Finite-difference audit of the reverse-mode pass (the adjoint suite)."""
    from .schedules import VeSchedule

    schedule = VeSchedule()
    model = default_mixture(2)
    rng = np.random.default_rng(seed)
    worst = {"coefficients": 0.0, "initial_state": 0.0, "xi": 0.0, "xi_c": 0.0}
    for _ in range(instances):
        grid = heuristic_grid(schedule, 4, "logsnr")
        params = LearnableTimeParams.from_grid(grid, schedule)
        params.xi += 0.1 * rng.standard_normal(params.xi.shape)
        delta = 0.5 * np.min(-np.diff(materialize(params, schedule).steps))
        params.xi_c += 0.2 * delta * rng.standard_normal(params.xi_c.shape)
        coeffs = init_preset("lms", 2, 4, "gaussian", seed=int(rng.integers(2**31)))
        x0 = schedule.tilde_sigma * rng.standard_normal(2)
        target = rng.standard_normal(2)
        report = check_gradients(coeffs, schedule, model, x0, target, params=params)
        for block, dev in report["blocks"].items():
            worst[block] = max(worst[block], dev)
    status = 0
    for block, dev in worst.items():
        ok = dev <= tolerance
        click.echo(f"{block:<14} max relative deviation {dev:.3e}  "
                   f"{'PASS' if ok else 'FAIL'}")
        status |= 0 if ok else 1
    sys.exit(status)


@main.command("selftest")
def cli_selftest():
    """Quick invariant bundle: transforms, counts, accounting, grids."""
    from .schedules import VeSchedule, VpLinearSchedule

    failures = 0

    def check(name, ok):
        nonlocal failures
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    vp = VpLinearSchedule()
    ts = np.linspace(vp.t_min, vp.T, 200)
    rt = np.max(np.abs(vp.time_from_lambda(vp.lam(ts)) - ts))
    check("lambda round trip <= 1e-10", rt <= 1e-10)

    lo = phi_functions(1e-4 - 1e-12, 4)
    hi = phi_functions(1e-4 + 1e-12, 4)
    check("phi series/closed-form crossover", np.allclose(lo, hi, atol=1e-10))

    counts_ok = all(
        SolverCoefficients(kind, min(k, n), n).param_count()
        == table_param_count(kind, min(k, n), n)
        for kind in ("lms", "ss", "pc") for k in (1, 2, 3, 4) for n in range(k, 11)
    )
    check("parameter-count formulas", counts_ok)

    # one evaluation per lms step, one more for pc's closing corrector, k per ss step
    ve = VeSchedule()
    grid, model, x0 = heuristic_grid(ve, 6, "logsnr"), default_mixture(2), np.array([1.0, -0.5])
    nfe_ok = True
    for kind, preset, expected in (("lms", "ipndm", 6), ("pc", "unipc", 6 + 1),
                                   ("ss", "dpmpp", 2 * 6)):
        coeffs = init_preset(kind, 2, 6, preset, schedule=ve, grid=grid)
        nfe_ok &= solve(coeffs, ve, grid, model, x0).nfe_used == expected
    check("NFE accounting (lms/pc/ss)", nfe_ok)

    params = LearnableTimeParams.zeros(8)
    grid = materialize(params, ve)
    uniform = np.linspace(ve.T, ve.t_min, 9)
    check("zero logits -> uniform grid", np.allclose(grid.steps, uniform, atol=1e-12))

    lams = heuristic_grid(ve, 12, "logsnr").lambdas(ve)
    check("logsnr grid uniform in lambda", np.max(np.abs(np.diff(lams, 2))) <= 1e-8)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

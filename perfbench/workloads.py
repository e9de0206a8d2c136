"""The benchmark's workloads: problem construction (set-up) and one timed round.

Every workload drives fewstep only through its public API, looking each
function up on its module at call time so a :class:`recorder.Recorder` can
wrap it.  A round repeats exactly the same calls on exactly the same inputs
every time, so rounds can be compared call by call and their results must
hash to the same digest.

What the seed decides.  The problem (training data, trainer shuffles,
evaluation noise, the sweep's base seed) is fixed by the workload
definition; ``--seed`` draws the fresh noise the trained solvers sample from
in the latency phase.  Training outcomes move by up to +-30% between
training-data seeds, so a seed-dependent training set would leave no stable
accuracy metric to gate on (see README.md).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

N_STEPS = 6
TRAIN_SEED = 0       # dataset draws and trainer shuffles
EVAL_SEED = 1        # fresh evaluation noise; differs from the dataset draws
SAMPLE_BATCHES = 50  # noise batches per sampled solver; two solvers leave 10 beyond p90

FAMILIES = {"lms": (3, "ipndm"), "pc": (3, "unipc"), "ss": (2, "dpmpp")}
# CSV columns that carry results; wall_time_s and the cell keys are left out.
ACCURACY_COLUMNS = ("status", "mean_error", "median_error", "max_error",
                    "mean_error_normalized", "baseline_mean_error", "delta_vs_baseline",
                    "final_train_loss", "final_val_loss", "r", "nfe_used")


def nfe_formula(kind, order, n_steps):
    """Score evaluations per sample of one solve: lms N, pc N+1, ss k*N."""
    return {"lms": n_steps, "pc": n_steps + 1, "ss": order * n_steps}[kind]


@dataclasses.dataclass
class RoundResult:
    ops: int = 0                 # library calls and sweep cells attempted
    op_failures: int = 0         # diverged training runs and failed cells
    solvers: list = dataclasses.field(default_factory=list)  # (label, preset error, trained error)
    checks: list = dataclasses.field(default_factory=list)   # (name, passed)
    digest: object = dataclasses.field(default_factory=hashlib.sha256)

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))

    @property
    def errors(self):
        """Fresh-noise mean errors of the trained solvers: the eval_error_gmean inputs."""
        return [error for _, _, error in self.solvers]

    @property
    def worse_than_init(self):
        return sum(error > init for _, init, error in self.solvers)


def _warm_up(fs, schedule, model, grid, presets, teacher):
    """Run each code path once at batch 2 so lazy initialisation is not timed."""
    x = schedule.tilde_sigma * np.ones((2, model.dim))
    for coeffs in presets:
        trace = fs.solvers.solve(coeffs, schedule, grid, model, x)
        fs.backprop.backward(trace, coeffs, schedule, model, np.ones_like(x), grid=grid)
    fs.teachers.teacher_solve(teacher, schedule, model, x)


def _sample(fs, rec, out, jobs, passes):
    """Time batched solves, each in its own ``sample`` span keyed by solver and batch.

    ``jobs`` holds ``(label, coeffs, schedule, grid, model, noise)``; every
    pass solves every job's noise batches again, so each key is timed
    ``passes`` times per round.
    """
    out.ops += passes * sum(len(job[-1]) for job in jobs)
    ok = {job[0]: [True, True] for job in jobs}
    for _ in range(passes):
        for label, coeffs, schedule, grid, model, noise in jobs:
            expected = nfe_formula(coeffs.kind, coeffs.order, coeffs.n_steps)
            for j, z in enumerate(noise):
                x = schedule.tilde_sigma * z
                with rec.span("sample") as span:
                    trace = fs.solvers.solve(coeffs, schedule, grid, model, x)
                span[5] = {"key": f"{label}#{j}"}
                ok[label][0] &= trace.nfe_used == expected
                ok[label][1] &= bool(np.all(np.isfinite(trace.terminal)))
    for label, (nfe_ok, finite) in ok.items():
        out.check(f"sample_nfe:{label}", nfe_ok)
        out.check(f"sample_finite:{label}", finite)


def teacher_oracle_deviation(fs):
    """Largest |adaptive-RK - closed form| on an isotropic Gaussian, VE and VP."""
    model = fs.scores.GaussianMixtureScore.isotropic(2, scale=0.6, mean=np.array([0.8, -0.4]))
    teacher = fs.teachers.TeacherConfig(kind="adaptive_rk")
    worst = 0.0
    for schedule in (fs.schedules.VeSchedule(), fs.schedules.VpLinearSchedule()):
        x = schedule.tilde_sigma * np.random.default_rng(0).standard_normal((8, 2))
        rk = fs.teachers.teacher_solve(teacher, schedule, model, x)
        exact = fs.teachers.exact_gaussian_solution(schedule, model, x)
        worst = max(worst, float(np.max(np.abs(rk - exact))))
    return worst


@dataclasses.dataclass
class Problem:
    label: str
    schedule: object
    grid: object
    presets: dict                # family -> initial SolverCoefficients


class TrainD2:
    """The default 3-component mixture at d=2 on VE and VP-linear, all families.

    Per schedule: teacher dataset, training, fresh-noise evaluation of the
    presets and the trained solvers, then sampling with the trained lms solver.
    """

    EPOCHS = 3
    N_RECORDS = 160              # 120 train, 40 val
    N_EVAL = 50
    SAMPLE_BATCH = 100
    SAMPLE_PASSES = 2

    def __init__(self, fs, seed, root, work):
        self.fs = fs
        self.model = fs.scores.default_mixture(2)
        self.teacher = fs.teachers.TeacherConfig(kind="adaptive_rk")
        # s4s-alt runs `alternations` time phases and as many coefficient phases
        self.train_cfg = fs.training.TrainConfig(epochs=self.EPOCHS, alternations=2,
                                                 batch_size=20, seed=TRAIN_SEED)
        self.problems = []
        for label, schedule in (("ve", fs.schedules.VeSchedule()),
                                ("vp_linear", fs.schedules.VpLinearSchedule())):
            grid = fs.grids.heuristic_grid(schedule, N_STEPS, "logsnr")
            presets = {kind: fs.coeffs.init_preset(kind, order, N_STEPS, preset,
                                                   schedule=schedule, grid=grid)
                       for kind, (order, preset) in FAMILIES.items()}
            self.problems.append(Problem(label, schedule, grid, presets))
        rng = np.random.default_rng(seed)
        self.noise = [rng.standard_normal((SAMPLE_BATCHES, self.SAMPLE_BATCH, 2))
                      for _ in self.problems]

    def warm_up(self):
        for p in self.problems:
            _warm_up(self.fs, p.schedule, self.model, p.grid, p.presets.values(), self.teacher)
            self.fs.grids.materialize(
                self.fs.grids.LearnableTimeParams.from_grid(p.grid, p.schedule), p.schedule)

    def _evaluate(self, out, label, coeffs, schedule, grid=None, params=None):
        metrics = self.fs.training.evaluate(coeffs, schedule, self.model, self.teacher,
                                            grid, params, self.N_EVAL, EVAL_SEED)
        out.ops += 1
        out.check(f"eval_nfe:{label}",
                  metrics["nfe_used"] == nfe_formula(coeffs.kind, coeffs.order, coeffs.n_steps))
        out.check(f"eval_finite:{label}", np.isfinite(
            [metrics[k] for k in ("mean_error", "median_error", "max_error")]).all())
        return metrics["mean_error"]

    def round(self, rec):
        fs, model, out = self.fs, self.model, RoundResult()
        for p, noise in zip(self.problems, self.noise):
            dataset = fs.teachers.generate_dataset(
                self.teacher, p.schedule, model, self.N_RECORDS, TRAIN_SEED, 0.25)
            out.ops += 1
            runs = []        # (label, family, TrainResult)
            for kind, init in p.presets.items():
                runs.append((f"{p.label}/{kind}", kind, fs.training.train_s4s(
                    copy.deepcopy(dataset), init, p.grid, p.schedule, model, self.train_cfg)))
            params = fs.grids.LearnableTimeParams.from_grid(p.grid, p.schedule)
            runs.append((f"{p.label}/lms-alt", "lms", fs.training.train_s4s_alt(
                copy.deepcopy(dataset), p.presets["lms"], params, p.schedule, model,
                self.train_cfg)))
            init_error = {kind: self._evaluate(out, f"{p.label}/{kind}-init", init,
                                               p.schedule, grid=p.grid)
                          for kind, init in p.presets.items()}
            for label, kind, res in runs:
                out.ops += 1
                out.op_failures += res.status != "ok"
                error = self._evaluate(out, label, res.coeffs, p.schedule,
                                       grid=res.grid, params=res.params)
                out.solvers.append((label, init_error[kind], error))
                out.digest.update(np.ascontiguousarray(res.coeffs.values).tobytes())
                if res.params is not None:
                    out.digest.update(res.params.xi.tobytes() + res.params.xi_c.tobytes())
            label, _, lms = runs[0]          # FAMILIES lists lms first
            _sample(fs, rec, out, [(label, lms.coeffs, p.schedule, lms.grid, model, noise)],
                    self.SAMPLE_PASSES)
        out.digest.update(np.asarray(out.errors, dtype="<f8").tobytes())
        return out


class SweepWorkload:
    """``run_sweep`` on the shipped demo sweep config, one worker, fresh directory.

    A sweep round is long, so a run holds few of them; the sampling phase
    solves each batch in several passes so every batch still has many
    repeats to take its fastest from.
    """

    SAMPLE_PASSES = 8

    def __init__(self, fs, seed, root, work):
        self.fs = fs
        self.work = work
        with open(Path(root) / "demos" / "configs" / "sweep.json") as fh:
            doc = json.load(fh)
        cfg = fs.configs
        self.spec = fs.experiments.SweepSpec(
            base=cfg.config_from_dict(doc["base"]),
            schedules=[cfg.ScheduleSpec(**s) for s in doc["schedules"]],
            solvers=[cfg.SolverSpec(**s) for s in doc["solvers"]],
            nfe_list=list(doc["nfe_list"]), modes=list(doc["modes"]))
        self.n_cells = (len(self.spec.schedules) * len(self.spec.solvers)
                        * len(self.spec.nfe_list) * len(self.spec.modes))
        self.kind_of = {cls: kind for kind, cls in fs.schedules.SCHEDULE_KINDS.items()}
        rng = np.random.default_rng(seed)
        self.noise = {s.kind: rng.standard_normal((SAMPLE_BATCHES, 100, self.spec.base.model.dim))
                      for s in self.spec.schedules}

    def warm_up(self):
        fs, base = self.fs, self.spec.base
        model = fs.configs.build_model(base.model)
        teacher = fs.configs.build_teacher(base.teacher)
        for sched_spec in self.spec.schedules:
            schedule = fs.configs.build_schedule(sched_spec)
            grid = fs.grids.heuristic_grid(schedule, N_STEPS, base.grid.kind)
            presets = [fs.coeffs.init_preset(s.kind, s.order, N_STEPS, s.preset,
                                             schedule=schedule, grid=grid)
                       for s in self.spec.solvers]
            _warm_up(fs, schedule, model, grid, presets, teacher)

    def round(self, rec):
        fs, out = self.fs, RoundResult()
        with tempfile.TemporaryDirectory(dir=self.work, prefix="sweep-") as out_dir:
            table = fs.experiments.run_sweep(self.spec, out_dir, workers=1)
            with open(Path(out_dir) / "results.csv", newline="") as fh:
                csv_rows = list(csv.DictReader(fh))
        rows = table.ordered()
        out.ops += len(rows)
        out.op_failures += sum(r["status"] != "ok" for r in rows)
        out.check("sweep_rows", len(rows) == self.n_cells)
        out.check("sweep_no_failed_cells", all(r["status"] != "failed" for r in rows))
        for r in rows:
            label = f"{r['schedule']}/{r['solver']}/{r['nfe']}/{r['mode']}"
            out.check(f"cell_nfe:{label}",
                      r.get("nfe_used") == nfe_formula(r["solver"], r["order"], r["nfe"]))
            out.check(f"cell_finite:{label}",
                      np.isfinite([r.get("mean_error", np.nan), r.get("baseline_mean_error", np.nan)]).all())
            if r["mode"] != "baseline":
                out.solvers.append((label, r["baseline_mean_error"], r["mean_error"]))
        for row in csv_rows:
            out.digest.update(",".join(row[c] for c in ACCURACY_COLUMNS).encode())
        out.digest.update(np.asarray(out.errors, dtype="<f8").tobytes())
        # the trained solvers, as the sweep's cells produced them, in call order
        jobs = []
        for span in rec.spans_of_run(rec.run, "training.train_s4s"):
            note = span[5]
            coeffs = note["result"].coeffs
            out.digest.update(np.ascontiguousarray(coeffs.values).tobytes())
            if coeffs.kind == "lms" and coeffs.n_steps == N_STEPS:
                schedule = note["schedule"]
                kind = self.kind_of[type(schedule)]
                jobs.append((f"{kind}/lms/{N_STEPS}", coeffs, schedule, note["result"].grid,
                             note["model"], self.noise[kind]))
        _sample(fs, rec, out, jobs, self.SAMPLE_PASSES)
        return out


WORKLOADS = {
    "train-d2": TrainD2,
    "sweep-demo": SweepWorkload,
}

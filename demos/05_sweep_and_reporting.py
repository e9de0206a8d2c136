"""Drive the experiment harness end to end and aggregate a result table.

Builds a small sweep (schedules x solvers x step counts x modes), runs it
through the resumable cell runner, and prints the aggregated table.  The
same sweep is reachable from the command line:

    fewstep sweep --config sweep.json --out out/

Cells that already have result files are skipped on rerun, so interrupting
and resuming is safe.  The CSV is the contract; plotting is a convenience
(see plot_results.py).
"""

import tempfile
from pathlib import Path

from fewstep.configs import (DatasetSpec, ExperimentConfig, GridSpec, ModelSpec,
                             ScheduleSpec, SolverSpec, TeacherConfig)
from fewstep.experiments import SweepSpec, run_sweep
from fewstep.training import TrainConfig

base = ExperimentConfig(
    seed=11,
    model=ModelSpec(kind="gaussian_mixture", dim=2),
    grid=GridSpec(kind="logsnr"),
    teacher=TeacherConfig(kind="adaptive_rk", rel_tol=1e-8, abs_tol=1e-10),
    dataset=DatasetSpec(n_train=120, n_val=40),
    train=TrainConfig(epochs=10, batch_size=20),
)

spec = SweepSpec(
    base=base,
    schedules=[ScheduleSpec(kind="ve"), ScheduleSpec(kind="vp_linear")],
    solvers=[SolverSpec(kind="lms", order=3, preset="ipndm"),
             SolverSpec(kind="pc", order=3, preset="unipc")],
    nfe_list=[4, 6],
    modes=["baseline", "s4s"],
)

out_dir = Path(tempfile.mkdtemp(prefix="fewstep_sweep_"))
print(f"running {2 * 2 * 2 * 2} cells into {out_dir} ...")
table = run_sweep(spec, out_dir, workers=1, progress=lambda s: print(" ", s))

print()
print(table.formatted())
print(f"\nCSV written to {out_dir / 'results.csv'}")
print("negative delta_vs_baseline = the learned solver beat its initialization")

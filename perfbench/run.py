"""Run one fewstep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-d2 --seed 1 --seconds 30 --trace 0

Run from the root of a fewstep checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the untraced rounds are followed by
traced rounds and the last line carries the per-layer metrics.  Lines before
it are a readable report.  Each run also writes its full result, with the
environment, to ``perfbench/_work/`` (spans too, when traced).  The exit
code is non-zero when an output check fails or a call raises.
"""

import argparse
import importlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# Set-ups per run: the one the rounds use, then one after each of the first
# rounds, so they sample the machine at moments seconds apart.
SETUP_REPEATS = 8
# Spans recorded in untraced rounds: the calls the end-to-end metrics time,
# plus solve and backward, which cut training into millisecond segments.
# Each costs a millisecond or more, so recording them adds well under 1%.
COARSE = {"teachers.generate_dataset", "training.train_s4s", "training.train_s4s_alt",
          "training.evaluate", "experiments.run_cell", "solvers.solve", "backprop.backward"}


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _fewstep_modules():
    return {n: m for n, m in sys.modules.items() if n == "fewstep" or n.startswith("fewstep.")}


def set_up(workloads, name, seed):
    """Import fewstep afresh, build the workload's problems, warm up."""
    for mod in _fewstep_modules():
        del sys.modules[mod]
    fs = importlib.import_module("fewstep")
    importlib.import_module("fewstep.experiments")
    workload = workloads.WORKLOADS[name](fs, seed, ROOT, WORK)
    workload.warm_up()
    return fs, workload


class SetUpTimer:
    """Times set-ups; extra ones run in isolation, leaving the modules in use untouched."""

    def __init__(self, workloads, name, seed):
        self.args = (workloads, name, seed)
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        built = set_up(*self.args)
        self.times.append(time.perf_counter() - t0)
        return built

    def extra(self):
        if len(self.times) >= SETUP_REPEATS:
            return
        in_use = _fewstep_modules()
        try:
            self()
        finally:
            for mod in _fewstep_modules():
                del sys.modules[mod]
            sys.modules.update(in_use)


def run_rounds(rec, workload, seconds, results, after_round):
    """Closed loop, one caller: rounds back to back until the next would overrun."""
    started = time.perf_counter()
    runs = []
    while True:
        runs.append(rec.next_run())
        with rec.span("round"):
            results.append(workload.round(rec))
        after_round()
        elapsed = time.perf_counter() - started
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def main(argv=None):
    # Pinned before numpy loads: one BLAS/OpenMP thread, as in every recorded run.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fewstep" / "__init__.py").is_file():
        print(f"error: no fewstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    import metrics
    import recorder

    t0 = time.perf_counter()
    env = environment()
    deps_import_s = time.perf_counter() - t0
    set_up_timer = SetUpTimer(workloads, args.workload, args.seed)
    fs, workload = set_up_timer()

    oracle = workloads.teacher_oracle_deviation(fs)
    checks = [("teacher_oracle", oracle <= 1e-6)]
    rec = recorder.Recorder()
    results, errors = [], []
    untraced, traced = [], []
    try:
        rec.patch(lambda name: name in COARSE)
        untraced = run_rounds(rec, workload, args.seconds / (2 if args.trace else 1), results,
                              set_up_timer.extra)
        if args.trace:
            rec.restore()
            rec.patch(lambda name: True)
            traced = run_rounds(rec, workload, args.seconds / 2, results, lambda: None)
    except Exception:  # a call raised: report it as a failed operation
        errors.append(traceback.format_exc())
        traceback.print_exc()
    finally:
        rec.restore()
    while len(set_up_timer.times) < SETUP_REPEATS:
        set_up_timer.extra()
    setup_times = set_up_timer.times

    digests = sorted({r.digest.hexdigest() for r in results})
    checks += [c for r in results for c in r.checks]
    checks.append(("digest_same_every_round", len(digests) <= 1))
    attempted = sum(r.ops for r in results) + len(checks) + len(errors)
    failed = (sum(r.op_failures for r in results) + len(errors)
              + sum(not ok for _, ok in checks))

    report, samples = {}, 0
    if untraced and not errors:
        try:
            e2e, samples = metrics.end_to_end(rec, set(untraced), results, setup_times)
            if args.trace:
                report = metrics.per_layer(
                    rec, set(traced), results[len(untraced):],
                    metrics.Timeline(rec, set(traced), COARSE | {"round", "sample"}).wall
                    / e2e["wall_s"][0] - 1.0)
            else:
                report = e2e
        except ValueError:  # rounds made different calls: the program is not deterministic
            errors.append(traceback.format_exc())
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
    first = results[0] if results else None
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "deps_import_s": deps_import_s,
        "setup_times_s": setup_times, "teacher_oracle_deviation": oracle,
        "rounds_untraced": len(untraced), "rounds_traced": len(traced),
        "solve_samples": samples, "digest": digests,
        "worse_than_init": first.worse_than_init if first else None,
        "solvers": [{"label": label, "preset_error": init, "trained_error": error}
                    for label, init, error in first.solvers] if first else None,
        "ops_failed_frac": failed / attempted,
        "failed_checks": [name for name, ok in checks if not ok], "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"result-{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    if args.trace:
        rec.write(WORK / f"spans-{stem}.jsonl.gz")

    print(f"# {args.workload} seed={args.seed} python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} nproc {env['nproc']}")
    print(f"# rounds untraced={len(untraced)} traced={len(traced)} solve samples={samples} "
          f"setup repeats={SETUP_REPEATS}")
    for name, (value, unit) in report.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'ops_failed_frac':<40} {failed / attempted:>14.6g} 1   ({failed}/{attempted})")
    if first:
        print(f"{'worse_than_init':<40} {first.worse_than_init:>14d} count")
    print(f"# digest {' '.join(digests)}")
    for name in summary["failed_checks"]:
        print(f"# FAILED CHECK {name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Print every cell's ``mean_error`` and ``baseline_mean_error`` of the shipped
demo sweep (``demos/configs/sweep.json``) as one JSON object keyed by cell.

Run from the repository root: ``PYTHONPATH=src python tests/data/sweep_errors.py``.
The sweep runs in the calling process into a temporary directory that is
removed afterwards.  Running it on two checkouts and comparing the objects
names every cell a change moved.
"""

import json
import pathlib
import sys
import tempfile

from fewstep.cli import _sweep_spec
from fewstep.experiments import run_sweep, sweep_cells

SWEEP = pathlib.Path(__file__).resolve().parents[2] / "demos" / "configs" / "sweep.json"


def sweep_errors() -> dict:
    """``{cell: {"mean_error": ..., "baseline_mean_error": ...}}`` of the demo sweep."""
    spec = _sweep_spec(json.loads(SWEEP.read_text()))
    with tempfile.TemporaryDirectory() as out:
        run_sweep(spec, out, workers=1)
        rows = {key: json.loads((pathlib.Path(out) / "cells" / f"{key}.json").read_text())
                for key, *_ in sweep_cells(spec)}
    return {key: {name: row.get(name) for name in ("mean_error", "baseline_mean_error")}
            for key, row in rows.items()}


if __name__ == "__main__":
    json.dump(sweep_errors(), sys.stdout, indent=1, sort_keys=True)
    print()

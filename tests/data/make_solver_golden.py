"""Write ``solver_golden.npz``: terminal states and every gradient block of a
fixed case list, so later changes to the stepping core can be checked against
the solver that wrote the file.

Cases: each family (lms-3 ``ipndm``, pc-3 ``unipc``, ss-2 ``dpmpp`` for noise
and ss-2 ``gaussian`` for data prediction) x {VE, VP-linear} x {noise, data}
x {fixed, learnable grid}, N = 5, a batch of 3 states.

Run from the repository root: ``PYTHONPATH=src python tests/data/make_solver_golden.py``.
With ``--digest`` it prints one sha256 per case, then one over every block,
computed afresh (the file is neither read nor written), so two checkouts are
bit-identical on these cases when they print the same total digest, and the
per-case lines name the cases a change moved.
"""

import hashlib
import itertools
import pathlib
import sys

import numpy as np

from fewstep.backprop import backward
from fewstep.coeffs import init_preset
from fewstep.grids import LearnableTimeParams, heuristic_grid, materialize
from fewstep.schedules import VeSchedule, VpLinearSchedule
from fewstep.scores import default_mixture
from fewstep.solvers import solve

GOLDEN = pathlib.Path(__file__).with_name("solver_golden.npz")
BLOCKS = ("grad_coeffs", "grad_x0", "grad_steps", "grad_score_times", "grad_xi", "grad_xi_c")


def golden_blocks() -> dict:
    """``{"<case>/<block>": array}`` for every case and block."""
    model = default_mixture(2)
    out = {}
    families = (("lms", 3, "ipndm"), ("pc", 3, "unipc"), ("ss", 2, "dpmpp"))
    for n, ((kind, order, preset), (sname, schedule), prediction, learnable) in enumerate(
            itertools.product(families, (("ve", VeSchedule()), ("vp", VpLinearSchedule())),
                              ("noise", "data"), (False, True))):
        rng = np.random.default_rng(n)
        grid, params = heuristic_grid(schedule, 5, "logsnr"), None
        if learnable:
            params = LearnableTimeParams.from_grid(grid, schedule)
            params.xi += 0.1 * rng.standard_normal(params.xi.shape)
            params.xi_c += 0.3 * rng.standard_normal(params.xi_c.shape)
            grid = materialize(params, schedule)
        if preset == "dpmpp" and prediction == "data":
            preset = "gaussian"          # the midpoint preset is noise-only
        coeffs = init_preset(kind, order, 5, preset, schedule=schedule, grid=grid,
                             prediction=prediction, seed=n)
        if preset == "gaussian":
            coeffs.values *= 0.2
        x = schedule.tilde_sigma * rng.standard_normal((3, 2))
        trace = solve(coeffs, schedule, grid, model, x)
        res = backward(trace, coeffs, schedule, model, rng.standard_normal((3, 2)),
                       grid=grid, params=params)
        case = f"{kind}-{sname}-{prediction}-{'learnable' if learnable else 'fixed'}"
        out[f"{case}/terminal"] = trace.terminal
        for block in BLOCKS:
            if getattr(res, block) is not None:
                out[f"{case}/{block}"] = getattr(res, block)
    return out


def digest(blocks: dict) -> str:
    """sha256 over every block's key, shape and little-endian float64 bytes, in key order."""
    h = hashlib.sha256()
    for key in sorted(blocks):
        value = np.ascontiguousarray(blocks[key], dtype="<f8")
        h.update(f"{key}:{value.shape}".encode())
        h.update(value.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        blocks = golden_blocks()
        for case in sorted({key.split("/")[0] for key in blocks}):
            print(case, digest({k: v for k, v in blocks.items() if k.startswith(case + "/")}))
        print("total", digest(blocks))
    else:
        np.savez(GOLDEN, **golden_blocks())
        print(f"wrote {GOLDEN}")

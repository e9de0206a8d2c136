"""Terminal states and gradient blocks match the recorded ``solver_golden.npz``.

The tolerance is 1e-12 relative per block, not bit-equality: NumPy's SIMD
``exp``/``log`` may differ by an ulp across CPUs.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent / "data" / "make_solver_golden.py"
_spec = importlib.util.spec_from_file_location("make_solver_golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def blocks():
    return golden.golden_blocks()


def test_golden_covers_every_family_schedule_prediction_and_grid(blocks):
    with np.load(golden.GOLDEN) as recorded:
        assert sorted(recorded.files) == sorted(blocks)
    cases = {key.split("/")[0] for key in blocks}
    assert len(cases) == 3 * 2 * 2 * 2


def test_solver_matches_golden(blocks):
    with np.load(golden.GOLDEN) as recorded:
        for key, value in blocks.items():
            ref = recorded[key]
            assert value.shape == ref.shape, key
            err = np.linalg.norm(value - ref) / max(np.linalg.norm(ref), 1e-300)
            assert err <= 1e-12, (key, err)


def test_digest_covers_every_bit_of_every_block(blocks):
    reference = golden.digest(blocks)
    assert golden.digest(dict(reversed(list(blocks.items())))) == reference
    key = sorted(blocks)[0]
    nudged = dict(blocks, **{key: np.nextafter(blocks[key], np.inf)})
    assert golden.digest(nudged) != reference

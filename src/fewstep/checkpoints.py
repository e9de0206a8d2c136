"""Versioned binary checkpoints: coefficients, time parameters, input snapshot.

A checkpoint is an :mod:`~fewstep.artifacts` container (magic ``FSTCKPT1``,
version 1).  Its header holds the config hash, the solver metadata, the
coefficient index map and free-form ``extra``, and ``clip_fraction`` when
the time grid was learned; its arrays are the coefficient values, then
``xi`` and ``xi_c`` (N+1 each) when the time grid was learned, then the x'
snapshot when one was given.  Loading refuses a file the container rejects,
one whose solver header makes no solver or does not fit its arrays, and one
written under another config unless forced.
"""

from __future__ import annotations

import numpy as np

from . import artifacts
from .coeffs import SolverCoefficients
from .errors import CompatibilityError
from .grids import LearnableTimeParams

_MAGIC = b"FSTCKPT1"
CHECKPOINT_VERSION = 1
_SOLVER_FIELDS = ("kind", "order", "n_steps", "prediction", "tied")


def save_checkpoint(path, coeffs: SolverCoefficients, config_hash: str,
                    params: LearnableTimeParams | None = None,
                    x_prime_snapshot: np.ndarray | None = None,
                    extra: dict | None = None):
    arrays = {"coeff_values": coeffs.values}
    header = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "solver": {name: getattr(coeffs, name) for name in _SOLVER_FIELDS},
        "index_map": coeffs.index_map(),
        "extra": extra or {},
    }
    if params is not None:
        header["clip_fraction"] = params.clip_fraction
        arrays["xi"] = params.xi
        arrays["xi_c"] = params.xi_c
    if x_prime_snapshot is not None:
        header["x_prime_shape"] = list(np.shape(x_prime_snapshot))
        arrays["x_prime"] = x_prime_snapshot
    artifacts.write(path, _MAGIC, header, arrays)


def load_checkpoint(path, expected_hash: str | None = None, force: bool = False):
    """Read a checkpoint; CompatibilityError naming ``path`` if the container rejects
    it, its header lacks a field, its solver or time parameters do not fit their
    arrays, or (unless ``force``) it is of another config."""
    header, data = artifacts.read(path, _MAGIC, CHECKPOINT_VERSION)
    learned = "xi" in data
    artifacts.require(path, header, ("config_hash", "solver", "extra")
                      + (("clip_fraction",) if learned else ())
                      + (("x_prime_shape",) if "x_prime" in data else ()))
    artifacts.require(path, header["solver"], _SOLVER_FIELDS, prefix="solver.")
    artifacts.require(path, data, ("coeff_values",) + (("xi_c",) if learned else ()),
                      what="array")
    if not force and expected_hash not in (None, header["config_hash"]):
        raise CompatibilityError(
            f"{path} was written under a different configuration "
            f"(hash {header['config_hash'][:12]} != {expected_hash[:12]}); "
            "pass force to override")
    try:
        coeffs = SolverCoefficients(**{name: header["solver"][name] for name in _SOLVER_FIELDS})
    except (TypeError, ValueError) as exc:
        raise CompatibilityError(f"{path}: header field 'solver' describes no solver "
                                 f"({exc})") from None
    sizes = {"coeff_values": coeffs.values.size}
    if learned:
        sizes.update(xi=coeffs.n_steps + 1, xi_c=coeffs.n_steps + 1)
    for name, size in sizes.items():
        if data[name].size != size:
            raise CompatibilityError(f"{path}: array {name!r} holds {data[name].size} "
                                     f"values where the solver header needs {size}")
    coeffs.values[:] = data["coeff_values"]
    params = None
    if learned:
        try:
            params = LearnableTimeParams(data["xi"], data["xi_c"], header["clip_fraction"])
        except (TypeError, ValueError) as exc:
            raise CompatibilityError(f"{path}: header field 'clip_fraction' "
                                     f"{header['clip_fraction']!r} is unusable ({exc})") from None
    x_prime = None
    if "x_prime" in data:
        x_prime = artifacts.reshaped(path, data["x_prime"], header["x_prime_shape"])
    return coeffs, params, x_prime, header

"""Versioned binary checkpoints: coefficients, time parameters, input snapshot.

Layout: magic, little-endian u32 header length, JSON header (version, config
hash, solver metadata, coefficient index map, array directory), then raw
little-endian float64 buffers in directory order.  Loading refuses to proceed
on a config-hash mismatch unless forced, and on a file whose length differs
from what its header describes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .coeffs import SolverCoefficients
from .errors import CompatibilityError
from .grids import LearnableTimeParams
from .teachers import _write_atomic

_MAGIC = b"FSTCKPT1"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, coeffs: SolverCoefficients, config_hash: str,
                    params: LearnableTimeParams | None = None,
                    x_prime_snapshot: np.ndarray | None = None,
                    extra: dict | None = None):
    arrays = [("coeff_values", np.asarray(coeffs.values, dtype="<f8"))]
    header = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "solver": {
            "kind": coeffs.kind,
            "order": coeffs.order,
            "n_steps": coeffs.n_steps,
            "prediction": coeffs.prediction,
            "tied": coeffs.tied,
        },
        "index_map": coeffs.index_map(),
        "extra": extra or {},
    }
    if params is not None:
        header["clip_fraction"] = params.clip_fraction
        arrays.append(("xi", np.asarray(params.xi, dtype="<f8")))
        arrays.append(("xi_c", np.asarray(params.xi_c, dtype="<f8")))
    if x_prime_snapshot is not None:
        snap = np.asarray(x_prime_snapshot, dtype="<f8")
        header["x_prime_shape"] = list(snap.shape)
        arrays.append(("x_prime", snap))
    header["arrays"] = [{"name": name, "size": int(arr.size)} for name, arr in arrays]
    blob = json.dumps(header, sort_keys=True).encode()
    _write_atomic(path, b"".join([_MAGIC, struct.pack("<I", len(blob)), blob]
                                 + [arr.tobytes() for _, arr in arrays]))


def load_checkpoint(path, expected_hash: str | None = None, force: bool = False):
    """Read a checkpoint; CompatibilityError naming ``path`` if it is cut short,
    overlong, of another version, or (unless ``force``) of another config."""
    blob = Path(path).read_bytes()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CompatibilityError(f"{path} is not a checkpoint file")
    start = len(_MAGIC) + 4
    if len(blob) < start:
        raise CompatibilityError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<I", blob, len(_MAGIC))
    if len(blob) < start + hlen:
        raise CompatibilityError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[start : start + hlen])
    except ValueError as exc:
        raise CompatibilityError(f"{path}: unreadable checkpoint header ({exc})") from None
    if header.get("version") != CHECKPOINT_VERSION:
        raise CompatibilityError(
            f"unsupported checkpoint version {header.get('version')}")
    if expected_hash is not None and header["config_hash"] != expected_hash:
        if not force:
            raise CompatibilityError(
                "checkpoint was written under a different configuration "
                f"(hash {header['config_hash'][:12]} != {expected_hash[:12]}); "
                "pass force to override")
    offset = start + hlen
    expected = offset + 8 * sum(entry["size"] for entry in header["arrays"])
    if len(blob) != expected:
        raise CompatibilityError(f"{path}: {len(blob)} bytes where the header describes "
                                 f"{expected} (truncated or trailing bytes)")
    data = {}
    for entry in header["arrays"]:
        data[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=entry["size"],
                                            offset=offset).astype(float)
        offset += entry["size"] * 8

    meta = header["solver"]
    coeffs = SolverCoefficients(kind=meta["kind"], order=meta["order"],
                                n_steps=meta["n_steps"], prediction=meta["prediction"],
                                tied=meta["tied"], values=data["coeff_values"])
    params = None
    if "xi" in data:
        params = LearnableTimeParams(data["xi"], data["xi_c"],
                                     header.get("clip_fraction", 0.5))
    x_prime = None
    if "x_prime" in data:
        x_prime = data["x_prime"].reshape(header["x_prime_shape"])
    return coeffs, params, x_prime, header

"""The one place fewstep writes files, and the container its binary artifacts share.

Every file goes through :func:`write_atomic`, so readers see the old file or
the whole new one.  Datasets (``.fsd``), evaluation references (``.fsr``)
and checkpoints (``.fsc``) are containers: an 8-byte magic, a little-endian
u32 header length, a JSON header (sorted keys) with a ``version`` and an
``arrays`` directory of ``{"name", "size"}`` entries, then each array as
little-endian float64 in directory order.  :func:`read` is their one loader.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import CompatibilityError


def write_atomic(path, data: bytes):
    """Write ``data`` to ``path`` so readers see the old file or the whole new one.

    The bytes go to a temporary file in the target directory, which is
    flushed to disk and then renamed over ``path``.  A process killed
    mid-write leaves at most a stray ``.tmp`` file, and concurrent writers
    of the same path never interleave.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows):
    """Write ``rows`` (dicts) under the header ``columns``; missing cells stay empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def write(path, magic: bytes, header: dict, arrays: dict):
    """Write ``header`` and the named ``arrays``, each flattened in C order;
    the header must say how to reshape them."""
    flat = {name: np.asarray(arr, dtype="<f8") for name, arr in arrays.items()}
    header = {**header, "arrays": [{"name": name, "size": int(arr.size)}
                                   for name, arr in flat.items()]}
    blob = json.dumps(header, sort_keys=True).encode()
    write_atomic(path, b"".join([magic, struct.pack("<I", len(blob)), blob]
                                + [arr.tobytes() for arr in flat.values()]))


def read(path, magic: bytes, version: int):
    """``(header, arrays)`` of a container, the arrays flat float64 copies.

    CompatibilityError naming ``path`` for another magic or version, a cut or
    unreadable header, or a payload shorter or longer than its directory.
    """
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise CompatibilityError(f"{path} is not a {magic.decode()} file")
    start = len(magic) + 4
    if len(data) < start:
        raise CompatibilityError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", data, len(magic))
    if len(data) < start + hlen:
        raise CompatibilityError(f"{path}: truncated header")
    try:
        header = json.loads(data[start : start + hlen])
    except ValueError as exc:
        raise CompatibilityError(f"{path}: unreadable header ({exc})") from None
    found = header.get("version") if isinstance(header, dict) else None
    if found != version:
        raise CompatibilityError(f"{path}: unsupported version {found} "
                                 f"(this fewstep reads version {version})")
    try:
        sizes = [(entry["name"], int(entry["size"])) for entry in header["arrays"]]
        if any(size < 0 for _, size in sizes):
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise CompatibilityError(f"{path}: header has no valid array directory") from None
    offset = start + hlen
    expected = offset + 8 * sum(size for _, size in sizes)
    if len(data) != expected:
        raise CompatibilityError(f"{path}: {len(data)} bytes where the header describes "
                                 f"{expected} (truncated or trailing bytes)")
    arrays = {}
    for name, size in sizes:
        arrays[name] = np.frombuffer(data, dtype="<f8", count=size,
                                     offset=offset).astype(float)
        offset += 8 * size
    return header, arrays


def require(path, fields: dict, names, prefix="", what="header field"):
    """CompatibilityError naming ``path`` and the first of ``names`` not in ``fields``
    (a header, or the arrays :func:`read` returns with ``what="array"``)."""
    for name in names:
        if name not in fields:
            raise CompatibilityError(f"{path}: no {what} {prefix + name!r}")


def reshaped(path, array: np.ndarray, shape):
    """``array`` (as :func:`read` returns it) in the ``shape`` its header gives;
    CompatibilityError naming ``path`` when the two disagree."""
    try:
        return array.reshape(shape)
    except (TypeError, ValueError):
        raise CompatibilityError(f"{path}: an array of {array.size} values does not fit "
                                 f"the header's shape {shape}") from None

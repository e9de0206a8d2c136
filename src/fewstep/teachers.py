"""High-accuracy reference solutions and training-set generation.

Three teacher kinds: a closed-form solution of the linear probability-flow
ODE (exact for single-Gaussian data), an embedded adaptive Runge-Kutta pair
on the time-domain ODE, and a fine fixed-step run of the strongest preset
solver (the teacher regime the learned solvers distill in practice, useful
because it carries its own truncation error).

A training record ties an initial noise draw to the teacher's output; the
perturbed copy ``x_prime`` is what the trainer moves inside the trust ball
and is persisted with the record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from .coeffs import init_preset
from .errors import AccuracyError
from .grids import heuristic_grid
from .schedules import NoiseSchedule
from .solvers import solve

TEACHER_KINDS = ("exact_gaussian", "adaptive_rk", "fine_fixed")

_DATASET_MAGIC = b"FSTDATA1"


@dataclasses.dataclass(frozen=True)
class TeacherConfig:
    kind: str = "adaptive_rk"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    fine_nfe: int = 400
    fine_order: int = 4
    fine_grid: str = "logsnr"

    def __post_init__(self):
        if self.kind not in TEACHER_KINDS:
            raise ValueError(f"unknown teacher kind {self.kind!r}")


@dataclasses.dataclass
class TrainRecord:
    record_id: int
    x_init: np.ndarray
    x_prime: np.ndarray
    teacher_out: np.ndarray


@dataclasses.dataclass
class Dataset:
    records: list
    n_train: int
    n_val: int
    dim: int
    seed: int
    teacher_kind: str

    @property
    def train_records(self):
        return self.records[: self.n_train]

    @property
    def val_records(self):
        return self.records[self.n_train :]


def exact_gaussian_solution(schedule: NoiseSchedule, model, x_init, t_end=None):
    """Closed-form probability-flow solution for single-Gaussian data.

    With p_0 = N(mu, s^2 I) the marginal stays Gaussian, and every flow line
    is x(t) = alpha_t mu + gamma_t z with gamma_t = sqrt(alpha_t^2 s^2 +
    sigma_t^2) and z frozen.
    """
    if getattr(model, "n_components", None) != 1:
        raise AccuracyError("the closed-form teacher needs a single-Gaussian model")
    t_end = schedule.t_min if t_end is None else t_end
    mu, s = model.means[0], float(model.scales[0])

    def gamma(t):
        a, sg = float(schedule.alpha(t)), float(schedule.sigma(t))
        return np.hypot(a * s, sg)

    a_T, a_e = float(schedule.alpha(schedule.T)), float(schedule.alpha(t_end))
    return a_e * mu + (gamma(t_end) / gamma(schedule.T)) * (np.asarray(x_init) - a_T * mu)


def _adaptive_rk_solve(config, schedule, model, x_init):
    x = np.asarray(x_init, dtype=float)

    def rhs(t, y):
        state = y.reshape(x.shape)
        f = float(schedule.f(t))
        gs = float(schedule.g_sq(t))
        eps = model.epsilon(schedule, state, t)
        return (f * state + gs / (2.0 * float(schedule.sigma(t))) * eps).ravel()

    sol = solve_ivp(rhs, (schedule.T, schedule.t_min), x.ravel(), method="RK45",
                    rtol=config.rel_tol, atol=config.abs_tol)
    if not sol.success:
        raise AccuracyError(f"adaptive teacher failed: {sol.message}")
    return sol.y[:, -1].reshape(x.shape)


def _fine_fixed_solve(config, schedule, model, x_init):
    grid = heuristic_grid(schedule, config.fine_nfe, config.fine_grid)
    coeffs = init_preset("pc", config.fine_order, config.fine_nfe, "unipc",
                         schedule=schedule, grid=grid)
    return solve(coeffs, schedule, grid, model, np.asarray(x_init, dtype=float)).terminal


def teacher_solve(config: TeacherConfig, schedule: NoiseSchedule, model, x_init):
    """Reference terminal state at t_min for the given initial noise."""
    if config.kind == "exact_gaussian":
        return exact_gaussian_solution(schedule, model, x_init)
    if config.kind == "adaptive_rk":
        return _adaptive_rk_solve(config, schedule, model, x_init)
    return _fine_fixed_solve(config, schedule, model, x_init)


def generate_dataset(
    config: TeacherConfig,
    schedule: NoiseSchedule,
    model,
    count: int,
    seed: int,
    val_fraction: float = 2.0 / 9.0,
) -> Dataset:
    """Draw x ~ N(0, tilde_sigma^2 I), solve each with the teacher, split."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    draws = schedule.tilde_sigma * rng.standard_normal((count, model.dim))
    outs = teacher_solve(config, schedule, model, draws)
    records = [TrainRecord(record_id=i, x_init=draws[i].copy(),
                           x_prime=draws[i].copy(), teacher_out=outs[i].copy())
               for i in range(count)]
    n_val = int(round(count * val_fraction))
    return Dataset(records=records, n_train=count - n_val, n_val=n_val,
                   dim=model.dim, seed=seed, teacher_kind=config.kind)


# ---------------------------------------------------------------------------
# Binary persistence: versioned header, little-endian float64 payload
# ---------------------------------------------------------------------------

def _write_atomic(path, data: bytes):
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


def _records_payload(records) -> bytes:
    buf = io.BytesIO()
    for rec in records:
        buf.write(struct.pack("<Q", rec.record_id))
        for arr in (rec.x_init, rec.x_prime, rec.teacher_out):
            buf.write(np.asarray(arr, dtype="<f8").tobytes())
    return buf.getvalue()


def save_dataset(dataset: Dataset, path):
    header = {
        "version": 1,
        "count": len(dataset.records),
        "n_train": dataset.n_train,
        "n_val": dataset.n_val,
        "dim": dataset.dim,
        "seed": dataset.seed,
        "teacher_kind": dataset.teacher_kind,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    _write_atomic(path, _DATASET_MAGIC + struct.pack("<I", len(blob)) + blob
                  + _records_payload(dataset.records))


def load_dataset(path) -> Dataset:
    """Read a ``.fsd`` file; ValueError naming ``path`` if it is cut short or overlong."""
    data = Path(path).read_bytes()
    if data[: len(_DATASET_MAGIC)] != _DATASET_MAGIC:
        raise ValueError(f"{path} is not a dataset file")
    start = len(_DATASET_MAGIC) + 4
    if len(data) < start:
        raise ValueError(f"{path}: truncated dataset header")
    (hlen,) = struct.unpack_from("<I", data, len(_DATASET_MAGIC))
    try:
        header = json.loads(data[start : start + hlen])
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable dataset header ({exc})") from None
    if header.get("version") != 1:
        raise ValueError(f"unsupported dataset version {header.get('version')}")
    dim, count = header["dim"], header["count"]
    record = np.dtype([("id", "<u8"), ("arrays", "<f8", (3, dim))])
    payload = memoryview(data)[start + hlen :]
    if len(payload) != count * record.itemsize:
        raise ValueError(f"{path}: {len(payload)} payload bytes where {count} records "
                         f"of dim {dim} take {count * record.itemsize} "
                         "(truncated or trailing bytes)")
    table = np.frombuffer(payload, dtype=record)
    records = [TrainRecord(record_id=int(rid), x_init=arrays[0].astype(float),
                           x_prime=arrays[1].astype(float),
                           teacher_out=arrays[2].astype(float))
               for rid, arrays in zip(table["id"], table["arrays"])]
    return Dataset(records=records, n_train=header["n_train"], n_val=header["n_val"],
                   dim=dim, seed=header["seed"], teacher_kind=header["teacher_kind"])


def dataset_checksum(dataset: Dataset) -> str:
    return hashlib.sha256(_records_payload(dataset.records)).hexdigest()

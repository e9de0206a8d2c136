"""High-accuracy reference solutions and training-set generation.

Three teacher kinds: a closed-form solution of the linear probability-flow
ODE (exact for single-Gaussian data), an embedded adaptive Runge-Kutta pair
on the time-domain ODE, and a fine fixed-step run of the strongest preset
solver (the teacher regime the learned solvers distill in practice, useful
because it carries its own truncation error).

A :class:`Dataset` is columnar: row i stacks initial noise draw i, its
perturbed copy ``x_prime`` (which the trainer moves in place) and the
teacher's output; on disk it is an :mod:`~fewstep.artifacts` container
(``.fsd``, version 2) holding that one array.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from scipy.integrate import solve_ivp

from . import artifacts
from .coeffs import init_preset
from .errors import AccuracyError
from .grids import heuristic_grid
from .schedules import NoiseSchedule
from .solvers import solve

TEACHER_KINDS = ("exact_gaussian", "adaptive_rk", "fine_fixed")

_DATASET_MAGIC = b"FSTDATA1"
DATASET_VERSION = 2


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
class Dataset:
    """Rows ``(x_init, x_prime, teacher_out)``; the first ``n_train`` train.

    The column properties are views, so writing ``x_prime[idx]`` updates it.
    """

    records: np.ndarray          # (count, 3, dim)
    n_train: int
    seed: int
    teacher_kind: str

    @property
    def n_val(self) -> int:
        return len(self.records) - self.n_train

    @property
    def dim(self) -> int:
        return self.records.shape[-1]

    @property
    def x_init(self) -> np.ndarray:
        return self.records[:, 0]

    @property
    def x_prime(self) -> np.ndarray:
        return self.records[:, 1]

    @property
    def teacher_out(self) -> np.ndarray:
        return self.records[:, 2]


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
    n_val = int(round(count * val_fraction))
    return Dataset(records=np.stack([draws, draws, outs], axis=1), n_train=count - n_val,
                   seed=seed, teacher_kind=config.kind)


def save_dataset(dataset: Dataset, path):
    header = {"version": DATASET_VERSION, "n_train": dataset.n_train, "dim": dataset.dim,
              "seed": dataset.seed, "teacher_kind": dataset.teacher_kind}
    artifacts.write(path, _DATASET_MAGIC, header, {"records": dataset.records})


def load_dataset(path) -> Dataset:
    """Read a ``.fsd`` file; CompatibilityError naming ``path`` if the container rejects it."""
    header, arrays = artifacts.read(path, _DATASET_MAGIC, DATASET_VERSION)
    return Dataset(records=arrays["records"].reshape(-1, 3, header["dim"]),
                   n_train=header["n_train"], seed=header["seed"],
                   teacher_kind=header["teacher_kind"])


def dataset_checksum(dataset: Dataset) -> str:
    return hashlib.sha256(np.asarray(dataset.records, dtype="<f8").tobytes()).hexdigest()

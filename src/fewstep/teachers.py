"""High-accuracy reference solutions and training-set generation.

Three teacher kinds: a closed-form solution of the linear probability-flow
ODE (exact for single-Gaussian data), an embedded adaptive Runge-Kutta pair
on the time-domain ODE, and a fine fixed-step run of the strongest preset
solver (the teacher regime the learned solvers distill in practice, useful
because it carries its own truncation error).

The adaptive pair is Dormand-Prince 5(4), implemented here with SciPy's
``RK45`` tableau, first-step rule, RMS error norm, step factors and
operation order, so it reproduces ``solve_ivp(..., method="RK45")`` bit for
bit without importing SciPy.  Before each step attempt's stages run, the
pair hands their five times ``t + c h`` to the right-hand side, which looks
each up with one scalar ``schedule.at``, forms f and g^2 from it as
``schedule.f`` and ``schedule.g_sq`` do, and prepares the five in one stacked
``model.prepare``; the stages and the attempt's first-same-as-last call (at
``t + h``, the last stage's time) read those records, and only the start
time and the first-step probe are prepared alone.  The right-hand side is
``f x + g^2/(2 sigma) eps``, with eps scaled in the new array
``model.epsilon`` returns, so the labels are those of ``solve_ivp`` on that
RHS.  The teacher reaches the model only through its protocol.  The whole
batch is one system: one error norm and one step sequence serve every
record, so a label depends (within the tolerance) on the batch it was
solved in.

A :class:`Dataset` is columnar: row i stacks initial noise draw i and the
teacher's output for it, and nothing writes into it once made; on disk it is
an :mod:`~fewstep.artifacts` container (``.fsd``, version 3) holding that
one array.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from . import artifacts
from .coeffs import init_preset
from .errors import AccuracyError, CompatibilityError
from .grids import heuristic_grid
from .schedules import NoiseSchedule
from .solvers import solve

TEACHER_KINDS = ("exact_gaussian", "adaptive_rk", "fine_fixed")

_DATASET_MAGIC = b"FSTDATA1"
DATASET_VERSION = 3


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
    """Rows ``(x_init, teacher_out)``; the first ``n_train`` train.  The column
    properties are views of ``records``."""

    records: np.ndarray          # (count, 2, dim)
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
    def teacher_out(self) -> np.ndarray:
        return self.records[:, 1]


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


# Dormand & Prince (1980) 5(4) tableau and step-size factors, as SciPy's RK45
# writes them; no dense output or events.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_STAGES = [(s, _RK_A[s, :s]) for s in range(1, len(_RK_B))]   # (s, stage s's weights)
_RK_ERROR_EXPONENT = -1 / 5          # -1 / (error estimator order + 1)
_RK_SAFETY, _RK_MIN_FACTOR, _RK_MAX_FACTOR = 0.9, 0.2, 10


def _rms(x):
    # np.linalg.norm's own operations on a flat float vector, without its dispatch
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer, Norsett & Wanner, Sec. II.4: a first step from one more RHS evaluation."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk45(fun, t0: float, y0, t_bound: float, rtol: float, atol: float, before_stages=None):
    """Integrate ``y' = fun(t, y)`` (``y`` flat) from ``t0`` to ``t_bound``; the final state.

    The error of each step is the RMS norm over the whole vector, so every
    component shares one step sequence.  AccuracyError when the step falls
    below ten ulps of ``t``.  ``before_stages``, if given, is called with the
    list of each step attempt's five stage times ``t + c h`` before ``fun`` is
    called at them; the last is ``t + h``, the time of the attempt's
    first-same-as-last call too.
    """
    t, t_bound, y = float(t0), float(t_bound), np.asarray(y0, dtype=float)
    rtol = max(rtol, 100 * np.finfo(float).eps)
    direction = np.sign(t_bound - t)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((len(_RK_B) + 1, y.size))
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise AccuracyError(f"adaptive teacher failed: step size {h_abs:.3g} "
                                    f"at t={t:.6g} is below the spacing of floats")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            times = [t + c * h for c in _RK_C[1:]]
            if before_stages is not None:
                before_stages(times)
            K[0] = f
            for (s, a), t_stage in zip(_RK_STAGES, times):
                K[s] = fun(t_stage, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _RK_B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _RK_E) * h / scale)
            if error_norm < 1:
                factor = (_RK_MAX_FACTOR if error_norm == 0 else
                          min(_RK_MAX_FACTOR, _RK_SAFETY * error_norm ** _RK_ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_RK_MIN_FACTOR, _RK_SAFETY * error_norm ** _RK_ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def _rhs_constants(at, p):
    """(f, g^2/(2 sigma), p) at the time whose lookup is ``at`` and prepared record ``p``."""
    a, s, da, ds = at
    f = da / a                      # as schedule.f and schedule.g_sq form them
    gs = 2.0 * s * ds - 2.0 * f * s * s
    return f, gs / (2.0 * s), p


def _adaptive_rk_solve(config, schedule, model, x_init):
    x = np.asarray(x_init, dtype=float)
    known = {}      # time -> its _rhs_constants, for the current step attempt's stages

    def prepare_stages(times):
        nonlocal known
        lookups = [schedule.at(t) for t in times]
        known = dict(zip(times, map(_rhs_constants, lookups,
                                    model.prepare(np.array(lookups).T))))

    def rhs(t, y):
        constants = known.get(t)
        if constants is None:       # a time no attempt announced: t0, the first-step probe
            at = schedule.at(t)
            constants = _rhs_constants(at, model.prepare(at))
        f, scale, p = constants
        state = y.reshape(x.shape)
        out = model.epsilon(p, state)
        out *= scale
        out += f * state                # = f state + scale eps: + and * commute exactly
        return out.ravel()

    y = _rk45(rhs, schedule.T, x.ravel(), schedule.t_min, config.rel_tol, config.abs_tol,
              before_stages=prepare_stages)
    return y.reshape(x.shape)


def _fine_fixed_solve(config, schedule, model, x_init):
    grid = heuristic_grid(schedule, config.fine_nfe, config.fine_grid)
    coeffs = init_preset("pc", config.fine_order, config.fine_nfe, "unipc",
                         schedule=schedule, grid=grid)
    return solve(coeffs, schedule, grid, model, np.asarray(x_init, dtype=float)).terminal


def teacher_solve(config: TeacherConfig, schedule: NoiseSchedule, model, x_init):
    """Reference terminal state at t_min for the given initial noise; an empty
    batch gives an empty result without integrating."""
    if np.size(x_init) == 0:
        return np.array(x_init, dtype=float)
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
    return Dataset(records=np.stack([draws, outs], axis=1), n_train=count - n_val,
                   seed=seed, teacher_kind=config.kind)


def save_dataset(dataset: Dataset, path):
    header = {"version": DATASET_VERSION, "n_train": dataset.n_train, "dim": dataset.dim,
              "seed": dataset.seed, "teacher_kind": dataset.teacher_kind}
    artifacts.write(path, _DATASET_MAGIC, header, {"records": dataset.records})


def load_dataset(path) -> Dataset:
    """Read a ``.fsd`` file; CompatibilityError naming ``path`` if it does not load."""
    header, arrays = artifacts.read(path, _DATASET_MAGIC, DATASET_VERSION)
    artifacts.require(path, header, ("dim", "n_train", "seed", "teacher_kind"))
    artifacts.require(path, arrays, ("records",), what="array")
    records = artifacts.reshaped(path, arrays["records"], (-1, 2, header["dim"]))
    n_train = header["n_train"]
    if not (isinstance(n_train, int) and 0 <= n_train <= len(records)):
        raise CompatibilityError(f"{path}: n_train {n_train!r} is not a count within "
                                 f"the {len(records)} records")
    return Dataset(records=records, n_train=n_train, seed=header["seed"],
                   teacher_kind=header["teacher_kind"])


def dataset_checksum(dataset: Dataset) -> str:
    return hashlib.sha256(np.asarray(dataset.records, dtype="<f8").tobytes()).hexdigest()

"""Learning loops: coefficients only, alternating coefficients/time steps, joint.

All three minimize the relaxed distillation objective: squared-L2 distance
between the student's terminal state started from a perturbed input and the
teacher's output for the unperturbed input, with the perturbation kept inside
a ball of radius r * tilde_sigma by projected SGD.  Coefficients and time
parameters take momentum-based adaptive steps; the perturbed inputs take
plain gradient steps followed by the radial projection; they start at the
training draws and come back as ``TrainResult.x_prime``, never written into
the dataset.  The ball radius follows r = c / m^{5/2} in the number of
parameters being learned.

A run diverges when a solve returns non-finite states or loss, or when a
time step leaves a grid that is not strictly decreasing and finite; it then
stops, restores the state at the end of the last completed epoch, and
reports ``status="diverged"``.

Evaluation always starts from fresh noise: it has no access to the perturbed
inputs, mirroring how the learned solver is used at inference time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .backprop import backward, loss_and_cotangent
from .coeffs import SolverCoefficients
from .errors import DivergenceError
from .grids import LearnableTimeParams, TimeGrid, materialize
from .schedules import NoiseSchedule
from .solvers import solve
from .teachers import Dataset, TeacherConfig, teacher_solve

TRAIN_MODES = ("s4s", "s4s-alt", "joint", "schedule-only")


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 10
    alternations: int = 8
    phase_epochs: int = 1
    batch_size: int = 20
    lr_coeffs: float = 1e-2
    lr_time: float = 1e-2
    lr_noise: float = 0.1            # multiplied by tilde_sigma
    radius_scale: float = 8.818      # c in r = c / m^{5/2}; ~0.1 at m = 6
    radius_override: float | None = None
    consistency: bool = False
    seed: int = 0


def radius_for(config: TrainConfig, n_params: int) -> float:
    if config.radius_override is not None:
        return float(config.radius_override)
    return config.radius_scale / float(n_params) ** 2.5


def _norm(diff):
    # np.vecdot (NumPy >= 2.0) matches np.linalg.norm of each row bit for bit,
    # for (d,) and (B, d) alike
    return np.sqrt(np.vecdot(diff, diff))


def project_ball(x_prime, x, r, sigma_tilde):
    """Radial projection of x_prime onto the ball of radius r*sigma_tilde about x.

    A (B, d) batch projects each row on its own; rows inside the ball are
    returned unchanged.
    """
    x_prime = np.asarray(x_prime, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = x_prime - x
    radius = r * sigma_tilde
    nrm = _norm(diff)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 only for rows kept as is
        return np.where(nrm <= radius, x_prime, x + (radius / nrm) * diff)


class Adam:
    """Minimal in-place Adam on one flat vector, with Kingma & Ba's default constants."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        values -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclasses.dataclass
class TrainResult:
    """What a training run returns.  Its per-iteration record is kept as columns,
    ``phases`` and ``losses`` (iterations, 2): an iteration's training loss, and
    the validation loss after its epoch at an epoch's last iteration (else nan);
    :attr:`history` lays them out as one dict per iteration."""

    coeffs: SolverCoefficients
    params: LearnableTimeParams | None
    grid: TimeGrid
    x_prime: np.ndarray             # (n_train, d): the perturbed inputs as the run left them
    phases: list
    losses: np.ndarray
    status: str
    r: float
    n_params: float
    projection_violations: int

    @property
    def history(self) -> list:
        """``{iteration, phase, train_loss, val_loss, r}`` per iteration, made on each access."""
        return [{"iteration": i, "phase": phase, "train_loss": train, "val_loss": val,
                 "r": self.r}
                for i, (phase, (train, val)) in enumerate(zip(self.phases, self.losses.tolist()),
                                                          start=1)]

    def _last_finite(self, column):
        finite = self.losses[np.isfinite(self.losses[:, column]), column]
        return float(finite[-1]) if finite.size else float("nan")

    @property
    def final_train_loss(self):
        return self._last_finite(0)

    @property
    def final_val_loss(self):
        return self._last_finite(1)


def _blocks_in_play(phases):
    blocks = set()
    for name, _ in phases:
        blocks.update(("coeffs", "time") if name == "both" else (name,))
    return blocks


def _train(dataset: Dataset, coeffs: SolverCoefficients,
           schedule: NoiseSchedule, model, config: TrainConfig, phases,
           grid: TimeGrid | None = None, params: LearnableTimeParams | None = None):
    coeffs = coeffs.copy()
    if params is not None:
        params = dataclasses.replace(params)    # copies xi and xi_c
    if params is None and grid is None:
        raise ValueError("training needs a fixed grid or learnable time parameters")

    blocks = _blocks_in_play(phases)
    n_params = 0
    if "coeffs" in blocks:
        n_params += coeffs.values.size
    if "time" in blocks:
        if params is None:
            raise ValueError("a time phase requires learnable time parameters")
        n_params += params.xi.size + params.xi_c.size
    n_params = max(n_params, 1)
    r = radius_for(config, n_params)
    sigma_tilde = schedule.tilde_sigma
    radius = r * sigma_tilde

    rng = np.random.default_rng(config.seed)
    n_train = dataset.n_train
    x_init, targets = dataset.x_init, dataset.teacher_out
    x_prime = x_init[:n_train].copy()
    iteration_phases, losses = [], []        # per iteration; see TrainResult
    status = "ok"
    violations = 0
    snapshot = _snapshot(coeffs, params, x_prime)

    def current_grid():
        return materialize(params, schedule) if params is not None else grid

    g = current_grid()

    def val_loss():
        if not dataset.n_val:
            return float("nan")
        out = solve(coeffs, schedule, g, model, x_init[n_train:]).terminal
        return loss_and_cotangent(out, targets[n_train:])[0]

    # per-block optimizer state persists across alternations
    adam_coeffs = Adam(coeffs.values.size, config.lr_coeffs)
    adam_xi = adam_xi_c = None
    if params is not None:
        adam_xi = Adam(params.xi.size, config.lr_time)
        adam_xi_c = Adam(params.xi_c.size, config.lr_time)

    for phase_name, phase_epochs in phases:
        for _ in range(phase_epochs):
            order = rng.permutation(n_train)
            for lo in range(0, n_train, config.batch_size):
                batch = order[lo : lo + config.batch_size]
                xp = x_prime[batch]
                try:
                    trace = solve(coeffs, schedule, g, model, xp)
                except DivergenceError:
                    status = "diverged"
                    break
                loss, cot = loss_and_cotangent(trace.terminal, targets[batch])
                if not np.isfinite(loss):
                    status = "diverged"
                    break
                res = backward(trace, coeffs, schedule, model, cot, grid=g, params=params)
                if phase_name in ("coeffs", "both"):
                    adam_coeffs.step(coeffs.values, res.grad_coeffs)
                    if config.consistency:
                        coeffs.project_sum_to_one()
                if phase_name in ("time", "both"):
                    adam_xi.step(params.xi, res.grad_xi)
                    adam_xi_c.step(params.xi_c, res.grad_xi_c)
                    try:
                        g = materialize(params, schedule)
                    except ValueError:      # the step merged grid points or left them non-finite
                        status = "diverged"
                        break
                new_xp = xp - (config.lr_noise * sigma_tilde) * res.grad_x0
                x0 = x_init[batch]
                projected = project_ball(new_xp, x0, r, sigma_tilde)
                violations += int(np.count_nonzero(_norm(projected - x0) > radius + 1e-12))
                x_prime[batch] = projected
                iteration_phases.append(phase_name)
                losses.append([loss, np.nan])
            if status != "ok":
                break
            if losses:
                losses[-1][1] = val_loss()
            snapshot = _snapshot(coeffs, params, x_prime)
        if status != "ok":
            break

    if status == "diverged":
        coeffs, params, x_prime = snapshot

    return TrainResult(coeffs=coeffs, params=params, grid=current_grid(), x_prime=x_prime,
                       phases=iteration_phases,
                       losses=np.array(losses, dtype=float).reshape(-1, 2), status=status,
                       r=r, n_params=n_params, projection_violations=violations)


def _snapshot(coeffs, params, x_prime):
    """Copies of the training state, left untouched until a divergence restores them."""
    return (coeffs.copy(), None if params is None else dataclasses.replace(params),
            x_prime.copy())


def train_s4s(dataset, coeffs, grid, schedule, model, config) -> TrainResult:
    """Learn coefficients on a fixed grid (projected SGD on the inputs)."""
    return _train(dataset, coeffs, schedule, model, config,
                  phases=[("coeffs", config.epochs)], grid=grid)


def train_schedule_only(dataset, coeffs, params, schedule, model, config) -> TrainResult:
    """Learn only the time parametrization, coefficients frozen."""
    return _train(dataset, coeffs, schedule, model, config,
                  phases=[("time", config.epochs)], params=params)


def train_s4s_alt(dataset, coeffs, params, schedule, model, config) -> TrainResult:
    """Alternate time-step and coefficient phases, sharing r and the input pool."""
    phases = []
    for _ in range(config.alternations):
        phases.append(("time", config.phase_epochs))
        phases.append(("coeffs", config.phase_epochs))
    return _train(dataset, coeffs, schedule, model, config, phases=phases, params=params)


def train_joint(dataset, coeffs, params, schedule, model, config) -> TrainResult:
    """Update coefficients and time parameters on every batch (the ablation)."""
    return _train(dataset, coeffs, schedule, model, config,
                  phases=[("both", config.epochs)], params=params)


def train_in_mode(mode: str, dataset, coeffs, grid, schedule, model, config,
                  clip_fraction: float) -> TrainResult:
    """Train with one of ``TRAIN_MODES``, starting from ``grid``.

    ``s4s`` keeps the grid fixed; every other mode learns time parameters
    initialized to reproduce it (score-time offsets clipped at
    ``clip_fraction`` of the smallest gap).
    """
    if mode == "s4s":
        return train_s4s(dataset, coeffs, grid, schedule, model, config)
    trainer = {"s4s-alt": train_s4s_alt, "joint": train_joint,
               "schedule-only": train_schedule_only}[mode]
    params = LearnableTimeParams.from_grid(grid, schedule, clip_fraction)
    return trainer(dataset, coeffs, params, schedule, model, config)


def _fresh_noise(schedule, model, n_eval, seed):
    if n_eval < 1:
        raise ValueError(f"n_eval must be >= 1, got {n_eval}")
    rng = np.random.default_rng(seed)
    return schedule.tilde_sigma * rng.standard_normal((n_eval, model.dim))


def evaluation_reference(teacher_config: TeacherConfig, schedule, model,
                         n_eval: int = 100, seed: int = 0) -> np.ndarray:
    """Teacher terminal states for the fresh noise ``evaluate`` draws from ``seed``."""
    return teacher_solve(teacher_config, schedule, model,
                         _fresh_noise(schedule, model, n_eval, seed))


def evaluate(coeffs, schedule, model, teacher_config: TeacherConfig,
             grid: TimeGrid | None = None, params: LearnableTimeParams | None = None,
             n_eval: int = 100, seed: int = 0, reference: np.ndarray | None = None) -> dict:
    """Terminal-error metrics on fresh noise (never the trained inputs), with
    ``errors``, the error of each draw, for paired comparisons on the same draws.

    ``reference``, when given, is ``evaluation_reference`` for the same
    teacher, schedule, model, ``n_eval`` and ``seed``; the teacher is then
    not run again.
    """
    if params is not None:
        grid = materialize(params, schedule)
    if grid is None:
        raise ValueError("evaluation needs a grid or time parameters")
    xs = _fresh_noise(schedule, model, n_eval, seed)
    if reference is None:
        reference = teacher_solve(teacher_config, schedule, model, xs)
    elif np.shape(reference) != xs.shape:
        raise ValueError(f"reference has shape {np.shape(reference)}, "
                         f"the evaluation draws {xs.shape}")
    trace = solve(coeffs, schedule, grid, model, xs)
    err = np.linalg.norm(trace.terminal - reference, axis=-1)
    ref_norm = np.maximum(np.linalg.norm(reference, axis=-1), 1e-12)
    return {
        "n_eval": n_eval,
        "mean_error": float(err.mean()),
        "median_error": float(np.median(err)),
        "max_error": float(err.max()),
        "mean_error_normalized": float((err / ref_norm).mean()),
        "nfe_used": trace.nfe_used,
        "errors": err.tolist(),
    }

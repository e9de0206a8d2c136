"""Learning loops: coefficients only, alternating coefficients/time steps, joint.

All three minimize the relaxed distillation objective: squared-L2 distance
between the student's terminal state started from a perturbed input and the
teacher's output for the unperturbed input, with the perturbation kept inside
a ball of radius r * tilde_sigma by projected SGD.  Coefficients and time
parameters take momentum-based adaptive steps; the perturbed inputs take
plain gradient steps followed by the radial projection, and persist with
their records.  The ball radius follows r = c / m^{5/2} in the number of
parameters being learned.

Evaluation always starts from fresh noise: it has no access to the perturbed
inputs, mirroring how the learned solver is used at inference time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .backprop import backward
from .coeffs import SolverCoefficients
from .errors import DivergenceError
from .grids import LearnableTimeParams, TimeGrid, materialize
from .schedules import NoiseSchedule
from .solvers import solve
from .teachers import Dataset, TeacherConfig, teacher_solve

LOSS_KINDS = ("l2", "l2_normalized")


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 10
    alternations: int = 8
    phase_epochs: int = 1
    batch_size: int = 20
    lr_coeffs: float = 1e-2
    lr_time: float = 1e-2
    lr_noise: float = 0.1            # multiplied by tilde_sigma
    loss: str = "l2"
    radius_scale: float = 8.818      # c in r = c / m^{5/2}; ~0.1 at m = 6
    radius_override: float | None = None
    consistency: bool = False
    seed: int = 0
    h_mode: str = "lambda"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")


def radius_for(config: TrainConfig, n_params: int) -> float:
    if config.radius_override is not None:
        return float(config.radius_override)
    return config.radius_scale / float(n_params) ** 2.5


def project_ball(x_prime, x, r, sigma_tilde):
    """Radial projection of x_prime onto the ball of radius r*sigma_tilde about x."""
    x_prime = np.asarray(x_prime, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = x_prime - x
    radius = r * sigma_tilde
    if diff.ndim == 1:
        nrm = float(np.linalg.norm(diff))
        if nrm <= radius:
            return x_prime.copy()
        return x + (radius / nrm) * diff
    nrm = np.linalg.norm(diff, axis=-1, keepdims=True)
    scale = np.where(nrm > radius, radius / np.maximum(nrm, 1e-300), 1.0)
    return x + diff * scale


def loss_and_cotangent(outputs, targets, kind: str):
    resid = outputs - targets
    if kind == "l2":
        loss = float(np.mean(resid * resid))
        return loss, 2.0 * resid / resid.size
    denom = np.mean(targets * targets, axis=-1, keepdims=True) + 1e-12
    per = np.mean(resid * resid, axis=-1, keepdims=True) / denom
    loss = float(np.mean(per))
    b = outputs.shape[0] if outputs.ndim > 1 else 1
    return loss, 2.0 * resid / (resid.shape[-1] * denom * b)


class Adam:
    """Minimal in-place Adam on one flat vector."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
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
    coeffs: SolverCoefficients
    params: LearnableTimeParams | None
    grid: TimeGrid
    history: list
    status: str
    r: float
    n_params: float
    projection_violations: int

    @property
    def final_train_loss(self):
        rows = [h["train_loss"] for h in self.history if np.isfinite(h["train_loss"])]
        return rows[-1] if rows else float("nan")

    @property
    def final_val_loss(self):
        rows = [h["val_loss"] for h in self.history if np.isfinite(h["val_loss"])]
        return rows[-1] if rows else float("nan")


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
        params = LearnableTimeParams(params.xi.copy(), params.xi_c.copy(),
                                     params.clip_fraction)
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
    train = dataset.train_records
    history: list = []
    status = "ok"
    violations = 0
    iteration = 0
    snapshot = _snapshot(coeffs, params, train)

    def current_grid():
        return materialize(params, schedule) if params is not None else grid

    def val_loss():
        if not dataset.val_records:
            return float("nan")
        g = current_grid()
        xs = np.stack([rec.x_init for rec in dataset.val_records])
        ys = np.stack([rec.teacher_out for rec in dataset.val_records])
        out = solve(coeffs, schedule, g, model, xs, h_mode=config.h_mode).terminal
        return loss_and_cotangent(out, ys, config.loss)[0]

    # per-block optimizer state persists across alternations
    adam_coeffs = Adam(coeffs.values.size, config.lr_coeffs,
                       config.adam_beta1, config.adam_beta2, config.adam_eps)
    adam_xi = adam_xi_c = None
    if params is not None:
        adam_xi = Adam(params.xi.size, config.lr_time, config.adam_beta1,
                       config.adam_beta2, config.adam_eps)
        adam_xi_c = Adam(params.xi_c.size, config.lr_time, config.adam_beta1,
                         config.adam_beta2, config.adam_eps)

    for phase_name, phase_epochs in phases:
        for _ in range(phase_epochs):
            order = rng.permutation(len(train))
            for lo in range(0, len(train), config.batch_size):
                batch = [train[idx] for idx in order[lo : lo + config.batch_size]]
                xp = np.stack([rec.x_prime for rec in batch])
                targets = np.stack([rec.teacher_out for rec in batch])
                g = current_grid()
                try:
                    trace = solve(coeffs, schedule, g, model, xp, h_mode=config.h_mode)
                except DivergenceError:
                    status = "diverged"
                    break
                loss, cot = loss_and_cotangent(trace.terminal, targets, config.loss)
                if not np.isfinite(loss):
                    status = "diverged"
                    break
                res = backward(trace, coeffs, schedule, model, cot,
                               grid=None if params is not None else grid,
                               params=params, loss_value=loss)
                if phase_name in ("coeffs", "both"):
                    adam_coeffs.step(coeffs.values, res.grad_coeffs)
                    if config.consistency:
                        coeffs.project_sum_to_one()
                if phase_name in ("time", "both"):
                    adam_xi.step(params.xi, res.grad_xi)
                    adam_xi_c.step(params.xi_c, res.grad_xi_c)
                new_xp = xp - (config.lr_noise * sigma_tilde) * res.grad_x0
                for row, rec in enumerate(batch):
                    projected = project_ball(new_xp[row], rec.x_init, r, sigma_tilde)
                    if np.linalg.norm(projected - rec.x_init) > radius + 1e-12:
                        violations += 1
                    rec.x_prime = projected
                iteration += 1
                history.append({"iteration": iteration, "phase": phase_name,
                                "train_loss": loss, "val_loss": float("nan"), "r": r})
            if status != "ok":
                break
            if history:
                history[-1]["val_loss"] = val_loss()
            snapshot = _snapshot(coeffs, params, train)
        if status != "ok":
            break

    if status == "diverged":
        _restore(snapshot, coeffs, params, train)

    return TrainResult(coeffs=coeffs, params=params, grid=current_grid(),
                       history=history, status=status, r=r, n_params=n_params,
                       projection_violations=violations)


def _snapshot(coeffs, params, train):
    return (coeffs.values.copy(),
            None if params is None else (params.xi.copy(), params.xi_c.copy()),
            [rec.x_prime.copy() for rec in train])


def _restore(snapshot, coeffs, params, train):
    values, time_state, primes = snapshot
    coeffs.values[:] = values
    if params is not None and time_state is not None:
        params.xi[:] = time_state[0]
        params.xi_c[:] = time_state[1]
    for rec, saved in zip(train, primes):
        rec.x_prime = saved


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


def _fresh_noise(schedule, model, n_eval, seed):
    rng = np.random.default_rng(seed)
    return schedule.tilde_sigma * rng.standard_normal((n_eval, model.dim))


def evaluation_reference(teacher_config: TeacherConfig, schedule, model,
                         n_eval: int = 100, seed: int = 0) -> np.ndarray:
    """Teacher terminal states for the fresh noise ``evaluate`` draws from ``seed``."""
    return teacher_solve(teacher_config, schedule, model,
                         _fresh_noise(schedule, model, n_eval, seed))


def evaluate(coeffs, schedule, model, teacher_config: TeacherConfig,
             grid: TimeGrid | None = None, params: LearnableTimeParams | None = None,
             n_eval: int = 100, seed: int = 0, h_mode: str = "lambda",
             reference: np.ndarray | None = None) -> dict:
    """Terminal-error metrics on fresh noise (never the trained inputs).

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
    trace = solve(coeffs, schedule, grid, model, xs, h_mode=h_mode)
    err = np.linalg.norm(trace.terminal - reference, axis=-1)
    ref_norm = np.maximum(np.linalg.norm(reference, axis=-1), 1e-12)
    return {
        "n_eval": n_eval,
        "mean_error": float(err.mean()),
        "median_error": float(np.median(err)),
        "max_error": float(err.max()),
        "mean_error_normalized": float((err / ref_norm).mean()),
        "nfe_used": trace.nfe_used,
    }

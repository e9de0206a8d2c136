"""Experiment configuration: a versioned JSON tree with strict validation.

Every run is described by one config document; all randomness derives from
its single seed.  Unknown or ill-typed keys fail loudly with the offending
key named, and a parsed config serializes back to the identical document.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from . import artifacts
from .coeffs import KINDS, PREDICTIONS, _canon_preset
from .errors import ConfigError
from .grids import GRID_KINDS
from .schedules import SCHEDULE_KINDS, NoiseSchedule
from .scores import GaussianMixtureScore, default_mixture
from .teachers import TeacherConfig
from .training import TrainConfig

CONFIG_VERSION = 1


@dataclasses.dataclass
class ScheduleSpec:
    kind: str = "ve"
    T: float | None = None
    t_min: float | None = None
    tilde_sigma: float | None = None
    beta_min: float | None = None
    beta_max: float | None = None


@dataclasses.dataclass
class ModelSpec:
    kind: str = "gaussian_mixture"       # or "isotropic_gaussian"
    dim: int = 2
    scale: float = 1.0                   # isotropic_gaussian only
    weights: list | None = None          # gaussian_mixture overrides
    means: list | None = None
    scales: list | None = None


@dataclasses.dataclass
class SolverSpec:
    kind: str = "lms"
    order: int = 3
    preset: str = "ipndm"
    prediction: str = "noise"
    tied: bool = False


@dataclasses.dataclass
class GridSpec:
    kind: str = "logsnr"
    rho: float = 7.0
    clip_fraction: float = 0.5


@dataclasses.dataclass
class DatasetSpec:
    n_train: int = 700
    n_val: int = 200


@dataclasses.dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    seed: int = 0
    schedule: ScheduleSpec = dataclasses.field(default_factory=ScheduleSpec)
    model: ModelSpec = dataclasses.field(default_factory=ModelSpec)
    solver: SolverSpec = dataclasses.field(default_factory=SolverSpec)
    grid: GridSpec = dataclasses.field(default_factory=GridSpec)
    teacher: TeacherConfig = dataclasses.field(default_factory=TeacherConfig)
    dataset: DatasetSpec = dataclasses.field(default_factory=DatasetSpec)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    nfe_list: list = dataclasses.field(default_factory=lambda: [4, 6, 8])


_SECTIONS = {
    "schedule": ScheduleSpec,
    "model": ModelSpec,
    "solver": SolverSpec,
    "grid": GridSpec,
    "teacher": TeacherConfig,
    "dataset": DatasetSpec,
    "train": TrainConfig,
}


def _parse_section(cls, payload, path):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {path!r} must be a mapping", key=path)
    fields = {f.name for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in fields:
            raise ConfigError(f"unknown key {path}.{key}", key=f"{path}.{key}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {path!r}: {exc}", key=path) from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}", key="version")
    known = {"version", "seed", "nfe_list"} | set(_SECTIONS)
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown key {key}", key=key)
    kwargs = {"version": version, "seed": doc.get("seed", 0),
              "nfe_list": list(doc.get("nfe_list", [4, 6, 8]))}
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _parse_section(cls, doc[name], name)
    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path):
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    artifacts.write_atomic(path, text.encode())


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def validate_config(cfg: ExperimentConfig):
    if cfg.schedule.kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule.kind {cfg.schedule.kind!r}", key="schedule.kind")
    if cfg.model.kind not in ("gaussian_mixture", "isotropic_gaussian"):
        raise ConfigError(f"unknown model.kind {cfg.model.kind!r}", key="model.kind")
    if cfg.model.dim < 1:
        raise ConfigError("model.dim must be >= 1", key="model.dim")
    if cfg.solver.kind not in KINDS:
        raise ConfigError(f"unknown solver.kind {cfg.solver.kind!r}", key="solver.kind")
    if cfg.solver.prediction not in PREDICTIONS:
        raise ConfigError(f"unknown solver.prediction {cfg.solver.prediction!r}",
                          key="solver.prediction")
    try:
        _canon_preset(cfg.solver.preset)
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"solver.preset: {exc}", key="solver.preset") from None
    if cfg.solver.order < 1:
        raise ConfigError("solver.order must be >= 1", key="solver.order")
    if cfg.grid.kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid.kind {cfg.grid.kind!r}", key="grid.kind")
    if cfg.dataset.n_train < 1:
        raise ConfigError("dataset.n_train must be >= 1", key="dataset.n_train")
    if cfg.dataset.n_val < 0:
        raise ConfigError("dataset.n_val must be >= 0", key="dataset.n_val")
    if not cfg.nfe_list or any(n < 1 for n in cfg.nfe_list):
        raise ConfigError("nfe_list must hold positive step counts", key="nfe_list")


# -- builders ---------------------------------------------------------------

def build_schedule(spec: ScheduleSpec) -> NoiseSchedule:
    cls = SCHEDULE_KINDS[spec.kind]
    kwargs = {}
    for name in ("T", "t_min", "tilde_sigma"):
        value = getattr(spec, name)
        if value is not None:
            kwargs[name] = value
    if spec.kind == "vp_linear":
        if spec.beta_min is not None:
            kwargs["beta_min"] = spec.beta_min
        if spec.beta_max is not None:
            kwargs["beta_max"] = spec.beta_max
    return cls(**kwargs)


def build_model(spec: ModelSpec) -> GaussianMixtureScore:
    if spec.kind == "isotropic_gaussian":
        return GaussianMixtureScore.isotropic(spec.dim, scale=spec.scale)
    if spec.weights is None:
        return default_mixture(spec.dim)
    return GaussianMixtureScore(
        weights=np.asarray(spec.weights, dtype=float),
        means=np.asarray(spec.means, dtype=float),
        scales=np.asarray(spec.scales, dtype=float),
    )


def build_teacher(spec: TeacherConfig) -> TeacherConfig:
    """The config's teacher section is already the teacher configuration; kept
    beside the other builders for callers outside the package."""
    return spec

"""Few-step probability-flow ODE solvers with learned coefficients and time steps.

The package factors into: noise schedules and log-SNR transforms
(:mod:`~fewstep.schedules`), analytic score models (:mod:`~fewstep.scores`),
time discretizations (:mod:`~fewstep.grids`), the generalized solver family
(:mod:`~fewstep.coeffs`, :mod:`~fewstep.solvers`), reverse-mode gradients
(:mod:`~fewstep.backprop`), reference teachers (:mod:`~fewstep.teachers`),
the distillation trainers (:mod:`~fewstep.training`), the experiment
harness (:mod:`~fewstep.configs`, :mod:`~fewstep.experiments`,
:mod:`~fewstep.cli`), and the one file writer and artifact container they
all use (:mod:`~fewstep.artifacts`).
"""

from .backprop import AdjointResult, backward, check_gradients
from .coeffs import SolverCoefficients, init_preset, table_param_count
from .grids import LearnableTimeParams, TimeGrid, grid_gradient_vjp, heuristic_grid, materialize
from .schedules import EdmSchedule, NoiseSchedule, VeSchedule, VpLinearSchedule, phi_functions
from .scores import GaussianMixtureScore, default_mixture
from .solvers import SolveTrace, solve
from .teachers import (Dataset, TeacherConfig, generate_dataset, load_dataset,
                       save_dataset, teacher_solve)
from .training import (TrainConfig, TrainResult, evaluate, evaluation_reference,
                       project_ball, train_in_mode, train_joint, train_s4s, train_s4s_alt,
                       train_schedule_only)

__version__ = "0.1.0"

__all__ = [
    "AdjointResult", "backward", "check_gradients",
    "SolverCoefficients", "init_preset", "table_param_count",
    "LearnableTimeParams", "TimeGrid", "grid_gradient_vjp", "heuristic_grid", "materialize",
    "EdmSchedule", "NoiseSchedule", "VeSchedule", "VpLinearSchedule", "phi_functions",
    "GaussianMixtureScore", "default_mixture",
    "SolveTrace", "solve",
    "Dataset", "TeacherConfig", "generate_dataset",
    "load_dataset", "save_dataset", "teacher_solve",
    "TrainConfig", "TrainResult", "evaluate", "evaluation_reference", "project_ball",
    "train_in_mode", "train_joint", "train_s4s", "train_s4s_alt", "train_schedule_only",
    "__version__",
]

"""Learnable solver coefficients: layout, parameter counts, and classical presets.

Three solver families share one update wrapper (see solvers.py) and differ in
how the increment is formed from score evaluations:

* ``lms``  — weights b over the last min(k, i) cached evaluations; rows are
  triangular during warmup, giving k(2N+1-k)/2 parameters total.
* ``ss``   — per step: k stage-combination weights b, k-1 learnable stage
  time offsets (the first stage sits at the step start), and a stage-mixing
  matrix stored as k x (k-1); row j of the matrix feeds stage j from stages
  l < j, so entries l >= j are structurally inert.  Total (k^2+k-1)N.
* ``pc``   — an lms predictor plus, per step, a corrector row over the pool
  {new evaluation at t_i} + {the predictor's cached evaluations}.  Each
  corrector row stores min(k, i) free weights; the weight on the oldest pool
  entry is implied by the rows summing to 1, which keeps the total at
  k(2N+1-k) while letting the corrector span the full pool.

Flat layout (one float64 vector) so optimizers and checkpoints stay simple;
the index map documents every slice.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import StateError
from .grids import TimeGrid
from .schedules import GL_NODES, GL_WEIGHTS, NoiseSchedule, phi_functions

KINDS = ("lms", "ss", "pc")
PREDICTIONS = ("noise", "data")
PRESETS = ("ipndm", "dpmpp", "unipc", "adams_bashforth", "gaussian")

_PRESET_ALIASES = {
    "ipndm-like": "ipndm",
    "dpmppm-like": "dpmpp",
    "dpmpp-like": "dpmpp",
    "unipc-like": "unipc",
    "adamsbashforth": "adams_bashforth",
    "adams-bashforth": "adams_bashforth",
    "gaussian-random": "gaussian",
}

# Post-warmup multistep constants of the classical k-step family.
_CLASSICAL_AB = {
    1: np.array([1.0]),
    2: np.array([3.0, -1.0]) / 2.0,
    3: np.array([23.0, -16.0, 5.0]) / 12.0,
    4: np.array([55.0, -59.0, 37.0, -9.0]) / 24.0,
}


def table_param_count(kind: str, order: int, n_steps: int) -> int:
    """Learnable-parameter count for an untied solver of the given family."""
    k, n = order, n_steps
    if kind == "lms":
        return k * (2 * n + 1 - k) // 2
    if kind == "ss":
        return (k * k + k - 1) * n
    if kind == "pc":
        return k * (2 * n + 1 - k)
    raise ValueError(f"unknown solver kind {kind!r}")


@dataclasses.dataclass
class SolverCoefficients:
    """Flat parameter vector plus the slicing logic for one solver family."""

    kind: str
    order: int
    n_steps: int
    prediction: str = "noise"
    tied: bool = False
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.prediction not in PREDICTIONS:
            raise ValueError(f"unknown prediction type {self.prediction!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.order > self.n_steps:
            raise ValueError(
                f"order {self.order} exceeds step count {self.n_steps}"
            )
        if self.tied and self.kind != "lms":
            raise ValueError("tied coefficients are only supported for lms")
        expected = self.param_count()
        if self.values is None:
            self.values = np.zeros(expected)
        else:
            self.values = np.asarray(self.values, dtype=float).copy()
            if self.values.shape != (expected,):
                raise ValueError(
                    f"values has shape {self.values.shape}, expected ({expected},)"
                )

    # -- sizes -------------------------------------------------------------
    def q(self, i: int) -> int:
        """History length available at step i (1-based)."""
        if not 1 <= i <= self.n_steps:
            raise StateError(f"step index {i} outside 1..{self.n_steps}")
        return min(self.order, i)

    def param_count(self) -> int:
        if self.tied:
            # per-step warmup rows, one shared post-warmup row
            return self.order * (self.order - 1) // 2 + self.order
        return table_param_count(self.kind, self.order, self.n_steps)

    # -- slices into the flat vector ----------------------------------------
    def _lms_offset(self, i: int) -> int:
        k = self.order
        if self.tied:
            return min(i - 1, k - 1) * (min(i - 1, k - 1) + 1) // 2 if i <= k else k * (k - 1) // 2
        if i <= k:
            return (i - 1) * i // 2
        return k * (k - 1) // 2 + (i - k) * k

    def b_slice(self, i: int) -> slice:
        """Predictor weights at step i: entry j weights the (j+1)-th most recent evaluation."""
        off = self._lms_offset(i)
        return slice(off, off + self.q(i))

    def corrector_slice(self, i: int) -> slice:
        """Free corrector weights at step i: [new evaluation, then most recent cached]."""
        if self.kind != "pc":
            raise StateError("corrector rows exist only for pc solvers")
        base = table_param_count("lms", self.order, self.n_steps)
        off = base + self._lms_offset(i)
        return slice(off, off + self.q(i))

    def _ss_block(self, i: int) -> int:
        k = self.order
        return (i - 1) * (k * k + k - 1)

    def ss_b_slice(self, i: int) -> slice:
        off = self._ss_block(i)
        return slice(off, off + self.order)

    def ss_c_slice(self, i: int) -> slice:
        """Stage time offsets for stages 2..k (stage 1 sits at the step start)."""
        off = self._ss_block(i) + self.order
        return slice(off, off + self.order - 1)

    def ss_a_slice(self, i: int) -> slice:
        off = self._ss_block(i) + 2 * self.order - 1
        return slice(off, off + self.order * (self.order - 1))

    def ss_a_matrix(self, i: int) -> np.ndarray:
        """Stage-mixing matrix view (k, k-1); row j uses its first j-1 entries."""
        k = self.order
        return self.values[self.ss_a_slice(i)].reshape(k, max(k - 1, 0))

    # -- derived weights ------------------------------------------------------
    def corrector_weights(self, i: int) -> np.ndarray:
        """Full corrector pool weights, oldest entry implied by the unit sum."""
        free = self.values[self.corrector_slice(i)]
        return np.concatenate([free, [1.0 - free.sum()]])

    def project_sum_to_one(self, tol: float = 1e-8):
        """Renormalize each combination row to sum to 1 (consistency projection)."""
        rows = []
        if self.kind in ("lms", "pc"):
            rows = [self.b_slice(i) for i in range(1, self.n_steps + 1)]
        elif self.kind == "ss":
            rows = [self.ss_b_slice(i) for i in range(1, self.n_steps + 1)]
        for sl in rows:
            total = self.values[sl].sum()
            if abs(total) > tol:
                self.values[sl] /= total

    # -- bookkeeping ----------------------------------------------------------
    def index_map(self) -> list[dict]:
        """Explicit layout description, serialized into checkpoints."""
        entries = []
        if self.kind in ("lms", "pc"):
            for i in range(1, self.n_steps + 1):
                sl = self.b_slice(i)
                entries.append({"name": "b", "step": i, "start": sl.start, "stop": sl.stop})
            if self.kind == "pc":
                for i in range(1, self.n_steps + 1):
                    sl = self.corrector_slice(i)
                    entries.append(
                        {"name": "corrector", "step": i, "start": sl.start, "stop": sl.stop,
                         "note": "oldest pool weight = 1 - sum(row)"}
                    )
        else:
            for i in range(1, self.n_steps + 1):
                for name, sl in (("b", self.ss_b_slice(i)), ("c", self.ss_c_slice(i)),
                                 ("a", self.ss_a_slice(i))):
                    entries.append({"name": name, "step": i, "start": sl.start, "stop": sl.stop})
        return entries

    def copy(self) -> "SolverCoefficients":
        return SolverCoefficients(
            kind=self.kind, order=self.order, n_steps=self.n_steps,
            prediction=self.prediction, tied=self.tied, values=self.values.copy(),
        )


# ---------------------------------------------------------------------------
# Preset weight construction
# ---------------------------------------------------------------------------


def _lagrange_row(past_lams: np.ndarray, lam_lo: float, lam_hi: float, mode: str) -> np.ndarray:
    """Integrate each Lagrange basis over [lam_lo, lam_hi] against the wrapper weight.

    past_lams are the interpolation nodes, most recent first (past_lams[0] =
    lam_lo).  Modes: 'flat' divides by the step h (classical multistep),
    'exp_noise'/'exp_data' divide by the wrapper factor so the row plugs
    directly into the solver increment.
    """
    h = lam_hi - lam_lo
    mid, half = 0.5 * (lam_lo + lam_hi), 0.5 * h
    lams = mid + half * GL_NODES
    basis = np.ones((len(past_lams), len(lams)))
    for j, node in enumerate(past_lams):
        for m, other in enumerate(past_lams):
            if m != j:
                basis[j] *= (lams - other) / (node - other)
    if mode == "flat":
        weight, norm = np.ones_like(lams), h
    elif mode == "exp_noise":
        weight, norm = np.exp(lam_hi - lams), np.expm1(h)
    elif mode == "exp_data":
        weight, norm = np.exp(lams - lam_hi), -np.expm1(-h)
    else:
        raise ValueError(f"unknown Lagrange mode {mode!r}")
    return basis @ (weight * GL_WEIGHTS) * half / norm


def _phi_ratio_rhs(h: float, count: int) -> np.ndarray:
    """g_i = i! h phi_{i+1}(h) / (e^h - 1) for i = 1..count."""
    phis = phi_functions(h, count + 1)
    fact = 1.0
    out = np.empty(count)
    for i in range(1, count + 1):
        fact *= i
        out[i - 1] = fact * h * phis[i] / np.expm1(h)
    return out


def _unified_predictor_row(past_lams: np.ndarray, lam_next: float,
                           prediction: str = "noise") -> np.ndarray:
    """Predictor weights of the phi-function linear-system family (order q).

    The data-prediction form solves against the phi functions of -h (UniPC,
    Zhao et al. 2023), as its increment integrates against e^{lam - lam_next}.
    """
    q = len(past_lams)
    h = lam_next - past_lams[0]
    if q == 1:
        return np.array([1.0])
    r = (past_lams[1:] - past_lams[0]) / h            # (q-1,) negative ratios
    powers = np.vander(r, q - 1, increasing=True).T   # rows r^0 .. r^{q-2}
    a = np.linalg.solve(powers, _phi_ratio_rhs(h if prediction == "noise" else -h, q - 1))
    row = np.empty(q)
    row[0] = 1.0 - np.sum(a / r)
    row[1:] = a / r
    return row


def _unified_corrector_pool(past_lams: np.ndarray, lam_next: float,
                            prediction: str = "noise") -> np.ndarray:
    """Corrector pool weights [new, recent, ..., oldest], summing to 1 exactly;
    -h for data prediction, as in :func:`_unified_predictor_row`."""
    q = len(past_lams)
    h = lam_next - past_lams[0]
    hh = h if prediction == "noise" else -h
    if q == 1:
        a = _phi_ratio_rhs(hh, 1)
        return np.array([a[0], 1.0 - a[0]])
    r = (past_lams[1:] - past_lams[0]) / h
    rks = np.concatenate([r, [1.0]])
    powers = np.vander(rks, q, increasing=True).T
    a = np.linalg.solve(powers, _phi_ratio_rhs(hh, q))
    w_new = a[-1]
    w_older = a[:-1] / r
    w_recent = 1.0 - w_older.sum() - w_new
    return np.concatenate([[w_new, w_recent], w_older])


def _canon_preset(preset: str) -> str:
    key = preset.strip().lower()
    key = _PRESET_ALIASES.get(key, key)
    if key not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    return key


def init_preset(
    kind: str,
    order: int,
    n_steps: int,
    preset: str,
    schedule: NoiseSchedule | None = None,
    grid: TimeGrid | None = None,
    prediction: str = "noise",
    seed: int | None = None,
    tied: bool = False,
) -> SolverCoefficients:
    """Coefficients reproducing a named classical solver on the given grid.

    Grid-dependent presets derive each row from the actual log-SNR nodes
    (Lagrange construction), so they stay faithful on non-uniform grids.
    'gaussian' draws every learnable entry i.i.d. standard normal.
    """
    preset = _canon_preset(preset)
    coeffs = SolverCoefficients(kind=kind, order=order, n_steps=n_steps,
                                prediction=prediction, tied=tied)
    if preset == "gaussian":
        rng = np.random.default_rng(seed)
        coeffs.values[:] = rng.standard_normal(coeffs.values.shape)
        return coeffs

    if tied:
        if preset != "ipndm":
            raise ValueError("tied mode requires grid-independent rows; use preset 'ipndm'")
        for i in range(1, order + 1):
            coeffs.values[coeffs.b_slice(i)] = _CLASSICAL_AB[i]
        return coeffs

    if schedule is None or grid is None:
        raise ValueError(f"preset {preset!r} needs a schedule and a grid")
    if grid.n_steps != n_steps:
        raise ValueError(f"grid has {grid.n_steps} steps, expected {n_steps}")
    lams = grid.lambdas(schedule)

    if kind == "ss":
        _init_ss_preset(coeffs, preset, schedule, lams)
        return coeffs

    for i in range(1, n_steps + 1):
        q = coeffs.q(i)
        past = lams[i - 1 :: -1][:q]
        coeffs.values[coeffs.b_slice(i)] = _preset_lms_row(preset, past, lams[i], q, prediction)

    if kind == "pc":
        for i in range(1, n_steps + 1):
            q = coeffs.q(i)
            if preset == "unipc":
                pool = _unified_corrector_pool(lams[i - 1 :: -1][:q], lams[i], prediction)
                coeffs.values[coeffs.corrector_slice(i)] = pool[:-1]
            else:
                # degenerate corrector: no weight on the new evaluation, the
                # predictor row shifted in; exact LMS for unit-sum predictors
                row = coeffs.values[coeffs.b_slice(i)]
                free = np.concatenate([[0.0], row[: q - 1]])
                coeffs.values[coeffs.corrector_slice(i)] = free
    return coeffs


def _preset_lms_row(preset, past_lams, lam_next, q, prediction):
    if preset == "ipndm":
        if q > 4:
            raise ValueError("the classical constant-coefficient preset stops at order 4")
        return _CLASSICAL_AB[q].copy()
    if preset == "adams_bashforth":
        return _lagrange_row(past_lams, past_lams[0], lam_next, f"exp_{prediction}")
    if preset == "dpmpp":
        return _lagrange_row(past_lams, past_lams[0], lam_next, "flat")
    if preset == "unipc":
        return _unified_predictor_row(past_lams, lam_next, prediction)
    raise ValueError(f"preset {preset!r} is not defined for multistep rows")


def _init_ss_preset(coeffs, preset, schedule, lams):
    if preset != "dpmpp":
        raise ValueError(f"preset {preset!r} is incompatible with single-step solvers")
    if coeffs.prediction != "noise":
        raise ValueError("the midpoint single-step preset is defined for noise prediction")
    if coeffs.order > 2:
        raise ValueError("the midpoint single-step preset stops at order 2")
    hs = np.diff(lams)
    sigma_mid = schedule.sigma(schedule.time_from_lambda(lams[:-1] + 0.5 * hs))
    for i in range(1, coeffs.n_steps + 1):
        b = coeffs.values[coeffs.ss_b_slice(i)]
        if coeffs.order == 1:
            b[:] = [1.0]
            continue
        h = hs[i - 1]
        b[:] = [0.0, 1.0]
        coeffs.values[coeffs.ss_c_slice(i)] = [0.5 * h]
        amat = coeffs.ss_a_matrix(i)
        amat[1, 0] = -float(sigma_mid[i - 1]) * np.expm1(0.5 * h)

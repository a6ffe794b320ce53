"""Non-negative matrix factorization of voxel feature maps.

Factorizes A (M x d) into H (M x r) and W (r x d), both entrywise
non-negative, minimizing the squared Frobenius residual. Rows of W act as
concept vectors; row sums of H give the per-voxel concept activation used
as the global activation map.

The solver is coordinate descent (HALS: each factor column solved exactly
in closed form and clipped at zero), run as seeded multi-starts under one
iteration budget: a start that stalls without improving on the best
result ends the search, otherwise a fresh seeded start begins. The
reported objective history is the best value seen after each sweep, so it
is non-increasing; within any single start the sweep objective itself is
non-increasing as well.

``relative_tolerance`` (tol) sets both stop rules of a start. A start
ends after a sweep whose objective is at most tol * ||A||^2 (the fit
floor), or whose decrease from the previous sweep is below tol times the
previous objective (a stall). Reaching the floor solves the whole
search: no further starts and no polish follow. HALS reaches a close
fit in a few sweeps long before its iterates settle, so without the
floor a near-exact fit would keep shaving ~20% off a tiny objective
until the budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeInput, RankTooLarge

_DIV_EPS = 1e-12


@dataclass(frozen=True)
class NmfConfig:
    """Factorization knobs; ``seed`` makes runs bit-reproducible.

    ``relative_tolerance`` bounds both the residual (a start stops, and the
    search is solved, once the objective is at most that fraction of
    ||A||^2) and the per-sweep decrease (a start stops once a sweep lowers
    the objective by less than that fraction of its previous value).
    """

    r: int = 64
    max_iterations: int = 200
    relative_tolerance: float = 1e-5
    seed: int = 0
    clamp_negatives: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be > 0")


@dataclass
class Factorization:
    """Non-negative pair H (M x r), W (r x d) with fit diagnostics."""

    h: np.ndarray
    w: np.ndarray
    r: int
    iterations_run: int
    final_objective: float
    objective_history: np.ndarray = field(repr=False, default=None)


def _objective(a, h, w):
    diff = a - h @ w
    return float(np.sum(diff * diff))


def _seeded_init(a, r, seed, start):
    """Uniform (0,1) factors scaled to match A's magnitude."""
    rng = np.random.default_rng((seed, start))
    scale = np.sqrt(a.mean() / r)
    h = rng.uniform(size=(a.shape[0], r)) * scale
    w = rng.uniform(size=(r, a.shape[1])) * scale
    return h, w


def _hals_sweep(a, h, w):
    """One pass of exact per-column updates, W rows then H columns."""
    hth = h.T @ h
    hta = h.T @ a
    for j in range(w.shape[0]):
        num = hta[j] - hth[j] @ w + hth[j, j] * w[j]
        w[j] = np.maximum(num / max(hth[j, j], _DIV_EPS), 0.0)
    wwt = w @ w.T
    awt = a @ w.T
    for j in range(h.shape[1]):
        num = awt[:, j] - h @ wwt[:, j] + wwt[j, j] * h[:, j]
        h[:, j] = np.maximum(num / max(wwt[j, j], _DIV_EPS), 0.0)
    return h, w


def factorize(a: np.ndarray, cfg: NmfConfig) -> Factorization:
    """Factorize a non-negative matrix into r non-negative concepts.

    Deterministic given (A, cfg). A start ends after a sweep whose
    objective is at most ``cfg.relative_tolerance * ||A||^2``, which also
    ends the search, or whose relative decrease falls below
    ``cfg.relative_tolerance``; the budget of ``cfg.max_iterations``
    sweeps is shared across starts and the polish of the best factors.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if np.any(a < 0):
        if not cfg.clamp_negatives:
            raise NegativeInput(
                "matrix has negative entries; set clamp_negatives to zero them"
            )
        a = np.maximum(a, 0.0)
    m, d = a.shape
    if cfg.r > min(m, d):
        raise RankTooLarge(f"r={cfg.r} exceeds min(M, d)={min(m, d)}")

    state = _SearchState(a, cfg)
    # One slow start must not starve the rest of the budget.
    per_start_cap = max(32, cfg.max_iterations // 4)
    start = 0
    while state.budget_left() > 0:
        h, w = _seeded_init(a, cfg.r, cfg.seed, start)
        init_obj = _objective(a, h, w)
        if start == 0:
            state.offer(init_obj, h, w)
            state.history.append(state.best_obj)
        best_before = state.best_obj
        state.run(h, w, init_obj, per_start_cap)
        if state.solved():
            break
        if start > 0 and state.best_obj >= best_before - cfg.relative_tolerance * max(
            best_before, _DIV_EPS
        ):
            break  # no material improvement; further seeds are unlikely to help
        start += 1
    # Spend any remaining budget polishing the best factors found.
    if state.budget_left() > 0 and not state.solved():
        h, w = state.best_h.copy(), state.best_w.copy()
        state.run(h, w, state.best_obj, state.budget_left())

    return Factorization(
        h=state.best_h,
        w=state.best_w,
        r=cfg.r,
        iterations_run=state.iterations,
        final_objective=state.best_obj,
        objective_history=np.array(state.history),
    )


class _SearchState:
    """Best-so-far bookkeeping shared by the start and polish phases."""

    def __init__(self, a, cfg):
        self.a = a
        self.cfg = cfg
        self.floor = cfg.relative_tolerance * float(np.sum(a * a))
        self.best_obj = np.inf
        self.best_h = None
        self.best_w = None
        self.history: list[float] = []
        self.iterations = 0

    def budget_left(self) -> int:
        return self.cfg.max_iterations - self.iterations

    def solved(self) -> bool:
        return self.best_obj <= self.floor

    def offer(self, obj, h, w):
        if obj < self.best_obj:
            self.best_obj, self.best_h, self.best_w = obj, h.copy(), w.copy()

    def run(self, h, w, prev_obj, cap):
        """Sweep until the fit floor, a stall, the cap, or the budget end;
        returns the last objective."""
        a = self.a
        prev = prev_obj
        for _ in range(min(cap, self.budget_left())):
            h, w = _hals_sweep(a, h, w)
            self.iterations += 1
            obj = _objective(a, h, w)
            self.offer(obj, h, w)
            self.history.append(self.best_obj)
            stalled = prev - obj < self.cfg.relative_tolerance * max(prev, _DIV_EPS)
            if obj <= self.floor or stalled:
                return obj
            prev = obj
        return prev


def global_concept_map(f: Factorization) -> np.ndarray:
    """Per-voxel sum of concept weights (row sums of H)."""
    return f.h.sum(axis=1)

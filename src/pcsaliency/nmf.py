"""Non-negative matrix factorization of voxel feature maps.

Factorizes A (M x d) into H (M x r) and W (r x d), both entrywise
non-negative, minimizing the squared Frobenius residual. Rows of W act as
concept vectors. The global activation map weights each voxel's concept
activations (a row of H) by the l2 norms of the concept vectors. HW is
unchanged under H -> HD, W -> D^-1 W for any positive diagonal D; the map
is too, so it does not hinge on which of those equal optima a seed finds.

The solver is coordinate descent (HALS: each factor column solved exactly
in closed form and clipped at zero), run as seeded starts 0, 1, 2, ... in
turn under one budget of sweeps. The search keeps the best factors seen
and stops once they reach the fit floor or the budget is spent. The
reported objective history is the best value seen after each sweep, so it
is non-increasing; within any single start the sweep objective itself is
non-increasing as well.

``relative_tolerance`` (tol) sets both stop rules of a start. A start
ends after a sweep whose objective is at most tol * ||A||^2 (the fit
floor, which also ends the search), or whose decrease from the previous
sweep is below tol times the previous objective (a stall: the start sits
in a local minimum, so the next seed gets the budget). HALS reaches a
close fit in a few sweeps long before its iterates settle, so without the
floor a near-exact fit would keep shaving ~20% off a tiny objective until
the budget ran out. An input that never reaches the floor spends the
whole budget on fresh starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeInput, NonFiniteInput, RankTooLarge

_DIV_EPS = 1e-12


@dataclass(frozen=True)
class NmfConfig:
    """Factorization knobs; ``seed`` makes runs bit-reproducible.

    ``max_iterations`` is the sweep budget shared by all starts; one start
    runs at most ``max(32, max_iterations // 4)`` sweeps.
    ``relative_tolerance`` bounds both the residual (the search stops once
    the objective is at most that fraction of ||A||^2) and the per-sweep
    decrease (a start stops once a sweep lowers the objective by less than
    that fraction of its previous value).
    """

    r: int = 64
    max_iterations: int = 200
    relative_tolerance: float = 1e-5
    seed: int = 0
    clamp_negatives: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.relative_tolerance > 0:  # also rejects NaN
            raise ValueError(f"relative_tolerance must be > 0, got {self.relative_tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    Deterministic given (A, cfg). Seeded starts run in turn, each until
    the fit floor ``cfg.relative_tolerance * ||A||^2``, a stall or its
    sweep cap; the best factors found are returned once they reach the
    floor or ``cfg.max_iterations`` sweeps have been spent.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix has NaN or infinite entries")
    if np.any(a < 0):
        if not cfg.clamp_negatives:
            raise NegativeInput(
                "matrix has negative entries; set clamp_negatives to zero them"
            )
        a = np.maximum(a, 0.0)
    m, d = a.shape
    if cfg.r > min(m, d):
        raise RankTooLarge(f"r={cfg.r} exceeds min(M, d)={min(m, d)}")

    floor = cfg.relative_tolerance * float(np.sum(a * a))
    # One slow start must not starve the rest of the budget.
    per_start_cap = max(32, cfg.max_iterations // 4)
    best_obj, best_h, best_w, history = np.inf, None, None, []
    start = iterations = 0
    while best_obj > floor and iterations < cfg.max_iterations:
        h, w = _seeded_init(a, cfg.r, cfg.seed, start)
        prev = _objective(a, h, w)
        if start == 0:
            best_obj, best_h, best_w = prev, h.copy(), w.copy()
            history.append(best_obj)
        for _ in range(min(per_start_cap, cfg.max_iterations - iterations)):
            h, w = _hals_sweep(a, h, w)
            iterations += 1
            obj = _objective(a, h, w)
            if obj < best_obj:
                best_obj, best_h, best_w = obj, h.copy(), w.copy()
            history.append(best_obj)
            if obj <= floor or prev - obj < cfg.relative_tolerance * max(prev, _DIV_EPS):
                break
            prev = obj
        start += 1

    return Factorization(
        h=best_h,
        w=best_w,
        r=cfg.r,
        iterations_run=iterations,
        final_objective=best_obj,
        objective_history=np.array(history),
    )


def global_concept_map(f: Factorization) -> np.ndarray:
    """Per-voxel concept activation: H times the l2 norm of each W row."""
    return f.h @ np.linalg.norm(f.w, axis=1)

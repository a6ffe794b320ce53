import numpy as np
import pytest

from pcsaliency.errors import NegativeInput, NonFiniteInput, RankTooLarge
from pcsaliency.nmf import NmfConfig, Factorization, factorize, global_concept_map
from pcsaliency.synthetic import low_rank_matrix


def cfg(r, seed=0, iters=500, tol=1e-9):
    return NmfConfig(r=r, max_iterations=iters, relative_tolerance=tol, seed=seed)


def test_identity_rank2_is_exact():
    f = factorize(np.eye(2), cfg(r=2))
    assert f.final_objective <= 1e-10


def test_rank_one_matrix_is_exact():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    f = factorize(a, cfg(r=1))
    assert f.final_objective <= 1e-8


def _reference_solver(a, r, seed, max_iterations, tol):
    """Independent plain-loop reimplementation of the factorizer.

    Same seeding scheme and search structure (seeded starts in turn until
    the fit floor or the budget), written with explicit loops so a bug in
    the vectorized code cannot hide in its oracle.
    """
    m, n = a.shape
    eps = 1e-12

    def objective(h, w):
        total = 0.0
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for k in range(r):
                    acc += h[i][k] * w[k][j]
                total += (a[i][j] - acc) ** 2
        return total

    def init(start):
        rng = np.random.default_rng((seed, start))
        scale = (a.mean() / r) ** 0.5
        h = (rng.uniform(size=(m, r)) * scale).tolist()
        w = (rng.uniform(size=(r, n)) * scale).tolist()
        return h, w

    def sweep(h, w):
        # W rows, then H columns, each an exact clipped least-squares step
        hth = [[sum(h[i][p] * h[i][q] for i in range(m)) for q in range(r)] for p in range(r)]
        hta = [[sum(h[i][p] * a[i][j] for i in range(m)) for j in range(n)] for p in range(r)]
        for p in range(r):
            for j in range(n):
                num = hta[p][j] - sum(hth[p][q] * w[q][j] for q in range(r)) + hth[p][p] * w[p][j]
                w[p][j] = max(num / max(hth[p][p], eps), 0.0)
        wwt = [[sum(w[p][j] * w[q][j] for j in range(n)) for q in range(r)] for p in range(r)]
        awt = [[sum(a[i][j] * w[p][j] for j in range(n)) for p in range(r)] for i in range(m)]
        for p in range(r):
            for i in range(m):
                num = awt[i][p] - sum(h[i][q] * wwt[q][p] for q in range(r)) + wwt[p][p] * h[i][p]
                h[i][p] = max(num / max(wwt[p][p], eps), 0.0)
        return h, w

    floor = tol * float(np.sum(a * a))  # a sweep at or below it ends the search
    best = None
    iterations = 0
    cap = max(32, max_iterations // 4)
    start = 0
    while iterations < max_iterations and (best is None or best[0] > floor):
        h, w = init(start)
        prev = objective(h, w)
        if start == 0:
            best = (prev, [row[:] for row in h], [row[:] for row in w])
        for _ in range(min(cap, max_iterations - iterations)):
            h, w = sweep(h, w)
            iterations += 1
            obj = objective(h, w)
            if obj < best[0]:
                best = (obj, [row[:] for row in h], [row[:] for row in w])
            if obj <= floor or prev - obj < tol * max(prev, eps):
                break
            prev = obj
        start += 1
    return best[0], iterations


def test_seeded_run_matches_independent_reference():
    rng = np.random.default_rng(42)
    a = rng.uniform(size=(20, 16))
    config = cfg(r=4, seed=9, iters=60, tol=1e-7)
    f = factorize(a, config)
    expected, iterations = _reference_solver(a, 4, seed=9, max_iterations=60, tol=1e-7)
    assert f.final_objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert f.iterations_run == iterations


@pytest.mark.parametrize("seed", [0, 4])
def test_fit_floor_stop_matches_independent_reference(seed):
    # An exactly low-rank matrix fits to tol * ||A||^2 within a few sweeps,
    # long before the per-sweep decrease stalls; the search must stop there.
    a, rank = low_rank_matrix(seed, max_size=16, max_rank=4)
    f = factorize(a, cfg(r=rank, seed=seed, iters=200, tol=1e-5))
    expected, iterations = _reference_solver(a, rank, seed=seed, max_iterations=200, tol=1e-5)
    assert f.final_objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert f.iterations_run == iterations
    assert f.iterations_run < 200
    assert f.final_objective <= 1e-5 * np.sum(a * a)


def test_global_concept_map_weights_h_by_w_row_norms():
    f = Factorization(
        h=np.array([[1.0, 2.0], [3.0, 4.0]]), w=np.array([[3.0, 4.0], [0.0, 2.0]]),
        r=2, iterations_run=0, final_objective=0.0,
    )
    assert np.array_equal(global_concept_map(f), np.array([9.0, 23.0]))


def test_global_concept_map_zero():
    f = Factorization(
        h=np.zeros((3, 2)), w=np.ones((2, 2)),
        r=2, iterations_run=0, final_objective=0.0,
    )
    assert np.array_equal(global_concept_map(f), np.zeros(3))


def test_global_concept_map_matches_fold():
    rng = np.random.default_rng(11)
    h = rng.uniform(size=(10, 64))
    w = rng.uniform(size=(64, 5))
    f = Factorization(h=h, w=w, r=64, iterations_run=0, final_objective=0.0)
    norms = [sum(x * x for x in row) ** 0.5 for row in w.tolist()]
    expected = [sum(hk * nk for hk, nk in zip(row, norms)) for row in h.tolist()]
    assert np.allclose(global_concept_map(f), expected, rtol=0, atol=1e-12)


def test_global_concept_map_invariant_to_factor_scaling():
    # HW is unchanged under H -> HD, W -> D^-1 W for a positive diagonal D,
    # so the concept map must be too.
    rng = np.random.default_rng(3)
    h = rng.uniform(size=(12, 4))
    w = rng.uniform(size=(4, 6))
    scale = np.array([1e-3, 0.5, 7.0, 300.0])
    f = Factorization(h=h, w=w, r=4, iterations_run=0, final_objective=0.0)
    g = Factorization(h=h * scale, w=w / scale[:, None], r=4, iterations_run=0, final_objective=0.0)
    assert np.allclose(h * scale @ (w / scale[:, None]), h @ w, rtol=1e-12)
    assert np.allclose(global_concept_map(g), global_concept_map(f), rtol=1e-12, atol=0)


def test_negative_input_rejected_unless_clamped():
    a = np.array([[1.0, -0.5], [0.2, 0.3]])
    with pytest.raises(NegativeInput):
        factorize(a, cfg(r=1))
    f = factorize(a, NmfConfig(r=1, clamp_negatives=True))
    assert np.all(f.h >= 0) and np.all(f.w >= 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("clamp", [False, True])
def test_non_finite_input_rejected(value, clamp):
    a = np.array([[1.0, value], [0.2, 0.3]])
    with pytest.raises(NonFiniteInput):
        factorize(a, NmfConfig(r=1, clamp_negatives=clamp))


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed"):
        NmfConfig(seed=-1)


def test_rank_too_large_rejected():
    with pytest.raises(RankTooLarge):
        factorize(np.ones((3, 5)), cfg(r=4))


@pytest.mark.parametrize("tol", [0.0, -1e-5, float("nan")])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="relative_tolerance"):
        NmfConfig(relative_tolerance=tol)


def test_factors_stay_non_negative():
    a, rank = low_rank_matrix(2, max_size=24, max_rank=6)
    f = factorize(a, cfg(r=rank, seed=1))
    assert f.h.min() >= 0
    assert f.w.min() >= 0


def test_objective_history_monotone():
    a, rank = low_rank_matrix(5, max_size=32, max_rank=8)
    f = factorize(a, cfg(r=rank, seed=2, iters=300))
    diffs = np.diff(f.objective_history)
    assert np.all(diffs <= 1e-9 * np.maximum(f.objective_history[:-1], 1.0))
    assert len(f.objective_history) == f.iterations_run + 1
    assert f.final_objective == f.objective_history[-1]


def test_bit_identical_across_runs():
    a, rank = low_rank_matrix(7, max_size=32, max_rank=8)
    c = cfg(r=rank, seed=13, iters=120)
    f1 = factorize(a, c)
    f2 = factorize(a, c)
    assert np.array_equal(f1.h, f2.h)
    assert np.array_equal(f1.w, f2.w)
    assert f1.final_objective == f2.final_objective
    assert f1.iterations_run == f2.iterations_run


def test_low_rank_exactness_small():
    for seed in range(5):
        a, rank = low_rank_matrix(seed, max_size=32, max_rank=8)
        f = factorize(a, cfg(r=rank, seed=seed))
        assert f.final_objective / np.sum(a * a) <= 1e-6


@pytest.mark.parametrize("seed, iters", [(270, 500), (135, 200)])
def test_restarts_spend_the_budget_until_the_floor(seed, iters):
    # Early starts stall in local minima on these inputs, and starts that
    # bring no improvement must not end the search: only later seeds reach
    # the floor within the budget.
    a, rank = low_rank_matrix(seed)
    f = factorize(a, cfg(r=rank, seed=seed, iters=iters))
    assert f.final_objective / np.sum(a * a) <= 1e-6

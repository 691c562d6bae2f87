"""Random search, Nelder-Mead, multistart collection, grid oracle."""

import math

import numpy as np
import pytest

from conftest import grid_oracle_best
from qaoabench.baselines import (
    multistart_collect,
    nelder_mead,
    random_search,
)
from qaoabench.engine import QaoaParams, energy
from qaoabench.errors import BudgetExhaustedError, DomainError
from qaoabench.graphs import Graph, gen_erdos_renyi, gen_ladder
from qaoabench.objective import MeteredObjective


K2 = Graph(2, ((0, 1),))


def paraboloid_obj(budget, depth=1, peak=(0.5, -0.3)):
    target = np.asarray(peak, dtype=float)

    def fn(params):
        return -float(np.sum((params.vector() - target) ** 2))

    return MeteredObjective.for_function(fn, budget, depth=depth)


def test_random_search_spends_whole_budget():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=17)
    res = random_search(obj, seed=0)
    assert res.evals_used == 17
    assert obj.remaining == 0
    with pytest.raises(BudgetExhaustedError):
        random_search(obj, seed=0)


def test_random_search_deterministic_per_seed():
    g = gen_ladder(2)
    runs = []
    for _ in range(2):
        obj = MeteredObjective.for_graph(g, depth=1, budget=10)
        runs.append(random_search(obj, seed=3))
    assert runs[0].best_value == runs[1].best_value
    np.testing.assert_array_equal(runs[0].best_params.vector(),
                                  runs[1].best_params.vector())
    obj = MeteredObjective.for_graph(g, depth=1, budget=10)
    assert random_search(obj, seed=4).best_value != runs[0].best_value


def test_random_search_near_grid_oracle():
    # G_L(4), p=1, B=192: the best of 192 uniform draws should land within
    # 5% of the exact 64x64 grid optimum (median over 10 seeds)
    g = gen_ladder(4)
    _, oracle = grid_oracle_best(g, 64)
    bests = []
    for seed in range(10):
        obj = MeteredObjective.for_graph(g, depth=1, budget=192,
                                         shots=1024, seed=seed)
        bests.append(random_search(obj, seed=seed).best_exact)
    assert float(np.median(bests)) >= 0.95 * oracle


def test_nelder_mead_converges_on_paraboloid():
    obj = paraboloid_obj(budget=100)
    res = nelder_mead(obj, QaoaParams([0.0], [0.0]))
    assert res.evals_used <= 100
    assert np.linalg.norm(res.best_params.vector() - [0.5, -0.3]) < 1e-3


def test_nelder_mead_needs_initial_simplex_budget():
    obj = paraboloid_obj(budget=3)  # 2p + 2 = 4 > 3
    with pytest.raises(DomainError):
        nelder_mead(obj, QaoaParams([0.0], [0.0]))


def test_nelder_mead_stops_on_budget():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=4)
    res = nelder_mead(obj, QaoaParams([0.2], [0.2]))
    assert res.evals_used == 4
    assert obj.remaining == 0


def test_nelder_mead_trace_keeps_meter_sign():
    # internal negation must never leak: trace values are the metered
    # energies, which are nonnegative for any graph
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=30)
    res = nelder_mead(obj, QaoaParams([0.3], [-0.4]))
    assert all(ev.mean >= 0.0 for _, ev in res.trace)
    assert res.best_value == max(ev.mean for _, ev in res.trace)


def test_nelder_mead_never_below_start_simplex():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = gen_erdos_renyi(6, 0.6, int(rng.integers(100)))
        x0 = QaoaParams.from_vector(rng.uniform(-math.pi, math.pi, 2))
        obj = MeteredObjective.for_graph(g, depth=1, budget=60)
        res = nelder_mead(obj, x0)
        start_best = max(ev.mean for _, ev in res.trace[:4])
        assert res.best_value >= start_best


def test_nelder_mead_beats_start_on_k2():
    obj = MeteredObjective.for_graph(K2, depth=1, budget=120)
    res = nelder_mead(obj, QaoaParams([0.2], [0.8]))
    _, oracle = grid_oracle_best(K2, 64)
    assert res.best_exact >= 0.98 * oracle


def test_nelder_mead_deterministic():
    g = gen_ladder(3)
    runs = []
    for _ in range(2):
        obj = MeteredObjective.for_graph(g, depth=2, budget=50,
                                         shots=256, seed=5)
        runs.append(nelder_mead(obj, QaoaParams([0.1, 0.2], [0.3, 0.4])))
    assert runs[0].best_value == runs[1].best_value
    assert runs[0].evals_used == runs[1].evals_used


def test_nelder_mead_after_earlier_spending():
    # result must come from this run's trace slice only
    obj = MeteredObjective.for_graph(K2, depth=1, budget=40)
    outside = QaoaParams([math.pi / 8], [math.pi / 2])  # the exact optimum
    obj(outside)
    res = nelder_mead(obj, QaoaParams([-0.5], [-2.0]))
    assert res.evals_used == len(res.trace) == obj.calls - 1
    assert res.best_params is not outside
    assert any(p is res.best_params for p, _ in obj.trace[1:])


def test_multistart_single_start_admits_itself():
    pts = multistart_collect(K2, p=1, n_starts=1, seed=0)
    assert len(pts) == 1
    assert pts[0].p == 1


def test_multistart_admission_rule():
    g = gen_ladder(2)
    pts = multistart_collect(g, p=1, n_starts=12, seed=1)
    assert 1 <= len(pts) <= 12
    values = [energy(g, q).mean for q in pts]
    best = max(values)
    assert all(v >= 0.99 * best - 1e-12 for v in values)


def test_multistart_k2_reaches_optimum():
    pts = multistart_collect(K2, p=1, n_starts=30, seed=2)
    values = [energy(K2, q).mean for q in pts]
    assert max(values) >= 0.99  # true optimum is 1.0


def test_multistart_validation():
    with pytest.raises(DomainError):
        multistart_collect(K2, p=1, n_starts=0, seed=0)


def test_grid_oracle_monotone_in_resolution():
    g = gen_ladder(2)
    _, v64 = grid_oracle_best(g, 64)
    _, v128 = grid_oracle_best(g, 128)
    assert v128 >= v64 - 1e-12
    params, value = grid_oracle_best(g, 64)
    assert energy(g, params).mean == pytest.approx(value)


def test_grid_oracle_validation_and_edgeless():
    with pytest.raises(DomainError):
        grid_oracle_best(K2, 8)
    _, value = grid_oracle_best(Graph(2, ()), 16)
    assert value == 0.0

"""Metered objective: budget law, traces, exact re-scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoabench.baselines import nelder_mead, random_search
from qaoabench.engine import QaoaParams, energy
from qaoabench.errors import BudgetExhaustedError, DomainError
from qaoabench.graphs import Graph, gen_ladder
from qaoabench.kde import kde_fit, kde_optimize
from qaoabench.objective import MeteredObjective, result_from_trace


P0 = QaoaParams([0.1], [0.2])


def test_budget_is_hard():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=3)
    for _ in range(3):
        obj(P0)
    assert obj.remaining == 0
    with pytest.raises(BudgetExhaustedError):
        obj(P0)
    assert obj.calls == 3  # the refused call is not counted
    assert len(obj.trace) == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40))
def test_trace_length_equals_calls(budget):
    obj = MeteredObjective.for_function(lambda p: float(p.betas[0]), budget)
    used = budget // 2 + 1
    for _ in range(used):
        obj(P0)
    assert obj.calls == used == len(obj.trace)
    assert obj.remaining == budget - used


def test_validation():
    with pytest.raises(DomainError):
        MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=0)
    with pytest.raises(DomainError):
        MeteredObjective.for_graph(gen_ladder(2), depth=0, budget=4)
    with pytest.raises(DomainError):
        MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=4, shots=0)


def test_exact_mode_matches_expectation():
    g = gen_ladder(3)
    obj = MeteredObjective.for_graph(g, depth=1, budget=4)
    ev = obj(P0)
    assert ev.shots == 0
    assert ev.mean == energy(g, P0).mean


def test_noise_is_reproducible_and_per_call():
    g = gen_ladder(2)
    a = MeteredObjective.for_graph(g, depth=1, budget=4, shots=128, seed=9)
    b = MeteredObjective.for_graph(g, depth=1, budget=4, shots=128, seed=9)
    seq_a = [a(P0).mean for _ in range(4)]
    seq_b = [b(P0).mean for _ in range(4)]
    assert seq_a == seq_b
    assert len(set(seq_a)) > 1  # same params, different call index -> new draw
    c = MeteredObjective.for_graph(g, depth=1, budget=4, shots=128, seed=10)
    assert [c(P0).mean for _ in range(4)] != seq_a


def test_result_exact_mode():
    g = gen_ladder(2)
    obj = MeteredObjective.for_graph(g, depth=1, budget=8)
    points = [QaoaParams([b], [0.8]) for b in (0.1, 0.9, 0.4)]
    # best point first, so that since=1 has to skip it
    points.sort(key=lambda q: -energy(g, q).mean)
    for q in points:
        obj(q)
    res = obj.result()
    assert res.evals_used == 3
    assert res.best_params is points[0]
    assert res.best_value == max(ev.mean for _, ev in obj.trace)
    assert res.best_exact == res.best_value
    assert res.best_exact == energy(g, res.best_params).mean
    tail = obj.result(since=1)
    assert tail.evals_used == 2
    assert tail.trace == obj.trace[1:]
    assert tail.best_params is points[1]
    assert tail.best_value == obj.trace[1][1].mean < res.best_value
    assert tail.best_exact == tail.best_value


def test_result_sampled_mode_rescored_exactly():
    g = gen_ladder(2)
    obj = MeteredObjective.for_graph(g, depth=1, budget=8, shots=64, seed=2)
    for b in (0.1, 0.9, 0.4):
        obj(QaoaParams([b], [0.8]))
    res = obj.result()
    assert res.best_exact == energy(g, res.best_params).mean
    assert obj.calls == 3  # re-scoring did not consume budget
    tail = obj.result(since=1)
    assert tail.evals_used == 2
    assert tail.best_params in (obj.trace[1][0], obj.trace[2][0])
    assert tail.best_value == max(obj.trace[1][1].mean, obj.trace[2][1].mean)
    assert tail.best_exact == energy(g, tail.best_params).mean
    assert obj.calls == 3


def test_result_from_trace_first_tie_wins():
    obj = MeteredObjective.for_function(lambda p: 1.0, budget=5)
    p1 = QaoaParams([0.1], [0.1])
    p2 = QaoaParams([0.2], [0.2])
    obj(p1)
    obj(p2)
    res = result_from_trace(obj.trace)
    assert res.best_params is p1


def test_result_from_trace_empty():
    with pytest.raises(DomainError):
        result_from_trace([])


def test_for_function_hook():
    obj = MeteredObjective.for_function(lambda p: -float(np.sum(p.vector()**2)),
                                        budget=10, depth=2)
    ev = obj(QaoaParams([0.3, 0.0], [0.4, 0.0]))
    assert ev.mean == pytest.approx(-0.25)
    assert obj.depth == 2
    assert obj.graph is None
    assert obj.exact_value(P0) is None


def test_optimizers_on_function_objectives_report_best_exact():
    def fn(p):
        return -float(np.sum(p.vector() ** 2))

    runs = [random_search(MeteredObjective.for_function(fn, 12), seed=3),
            nelder_mead(MeteredObjective.for_function(fn, 12),
                        QaoaParams([0.5], [-0.5])),
            kde_optimize(MeteredObjective.for_function(fn, 12),
                         kde_fit([[0.1, 0.2], [0.3, -0.1]]), seed=3)]
    for res in runs:
        assert res.best_exact is not None
        assert res.best_exact == res.best_value


def test_depth_attribute_used_by_optimizers():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=4, budget=4)
    assert obj.depth == 4

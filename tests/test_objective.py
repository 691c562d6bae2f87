"""Metered objective: budget law, traces, exact re-scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoabench.engine import QaoaParams, energy
from qaoabench.errors import BudgetExhaustedError, DomainError
from qaoabench.graphs import Graph, gen_ladder
from qaoabench.objective import MeteredObjective
from qaoabench.seeding import stream_rng


P0 = QaoaParams([0.1], [0.2])
K2 = Graph(2, ((0, 1),))
EDGELESS = Graph(2, ())  # energy 0 everywhere


def test_budget_is_hard():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=3)
    for _ in range(3):
        obj(P0)
    assert obj.remaining == 0
    with pytest.raises(BudgetExhaustedError):
        obj(P0)
    assert obj.calls == 3  # the refused call is not counted
    assert obj.points.shape == (3, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40))
def test_trace_length_equals_calls(budget):
    obj = MeteredObjective.for_graph(K2, depth=1, budget=budget)
    used = budget // 2 + 1
    for _ in range(used):
        obj(P0)
    assert obj.calls == used
    assert obj.means[:used].tolist() == [energy(K2, P0).mean] * used
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
    assert ev.stderr == 0.0
    assert ev == energy(g, P0)


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


def test_evaluation_i_draws_its_metered_substream():
    # the keys derived for the whole budget at once are those of the
    # substreams (seed, "metered", i), alone or in a batch
    g = gen_ladder(2)
    obj = MeteredObjective.for_graph(g, depth=1, budget=8, shots=64, seed=4)
    vecs = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
    first = obj(QaoaParams.from_vector(vecs[0]))
    rest = [obj(vecs[1:5]), obj(vecs[5:])]
    got = [first] + [value.point(k) for value in rest
                     for k in range(len(value.mean))]
    assert got == [energy(g, QaoaParams.from_vector(vec), 64,
                          stream_rng(4, "metered", i))
                   for i, vec in enumerate(vecs)]


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
    assert res.best_params.vector().tolist() == points[0].vector().tolist()
    assert res.best_value == max(obj.means[:3])
    assert res.best_exact == res.best_value
    assert res.best_exact == energy(g, res.best_params).mean
    tail = obj.result(since=1)
    assert tail.evals_used == 2
    assert tail.best_params.vector().tolist() == points[1].vector().tolist()
    assert tail.best_value == obj.means[1] < res.best_value
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
    assert tail.best_params.vector().tolist() in (obj.points[1].tolist(),
                                                  obj.points[2].tolist())
    assert tail.best_value == max(obj.means[1], obj.means[2])
    assert tail.best_exact == energy(g, tail.best_params).mean
    assert obj.calls == 3


def test_result_from_trace_first_tie_wins():
    obj = MeteredObjective.for_graph(EDGELESS, depth=1, budget=5)
    p1 = QaoaParams([0.1], [0.1])
    obj(p1)
    obj(np.array([[0.2, 0.2], [0.3, 0.3]]))
    assert obj.best_row() == 0 and obj.best_row(since=1) == 1
    assert obj.result().best_params.vector().tolist() == p1.vector().tolist()


def test_result_from_trace_empty():
    obj = MeteredObjective.for_graph(K2, depth=1, budget=5)
    with pytest.raises(DomainError):
        obj.result()
    obj(QaoaParams([0.1], [0.1]))
    with pytest.raises(DomainError):
        obj.result(since=1)


@pytest.mark.parametrize("shots", [None, 64])
def test_result_best_params_is_its_trace_row_bit_for_bit(shots):
    # raw points near the seam, some of which wrap to exactly -pi, where
    # a wrap that could round to +pi would move the bits
    obj = MeteredObjective.for_graph(gen_ladder(3), depth=2, budget=40,
                                     shots=shots, seed=3)
    rng = np.random.default_rng(5)
    obj(rng.uniform(-9.0, 9.0, (20, 4)))
    obj(np.pi * rng.choice([-1.0, 1.0], (20, 4))
        + rng.uniform(-1e-15, 1e-15, (20, 4)))
    assert (obj.points == -np.pi).any() and (obj.points < np.pi).all()
    for since in (0, 7, *range(20, 40)):
        res = obj.result(since)
        best = obj.best_row(since)
        assert res.best_params.vector().tobytes() == obj.points[best].tobytes()
        assert res.best_value == obj.means[best] == max(obj.means[since:])


def test_depth_attribute_used_by_optimizers():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=4, budget=4)
    assert obj.depth == 4

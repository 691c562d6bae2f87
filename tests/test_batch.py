"""The batch law: K points through one call are K single evaluations.

A batch evolves along the leading axis of the kernels, in chunks of at
most `kernels.SLICE` amplitudes; its states, energies, noise and trace
must equal those of evaluating the points one at a time.
"""

import math

import numpy as np
import pytest

from conftest import random_graph
from qaoabench import kernels
from qaoabench.baselines import random_search
from qaoabench.engine import QaoaParams, energy, evolve
from qaoabench.errors import BudgetExhaustedError, DomainError
from qaoabench.graphs import gen_ladder
from qaoabench.kde import kde_fit, kde_optimize
from qaoabench.objective import MeteredObjective


def _points(rng, p, count):
    return QaoaParams.rows(rng.uniform(-4.0, 4.0, (count, 2 * p)))


def test_batched_evolve_equals_single_evolves():
    rng = np.random.default_rng(14)
    for n in range(2, 14):
        g = random_graph(rng, n, n)
        # two chunks and a partial third, one point per chunk from n = 15
        chunk = max(1, kernels.SLICE >> (n - 1))
        for p in (1, 2, 4):
            points = _points(rng, p, 2 * chunk + 1 if n >= 9 else 5)
            batch = evolve(g, points)
            assert batch.shape == (len(points), 1 << (n - 1))
            for row, q in zip(batch, points):
                assert np.max(np.abs(row - evolve(g, q))) < 1e-12, (n, p)


def test_batched_energy_equals_single_energies_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (3, 6, 9, 12):
        g = random_graph(rng, n, n)
        points = _points(rng, 2, 2 * max(1, kernels.SLICE >> (n - 1)) + 3)
        assert [ev.mean for ev in energy(g, points)] == [
            energy(g, q).mean for q in points]


@pytest.mark.parametrize("shots", [None, 64])
def test_batch_call_equals_single_calls(shots):
    g = gen_ladder(4)
    rng = np.random.default_rng(16)
    points = _points(rng, 2, 150)
    single = MeteredObjective.for_graph(g, depth=2, budget=200, shots=shots,
                                        seed=3)
    batch = MeteredObjective.for_graph(g, depth=2, budget=200, shots=shots,
                                       seed=3)
    single(points[0])
    batch(points[0])
    values = [single(q) for q in points[1:]]
    assert batch(points[1:]) == values
    assert single.calls == batch.calls == len(points)
    assert [q for q, _ in batch.trace] == points
    assert [ev for _, ev in single.trace] == [ev for _, ev in batch.trace]


def test_batch_of_vectors_is_wrapped_like_params():
    g = gen_ladder(3)
    rng = np.random.default_rng(17)
    vecs = rng.uniform(-9.0, 9.0, (6, 2))
    obj = MeteredObjective.for_graph(g, depth=1, budget=6)
    values = obj(vecs)
    for (q, ev), vec in zip(obj.trace, vecs):
        want = QaoaParams.from_vector(vec)
        np.testing.assert_array_equal(q.vector(), want.vector())
        assert ev == energy(g, want)
    assert values == [ev for _, ev in obj.trace]


def test_over_budget_batch_is_refused_whole():
    g = gen_ladder(2)
    obj = MeteredObjective.for_graph(g, depth=1, budget=5, shots=32, seed=1)
    obj(QaoaParams([0.1], [0.2]))
    trace = list(obj.trace)
    with pytest.raises(BudgetExhaustedError):
        obj(np.zeros((5, 2)))
    assert obj.calls == 1
    assert obj.trace == trace
    assert len(obj(np.zeros((4, 2)))) == 4
    assert obj.remaining == 0
    with pytest.raises(DomainError):
        obj(np.zeros(2))


def test_for_function_objectives_accept_batches():
    def fn(q):
        return -float(np.sum(q.vector() ** 2))

    obj = MeteredObjective.for_function(fn, budget=10, depth=1)
    values = obj(np.array([[0.5, 0.0], [0.0, 7.0]]))
    assert [ev.mean for ev in values] == [
        -0.25, -float((7.0 - 2 * math.pi) ** 2)]
    assert obj.calls == 2 and len(obj.trace) == 2
    assert obj([]) == [] and obj.calls == 2


# The first three points of the one-point-at-a-time loops these replaced,
# on gen_ladder(3) at p = 2 with budget 12, shots 256 and objective seed 4.
RANDOM_PINNED = [
    [-1.4973401290710655, -1.8524821893509869, 0.045531560920945235,
     -1.4544439359739987],
    [0.16414772895106733, 2.013732939017495, 1.0433835690236437,
     2.7438943098568283],
    [0.19823417769930884, 2.6564765897072924, -1.2343452181475318,
     1.0176191783163882]]
RANDOM_MEANS = [3.84765625, 4.17578125, 4.80078125]
KDE_PINNED = [
    [0.08713630208386958, -1.334077205524261, 0.2883333552494145,
     0.8858328067572607],
    [1.1098987360073034, -1.0689797179380296, 0.5978656700431939,
     1.0678039137927726],
    [2.818584466048149, 0.2721140312986212, 2.9124466749985274,
     0.0930683455302872]]
KDE_MEANS = [4.7109375, 3.47265625, 3.57421875]


def test_batched_optimizers_keep_the_pinned_traces():
    g = gen_ladder(3)
    obj = MeteredObjective.for_graph(g, depth=2, budget=12, shots=256, seed=4)
    random_search(obj, seed=7)
    assert [q.vector().tolist() for q, _ in obj.trace[:3]] == RANDOM_PINNED
    assert [ev.mean for _, ev in obj.trace[:3]] == RANDOM_MEANS
    model = kde_fit([[0.3, -0.2, 0.5, 1.0], [2.9, 0.1, -3.0, 0.4]],
                    bandwidth=0.5)
    obj = MeteredObjective.for_graph(g, depth=2, budget=12, shots=256, seed=4)
    kde_optimize(obj, model, seed=7)
    assert [q.vector().tolist() for q, _ in obj.trace[:3]] == KDE_PINNED
    assert [ev.mean for _, ev in obj.trace[:3]] == KDE_MEANS

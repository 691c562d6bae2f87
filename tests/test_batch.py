"""The batch law: K points through one call are K single evaluations.

A batch evolves along the leading axis of the kernels, in chunks of at
most `kernels.SLICE` amplitudes; its states, energies, noise and trace
must equal those of evaluating the points one at a time.  The same holds
for a stack, one point on each of K same-n graphs, and so for lockstep
walks against one-row walks.
"""

import math

import numpy as np
import pytest

from conftest import random_graph
from qaoabench import kernels
from qaoabench.baselines import random_search
from qaoabench.engine import GraphStack, QaoaParams, energy, evolve
from qaoabench.errors import BudgetExhaustedError, DomainError
from qaoabench.graphs import Graph, gen_ladder
from qaoabench.kde import kde_fit, kde_optimize
from qaoabench.objective import Meter, MeteredObjective
from qaoabench.rl import ACTION_BOUND, Walk
from qaoabench.seeding import stream_rng


K2 = Graph(2, ((0, 1),))


def _points(rng, p, count):
    """(count, 2p) raw vectors and the QaoaParams of each."""
    vecs = rng.uniform(-4.0, 4.0, (count, 2 * p))
    return vecs, [QaoaParams.from_vector(vec) for vec in vecs]


def test_batched_evolve_equals_single_evolves():
    rng = np.random.default_rng(14)
    for n in range(2, 14):
        g = random_graph(rng, n, n)
        # two chunks and a partial third, one point per chunk from n = 15
        chunk = max(1, kernels.SLICE >> (n - 1))
        for p in (1, 2, 4):
            vecs, points = _points(rng, p, 2 * chunk + 1 if n >= 9 else 5)
            batch = evolve(g, vecs)
            assert batch.shape == (len(points), 1 << (n - 1))
            for row, q in zip(batch, points):
                assert np.max(np.abs(row - evolve(g, q))) < 1e-12, (n, p)


def _point_by_point(values):
    """The Energy of each point of a batch's Energy."""
    return [values.point(k) for k in range(len(values.mean))]


def test_batched_energy_equals_single_energies_bit_for_bit():
    # a (K, 2p) array against the same points one QaoaParams at a time,
    # on a Graph, on its one-row stack and on a GraphStack, exact and
    # sampled, over two kernel chunks and part of a third
    rng = np.random.default_rng(15)
    for n in (3, 6, 9, 12):
        graphs = [random_graph(rng, n, n) for _ in range(3)]
        vecs, points = _points(rng, 2,
                               2 * max(1, kernels.SLICE >> (n - 1)) + 3)
        rows = np.arange(len(points)) % len(graphs)
        # a lone graph's stack is built once and reads the graph's own
        # arrays, not copies
        lone = graphs[0].stack
        assert graphs[0].stack is lone
        assert np.shares_memory(lone.cuts, graphs[0].cuts)
        assert np.shares_memory(lone.index, graphs[0].phase_index)
        for g, on in ((graphs[0], [0] * len(points)),
                      (lone, [0] * len(points)),
                      (GraphStack(graphs).on(rows), rows)):
            for shots in (None, 1000):
                keys = range(len(points)) if shots else ()
                batch = energy(g, vecs, shots,
                               (stream_rng(3, "batch", k) for k in keys))
                assert _point_by_point(batch) == [
                    energy(graphs[r], q, shots, stream_rng(3, "batch", k))
                    for k, (r, q) in enumerate(zip(on, points))], (n, shots)
            for row, r, q in zip(evolve(g, vecs), on, points):
                np.testing.assert_array_equal(row, evolve(graphs[r], q))


@pytest.mark.parametrize("shots", [None, 64])
def test_batch_call_equals_single_calls(shots):
    g = gen_ladder(4)
    rng = np.random.default_rng(16)
    vecs, points = _points(rng, 2, 150)
    single = MeteredObjective.for_graph(g, depth=2, budget=200, shots=shots,
                                        seed=3)
    batch = MeteredObjective.for_graph(g, depth=2, budget=200, shots=shots,
                                       seed=3)
    single(points[0])
    batch(points[0])
    values = [single(q) for q in points[1:]]
    assert _point_by_point(batch(vecs[1:])) == values
    assert single.calls == batch.calls == len(points)
    np.testing.assert_array_equal(
        batch.points[:batch.calls], [q.vector() for q in points])
    for trace in ("points", "means", "stderrs"):
        np.testing.assert_array_equal(getattr(single, trace),
                                      getattr(batch, trace))


def test_batch_of_vectors_is_wrapped_like_params():
    g = gen_ladder(3)
    rng = np.random.default_rng(17)
    vecs = rng.uniform(-9.0, 9.0, (6, 2))
    obj = MeteredObjective.for_graph(g, depth=1, budget=6)
    values = obj(vecs)
    for k, vec in enumerate(vecs):
        want = QaoaParams.from_vector(vec)
        np.testing.assert_array_equal(obj.points[k], want.vector())
        assert values.point(k) == energy(g, want)
    assert values.mean.tolist() == obj.means.tolist()


def test_over_budget_batch_is_refused_whole():
    g = gen_ladder(2)
    obj = MeteredObjective.for_graph(g, depth=1, budget=5, shots=32, seed=1)
    obj(QaoaParams([0.1], [0.2]))
    with pytest.raises(BudgetExhaustedError):
        obj(np.zeros((5, 2)))
    assert obj.calls == 1
    assert obj.means[1:].tolist() == [0.0] * 4
    assert len(obj(np.zeros((4, 2))).mean) == 4
    assert obj.remaining == 0
    with pytest.raises(DomainError):
        obj(np.zeros(2))


def test_objectives_accept_batches_of_any_length():
    # K2's energy 1/2 + 1/2 sin(4 beta) sin(gamma) peaks at (pi/8, pi/2)
    obj = MeteredObjective.for_graph(K2, depth=1, budget=10)
    vecs = np.array([[math.pi / 8, math.pi / 2], [0.1, 7.0]])
    values = obj(vecs)
    assert values.mean.tolist() == [
        energy(K2, QaoaParams.from_vector(vec)).mean for vec in vecs]
    assert values.mean[0] == pytest.approx(1.0)
    assert obj.points[1].tolist() == pytest.approx([0.1, 7.0 - 2 * math.pi])
    assert values.stderr.tolist() == [0.0, 0.0]
    assert obj.calls == 2
    assert obj(np.zeros((0, 2))).mean.size == 0 and obj.calls == 2
    with pytest.raises(DomainError):
        obj(np.zeros((1, 4)))


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
    assert obj.points[:3].tolist() == RANDOM_PINNED
    assert obj.means[:3].tolist() == RANDOM_MEANS
    model = kde_fit([[0.3, -0.2, 0.5, 1.0], [2.9, 0.1, -3.0, 0.4]],
                    bandwidth=0.5)
    obj = MeteredObjective.for_graph(g, depth=2, budget=12, shots=256, seed=4)
    kde_optimize(obj, model, seed=7)
    assert obj.points[:3].tolist() == KDE_PINNED
    assert obj.means[:3].tolist() == KDE_MEANS


# --- stacks: one point per graph, one kernel batch per n -------------------

def _graph(rng, n, m):
    """A graph on n vertices with m distinct random edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, tuple(pairs[i] for i in sorted(picks)))


def test_stacked_energy_equals_single_energies_bit_for_bit():
    rng = np.random.default_rng(18)
    for n in (3, 9, 13):
        # edge counts differ, and one graph is repeated
        graphs = [_graph(rng, n, m) for m in (1, 3, n, 2)]
        graphs.append(graphs[1])
        stack = GraphStack(graphs)
        vecs, points = _points(rng, 2, len(graphs))
        assert energy(stack, vecs).mean.tolist() == [
            energy(g, q).mean for g, q in zip(graphs, points)]
        sampled = energy(stack, vecs, 64,
                         (stream_rng(5, "stack", k) for k in range(5)))
        assert _point_by_point(sampled) == [
            energy(g, q, 64, stream_rng(5, "stack", k))
            for k, (g, q) in enumerate(zip(graphs, points))]
        frames = evolve(stack, vecs)
        for row, g, q in zip(frames, graphs, points):
            np.testing.assert_array_equal(row, evolve(g, q))
        # the points of one graph share its row of a stack
        rows = [0, 2, 2, 1, 0]
        shared = GraphStack(graphs[:3]).on(rows)
        assert energy(shared, vecs).mean.tolist() == [
            energy(graphs[r], q).mean for r, q in zip(rows, points)]
        for row, r, q in zip(evolve(shared, vecs), rows, points):
            np.testing.assert_array_equal(row, evolve(graphs[r], q))


@pytest.mark.parametrize("shots", [1, 1000, 1024])
def test_stacked_sampled_energy_equals_single_energies(shots):
    # six level counts, one past 16 levels and one of an edgeless graph,
    # over two kernel chunks: each row's shot statistics are its own.
    # At 1024 shots every variance term is a dyadic rational and sums
    # exactly in any order; at 1000 the order of the sum shows.
    rng = np.random.default_rng(19)
    n = 9
    graphs = [_graph(rng, n, m) for m in (0, 2, 5, 9, 16, 24)]
    count = 2 * kernels.SLICE >> (n - 1)
    vecs, points = _points(rng, 1, count)
    # every level count in a chunk, then only the 17 of the 16-edge graph
    # on the stack's 25-level stride
    for rows in (np.arange(count) % len(graphs), [4] * count):
        sampled = energy(GraphStack(graphs).on(rows), vecs, shots,
                         (stream_rng(8, "stack", k) for k in range(count)))
        assert _point_by_point(sampled) == [
            energy(graphs[r], q, shots, stream_rng(8, "stack", k))
            for k, (r, q) in enumerate(zip(rows, points))]
        assert shots == 1 or all(ev.stderr > 0
                                 for ev in _point_by_point(sampled)
                                 if ev.mean not in (0, 24))


def test_graph_stacks_refuse_mixed_n_and_other_counts():
    with pytest.raises(DomainError):
        GraphStack([gen_ladder(2), gen_ladder(3)])
    with pytest.raises(DomainError):
        GraphStack([])
    stack = GraphStack([gen_ladder(3), gen_ladder(3)])
    with pytest.raises(DomainError):
        energy(stack, np.zeros((3, 2)))


def _walks(graphs, p, shots, steps):
    """A walk over `graphs` and the one-row walks of each graph, all given
    the same fixed actions."""
    rng = np.random.default_rng(19)
    actions = rng.uniform(-ACTION_BOUND, ACTION_BOUND,
                          (steps, len(graphs), 2 * p))
    seeds = [30 + e for e in range(len(graphs))]
    norms = [1.0 + 0.5 * e for e in range(len(graphs))]

    def objs(rows):
        return [MeteredObjective.for_graph(graphs[e], depth=p,
                                           budget=steps + 1, shots=shots,
                                           seed=40 + e)
                for e in rows]

    stacked = Walk(objs(range(len(graphs))), seeds, norms)
    singles = [Walk(objs([e]), [seeds[e]], [norms[e]])
               for e in range(len(graphs))]
    return stacked, singles, actions


def _assert_walks_agree(stacked, singles, actions):
    for step in actions:
        rewards = stacked.step(step)
        for e, one in enumerate(singles):
            assert one.step(step[e:e + 1]).tolist() == [rewards[e]]
    for e, one in enumerate(singles):
        assert one.f.tolist() == [stacked.f[e]]
        assert one.current.tolist() == [stacked.current[e].tolist()]
        assert one.states.tolist() == [stacked.states[e].tolist()]
        obj, alone = stacked.objs[e], one.objs[0]
        assert obj.calls == alone.calls == obj.budget
        for trace in ("points", "means", "stderrs"):
            assert getattr(obj, trace).tolist() == getattr(alone,
                                                           trace).tolist()


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("shots", [None, 64])
def test_stacked_walk_equals_one_row_walks(p, shots):
    rng = np.random.default_rng(20 + p)
    graphs = [_graph(rng, 7, m) for m in (4, 9, 15)]
    graphs.insert(2, graphs[0])
    _assert_walks_agree(*_walks(graphs, p, shots, steps=6))


@pytest.mark.parametrize("shots", [None, 64])
def test_mixed_walk_equals_one_row_walks(shots):
    # two n's, the one graph at n = 8 on its own one-row stack
    rng = np.random.default_rng(22)
    graphs = [_graph(rng, 5, 6), _graph(rng, 8, 11), _graph(rng, 5, 3)]
    _assert_walks_agree(*_walks(graphs, 2, shots, steps=5))


def test_stack_over_chunks_equals_one_row_walks(monkeypatch):
    # 5 walks at n = 13: chunks of SLICE / 2^12 = 4 points and 1
    rng = np.random.default_rng(23)
    graphs = [_graph(rng, 13, m) for m in (12, 20, 30, 16, 25)]
    stacked, singles, actions = _walks(graphs, 1, 64, steps=2)
    rows = []
    original = kernels.apply_mixer

    def counting(amps, n, betas):
        rows.append(len(amps))
        return original(amps, n, betas)

    monkeypatch.setattr(kernels, "apply_mixer", counting)
    stacked.step(actions[0])
    assert rows == [4, 1]
    for e, one in enumerate(singles):
        one.step(actions[0, e:e + 1])
    _assert_walks_agree(stacked, singles, actions[1:])


def test_stacked_step_over_one_budget_charges_nothing(monkeypatch):
    rng = np.random.default_rng(24)
    objs = [MeteredObjective.for_graph(_graph(rng, 6, m), depth=1,
                                       budget=b, shots=32, seed=m)
            for m, b in ((5, 4), (8, 1), (3, 4))]
    walk = Walk(objs, [1, 2, 3], [1.0, 1.0, 1.0])
    before = [(obj.calls, obj.means.tolist()) for obj in objs]
    current, f = walk.current.copy(), walk.f.copy()
    evals = []
    monkeypatch.setattr(kernels, "apply_mixer",
                        lambda *args: evals.append(args))
    with pytest.raises(BudgetExhaustedError):
        walk.step(np.zeros((3, 2)))
    assert evals == []
    assert [(obj.calls, obj.means.tolist()) for obj in objs] == before
    np.testing.assert_array_equal(walk.current, current)
    np.testing.assert_array_equal(walk.f, f)


def test_requests_take_each_objective_once():
    obj = MeteredObjective.for_graph(gen_ladder(2), depth=1, budget=4)
    q = np.array([[0.1, 0.2]])
    with pytest.raises(DomainError):
        Walk([obj, obj], [1, 2], [1.0, 1.0])
    with pytest.raises(DomainError):
        Meter([obj])([(obj, q), (obj, q)])
    assert obj.calls == 0

"""Lockstep optimizer runs: many Nelder-Mead searches and rl walks advance
together, one request per round, and each run must end exactly as it
would alone: the same trace, the same noise and the same record."""

import math

import numpy as np

from qaoabench import bench, objective
from qaoabench.baselines import (MULTISTART_BUDGET, multistart_collect,
                                 nelder_mead, nelder_mead_all)
from qaoabench.bench import BenchConfig, _shared_start, run_bench
from qaoabench.engine import QaoaParams
from qaoabench.graphs import Graph, group_of, instance_id
from qaoabench.objective import MeteredObjective
from qaoabench.rl import init_policy, rl_optimize
from qaoabench.seeding import derive_seed, stream_rng


def _items(test_set, ids):
    by_id = {instance_id(spec): (spec, g) for spec, g in test_set}
    return [by_id[i] for i in ids]


# K2 = one edge: energy 1/2 + 1/2 sin(4 beta) sin(gamma); an edgeless
# graph: energy 0 everywhere
K2, EDGELESS = Graph(2, ((0, 1),)), Graph(2, ())


# (objective factory, start, what ends the run); each factory makes a
# fresh objective, once for the lockstep round and once for the run alone
def _runs(test_set):
    (_, l3), (_, b3), (_, l2) = _items(test_set, ("L-n3", "B-n3", "L-n2"))
    start = QaoaParams([-2.0], [-2.0])
    return [
        # uphill from (-3, -3): every reflection beats the best point, and
        # the budget ends on a new best
        (lambda: MeteredObjective.for_graph(K2, depth=1, budget=10),
         QaoaParams([-3.0], [-3.0]), "expand"),
        # flat: every step rejects its reflection and contraction and
        # shrinks; 3 + 2 + 1 ends one point into a shrink batch of 2
        (lambda: MeteredObjective.for_graph(EDGELESS, depth=1, budget=6),
         start, "shrink"),
        # flat with room: shrinks bring the diameter under NM_DIAMETER_TOL
        # after 51 evaluations
        (lambda: MeteredObjective.for_graph(EDGELESS, depth=1, budget=100),
         start, "diameter"),
        (lambda: MeteredObjective.for_graph(l3, depth=1, budget=400), start,
         "diameter"),
        (lambda: MeteredObjective.for_graph(b3, depth=1, budget=40,
                                            shots=64, seed=3),
         QaoaParams([0.3], [0.6]), "budget"),
        (lambda: MeteredObjective.for_graph(l3, depth=1, budget=37,
                                            shots=64, seed=4),
         QaoaParams([0.1], [-0.7]), "budget"),
        (lambda: MeteredObjective.for_graph(l2, depth=1, budget=31,
                                            shots=64, seed=5),
         QaoaParams([1.1], [0.2]), "budget"),
    ]


def _same(a, b):
    """Objectives a and b hold the same trace."""
    assert a.calls == b.calls
    for trace in ("points", "means", "stderrs"):
        assert getattr(a, trace).tolist() == getattr(b, trace).tolist()


def _same_result(a, b):
    assert (a.best_params.vector().tolist(), a.best_value, a.best_exact,
            a.evals_used) == (b.best_params.vector().tolist(), b.best_value,
                              b.best_exact, b.evals_used)


def test_lockstep_nelder_mead_equals_runs_alone(test_set):
    runs = _runs(test_set)
    objs = [make() for make, _, _ in runs]
    together = nelder_mead_all(objs, [x0.vector() for _, x0, _ in runs])
    for obj, res, (make, x0, end) in zip(objs, together, runs):
        alone = make()
        _same_result(res, nelder_mead(alone, x0))
        _same(obj, alone)
        assert res.evals_used == obj.calls
        if end == "diameter":
            assert res.evals_used < obj.budget
        else:
            assert res.evals_used == obj.budget
        if end == "expand":
            values = obj.means[:obj.calls]
            assert values[-1] > max(values[:-1])


def _cell_alone(spec, g, depth, optimizer, attempt, cfg, bundle):
    """One bench cell run on its own objective, as a lone cell runs."""
    iid = instance_id(spec)
    obj = MeteredObjective.for_graph(
        g, depth=depth, budget=cfg.budget, shots=cfg.shots,
        seed=derive_seed(cfg.seed, "cell-noise", iid, depth, optimizer,
                         attempt))
    start = QaoaParams.from_vector(_shared_start(cfg.seed, iid, depth,
                                                 attempt))
    if optimizer == "nm":
        res = nelder_mead(obj, start)
    else:
        res = rl_optimize(obj, bundle, derive_seed(
            cfg.seed, "cell-opt", iid, depth, optimizer, attempt), start)
    return (iid, group_of(spec), depth, optimizer, attempt, res.best_value,
            res.best_exact, res.evals_used)


def test_run_bench_equals_cells_run_alone(test_set):
    # n = 4 and n = 6 (three instances) at p = 1 and p = 2, two attempts
    items = _items(test_set, ("L-n2", "B-n3", "C-2x3", "L-n3"))
    roster = ("nm", "rl")
    models = {"rl": {1: init_policy(1, seed=4), 2: init_policy(2, seed=5)}}
    for shots in (None, 256):
        cfg = BenchConfig(depths=(1, 2), budget=40, attempts=2, shots=shots,
                          roster=roster, seed=6)
        records = run_bench(items, roster, cfg, models)
        want = sorted(
            _cell_alone(spec, g, depth, opt, attempt, cfg,
                        models["rl"][depth])
            for spec, g in items for depth in cfg.depths for opt in roster
            for attempt in range(cfg.attempts))
        assert [(r.instance, r.group, r.depth, r.optimizer, r.attempt,
                 r.best_value, r.best_exact, r.evals_used)
                for r in records] == want


def test_run_bench_groups_cells_per_n_up_to_a_kernel_chunk(monkeypatch,
                                                          test_set):
    groups = []

    def record(cells, cfg, depth, optimizer, model):
        groups.append((cells[0][1].n, optimizer, len(cells)))
        return []

    monkeypatch.setattr(bench, "_run_cell", record)
    items = _items(test_set, ("L-n2", "B-n3", "R-n16-ep0.5-s1", "L-n3",
                              "R-n16-ep0.5-s2"))
    cfg = BenchConfig(depths=(1,), budget=40, attempts=3, shots=64,
                      roster=("random", "nm"), seed=1)
    run_bench(items, cfg.roster, cfg)
    # a kernel chunk holds one state from n = 15 up, so n = 16 cells run
    # one by one
    assert sorted(groups) == sorted(
        [(4, opt, 3) for opt in cfg.roster]
        + [(6, opt, 6) for opt in cfg.roster]
        + [(16, opt, 1) for opt in cfg.roster for _ in range(6)])


def test_multistart_collect_equals_a_loop_over_starts(test_set):
    (_, g), = _items(test_set, ("C-2x3",))
    for p in (1, 2):
        starts = stream_rng(9, "multistart").uniform(-math.pi, math.pi,
                                                     (6, 2 * p))
        results = [nelder_mead(MeteredObjective.for_graph(
            g, depth=p, budget=MULTISTART_BUDGET), QaoaParams.from_vector(x0))
            for x0 in starts]
        best = max(r.best_value for r in results)
        want = [r.best_params.vector().tolist() for r in results
                if r.best_value >= 0.99 * best]
        got = multistart_collect(g, p, 6, seed=9)
        assert [vec.tolist() for vec in got] == want


def _ring(n, chord):
    """The n-cycle plus the chords (u, u + chord)."""
    edges = {tuple(sorted((u, (u + 1) % n))) for u in range(n)}
    edges |= {tuple(sorted((u, (u + chord) % n))) for u in range(0, n, 3)}
    return Graph(n, tuple(sorted(edges)))


def test_meter_stacks_graphs_only_where_a_chunk_holds_several_states(
        monkeypatch):
    built = []
    original = objective.GraphStack

    def counting(graphs):
        stack = original(graphs)
        built.append((stack.n, len(stack.graphs)))
        return stack

    monkeypatch.setattr(objective, "GraphStack", counting)
    # a chunk holds one state from n = 15 up, so those graphs keep no
    # stacked copy of their rows; two objectives of one graph share its row
    graphs = [_ring(15, 4), _ring(15, 6), _ring(8, 3), _ring(8, 2)]
    graphs.append(graphs[2])
    objs = [MeteredObjective.for_graph(g, depth=1, budget=2, shots=32,
                                       seed=k)
            for k, g in enumerate(graphs)]
    meter = objective.Meter(objs)
    assert built == [(8, 2)]
    pair = np.array([[0.3, 0.5], [0.3, 0.5]])
    values = meter([(obj, pair) for obj in objs])
    for obj, g, got in zip(objs, graphs, values):
        alone = MeteredObjective.for_graph(g, depth=1, budget=2, shots=32,
                                           seed=obj.seed)
        want = alone(pair)
        assert got.mean.tolist() == want.mean.tolist() == obj.means.tolist()
        assert got.stderr.tolist() == want.stderr.tolist() \
            == obj.stderrs.tolist()
        _same(obj, alone)

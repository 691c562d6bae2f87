"""Graph construction, instance suites, and the brute-force cut oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cut_of, cuts_np, cuts_py, random_graph, ER8_SEED1_EDGES
from qaoabench.errors import DomainError, ResourceLimitError
from qaoabench.graphs import (
    MAX_N,
    Graph,
    InstanceSpec,
    TRAIN_ER_SEEDS,
    build_test_set,
    build_train_set,
    gen_barbell,
    gen_caveman,
    gen_erdos_renyi,
    gen_ladder,
    group_of,
    instance_id,
    max_cut_bruteforce,
    realize,
    spec_from_id,
    suite,
)


def test_graph_canonicalizes_edges():
    g = Graph(3, ((2, 0), (0, 1)))
    assert g.edges == ((0, 2), (0, 1))  # endpoints sorted, insertion order kept
    assert g.num_edges == 2


def test_graph_rejects_self_loops_and_bad_vertices():
    with pytest.raises(DomainError):
        Graph(3, ((1, 1),))
    with pytest.raises(DomainError):
        Graph(3, ((0, 3),))
    with pytest.raises(DomainError):
        Graph(0, ())
    with pytest.raises(DomainError):
        Graph(3, ((0, 1), (1, 0)))  # same edge twice


def test_cut_of_matches_python_counter():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    ref = cuts_py(4, g.edges)
    for z in range(16):
        assign = tuple(-1 if (z >> i) & 1 else 1 for i in range(4))
        assert cut_of(g, assign) == ref[z]


def test_erdos_renyi_extremes_and_determinism():
    full = gen_erdos_renyi(8, 1.0, 3)
    assert full.num_edges == 28
    empty = gen_erdos_renyi(8, 0.0, 3)
    assert empty.num_edges == 0
    a = gen_erdos_renyi(12, 0.5, 7)
    b = gen_erdos_renyi(12, 0.5, 7)
    assert a.edges == b.edges
    assert a.edges != gen_erdos_renyi(12, 0.5, 8).edges


def test_erdos_renyi_frozen_instance():
    g = gen_erdos_renyi(8, 0.5, 1)
    assert g.edges == ER8_SEED1_EDGES


def test_erdos_renyi_validation():
    with pytest.raises(DomainError):
        gen_erdos_renyi(1, 0.5, 0)
    with pytest.raises(DomainError):
        gen_erdos_renyi(8, 1.5, 0)
    with pytest.raises(DomainError):
        gen_erdos_renyi(8, -0.1, 0)


def test_ladder_shape():
    g = gen_ladder(2)
    assert g.n == 4
    assert set(g.edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    for n_l, m in [(3, 7), (4, 10), (8, 22), (11, 31)]:
        gl = gen_ladder(n_l)
        assert gl.n == 2 * n_l
        assert gl.num_edges == m == 3 * n_l - 2


def test_barbell_shape():
    g = gen_barbell(3)
    assert g.n == 6
    assert g.num_edges == 7
    # two triangles joined by one bridge
    assert (2, 3) in g.edges
    for n_b in (4, 8, 11):
        gb = gen_barbell(n_b)
        assert gb.n == 2 * n_b
        assert gb.num_edges == n_b * (n_b - 1) + 1


def test_caveman_shape_and_connectivity():
    for n_c, n_k in [(2, 3), (2, 4), (3, 4), (5, 3), (2, 10)]:
        g = gen_caveman(n_c, n_k)
        assert g.n == n_c * n_k
        assert g.num_edges == n_c * (n_k * (n_k - 1) // 2)
        # rewiring must leave the graph connected: plain BFS
        adj = {v: set() for v in range(g.n)}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == g.n


def test_caveman_needs_two_cliques():
    with pytest.raises(DomainError):
        gen_caveman(1, 4)
    with pytest.raises(DomainError):
        gen_caveman(2, 1)


def test_train_set_composition(train_set):
    assert len(train_set) == 7
    fams = [spec.family for spec, _ in train_set]
    assert fams.count("random") == 4
    assert set(fams) == {"random", "ladder", "barbell", "caveman"}
    for spec, g in train_set:
        assert g.n == 8
    er = {spec.param("e_p"): spec.seed for spec, _ in train_set
          if spec.family == "random"}
    assert er == TRAIN_ER_SEEDS


def test_test_set_composition(test_set):
    assert len(test_set) == 94
    groups = [group_of(spec) for spec, _ in test_set]
    assert groups.count("random") == 64
    assert groups.count("community") == 21
    assert groups.count("ladder") == 9
    ns = sorted({g.n for spec, g in test_set if spec.family == "random"})
    assert ns == [8, 12, 16, 20]


def test_train_and_test_sets_disjoint(train_set, test_set):
    train_ids = {instance_id(spec) for spec, _ in train_set}
    test_ids = {instance_id(spec) for spec, _ in test_set}
    assert len(test_ids) == 94
    assert not train_ids & test_ids


def test_instance_id_round_trip(train_set, test_set):
    for spec, g in list(train_set) + list(test_set):
        back = spec_from_id(instance_id(spec))
        assert back == spec
        assert realize(back).edges == g.edges


def test_spec_from_id_rejects_garbage():
    with pytest.raises(DomainError):
        spec_from_id("no-such-family/x=1")


def test_suite_names(train_set, test_set):
    assert [instance_id(s) for s, _ in suite("train")] == \
        [instance_id(s) for s, _ in train_set]
    assert len(suite("test")) == len(test_set)
    with pytest.raises(DomainError):
        suite("validation")


def test_bruteforce_small_cases():
    assert max_cut_bruteforce(Graph(2, ((0, 1),))).value == 1
    tri = Graph(3, ((0, 1), (0, 2), (1, 2)))
    assert max_cut_bruteforce(tri).value == 2
    assert max_cut_bruteforce(gen_barbell(3)).value == 5
    assert max_cut_bruteforce(Graph(3, ())).value == 0


def test_bruteforce_assignment_consistency():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 2, 8)
        res = max_cut_bruteforce(g)
        assert cut_of(g, res.assignment) == res.value
        assert res.value == cuts_np(g.n, g.edges).max()


def test_bruteforce_tie_break_is_frozen():
    # assignment encodes the lowest optimal index with vertex n-1 on side +1
    cases = [(gen_ladder(2), 6), (gen_barbell(3), 9),
             (gen_erdos_renyi(8, 0.5, 1), 87)]
    for g, want in cases:
        res = max_cut_bruteforce(g)
        z = sum(1 << i for i, a in enumerate(res.assignment) if a == -1)
        cuts = cuts_np(g.n, g.edges)
        best = cuts.max()
        assert z == want == min(zz for zz in range(1 << (g.n - 1))
                                if cuts[zz] == best)
        assert res.assignment[g.n - 1] == 1


def test_bruteforce_size_cap():
    big = Graph(MAX_N + 1, ((0, 1),))
    with pytest.raises(ResourceLimitError):
        max_cut_bruteforce(big)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_bruteforce_matches_enumeration(seed):
    g = random_graph(np.random.default_rng(seed), 2, 7)
    assert max_cut_bruteforce(g).value == cuts_np(g.n, g.edges).max()


def test_group_of_every_family():
    assert group_of(InstanceSpec("random", (("n_R", 8), ("e_p", 0.5)), 1)) == "random"
    assert group_of(InstanceSpec("ladder", (("n_L", 4),))) == "ladder"
    assert group_of(InstanceSpec("barbell", (("n_B", 4),))) == "community"
    assert group_of(InstanceSpec("caveman", (("n_C", 2), ("n_k", 4)))) == "community"

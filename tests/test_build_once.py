"""Each instance builds its cut diagonal once, whatever evaluates it."""

import pytest

from qaoabench import kernels
from qaoabench.bench import BenchConfig, run_bench
from qaoabench.errors import ResourceLimitError
from qaoabench.graphs import Graph, suite
from qaoabench.objective import MeteredObjective
from qaoabench.rl import PpoConfig, init_policy, train


@pytest.fixture
def diagonal_builds(monkeypatch):
    """List that gets one (n, edges) entry per `kernels.cut_diagonal` call."""
    builds = []
    original = kernels.cut_diagonal

    def counting(n, edges):
        builds.append((n, edges.tobytes()))
        return original(n, edges)

    monkeypatch.setattr(kernels, "cut_diagonal", counting)
    return builds


def test_suite_builds_no_diagonal(diagonal_builds):
    assert len(suite("test")) == 94
    assert len(suite("train")) == 7
    assert diagonal_builds == []


def test_bench_builds_one_diagonal_per_instance(diagonal_builds):
    items = suite("train")[:2]
    cfg = BenchConfig(depths=(1,), budget=12, attempts=2, shots=64,
                      roster=("nm", "rl"), seed=3)
    records = run_bench(items, cfg.roster, cfg,
                        models={"rl": {1: init_policy(1, 5)}})
    # 2 instances x 2 optimizers x 2 attempts, rl normalizers included
    assert len(records) == 8
    assert len(diagonal_builds) == 2
    assert len(set(diagonal_builds)) == 2


def test_train_builds_one_diagonal_per_graph(diagonal_builds):
    items = suite("train")
    cfg = PpoConfig(epochs=2, episodes_per_epoch=len(items), episode_len=3,
                    probe_count=4, max_passes=2)
    train(items, 1, cfg, seed=1)
    assert len(diagonal_builds) == len(items)
    assert len(set(diagonal_builds)) == len(items)


def test_for_graph_refuses_a_graph_past_the_cap(diagonal_builds):
    big = Graph(25, ((0, 1),))
    with pytest.raises(ResourceLimitError):
        MeteredObjective.for_graph(big, depth=1, budget=4)
    assert diagonal_builds == []

"""Benchmark harness: cell scheduling, metrics, and report files."""

import json
import math

import numpy as np
import pytest

from qaoabench.bench import (
    BenchConfig,
    BenchRecord,
    MetricsTable,
    _shared_start,
    approximation_ratios,
    compute_metrics,
    export_report,
    gap_reduction,
    metrics_to_json,
    optimality_ratios,
    read_records,
    records_cut_values,
    run_bench,
    suite_cut_values,
)
from qaoabench.errors import ConfigError, DomainError
from qaoabench.graphs import group_of, instance_id
from qaoabench.kde import kde_fit
from qaoabench.rl import init_policy


SMALL_CFG = BenchConfig(depths=(1,), budget=16, attempts=2, shots=1024,
                        roster=("random", "nm"), seed=7)


@pytest.fixture(scope="module")
def tiny_suite(train_set):
    return train_set[:2]


@pytest.fixture(scope="module")
def small_records(tiny_suite):
    return run_bench(tiny_suite, ("random", "nm"), SMALL_CFG)


def rec(iid, group, opt, attempt, exact, depth=1, evals=10):
    return BenchRecord(instance=iid, group=group, depth=depth, optimizer=opt,
                       attempt=attempt, best_value=exact, best_exact=exact,
                       evals_used=evals)


def synthetic_records():
    vals = {
        ("i1", "nm"): (0.8, 0.9), ("i1", "kde"): (1.0, 0.9),
        ("i1", "random"): (0.5, 0.6),
        ("i2", "nm"): (0.7, 0.7), ("i2", "kde"): (0.9, 0.9),
        ("i2", "random"): (0.6, 1.0),
    }
    return [rec(iid, "g", opt, k, x)
            for (iid, opt), pair in sorted(vals.items())
            for k, x in enumerate(pair)]


# --- config and scheduling ---------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        BenchConfig(attempts=0)
    with pytest.raises(DomainError):
        BenchConfig(budget=0)
    with pytest.raises(DomainError):
        BenchConfig(depths=())
    with pytest.raises(DomainError):
        BenchConfig(roster=())
    with pytest.raises(ConfigError):
        BenchConfig(roster=("nm", "gradient"))


def test_shared_start_deterministic():
    a = _shared_start(0, "x", 2, 3)
    b = _shared_start(0, "x", 2, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4,)
    c = _shared_start(0, "x", 2, 4)
    assert not np.array_equal(a, c)


def test_run_bench_cardinality_and_order(tiny_suite, small_records):
    assert len(small_records) == len(tiny_suite) * 1 * 2 * SMALL_CFG.attempts
    keys = [(r.instance, r.depth, r.optimizer, r.attempt)
            for r in small_records]
    assert keys == sorted(keys)
    ids = {instance_id(spec) for spec, _ in tiny_suite}
    assert {r.instance for r in small_records} == ids
    groups = {instance_id(spec): group_of(spec) for spec, _ in tiny_suite}
    for r in small_records:
        assert r.group == groups[r.instance]
        assert 0 < r.evals_used <= SMALL_CFG.budget


def test_run_bench_deterministic(tiny_suite, small_records):
    again = run_bench(tiny_suite, ("random", "nm"), SMALL_CFG)
    assert again == small_records


def test_roster_subset_invariance(tiny_suite, small_records):
    # cell streams hang off (instance, depth, optimizer, attempt) only, so
    # removing a competitor must not perturb anyone else's records
    nm_only = run_bench(tiny_suite, ("nm",), SMALL_CFG)
    assert nm_only == [r for r in small_records if r.optimizer == "nm"]


def test_run_bench_threads_match_serial(test_set):
    # three instances at n = 6 and one at n = 4, so the pool splits the
    # lockstep groups and both workers get cells of one group
    by_id = {instance_id(spec): (spec, g) for spec, g in test_set}
    items = [by_id[i] for i in ("L-n2", "B-n3", "C-2x3", "L-n3")]
    roster = ("random", "nm", "kde", "rl")
    models = {"kde": {1: kde_fit([[0.4, 1.5], [0.35, 1.2]])},
              "rl": {1: init_policy(1, seed=3)}}
    for shots in (None, 1024):
        cfg = BenchConfig(depths=(1,), budget=24, attempts=2, shots=shots,
                          roster=roster, seed=1)
        serial = run_bench(items, roster, cfg, models, threads=1)
        pooled = run_bench(items, roster, cfg, models, threads=2)
        assert len(serial) == 4 * 4 * 2
        assert serial == pooled


def test_learned_roster_needs_models(tiny_suite):
    cfg = BenchConfig(depths=(1,), budget=16, attempts=1, shots=64,
                      roster=("kde",))
    with pytest.raises(ConfigError):
        run_bench(tiny_suite[:1], cfg.roster, cfg)
    with pytest.raises(ConfigError):
        run_bench(tiny_suite[:1], cfg.roster, cfg,
                  models={"kde": {2: object()}})   # wrong depth


def test_learned_roster_runs_within_budget(tiny_suite):
    model = kde_fit([[0.4, 1.5], [0.35, 1.2], [0.5, 1.6]])
    bundle = init_policy(1, seed=0)
    cfg = BenchConfig(depths=(1,), budget=16, attempts=1, shots=64,
                      roster=("kde", "rl"), seed=2)
    records = run_bench(tiny_suite[:1], cfg.roster, cfg,
                        models={"kde": {1: model}, "rl": {1: bundle}})
    assert {r.optimizer for r in records} == {"kde", "rl"}
    for r in records:
        assert r.evals_used <= cfg.budget
        assert r.best_exact > 0


# --- metrics -----------------------------------------------------------------

def test_optimality_ratios_medians():
    tau = optimality_ratios(synthetic_records())
    assert tau[("g", 1, "nm")] == pytest.approx(0.775)
    assert tau[("g", 1, "kde")] == pytest.approx(0.925)
    assert tau[("g", 1, "random")] == pytest.approx(0.675)


def test_gap_reduction_formula():
    gap = gap_reduction(optimality_ratios(synthetic_records()))
    assert gap[("g", 1, "kde")] == pytest.approx(3.0)
    assert gap[("g", 1, "random")] == pytest.approx(0.225 / 0.325)
    assert ("g", 1, "nm") not in gap


def test_gap_reduction_edge_cases():
    records = []
    for k, x in enumerate((0.5, 0.5)):
        records.append(rec("i3", "h", "nm", k, x))
        records.append(rec("i3", "h", "random", k, x))   # ties the baseline
    records += [rec("i3", "h", "kde", k, 1.0) for k in range(2)]
    gap = gap_reduction(optimality_ratios(records))
    assert gap[("h", 1, "kde")] == math.inf
    assert gap[("h", 1, "random")] == 1.0


def test_gap_reduction_needs_baseline():
    records = [rec("i1", "g", "kde", 0, 0.5), rec("i1", "g", "kde", 1, 0.7)]
    with pytest.raises(DomainError):
        gap_reduction(optimality_ratios(records))


def test_gap_reduction_names_the_first_group_without_baseline():
    tau = {("b", 1, "kde"): 0.5, ("b", 1, "nm"): 0.4, ("a", 2, "kde"): 0.6,
           ("a", 1, "kde"): 0.7, ("c", 1, "nm"): 0.3}
    with pytest.raises(DomainError, match="group='a' p=1"):
        gap_reduction(tau)
    del tau[("a", 1, "kde")], tau[("a", 2, "kde")]
    tau[("c", 1, "rl")] = 1.0
    gap = gap_reduction(tau)
    assert list(gap) == [("b", 1, "kde"), ("c", 1, "rl")]
    assert gap[("b", 1, "kde")] == pytest.approx(1.2)
    assert gap[("c", 1, "rl")] == math.inf


def test_metrics_reject_empty():
    with pytest.raises(DomainError):
        optimality_ratios([])
    table = compute_metrics([], {})
    assert table.tau == {} and table.gap == {} and table.eta == {}


def test_non_positive_instances_excluded():
    records = synthetic_records() + [rec("zz", "g", o, k, 0.0)
                                     for o in ("nm", "kde", "random")
                                     for k in range(2)]
    with pytest.warns(UserWarning, match="zz"):
        tau = optimality_ratios(records)
    assert tau == optimality_ratios(synthetic_records())


def test_approximation_ratio_best_of_roster():
    eta = approximation_ratios(synthetic_records(), {"i1": 1.0, "i2": 1.0})
    # per-instance best attempt means are kde's: 0.95 and 0.9
    assert eta[("g", 1)] == pytest.approx(0.925)
    scaled = approximation_ratios(synthetic_records(), {"i1": 2.0, "i2": 4.0})
    assert scaled[("g", 1)] == pytest.approx(0.35)


def test_approximation_ratio_missing_cut_warns():
    with pytest.warns(UserWarning, match="i2"):
        eta = approximation_ratios(synthetic_records(), {"i1": 1.0})
    assert eta[("g", 1)] == pytest.approx(0.95)


def test_metrics_on_real_records(tiny_suite, small_records):
    cuts = suite_cut_values(tiny_suite)
    table = compute_metrics(small_records, cuts)
    for tau in table.tau.values():
        assert 0.0 < tau <= 1.0 + 1e-9
    for eta in table.eta.values():
        assert 0.0 < eta <= 1.0 + 1e-9
    assert set(table.gap) == {(g, d, o) for (g, d, o) in table.tau
                              if o != "nm"}
    for gap in table.gap.values():
        assert gap > 0.0


def test_suite_cut_values_and_record_recompute(tiny_suite, small_records):
    cuts = suite_cut_values(tiny_suite)
    assert set(cuts) == {instance_id(spec) for spec, _ in tiny_suite}
    assert all(v > 0 for v in cuts.values())
    assert records_cut_values(small_records) == cuts


# --- reports -----------------------------------------------------------------

def test_export_and_read_round_trip(tmp_path, tiny_suite, small_records):
    table = compute_metrics(small_records, suite_cut_values(tiny_suite))
    written = export_report(table, small_records, tmp_path)
    names = {p.name for p in written}
    assert names == {"records.csv", "tau_long.csv", "metrics.json"}
    assert read_records(tmp_path / "records.csv") == small_records
    back = json.loads((tmp_path / "metrics.json").read_text())
    assert back == {"schema": "qaoabench-metrics-v1",
                    **metrics_to_json(table)}


def test_export_is_byte_deterministic(tmp_path, tiny_suite, small_records):
    table = compute_metrics(small_records, suite_cut_values(tiny_suite))
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_report(table, small_records, a)
    export_report(table, small_records, b)
    for name in ("records.csv", "tau_long.csv", "metrics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_export_schema_headers(tmp_path, tiny_suite, small_records):
    table = compute_metrics(small_records, suite_cut_values(tiny_suite))
    export_report(table, small_records, tmp_path)
    assert (tmp_path / "records.csv").read_text().startswith(
        "# qaoabench-records-v1\n")
    assert (tmp_path / "tau_long.csv").read_text().startswith(
        "# qaoabench-tau-v1\n")


def test_metrics_json_inf_sentinel(tmp_path):
    table = MetricsTable(tau={("g", 1, "kde"): 1.0},
                         gap={("g", 1, "kde"): math.inf},
                         eta={("g", 1): 0.5})
    export_report(table, [], tmp_path, formats=("json",))
    back = json.loads((tmp_path / "metrics.json").read_text())
    assert back["gap"][0]["value"] == "inf"
    assert back == {"schema": "qaoabench-metrics-v1",
                    **metrics_to_json(table)}


def test_export_empty_records(tmp_path):
    export_report(MetricsTable(), [], tmp_path)
    assert read_records(tmp_path / "records.csv") == []
    lines = (tmp_path / "tau_long.csv").read_text().splitlines()
    assert lines == ["# qaoabench-tau-v1", "group,p,optimizer,attempt,tau"]


def test_tau_long_matches_records(tmp_path, small_records):
    export_report(MetricsTable(), small_records, tmp_path)
    rows = (tmp_path / "tau_long.csv").read_text().splitlines()[2:]
    assert len(rows) == len(small_records)
    taus = [float(r.rsplit(",", 1)[1]) for r in rows]
    assert max(taus) == 1.0
    assert all(0 < t <= 1.0 for t in taus)

"""Tests of the stage benchmark itself: span arithmetic, output checks,
metric names against BENCHMARK.json, and a tiny run of each workload.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import run
import tracing
import workloads
from qaoabench import bench, graphs, kernels, objective, seeding

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "bench-small": workloads.BenchSpec(
        groups=((1, None),), max_n=6, roster=("random", "nm", "kde", "rl"),
        budget=16, shots=64, sstar_starts=1),
    "bench-large": workloads.BenchSpec(
        groups=((2, ("L-n2",)), (1, ("B-n3",))), roster=("random", "nm"),
        budget=12, shots=32),
    "train-rl": workloads.TrainSpec(epochs=2, episodes=2, steps=4, probe=5,
                                    eval_budget=12, eval_shots=32),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, spec in TINY.items():
        monkeypatch.setitem(workloads.SPECS, name, spec)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.fixture
def fake_probe(monkeypatch):
    """The L1 probe with made-up costs; the real one takes seconds."""
    def fake(seed):
        eval_ms = {(n, p, m): 0.01 * 2.0 ** n * p
                   for n in probe.SIZES for p in probe.DEPTHS
                   for m in probe.MODES}
        return eval_ms, {n: 0.001 * 2.0 ** n for n in probe.SIZES}

    monkeypatch.setattr(probe, "probe_l1", fake)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ spans

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_and_restores_originals():
    original = (graphs.suite, seeding.stream_rng, kernels.apply_mixer,
                objective.MeteredObjective.__dict__["for_graph"])
    tracer = tracing.Tracer()
    with tracer:
        assert graphs.suite is not original[0]
        graphs.suite("train")
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "graphs.suite"
    # the random train instances draw from named streams inside suite()
    rng_spans = [s for s in tracer.spans if s[tracing.NAME]
                 == "seeding.stream_rng"]
    assert rng_spans and all(s[tracing.PARENT] == 0 for s in rng_spans)
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)
    assert (graphs.suite, seeding.stream_rng, kernels.apply_mixer,
            objective.MeteredObjective.__dict__["for_graph"]) == original
    assert graphs.stream_rng is seeding.stream_rng


def test_cells_share_an_id_across_nested_spans(tmp_path):
    spec = TINY["bench-large"]
    ctx = workloads.setup(spec, 3)
    tracer = tracing.Tracer()
    with tracer:
        workloads.run_pass(spec, ctx, 3, 0, tmp_path)
    by_index = tracer.spans
    cells = {s[tracing.CELL] for s in by_index
             if s[tracing.NAME] == "objective.call"}
    assert cells == set(range(4))
    for s in by_index:
        if s[tracing.NAME] == "kernels.apply_mixer":
            assert s[tracing.CELL] == by_index[s[tracing.PARENT]][
                tracing.CELL]
    outside = [s for s in by_index if s[tracing.NAME]
               in ("bench.compute_metrics", "bench.export_report")]
    assert outside and all(s[tracing.CELL] is None for s in outside)


def test_bench_pass_leaves_time_between_groups_out(tmp_path):
    spec = TINY["bench-large"]
    ctx = workloads.setup(spec, 3)
    calls = []

    def between():
        calls.append(time.perf_counter())
        time.sleep(0.5)

    t0 = time.perf_counter()
    res = workloads.run_pass(spec, ctx, 3, 0, tmp_path, between=between)
    assert len(calls) == len(spec.groups) - 1
    assert res.wall_s < time.perf_counter() - t0 - 0.5


# ---------------------------------------------------------- output checks

def _records(spec, seed=5):
    ctx = workloads.setup(spec, seed)
    res = bench.run_bench(ctx["groups"][0][1], spec.roster,
                          bench.BenchConfig(depths=(1,), budget=spec.budget,
                                            attempts=1, shots=spec.shots,
                                            roster=spec.roster, seed=seed),
                          ctx["models"])
    cuts = bench.suite_cut_values(ctx["groups"][0][1])
    expected = sorted((r.instance, r.depth, r.optimizer, r.attempt)
                      for r in res)
    return res, cuts, expected


def test_check_records_counts_each_violation():
    spec = dataclasses.replace(TINY["bench-large"], groups=((1, ("L-n2",
                                                                "B-n3")),))
    records, cuts, expected = _records(spec)
    assert workloads.check_records([records], expected, cuts, spec.budget) \
        == (0, [])
    bad = list(records)
    bad[0] = dataclasses.replace(bad[0], evals_used=0)
    bad[1] = dataclasses.replace(bad[1],
                                 best_exact=cuts[bad[1].instance] + 1e-6)
    failed, problems = workloads.check_records([bad], expected, cuts,
                                               spec.budget)
    assert failed == 2 and len(problems) == 2
    assert workloads.check_records([records[::-1]], expected, cuts,
                                   spec.budget)[0] == len(expected)
    assert workloads.check_records([records[1:]], expected, cuts,
                                   spec.budget)[0] == len(expected)


# ----------------------------------------------------------- metric names

def test_end_to_end_metrics_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_traced_metrics_match_benchmark_json(tiny, capsys):
    assert run.run_one("train-rl", 2, 1, 1) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    per_layer = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert result["correct"] and result["failed"] == 0


# ------------------------------------------------------------- smoke runs

@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_of_each_workload(name, tiny, fake_probe, capsys):
    assert run.run_one(name, 1, 1, 0) == 0
    plain = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert plain["correct"] and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    # same code and seed again: the stored digests must match
    assert run.run_one(name, 1, 1, 0) == 0
    capsys.readouterr()

    assert run.run_one(name, 1, 1, 1) == 0
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert traced["correct"]
    assert traced["metrics"]["l4_est_h"]["value"] > 0
    result = json.loads((tiny / f"{name}-seed1-trace1" / "result.json")
                        .read_text())
    assert result["detail"]["span_count"] > 0


def test_changed_output_fails_the_digest_check(tiny, fake_probe, capsys,
                                               monkeypatch):
    assert run.run_one("bench-large", 4, 1, 0) == 0
    capsys.readouterr()
    monkeypatch.setattr(workloads, "sha256_lines", lambda lines: "other")
    assert run.run_one("bench-large", 4, 1, 0) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not out["correct"] and out["failed"] > 0


def test_l4_estimate_labels_probed_and_scaled_sizes():
    eval_ms = {(n, p, m): float(n * p) for n in probe.SIZES
               for p in probe.DEPTHS for m in probe.MODES}
    build = {n: 1.0 for n in probe.SIZES}
    hours, measured, scaled = probe.l4_estimate(eval_ms, build, {8: 1, 9: 2})
    assert measured == [(8, 1), (8, 4)]
    assert scaled == [(8, 2), (9, 1), (9, 2), (9, 4)]
    assert hours > 0


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-rl",
         "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

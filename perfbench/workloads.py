"""The three stage workloads: set-up, one measured pass, output checks.

Each workload drives the library only through its public stage functions,
always looked up as module attributes so a traced run sees every call:

- bench-small: every test instance with n <= 12 at p = 1, roster
  random,nm,kde,rl.  Evals cost 0.1-0.7 ms, so per-call overhead (seeding,
  shot sampling, Python) and the 500 unmetered normalizer evals of each rl
  cell dominate.
- bench-large: R-n16-ep0.5-s1 at p = 4 and L-n9 (n = 18) at p = 1, roster
  random,nm.  Evals cost 30-60 ms; the state is 1 MiB and 4 MiB, either
  side of a 2 MiB per-core L2.
- train-rl: PPO on the 7 train instances at p = 1 in exact mode, so shot
  sampling and per-call stream derivation drop out and the MLPs dominate.

A pass is one run of the stage at a seed derived from the run seed and the
pass index, so a run's passes differ and a given pass repeats exactly.
"""

import contextlib
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from qaoabench import baselines, bench, graphs, kde, rl, seeding

BUDGET = 192
SHOTS = 1024
# Attempts repeat the same work under other seeds; one keeps a bench-small
# pass near 22 s.
ATTEMPTS = 1


@dataclass(frozen=True)
class BenchSpec:
    """A bench stage: instance groups, each at one depth, and a roster."""

    # ((depth, instance ids), ...); ids None = every test instance with
    # n <= max_n
    groups: tuple
    roster: tuple
    max_n: int | None = None
    budget: int = BUDGET
    shots: int = SHOTS
    # multistart starts per train instance for the p = 1 S*; 0 = no models
    sstar_starts: int = 0


@dataclass(frozen=True)
class TrainSpec:
    """A train-rl stage, then a bench of the trained policy on the suite."""

    epochs: int = 10
    episodes: int = 16
    steps: int = 64
    probe: int = 500
    eval_budget: int = BUDGET
    eval_shots: int = SHOTS


SPECS = {
    "bench-small": BenchSpec(groups=((1, None),), max_n=12,
                             roster=("random", "nm", "kde", "rl"),
                             sstar_starts=10),
    "bench-large": BenchSpec(groups=((4, ("R-n16-ep0.5-s1",)),
                                     (1, ("L-n9",))),
                             roster=("random", "nm")),
    "train-rl": TrainSpec(),
}


@dataclass
class PassResult:
    wall_s: float
    evals: int            # metered evals (bench) or env steps (train-rl)
    attempted: int        # cells (bench) or epochs (train-rl)
    failed: int
    approx_ratio: float
    digest: str
    problems: list


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------------------ set-up

def setup(spec, seed: int):
    """Everything a pass needs that a user builds before the stage runs."""
    if isinstance(spec, TrainSpec):
        return {"train": graphs.suite("train")}
    test = graphs.suite("test")
    by_id = {graphs.instance_id(s): (s, g) for s, g in test}
    groups = []
    for depth, ids in spec.groups:
        if ids is None:
            items = [(s, g) for s, g in test if g.n <= spec.max_n]
        else:
            items = [by_id[i] for i in ids]
        groups.append((depth, items))
    models = {}
    if spec.sstar_starts:
        pooled = []
        for spec_, g in graphs.suite("train"):
            iid = graphs.instance_id(spec_)
            pooled += baselines.multistart_collect(
                g, 1, spec.sstar_starts,
                seeding.derive_seed(seed, "sstar", iid, 1))
        models["kde"] = {1: kde.kde_fit(pooled)}
        # cell cost does not depend on training, so an untrained policy does
        models["rl"] = {1: rl.init_policy(1, seeding.derive_seed(seed,
                                                                  "policy"))}
    return {"groups": groups, "models": models}


# -------------------------------------------------------------------- pass

def run_pass(spec, ctx, seed: int, index: int, out_dir,
             untraced=contextlib.nullcontext, between=None) -> PassResult:
    """Run and check one pass.  Work done only to check or score the
    output runs inside `untraced()` and outside the timed region.  A bench
    pass calls `between()` between its instance groups, outside the timed
    region too."""
    if isinstance(spec, TrainSpec):
        return _train_pass(spec, ctx, seed, index, untraced)
    return _bench_pass(spec, ctx, seed, index, out_dir, between)


def _bench_pass(spec: BenchSpec, ctx, seed, index, out_dir,
                between) -> PassResult:
    pass_seed = seeding.derive_seed(seed, "pass", index)
    t0 = perf_counter()
    paused = 0.0
    batches, cut_values = [], {}
    for i, (depth, items) in enumerate(ctx["groups"]):
        if i and between is not None:
            t_pause = perf_counter()
            between()
            paused += perf_counter() - t_pause
        cfg = bench.BenchConfig(depths=(depth,), budget=spec.budget,
                                attempts=ATTEMPTS, shots=spec.shots,
                                roster=spec.roster, seed=pass_seed)
        batches.append(bench.run_bench(items, spec.roster, cfg,
                                       ctx["models"], threads=1))
        cut_values.update(bench.suite_cut_values(items))
    records = sorted((r for b in batches for r in b), key=_record_key)
    table = bench.compute_metrics(records, cut_values)
    written = bench.export_report(table, records, out_dir)
    wall = perf_counter() - t0 - paused

    expected = sorted((graphs.instance_id(s), depth, opt, a)
                      for depth, items in ctx["groups"] for s, _ in items
                      for opt in spec.roster for a in range(ATTEMPTS))
    failed, problems = check_records(batches, expected, cut_values,
                                     spec.budget)
    on_disk = bench.read_records(written[0])
    if on_disk != records:
        problems.append("records.csv does not read back as written")
        failed = len(expected)
    return PassResult(
        wall_s=wall, evals=sum(r.evals_used for r in records),
        attempted=len(expected), failed=failed,
        approx_ratio=overall_eta(records, cut_values),
        digest=sha256_lines(_record_line(r) for r in records),
        problems=problems)


def _record_key(r):
    return (r.instance, r.depth, r.optimizer, r.attempt)


def _record_line(r) -> str:
    return (f"{r.instance},{r.group},{r.depth},{r.optimizer},{r.attempt},"
            f"{r.best_value!r},{r.best_exact!r},{r.evals_used}")


def check_records(batches, expected, cut_values, budget):
    """(failed cells, problem texts) for the run_bench outputs of one pass.

    A record fails when its eval count leaves [1, budget] or its exact best
    leaves [0, max cut + 1e-9].  A record set that is incomplete, has extra
    or duplicate cells, or a batch not in canonical order fails every cell.
    """
    problems = []
    failed = 0
    records = [r for b in batches for r in b]
    for r in records:
        c_opt = cut_values.get(r.instance, math.nan)
        if not 1 <= r.evals_used <= budget:
            failed += 1
            problems.append(f"{_record_key(r)}: evals_used {r.evals_used}")
        elif not (0.0 <= r.best_exact <= c_opt + 1e-9):
            failed += 1
            problems.append(f"{_record_key(r)}: best_exact {r.best_exact!r} "
                            f"outside [0, {c_opt}]")
    keys = [_record_key(r) for r in records]
    if sorted(keys) != list(expected):
        problems.append("record set is not the expected cell set")
        failed = len(expected)
    elif any([_record_key(r) for r in b] != sorted(_record_key(r) for r in b)
             for b in batches):
        problems.append("records are not in canonical order")
        failed = len(expected)
    return min(failed, len(expected)), problems


def overall_eta(records, cut_values) -> float:
    """The paper's eta: median over instances of the best optimizer's mean
    best_exact / C_opt, pooled over groups and depths."""
    pooled = [dataclasses.replace(r, group="all", depth=0) for r in records]
    table = bench.approximation_ratios(pooled, cut_values)
    return table.get(("all", 0), math.nan)


def _train_pass(spec: TrainSpec, ctx, seed, index, untraced) -> PassResult:
    pass_seed = seeding.derive_seed(seed, "pass", index)
    cfg = rl.PpoConfig(epochs=spec.epochs,
                       episodes_per_epoch=spec.episodes,
                       episode_len=spec.steps, probe_count=spec.probe)
    t0 = perf_counter()
    bundle, curve = rl.train(ctx["train"], 1, cfg, pass_seed)
    wall = perf_counter() - t0

    problems = []
    failed = 0
    if len(curve) != spec.epochs:
        problems.append(f"curve has {len(curve)} epochs, "
                        f"expected {spec.epochs}")
        failed = spec.epochs
    else:
        bad = int(np.sum(~np.isfinite(curve)))
        if bad:
            problems.append(f"{bad} non-finite curve entries")
        failed = bad
    params = bundle.actor.parameters() + bundle.critic.parameters()
    if not all(np.all(np.isfinite(w)) for w in params):
        problems.append("policy weights are not finite")
        failed = spec.epochs

    # quality of the trained policy: one sampled rl cell per train instance
    bench_cfg = bench.BenchConfig(depths=(1,), budget=spec.eval_budget,
                                  attempts=ATTEMPTS, shots=spec.eval_shots,
                                  roster=("rl",), seed=pass_seed)
    with untraced():
        records = bench.run_bench(ctx["train"], ("rl",), bench_cfg,
                                  {"rl": {1: bundle}}, threads=1)
        cut_values = bench.suite_cut_values(ctx["train"])
    expected = sorted((graphs.instance_id(s), 1, "rl", a)
                      for s, _ in ctx["train"] for a in range(ATTEMPTS))
    bad_cells, cell_problems = check_records([records], expected, cut_values,
                                             spec.eval_budget)
    if bad_cells:
        problems += cell_problems
        failed = spec.epochs

    lines = [repr(float(v)) for v in curve]
    for w in params:
        lines.append(hashlib.sha256(
            np.ascontiguousarray(w, dtype="<f8").tobytes()).hexdigest())
    return PassResult(
        wall_s=wall, evals=spec.epochs * spec.episodes * spec.steps,
        attempted=spec.epochs, failed=min(failed, spec.epochs),
        approx_ratio=overall_eta(records, cut_values),
        digest=sha256_lines(lines), problems=problems)

"""Ten release gates over the assembled stack.

Each test prints one `[criterion N] PASS/FAIL` line (collected again in the
terminal summary); run with `-s` to watch them stream.  The heavyweight
fixtures (density models, benchmark runs) are shared across gates, so the
whole module stays in the minutes range on one core.
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import dense_reference, random_graph
from qaoabench.baselines import multistart_collect
from qaoabench.bench import (BenchConfig, approximation_ratios, gap_reduction,
                             optimality_ratios, run_bench, suite_cut_values)
from qaoabench.cli import main as cli_main
from qaoabench.engine import QaoaParams, energy, evolve, expectation_sampled
from qaoabench.graphs import Graph, group_of, instance_id, max_cut_bruteforce
from qaoabench.kde import KdeModel, kde_fit, sample_vectors
from qaoabench.nets import Adam
from qaoabench.rl import (NOISE_VARIANCE, PpoConfig, _actor_loss_grads,
                          _mean_kl, collect_episode, gae_advantages,
                          init_policy, ppo_update, train)
from qaoabench.seeding import derive_seed
from test_nets import make_net, numeric_grads
from test_rl import bandit_tail_mean, clamped_bandit_optimum

BUDGET = 192
BENCH_SEED = 20260815


@pytest.fixture(scope="module")
def kde_p1(train_set):
    pooled = []
    for _, g in train_set:
        pooled += multistart_collect(g, 1, 40, 12345)
    return kde_fit(pooled)


@pytest.fixture(scope="module")
def kde_p4(train_set):
    pooled = []
    for _, g in train_set:
        pooled += multistart_collect(g, 4, 60, 12345)
    return kde_fit(pooled)


@pytest.fixture(scope="module")
def bench_a(test_set, kde_p1):
    """p=1 comparison on the n<=12 test subset, full budget and attempts."""
    sub = [(s, g) for s, g in test_set if g.n <= 12]
    cfg = BenchConfig(depths=(1,), budget=BUDGET, attempts=10, shots=1024,
                      roster=("random", "nm", "kde"), seed=BENCH_SEED)
    t0 = time.monotonic()
    records = run_bench(sub, cfg.roster, cfg, models={"kde": {1: kde_p1}})
    return records, sub, time.monotonic() - t0


@pytest.fixture(scope="module")
def bench_b(test_set, kde_p4):
    """p=4 comparison on the community + ladder n<=12 subset."""
    sub = [(s, g) for s, g in test_set
           if g.n <= 12 and group_of(s) in ("community", "ladder")]
    cfg = BenchConfig(depths=(4,), budget=BUDGET, attempts=10, shots=1024,
                      roster=("random", "nm", "kde"), seed=BENCH_SEED)
    records = run_bench(sub, cfg.roster, cfg, models={"kde": {4: kde_p4}})
    return records, sub


def test_criterion_01_statevector_vs_dense_reference(criterion):
    rng = np.random.default_rng(BENCH_SEED)
    t0 = time.monotonic()
    worst = 0.0
    for case in range(100):
        g = random_graph(rng)
        p = (1, 2, 4)[case % 3]
        betas = rng.uniform(-math.pi, math.pi, p)
        gammas = rng.uniform(-math.pi, math.pi, p)
        amps = evolve(g, QaoaParams(betas, gammas))
        psi = dense_reference(g.n, g.edges, betas, gammas)
        worst = max(worst, float(np.max(np.abs(amps - psi))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert criterion(1, ok, f"100 cases, max amplitude error {worst:.2e}, "
                            f"{elapsed:.1f}s")


def test_criterion_02_uniform_state_energy(criterion, train_set, test_set):
    t0 = time.monotonic()
    graphs = [g for _, g in train_set + test_set if g.n <= 20]
    worst = 0.0
    for g in graphs:
        zero = QaoaParams([0.0], [0.0])
        dev = abs(energy(g, zero).mean - len(g.edges) / 2.0)
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    assert criterion(2, ok, f"{len(graphs)} graphs, max |f(0) - |E|/2| = "
                            f"{worst:.2e}, {elapsed:.1f}s")


def _five_instances(test_set):
    by_group = {}
    for spec, g in test_set:
        if g.n <= 12:
            by_group.setdefault((group_of(spec), g.n), []).append((spec, g))
    return [by_group[("random", 8)][0], by_group[("random", 12)][0],
            by_group[("ladder", 10)][0], by_group[("community", 6)][0],
            by_group[("community", 12)][0]]


def test_criterion_03_shot_statistics(criterion, test_set):
    contained = []
    ratios = []
    for spec, g in _five_instances(test_set):
        iid = instance_id(spec)
        prng = np.random.default_rng(derive_seed(7, "crit3", iid))
        params = QaoaParams.from_vector(prng.uniform(-math.pi, math.pi, 2))
        exact = energy(g, params).mean
        hits = 0
        for seed in range(100):
            ev = expectation_sampled(g, params, 1024, seed)
            if abs(ev.mean - exact) <= 4.0 * ev.stderr:
                hits += 1
        contained.append(hits)
        lo = np.mean([expectation_sampled(g, params, 1024, s).stderr
                      for s in range(20)])
        hi = np.mean([expectation_sampled(g, params, 16384, s).stderr
                      for s in range(20)])
        ratios.append(float(lo / hi))
    ok = all(h >= 99 for h in contained) and \
        all(3.5 <= r <= 4.5 for r in ratios)
    assert criterion(3, ok, f"containment {contained}/100 per instance, "
                            f"stderr ratios "
                            f"{[round(r, 2) for r in ratios]}")


def test_criterion_04_cut_oracle_cross_check(criterion, train_set, test_set):
    graphs = [g for _, g in train_set + test_set if g.n <= 16]
    bad = 0
    for g in graphs:
        if float(np.max(g.cuts)) != float(max_cut_bruteforce(g).value):
            bad += 1
    assert criterion(4, bad == 0,
                     f"{len(graphs)} graphs, {bad} oracle mismatches")


def test_criterion_05_kde_sampling_law(criterion, kde_p1):
    m = 10_000
    # distributional check on the production model (pooled train S*, p=1)
    draws = sample_vectors(kde_p1, m, seed=99)
    rng = np.random.default_rng(1234)
    idx = rng.integers(0, len(kde_p1.centers), m)
    ref = kde_p1.centers[idx] + rng.normal(0, kde_p1.bandwidth, (m, 2))
    ref = np.mod(ref + math.pi, 2 * math.pi) - math.pi
    pvals = [float(stats.ks_2samp(draws[:, j], ref[:, j]).pvalue)
             for j in range(2)]

    # moment identities on a wrap-free synthetic mixture
    srng = np.random.default_rng(5)
    centers = np.column_stack([srng.uniform(0.1, 0.9, 60),
                               -srng.uniform(0.1, 0.9, 60)])
    omega = 0.2
    synth = sample_vectors(KdeModel(centers, omega, 1), m, seed=7)
    mean_err = np.abs(synth.mean(axis=0) - centers.mean(axis=0)) / \
        np.abs(centers.mean(axis=0))
    want_var = omega**2 + centers.var(axis=0)
    var_err = np.abs(synth.var(axis=0) / want_var - 1.0)
    ok = all(p > 0.01 for p in pvals) and mean_err.max() <= 0.05 \
        and var_err.max() <= 0.05
    assert criterion(5, ok, f"KS p-values {[round(p, 3) for p in pvals]}, "
                            f"mean err {mean_err.max():.3f}, "
                            f"variance err {var_err.max():.3f}")


def test_criterion_06_ppo_machinery(criterion):
    # analytic gradients against central finite differences
    grad_rel = 0.0
    rng = np.random.default_rng(3)
    for head in ("scaled_tanh", "linear"):
        net = make_net(head, sizes=(4, 6, 5, 2), seed=11)
        x = rng.normal(size=(3, 4))
        dout = rng.normal(size=(3, 2))
        _, cache = net.forward(x)
        grads = net.backward(cache, dout)
        for got, num in zip(grads, numeric_grads(net, x, dout)):
            rel = np.abs(got - num) / np.maximum(np.abs(num), 1e-8)
            grad_rel = max(grad_rel, float(rel.max()))

    # stateless-bandit convergence within 200 updates
    opt = clamped_bandit_optimum()
    mean = bandit_tail_mean(seed=0, updates=200)
    bandit_err = float(np.abs(mean - [opt, -opt]).max())

    # the improvement loop never continues from an over-threshold policy
    bundle = init_policy(1, seed=5)
    k2 = Graph(2, ((0, 1),))
    batch = [collect_episode(k2, bundle, seed=16 + i, normalizer=0.5, steps=16)
             for i in range(4)]
    cfg = PpoConfig(actor_lr=2e-3, max_passes=80, epochs=1,
                    episodes_per_epoch=1)
    _, diag = ppo_update(bundle, batch, cfg)
    states = np.concatenate([t.states for t in batch])
    actions = np.concatenate([t.actions for t in batch])
    logp_old = np.concatenate([t.logps for t in batch])
    adv = np.concatenate([gae_advantages(t, cfg.discount, cfg.gae_lambda)
                          for t in batch])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    replica = bundle.copy()
    old_means = bundle.actor(states)
    opt_actor = Adam(replica.actor.parameters(), cfg.actor_lr)
    kls = []
    for _ in range(cfg.max_passes):
        means, cache = replica.actor.forward(states)
        kl = _mean_kl(old_means, means, NOISE_VARIANCE)
        if kl > cfg.kl_stop:
            break
        kls.append(kl)
        _, grads, _ = _actor_loss_grads(replica.actor, means, cache, actions,
                                        logp_old, adv, cfg.clip,
                                        NOISE_VARIANCE)
        opt_actor.step(grads)
    kl_ok = (len(kls) == diag["actor_passes"] and
             diag["actor_passes"] < cfg.max_passes and
             all(kl <= cfg.kl_stop for kl in kls))

    ok = grad_rel <= 1e-4 and bandit_err <= 0.01 and kl_ok
    assert criterion(6, ok, f"gradient rel err {grad_rel:.2e}, bandit error "
                            f"{bandit_err:.4f} vs ±{opt:.4f}, KL-guarded "
                            f"passes {diag['actor_passes']}")


def test_criterion_07_learning_signal(criterion, train_set):
    cfg = PpoConfig(epochs=50, episodes_per_epoch=16, episode_len=64,
                    probe_count=500)
    t0 = time.monotonic()
    endpoints = []
    for seed in (0, 1, 2):
        _, curve = train(train_set, 1, cfg, seed=seed)
        endpoints.append((float(curve[0]), float(curve[-1])))
    elapsed = time.monotonic() - t0
    wins = sum(last > first for first, last in endpoints)
    ok = wins >= 2 and elapsed < 1800.0
    detail = ", ".join(f"seed {s}: {a:.4f}->{b:.4f}"
                       for s, (a, b) in enumerate(endpoints))
    assert criterion(7, ok, f"{wins}/3 improved ({detail}), {elapsed:.0f}s")


def test_criterion_08_gap_reduction(criterion, bench_a):
    records, _, elapsed = bench_a
    pooled = [replace(r, group="all") for r in records]
    gap = gap_reduction(optimality_ratios(pooled))
    per_group = gap_reduction(optimality_ratios(records))
    kde_gap = gap[("all", 1, "kde")]
    ok = kde_gap > 1.0 and elapsed < 7200.0
    groups = {f"{g}": round(v, 2) for (g, _, o), v in per_group.items()
              if o == "kde"}
    assert criterion(8, ok, f"median gap reduction kde={kde_gap:.2f} "
                            f"(random={gap[('all', 1, 'random')]:.2f}), "
                            f"per group {groups}, {elapsed:.0f}s")


def test_criterion_09_depth_trend(criterion, bench_a, bench_b):
    records_a, sub_a, _ = bench_a
    records_b, sub_b = bench_b
    cl_ids = {instance_id(s) for s, _ in sub_b}
    cuts = suite_cut_values(sub_a)
    eta1 = approximation_ratios(
        [replace(r, group="cl") for r in records_a if r.instance in cl_ids],
        cuts)[("cl", 1)]
    eta4 = approximation_ratios(
        [replace(r, group="cl") for r in records_b], cuts)[("cl", 4)]
    ok = eta4 >= eta1 - 0.02
    assert criterion(9, ok, f"median eta p=4 {eta4:.4f} vs p=1 {eta1:.4f} "
                            f"over {len(cl_ids)} community+ladder instances")


def _hash_artifacts(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def _desk_pipeline(root):
    root.mkdir()
    assert cli_main(["gen", "--suite", "test",
                     "--out", str(root / "gen")]) == 0
    assert cli_main(["build-sstar", "--suite", "train", "--p", "1",
                     "--starts", "2", "--seed", "0",
                     "--out", str(root / "sstar")]) == 0
    assert cli_main(["build-kde",
                     "--sstar", str(root / "sstar" / "sstar-p1.json"),
                     "--out", str(root / "kde")]) == 0
    assert cli_main(["train-rl", "--p", "1", "--epochs", "1",
                     "--episodes", "2", "--steps", "4", "--probe", "5",
                     "--seed", "0", "--out", str(root / "rl")]) == 0
    assert cli_main(["bench", "--suite", "train", "--p", "1",
                     "--roster", "random,nm,kde,rl", "--budget", "16",
                     "--attempts", "1", "--shots", "64", "--seed", "1",
                     "--kde", str(root / "kde" / "kde-p1.json"),
                     "--policy", str(root / "rl" / "policy-p1.json"),
                     "--out", str(root / "bench")]) == 0
    assert cli_main(["report",
                     "--records", str(root / "bench" / "records.csv"),
                     "--out", str(root / "report")]) == 0
    return _hash_artifacts(root)


def test_criterion_10_protocol_hygiene(criterion, bench_a, bench_b, tmp_path):
    records_a, _, _ = bench_a
    records_b, _ = bench_b
    over = [r for r in records_a + records_b if r.evals_used > BUDGET]
    max_evals = max(r.evals_used for r in records_a + records_b)

    first = _desk_pipeline(tmp_path / "run1")
    second = _desk_pipeline(tmp_path / "run2")
    ok = not over and first == second and len(first) >= 8
    assert criterion(10, ok, f"max evals/cell {max_evals}/{BUDGET} over "
                             f"{len(records_a) + len(records_b)} cells; "
                             f"{len(first)} artifacts hash-identical "
                             f"across two pipeline runs")

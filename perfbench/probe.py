"""L1 probe (one metered evaluation) and the L4 estimate built from it.

The probe times single evaluations on the suite's R-n<N>-ep0.5-s1 graphs
at n in {8, 12, 16, 20}, p in {1, 4}, exact and sampled (1024 shots), and
the objective construction (cut diagonal) per n.  The L4 estimate prices
the full protocol with these costs: 94 test instances, p in {1, 2, 4}, four
optimizers, 10 attempts, budget 192 sampled evals per cell, plus the 500
exact normalizer evals and the extra cut diagonal of every rl cell.  Sizes
and depths that were not probed are scaled from the probed ones.
"""

import math
from statistics import median
from time import perf_counter

from qaoabench import engine, graphs, objective, seeding

SIZES = (8, 12, 16, 20)
DEPTHS = (1, 4)
MODES = ("exact", "sampled")
SHOTS = 1024
# evals per probe point: enough for a median where evals are cheap
REPEATS = {8: 21, 12: 21, 16: 5, 20: 1}

PROTOCOL_DEPTHS = (1, 2, 4)
OPTIMIZERS = 4
ATTEMPTS = 10
BUDGET = 192
NORMALIZER_EVALS = 500


def probe_l1(seed: int):
    """(eval_ms[(n, p, mode)], for_graph_ms[n]) as medians."""
    eval_ms, for_graph_ms = {}, {}
    for n in SIZES:
        g = graphs.realize(graphs.spec_from_id(f"R-n{n}-ep0.5-s1"))
        build = []
        for p in DEPTHS:
            for mode in MODES:
                t0 = perf_counter()
                obj = objective.MeteredObjective.for_graph(
                    g, depth=p, budget=REPEATS[n],
                    shots=SHOTS if mode == "sampled" else None,
                    seed=seeding.derive_seed(seed, "l1-noise", n, p))
                build.append(perf_counter() - t0)
                rng = seeding.stream_rng(seed, "l1-params", n, p, mode)
                times = []
                for _ in range(REPEATS[n]):
                    params = engine.QaoaParams.from_vector(
                        rng.uniform(-math.pi, math.pi, 2 * p))
                    t0 = perf_counter()
                    obj(params)
                    times.append(perf_counter() - t0)
                eval_ms[(n, p, mode)] = median(times) * 1e3
        for_graph_ms[n] = median(build) * 1e3
    return eval_ms, for_graph_ms


def _scale_in_n(table: dict, n: int) -> float:
    """Log-linear in n through the nearest probed sizes; flat below them,
    since per-call overhead sets the floor there."""
    if n in table:
        return table[n]
    sizes = sorted(table)
    if n < sizes[0]:
        return table[sizes[0]]
    above = [s for s in sizes if s > n]
    if above:
        a, b = max(s for s in sizes if s < n), above[0]
    else:
        a, b = sizes[-2], sizes[-1]
    return table[a] * (table[b] / table[a]) ** ((n - a) / (b - a))


def _eval_cost(eval_ms, n, p, mode) -> float:
    def at(depth):
        return _scale_in_n({s: eval_ms[(s, depth, mode)] for s in SIZES}, n)

    if p in DEPTHS:
        return at(p)
    lo, hi = at(DEPTHS[0]), at(DEPTHS[-1])   # linear in the layer count
    return lo + (hi - lo) * (p - DEPTHS[0]) / (DEPTHS[-1] - DEPTHS[0])


def l4_estimate(eval_ms, for_graph_ms, sizes_histogram: dict):
    """(hours, measured (n, p) pairs, scaled (n, p) pairs)."""
    total_ms = 0.0
    measured, scaled = [], []
    for n, count in sorted(sizes_histogram.items()):
        build = _scale_in_n(for_graph_ms, n)
        for p in PROTOCOL_DEPTHS:
            (measured if n in SIZES and p in DEPTHS else scaled).append((n, p))
            sampled = _eval_cost(eval_ms, n, p, "sampled")
            exact = _eval_cost(eval_ms, n, p, "exact")
            cells = OPTIMIZERS * ATTEMPTS
            per_instance = (cells * (build + BUDGET * sampled)
                            + ATTEMPTS * (build + NORMALIZER_EVALS * exact))
            total_ms += count * per_instance
    return total_ms / 3.6e6, measured, scaled


def l1_metrics(eval_ms, for_graph_ms) -> dict:
    out = {}
    for (n, p, mode), ms in sorted(eval_ms.items()):
        out[f"l1.eval_ms.n{n}.p{p}.{mode}"] = ms
    for n, ms in sorted(for_graph_ms.items()):
        out[f"l1.for_graph_ms.n{n}"] = ms
    return out

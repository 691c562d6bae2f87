"""Budgeted optimizer comparison over graph suites.

Every (instance, depth, optimizer, attempt) cell gets a fresh sampled-mode
objective with its own derived noise stream; optimizers that need a start
point share the same per-(instance, depth, attempt) draw so no method gets
luckier initial conditions.  Rankings use exact re-scored energies; the
shot-noisy best stays in the record for transparency.
"""

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from .artifacts import METRICS_SCHEMA, RECORDS_SCHEMA, TAU_SCHEMA, \
    read_csv, write_csv, write_json
from .baselines import nelder_mead_all, random_search
from .engine import chunk_points
from .errors import ConfigError, DomainError
from .graphs import MAX_N, group_of, instance_id, \
    max_cut_bruteforce, realize, spec_from_id
from .kde import kde_optimize
from .objective import MeteredObjective
from .rl import rl_optimize_all
from .seeding import derive_seed, stream_rng

ROSTER = ("random", "nm", "kde", "rl")
LEARNED = ("kde", "rl")


@dataclass(frozen=True)
class BenchConfig:
    depths: tuple = (1, 2, 4)
    budget: int = 192
    attempts: int = 10
    shots: int | None = 1024   # None = exact metered evaluations
    roster: tuple = ROSTER
    seed: int = 0

    def __post_init__(self):
        if self.attempts < 1 or self.budget < 1:
            raise DomainError("attempts and budget must be >= 1")
        unknown = [o for o in self.roster if o not in ROSTER]
        if unknown:
            raise ConfigError(f"unknown optimizers in roster: {unknown}")
        if not self.depths or not self.roster:
            raise DomainError("depths and roster must be non-empty")


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    group: str
    depth: int
    optimizer: str
    attempt: int
    best_value: float
    best_exact: float
    evals_used: int


@dataclass
class MetricsTable:
    """Group-level medians keyed by tuples.

    tau: (group, depth, optimizer) -> median expected optimality ratio
    gap: (group, depth, optimizer) -> gap-reduction factor vs nelder-mead
    eta: (group, depth) -> median expected approximation ratio
    """

    tau: dict = field(default_factory=dict)
    gap: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)


def _shared_start(root_seed: int, iid: str, depth: int,
                  attempt: int):
    """The start vector of an nm or rl cell, which the optimizer wraps."""
    rng = stream_rng(root_seed, "start", iid, depth, attempt)
    return rng.uniform(-math.pi, math.pi, 2 * depth)


def _run_cell(cells, cfg: BenchConfig, depth: int, optimizer: str,
              model) -> list:
    """The records of a lockstep group of (spec, graph, attempt) cells at
    one n, each cell with its own objective and noise stream."""
    keys = [(instance_id(spec), attempt) for spec, _, attempt in cells]
    # lazy, so random and kde cells run and free their traces one by one
    objs = (MeteredObjective.for_graph(
        g, depth=depth, budget=cfg.budget, shots=cfg.shots,
        seed=derive_seed(cfg.seed, "cell-noise", iid, depth, optimizer, a))
        for (_, g, _), (iid, a) in zip(cells, keys))
    seeds = [derive_seed(cfg.seed, "cell-opt", iid, depth, optimizer, a)
             for iid, a in keys]
    starts = [_shared_start(cfg.seed, iid, depth, a) for iid, a in keys]
    if optimizer == "random":
        results = map(random_search, objs, seeds)
    elif optimizer == "nm":
        results = nelder_mead_all(list(objs), starts)
    elif optimizer == "kde":
        results = (kde_optimize(obj, model, seed)
                   for obj, seed in zip(objs, seeds))
    elif optimizer == "rl":
        results = rl_optimize_all(list(objs), model, seeds, starts)
    else:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    return [BenchRecord(instance=instance_id(spec), group=group_of(spec),
                        depth=depth, optimizer=optimizer, attempt=attempt,
                        best_value=res.best_value, best_exact=res.best_exact,
                        evals_used=res.evals_used)
            for (spec, _, attempt), res in zip(cells, results)]


def _model_for(models, optimizer: str, depth: int):
    if optimizer not in LEARNED:
        return None
    table = (models or {}).get(optimizer, {})
    if depth not in table:
        raise ConfigError(
            f"roster includes {optimizer!r} but no model for p={depth} "
            f"was provided")
    return table[depth]


def run_bench(suite, roster, cfg: BenchConfig, models=None,
              threads: int = 1) -> list:
    """All roster x suite x depth x attempt cells, canonically sorted.

    `models` maps optimizer name -> {depth: model} for the learned methods.
    Cells run in lockstep groups of one (n, depth, optimizer); threads > 1
    splits each group in `threads` parts or more over a process pool,
    without changing any result.
    """
    groups = {}
    for spec, g in suite:
        for depth in cfg.depths:
            for optimizer in roster:
                groups.setdefault((g.n, depth, optimizer), []).extend(
                    (spec, g, attempt) for attempt in range(cfg.attempts))
    jobs = []
    for (n, depth, optimizer), cells in groups.items():
        model = _model_for(models, optimizer, depth)
        # a group of more cells than a kernel chunk holds states stacks no
        # more, and only holds more traces at once
        parts = max(threads, -(-len(cells) // chunk_points(n)))
        jobs += [(cells[part::parts], cfg, depth, optimizer, model)
                 for part in range(min(parts, len(cells)))]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(_run_cell_star, jobs))
    else:
        batches = [_run_cell(*job) for job in jobs]
    records = [r for batch in batches for r in batch]
    records.sort(key=lambda r: (r.instance, r.depth, r.optimizer, r.attempt))
    return records


def _run_cell_star(job):
    return _run_cell(*job)


def _f_opt(records) -> dict:
    """(instance, depth) -> the best exact value any optimizer reached."""
    f_opt = {}
    for r in records:
        key = (r.instance, r.depth)
        f_opt[key] = max(f_opt.get(key, -math.inf), r.best_exact)
    return f_opt


def _cell_means(records, refs) -> dict:
    """(instance, group, depth, optimizer) -> mean over attempts of
    best_exact / ref, where refs[i] is records[i]'s reference; records
    whose reference is not positive are skipped."""
    sums, counts = {}, {}
    for r, ref in zip(records, refs):
        if ref <= 0:
            continue
        key = (r.instance, r.group, r.depth, r.optimizer)
        sums[key] = sums.get(key, 0.0) + r.best_exact / ref
        counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def optimality_ratios(records) -> dict:
    """(group, depth, optimizer) -> median over instances of expected tau.

    tau = best_exact / f_opt (see `_f_opt`); instances with non-positive
    f_opt (edgeless ones) are dropped with a warning.
    """
    if not records:
        raise DomainError("no records to aggregate")
    f_opt = _f_opt(records)
    dropped = sorted({k[0] for k, v in f_opt.items() if v <= 0})
    if dropped:
        warnings.warn(f"excluding instances with non-positive best value: "
                      f"{dropped}")
    cells = _cell_means(records, [f_opt[(r.instance, r.depth)]
                                  for r in records])
    buckets = {}
    for (_, group, depth, optimizer), tau in cells.items():
        buckets.setdefault((group, depth, optimizer), []).append(tau)
    return {key: float(median(vals)) for key, vals in sorted(buckets.items())}


def gap_reduction(tau: dict) -> dict:
    """(group, depth, optimizer) -> (1 - tau_nm) / (1 - tau_optimizer).

    Needs nelder-mead medians in `tau`; a method that exactly matches the
    baseline scores 1, and a method reaching tau = 1 scores infinity.
    """
    groups = {}
    for (g, d, o), t in tau.items():
        groups.setdefault((g, d), {})[o] = t
    out = {}
    for (g, d), ratios in sorted(groups.items()):
        if "nm" not in ratios:
            raise DomainError(f"gap reduction needs nelder-mead ratios for "
                              f"group={g!r} p={d}")
        base = ratios.pop("nm")
        for o, t in ratios.items():
            if t == base:
                out[(g, d, o)] = 1.0
            elif t >= 1.0:
                out[(g, d, o)] = math.inf
            else:
                out[(g, d, o)] = (1.0 - base) / (1.0 - t)
    return out


def approximation_ratios(records, cut_values: dict) -> dict:
    """(group, depth) -> median over instances of the best optimizer's
    expected best_exact / C_opt.

    `cut_values` maps instance id to its brute-force maximum cut; instances
    missing from the map are excluded with a warning.
    """
    missing = sorted({r.instance for r in records
                      if r.instance not in cut_values})
    if missing:
        warnings.warn(f"no max-cut value for {missing}; excluded from "
                      f"approximation ratios")
    cells = _cell_means(records, [cut_values.get(r.instance, 0.0)
                                  for r in records])
    best = {}
    for (iid, group, depth, _), eta in cells.items():
        key = (iid, group, depth)
        best[key] = max(best.get(key, 0.0), eta)
    buckets = {}
    for (_, group, depth), eta in best.items():
        buckets.setdefault((group, depth), []).append(eta)
    return {key: float(median(vals)) for key, vals in sorted(buckets.items())}


def suite_cut_values(suite) -> dict:
    """Brute-force max cuts for every instance small enough to enumerate."""
    out = {}
    for spec, g in suite:
        if g.n <= MAX_N:
            out[instance_id(spec)] = float(max_cut_bruteforce(g).value)
    return out


def compute_metrics(records, cut_values: dict) -> MetricsTable:
    if not records:
        return MetricsTable()
    tau = optimality_ratios(records)
    return MetricsTable(tau=tau, gap=gap_reduction(tau),
                        eta=approximation_ratios(records, cut_values))


# ---------------------------------------------------------------- reports

def _fmt(x: float) -> str:
    return repr(float(x))


def export_report(table: MetricsTable | None, records, out_dir,
                  formats=("csv", "json")) -> list:
    """Write records.csv + tau_long.csv (csv) and metrics.json (json).

    `table` is read only for json.  Returns the list of paths written.
    Files are deterministic: sorted rows, no timestamps, schema id on the
    first line.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        written.append(write_csv(
            out_dir / "records.csv", RECORDS_SCHEMA,
            ["instance", "group", "p", "optimizer", "attempt", "best_value",
             "best_exact", "evals_used"],
            ([r.instance, r.group, r.depth, r.optimizer, r.attempt,
              _fmt(r.best_value), _fmt(r.best_exact), r.evals_used]
             for r in records)))
        f_opt = _f_opt(records)
        written.append(write_csv(
            out_dir / "tau_long.csv", TAU_SCHEMA,
            ["group", "p", "optimizer", "attempt", "tau"],
            ([r.group, r.depth, r.optimizer, r.attempt,
              _fmt(r.best_exact / f_opt[(r.instance, r.depth)])]
             for r in records if f_opt[(r.instance, r.depth)] > 0)))
    if "json" in formats:
        written.append(write_json(out_dir / "metrics.json", METRICS_SCHEMA,
                                  metrics_to_json(table)))
    return written


def metrics_to_json(table: MetricsTable) -> dict:
    """The body of metrics.json; an infinite value is written as "inf"."""
    def dump3(d):
        return [{"group": g, "p": p, "optimizer": o,
                 "value": "inf" if math.isinf(v) else v}
                for (g, p, o), v in sorted(d.items())]

    return {
        "tau": dump3(table.tau),
        "gap": dump3(table.gap),
        "eta": [{"group": g, "p": p, "value": v}
                for (g, p), v in sorted(table.eta.items())],
    }


def read_records(path) -> list:
    """Records from a records.csv that export_report wrote."""
    return read_csv(path, RECORDS_SCHEMA, "records", lambda row: BenchRecord(
        instance=row["instance"], group=row["group"], depth=int(row["p"]),
        optimizer=row["optimizer"], attempt=int(row["attempt"]),
        best_value=float(row["best_value"]),
        best_exact=float(row["best_exact"]),
        evals_used=int(row["evals_used"])))


def records_cut_values(records) -> dict:
    """Recompute brute-force cuts for the instances named in records.  The
    graphs are built one at a time, so each diagonal is freed before the
    next is built."""
    specs = (spec_from_id(iid) for iid in sorted({r.instance for r in records}))
    return suite_cut_values((spec, realize(spec)) for spec in specs)

"""Command-line pipeline: generate suites, fit models, benchmark, report.

One root --seed fans out through named substreams (see seeding.py), so any
stage can be re-run in isolation and still agree with a full pipeline run.
Every output directory gets a manifest with the resolved configuration and
content hashes; no artifact embeds a timestamp (artifacts.py holds the file
convention), making runs hash-identical per seed.
"""

import argparse
import sys
from pathlib import Path

from .artifacts import CURVE_SCHEMA, LANDSCAPE_SCHEMA, SSTAR_SCHEMA, \
    SUITE_SCHEMA, read_json, write_csv, write_json, write_manifest
from .baselines import multistart_collect
from .bench import BenchConfig, compute_metrics, export_report, \
    read_records, records_cut_values, run_bench, suite_cut_values, ROSTER
from .engine import energy, landscape_grid
from .errors import ConfigError, QaoaBenchError
from .graphs import group_of, instance_id, realize, spec_from_id, suite
from .kde import kde_fit, kde_load, kde_save
from .rl import PpoConfig, load_policy, save_policy, train
from .seeding import derive_seed

VALID_DEPTHS = (1, 2, 4)

# key-value config file schema: every key has a caster and a sanity check
CONFIG_KEYS = {
    "seed": int, "budget": int, "attempts": int, "shots": int,
    "starts": int, "epochs": int, "episodes": int, "steps": int,
    "resolution": int, "threads": int, "max_n": int, "probe": int,
    "bandwidth": float, "depths": str, "roster": str, "suite": str,
}
_NONNEG = ("seed",)


def load_config(path) -> dict:
    """Parse `key = value` lines; unknown keys or bad values all reported."""
    values, problems = {}, []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected key=value")
                continue
            key, _, text = (t.strip() for t in line.partition("="))
            if key not in CONFIG_KEYS:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            try:
                value = CONFIG_KEYS[key](text)
            except ValueError:
                problems.append(f"line {lineno}: {key} expects "
                                f"{CONFIG_KEYS[key].__name__}, got {text!r}")
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                low = 0 if key in _NONNEG else 1
                if value < low:
                    problems.append(f"line {lineno}: {key} must be >= {low}")
                    continue
            values[key] = value
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return values


def _resolve(args, config, key, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _parse_depths(text) -> tuple:
    out = []
    for tok in str(text).split(","):
        d = int(tok)
        if d not in VALID_DEPTHS:
            raise ConfigError(f"depth must be one of {VALID_DEPTHS}, got {d}")
        out.append(d)
    return tuple(out)


def _parse_roster(text) -> tuple:
    out = tuple(tok.strip() for tok in str(text).split(",") if tok.strip())
    bad = [o for o in out if o not in ROSTER]
    if bad:
        raise ConfigError(f"unknown optimizers {bad}; roster is {ROSTER}")
    if "nm" not in out:
        raise ConfigError(f"roster {list(out)} has no 'nm', the baseline "
                          f"every gap reduction is measured against")
    return out


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _shots_arg(args, config, default=1024):
    if getattr(args, "exact", False):
        return None
    return _resolve(args, config, "shots", default)


# ------------------------------------------------------------ subcommands
# Each handler returns (resolved config, input paths, output paths) for the
# manifest that `main` writes.

def cmd_gen(args, config) -> tuple:
    name = _resolve(args, config, "suite", "test")
    items = suite(name)
    instances = []
    for spec, g in items:
        instances.append({
            "id": instance_id(spec),
            "class": spec.family,
            "group": group_of(spec),
            "params": dict(spec.params),
            "seed": spec.seed,
            "n": g.n,
            "edges": [list(e) for e in g.edges],
        })
    path = write_json(_out_dir(args) / "suite.json", SUITE_SCHEMA,
                      {"suite": name, "instances": instances})
    print(f"wrote {path} ({len(instances)} instances)")
    return {"suite": name}, [], [path]


def cmd_landscape(args, config) -> tuple:
    seed = _resolve(args, config, "seed", 0)
    resolution = _resolve(args, config, "resolution", 64)
    shots = _shots_arg(args, config)
    g = realize(spec_from_id(args.instance))
    grid = landscape_grid(g, resolution, shots=shots,
                          seed=derive_seed(seed, "landscape", args.instance))
    path = write_csv(_out_dir(args) / "landscape.csv", LANDSCAPE_SCHEMA,
                     ["beta", "gamma", "mean", "stderr"],
                     ([repr(x) for x in row] for row in grid.rows()))
    print(f"wrote {path}")
    return ({"instance": args.instance, "resolution": resolution,
             "shots": shots, "seed": seed}, [], [path])


def cmd_build_sstar(args, config) -> tuple:
    seed = _resolve(args, config, "seed", 0)
    starts = _resolve(args, config, "starts", 1000)
    depths = _parse_depths(args.p if args.p is not None
                           else config.get("depths", "1,2,4"))
    suite_name = _resolve(args, config, "suite", "train")
    items = suite(suite_name)
    out = _out_dir(args)
    paths = []
    for p in depths:
        entries = []
        for spec, g in items:
            iid = instance_id(spec)
            admitted = multistart_collect(
                g, p, starts, derive_seed(seed, "sstar", iid, p))
            best = max(energy(g, q).mean for q in admitted)
            entries.append({"instance_id": iid, "p": p,
                            "admitted": [q.vector().tolist() for q in admitted],
                            "best_exact": best})
        path = write_json(out / f"sstar-p{p}.json", SSTAR_SCHEMA,
                          {"p": p, "starts": starts, "entries": entries})
        paths.append(path)
        total = sum(len(e["admitted"]) for e in entries)
        print(f"wrote {path} ({total} admitted points)")
    return ({"suite": suite_name, "p": list(depths), "starts": starts,
             "seed": seed}, [], paths)


def read_sstar(path) -> tuple:
    """Returns (p, pooled parameter vectors) from a build-sstar file."""
    return read_json(path, SSTAR_SCHEMA, "S*", lambda body: (
        int(body["p"]),
        [vec for e in body["entries"] for vec in e["admitted"]]))


def cmd_build_kde(args, config) -> tuple:
    bandwidth = _resolve(args, config, "bandwidth", None)
    out = _out_dir(args)
    paths = []
    for sstar_path in args.sstar:
        p, pooled = read_sstar(sstar_path)
        model = kde_fit(pooled, "auto" if bandwidth is None else bandwidth)
        if model.depth != p:
            raise ConfigError(f"{sstar_path} claims p={p} but vectors have "
                              f"dimension {2 * model.depth}")
        path = out / f"kde-p{p}.json"
        kde_save(model, path)
        paths.append(path)
        print(f"wrote {path} (N={len(model.centers)}, "
              f"omega={model.bandwidth:.4f})")
    return ({"bandwidth": bandwidth, "sstar": [str(s) for s in args.sstar]},
            args.sstar, paths)


def cmd_train_rl(args, config) -> tuple:
    seed = _resolve(args, config, "seed", 0)
    p = int(_resolve(args, config, "p", 1))
    if p not in VALID_DEPTHS:
        raise ConfigError(f"p must be one of {VALID_DEPTHS}, got {p}")
    cfg = PpoConfig(
        epochs=_resolve(args, config, "epochs", 50),
        episodes_per_epoch=_resolve(args, config, "episodes", 16),
        episode_len=_resolve(args, config, "steps", 64),
        probe_count=_resolve(args, config, "probe", 500))
    suite_name = _resolve(args, config, "suite", "train")
    items = suite(suite_name)
    bundle, curve = train(items, p, cfg, derive_seed(seed, "train-rl", p))
    out = _out_dir(args)
    policy_path = out / f"policy-p{p}.json"
    save_policy(bundle, policy_path)
    curve_path = write_csv(
        out / f"curve-p{p}.csv", CURVE_SCHEMA,
        ["epoch", "mean_discounted_reward"],
        ([epoch, repr(float(value))] for epoch, value in enumerate(curve)))
    print(f"wrote {policy_path} and {curve_path} "
          f"(curve {curve[0]:.4f} -> {curve[-1]:.4f})")
    return ({"suite": suite_name, "p": p, "epochs": cfg.epochs,
             "episodes": cfg.episodes_per_epoch, "steps": cfg.episode_len,
             "probe": cfg.probe_count, "seed": seed},
            [], [policy_path, curve_path])


def cmd_bench(args, config) -> tuple:
    seed = _resolve(args, config, "seed", 0)
    depths = _parse_depths(args.p if args.p is not None
                           else config.get("depths", "1,2,4"))
    roster = _parse_roster(_resolve(args, config, "roster",
                                    "random,nm,kde,rl"))
    shots = _shots_arg(args, config)
    cfg = BenchConfig(
        depths=depths,
        budget=_resolve(args, config, "budget", 192),
        attempts=_resolve(args, config, "attempts", 10),
        shots=shots,
        roster=roster,
        seed=derive_seed(seed, "bench"))
    models = {"kde": {}, "rl": {}}
    inputs = []
    for path in args.kde or []:
        model = kde_load(path)
        models["kde"][model.depth] = model
        inputs.append(path)
    for path in args.policy or []:
        bundle = load_policy(path)
        models["rl"][bundle.depth] = bundle
        inputs.append(path)
    suite_name = _resolve(args, config, "suite", "test")
    max_n = _resolve(args, config, "max_n", None)
    items = [(spec, g) for spec, g in suite(suite_name)
             if max_n is None or g.n <= max_n]
    threads = _resolve(args, config, "threads", 1)
    records = run_bench(items, roster, cfg, models, threads=threads)
    out = _out_dir(args)
    # the records go to disk first, so a failure in the metrics keeps them
    written = export_report(None, records, out, formats=("csv",))
    table = compute_metrics(records, suite_cut_values(items))
    written += export_report(table, records, out, formats=("json",))
    print(f"wrote {len(records)} records to {out}")
    return ({"suite": suite_name, "p": list(depths), "roster": list(roster),
             "budget": cfg.budget, "attempts": cfg.attempts, "shots": shots,
             "max_n": max_n, "threads": threads, "seed": seed},
            inputs, written)


def cmd_report(args, config) -> tuple:
    records = read_records(args.records)
    fmt = args.format or "both"
    formats = ("csv", "json") if fmt == "both" else (fmt,)
    table = compute_metrics(records, records_cut_values(records))
    out = _out_dir(args)
    written = export_report(table, records, out, formats=formats)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return ({"records": str(args.records), "format": fmt}, [args.records],
            written)


# -------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qaoabench",
        description="QAOA Max-Cut parameter-optimization workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, shots=False):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--config", type=Path, default=None)
        sp.add_argument("--out", type=Path, required=True)
        if shots:
            sp.add_argument("--shots", type=int, default=None)
            sp.add_argument("--exact", action="store_true",
                            help="exact evaluation instead of shot sampling")

    sp = sub.add_parser("gen", help="write a suite manifest")
    sp.add_argument("--suite", choices=("train", "test"), default=None)
    common(sp)

    sp = sub.add_parser("landscape", help="p=1 energy surface CSV")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--resolution", type=int, default=None)
    common(sp, shots=True)

    sp = sub.add_parser("build-sstar", help="multistart near-optimal sets")
    sp.add_argument("--suite", choices=("train", "test"), default=None)
    sp.add_argument("--p", default=None, help="comma-separated depths")
    sp.add_argument("--starts", type=int, default=None)
    common(sp)

    sp = sub.add_parser("build-kde", help="fit density models on S* files")
    sp.add_argument("--sstar", type=Path, action="append", required=True)
    sp.add_argument("--bandwidth", type=float, default=None)
    common(sp)

    sp = sub.add_parser("train-rl", help="train the policy for one depth")
    sp.add_argument("--suite", choices=("train", "test"), default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--episodes", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--probe", type=int, default=None)
    common(sp)

    sp = sub.add_parser("bench", help="run the optimizer comparison")
    sp.add_argument("--suite", choices=("train", "test"), default=None)
    sp.add_argument("--roster", default=None)
    sp.add_argument("--p", default=None, help="comma-separated depths")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--attempts", type=int, default=None)
    sp.add_argument("--max-n", dest="max_n", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--kde", type=Path, action="append", default=None)
    sp.add_argument("--policy", type=Path, action="append", default=None)
    common(sp, shots=True)

    sp = sub.add_parser("report", help="recompute metrics from records.csv")
    sp.add_argument("--records", type=Path, required=True)
    sp.add_argument("--format", choices=("csv", "json", "both"), default=None)
    common(sp)
    return ap


HANDLERS = {
    "gen": cmd_gen,
    "landscape": cmd_landscape,
    "build-sstar": cmd_build_sstar,
    "build-kde": cmd_build_kde,
    "train-rl": cmd_train_rl,
    "bench": cmd_bench,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        resolved, inputs, outputs = HANDLERS[args.command](args, config)
        write_manifest(args.out, args.command, resolved, inputs, outputs)
    except (QaoaBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: generate suites, fit models, benchmark, report.

One root --seed fans out through named substreams (see seeding.py), so any
stage can be re-run in isolation and still agree with a full pipeline run.
Every output directory gets a manifest with the resolved configuration and
content hashes; no artifact embeds a timestamp (artifacts.py holds the file
convention), making runs hash-identical per seed.

One table, `OPTIONS`, declares every setting: its config key, caster,
least value and default per command.  Its flag is `--<key>` with `_` as
`-` (`max_n` is `--max-n`), save `depths`, whose flag is `--p`.  The table
builds the flags, checks config lines (`load_config`) and resolves each
option from its flag, else the config file, else the default (`resolve`).
A flag and its key share one cast and check, so a bad value exits 1 with
the same `error:` text from either.
"""

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .artifacts import CURVE_SCHEMA, LANDSCAPE_SCHEMA, SSTAR_SCHEMA, \
    SUITE_SCHEMA, read_json, write_csv, write_json, write_manifest
from .baselines import multistart_collect
from .bench import BenchConfig, compute_metrics, export_report, \
    read_records, records_cut_values, run_bench, suite_cut_values, ROSTER
from .engine import energy, energy_p1, landscape_grid
from .errors import ConfigError, QaoaBenchError
from .graphs import group_of, instance_id, realize, spec_from_id, suite
from .kde import kde_fit, kde_load, kde_save
from .rl import PpoConfig, load_policy, save_policy, train
from .seeding import derive_seed

VALID_DEPTHS = (1, 2, 4)


def _depths(text: str) -> str:
    """Comma-separated depths, each one of VALID_DEPTHS."""
    items = [t.strip() for t in text.split(",")]
    if not all(t.isdecimal() and int(t) in VALID_DEPTHS for t in items):
        raise ValueError(f"depths must be comma-separated values of "
                         f"{VALID_DEPTHS}, got {text!r}")
    return ",".join(str(int(t)) for t in items)


def _roster(text: str) -> str:
    """Comma-separated optimizers of ROSTER, `nm` among them."""
    out = [t.strip() for t in text.split(",") if t.strip()]
    bad = [o for o in out if o not in ROSTER]
    if bad:
        raise ValueError(f"unknown optimizers {bad}; roster is {ROSTER}")
    if "nm" not in out:
        raise ValueError(f"roster {out} has no 'nm', the baseline every "
                         f"gap reduction is measured against")
    return ",".join(out)


def _suite(text: str) -> str:
    if text not in ("train", "test"):
        raise ValueError(f"suite must be 'train' or 'test', got {text!r}")
    return text


class Option(NamedTuple):
    cast: Callable        # flag or config text -> value; ValueError if bad
    least: int | None     # the least value an int option takes
    defaults: dict        # command -> default, for each command taking it
    help: str | None = None


COMMANDS = ("gen", "landscape", "build-sstar", "build-kde", "train-rl",
            "bench", "report")

OPTIONS = {
    "seed": Option(int, 0, dict.fromkeys(COMMANDS, 0)),
    "suite": Option(_suite, None, {"gen": "test", "build-sstar": "train",
                                   "train-rl": "train", "bench": "test"}),
    "depths": Option(_depths, None, {"build-sstar": "1,2,4", "train-rl": "1",
                                     "bench": "1,2,4"},
                     "comma-separated depths"),
    "shots": Option(int, 1, {"landscape": 1024, "bench": 1024}),
    "resolution": Option(int, 2, {"landscape": 64}),
    "starts": Option(int, 1, {"build-sstar": 1000}),
    # kde_fit refuses a bandwidth <= 0
    "bandwidth": Option(float, None, {"build-kde": None}),
    "epochs": Option(int, 1, {"train-rl": 50}),
    "episodes": Option(int, 1, {"train-rl": 16}),
    "steps": Option(int, 1, {"train-rl": 64}),
    "probe": Option(int, 1, {"train-rl": 500},
                    "normalizer evals per instance; used only at p > 1"),
    "roster": Option(_roster, None, {"bench": "random,nm,kde,rl"}),
    "budget": Option(int, 1, {"bench": 192}),
    "attempts": Option(int, 1, {"bench": 10}),
    "max_n": Option(int, 1, {"bench": None}),
    "threads": Option(int, 1, {"bench": 1}),
}


def _flag(key: str) -> str:
    return "--p" if key == "depths" else "--" + key.replace("_", "-")


def _cast(key: str, text: str):
    """Option `key`'s value for `text`; a ValueError says what is wrong."""
    cast, least = OPTIONS[key][:2]
    try:
        value = cast(text)
    except ValueError:
        if cast in (int, float):
            raise ValueError(f"{key} expects {cast.__name__}, "
                             f"got {text!r}") from None
        raise
    if least is not None and value < least:
        raise ValueError(f"{key} must be >= {least}")
    return value


def load_config(path) -> dict:
    """Parse `key = value` lines; unknown keys or bad values all reported."""
    values, problems = {}, []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = (t.strip() for t in line.partition("="))
            if not eq:
                problems.append(f"line {lineno}: expected key=value")
            elif key not in OPTIONS:
                problems.append(f"line {lineno}: unknown key {key!r}")
            else:
                try:
                    values[key] = _cast(key, text)
                except ValueError as exc:
                    problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return values


def resolve(args, config: dict) -> argparse.Namespace:
    """`args` with each option of its command set from the flag, else the
    config file, else the command's default; bad flags all reported."""
    opts, problems = vars(args).copy(), []
    for key, option in OPTIONS.items():
        if args.command not in option.defaults:
            continue
        if opts[key] is None:
            opts[key] = config.get(key, option.defaults[args.command])
            continue
        try:
            opts[key] = _cast(key, opts[key])
        except ValueError as exc:
            problems.append(f"{_flag(key)}: {exc}")
    if problems:
        raise ConfigError("invalid flags: " + "; ".join(problems))
    if opts.get("exact"):
        opts["shots"] = None
    return argparse.Namespace(**opts)


def _out_dir(o) -> Path:
    o.out.mkdir(parents=True, exist_ok=True)
    return o.out


# ------------------------------------------------------------ subcommands
# Each handler takes the resolved options and returns (resolved config,
# input paths, output paths) for the manifest that `main` writes; its
# docstring is the command's help.

def cmd_gen(o) -> tuple:
    """write a suite manifest"""
    instances = [{
        "id": instance_id(spec),
        "class": spec.family,
        "group": group_of(spec),
        "params": dict(spec.params),
        "seed": spec.seed,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
    } for spec, g in suite(o.suite)]
    path = write_json(_out_dir(o) / "suite.json", SUITE_SCHEMA,
                      {"suite": o.suite, "instances": instances})
    print(f"wrote {path} ({len(instances)} instances)")
    return {"suite": o.suite}, [], [path]


def cmd_landscape(o) -> tuple:
    """p=1 energy surface CSV"""
    g = realize(spec_from_id(o.instance))
    grid = landscape_grid(g, o.resolution, shots=o.shots,
                          seed=derive_seed(o.seed, "landscape", o.instance))
    path = write_csv(_out_dir(o) / "landscape.csv", LANDSCAPE_SCHEMA,
                     ["beta", "gamma", "mean", "stderr"],
                     ([repr(x) for x in row] for row in grid.rows()))
    print(f"wrote {path}")
    return ({"instance": o.instance, "resolution": o.resolution,
             "shots": o.shots, "seed": o.seed}, [], [path])


def cmd_build_sstar(o) -> tuple:
    """multistart near-optimal sets"""
    depths = tuple(map(int, o.depths.split(",")))
    items = suite(o.suite)
    out = _out_dir(o)
    paths = []
    for p in depths:
        entries = []
        for spec, g in items:
            iid = instance_id(spec)
            admitted = multistart_collect(
                g, p, o.starts, derive_seed(o.seed, "sstar", iid, p))
            # one batch scores every admitted point: the closed form at
            # p = 1 on contiguous angles, else the statevector
            rows = np.array(admitted)
            best = float(max(energy_p1(g, *rows.T.copy()) if p == 1
                             else energy(g, rows).mean))
            entries.append({"instance_id": iid, "p": p,
                            "admitted": rows.tolist(), "best_exact": best})
        path = write_json(out / f"sstar-p{p}.json", SSTAR_SCHEMA,
                          {"p": p, "starts": o.starts, "entries": entries})
        paths.append(path)
        total = sum(len(e["admitted"]) for e in entries)
        print(f"wrote {path} ({total} admitted points)")
    return ({"suite": o.suite, "p": list(depths), "starts": o.starts,
             "seed": o.seed}, [], paths)


def read_sstar(path) -> tuple:
    """Returns (p, pooled parameter vectors) from a build-sstar file."""
    return read_json(path, SSTAR_SCHEMA, "S*", lambda body: (
        int(body["p"]),
        [vec for e in body["entries"] for vec in e["admitted"]]))


def cmd_build_kde(o) -> tuple:
    """fit density models on S* files"""
    out = _out_dir(o)
    paths = []
    for sstar_path in o.sstar:
        p, pooled = read_sstar(sstar_path)
        model = kde_fit(pooled, "auto" if o.bandwidth is None else o.bandwidth)
        if model.depth != p:
            raise ConfigError(f"{sstar_path} claims p={p} but vectors have "
                              f"dimension {2 * model.depth}")
        path = out / f"kde-p{p}.json"
        kde_save(model, path)
        paths.append(path)
        print(f"wrote {path} (N={len(model.centers)}, "
              f"omega={model.bandwidth:.4f})")
    return ({"bandwidth": o.bandwidth, "sstar": [str(s) for s in o.sstar]},
            o.sstar, paths)


def cmd_train_rl(o) -> tuple:
    """train the policy for one depth"""
    depths = tuple(map(int, o.depths.split(",")))
    if len(depths) != 1:
        raise ConfigError(f"train-rl trains one depth, got {list(depths)}")
    p = depths[0]
    cfg = PpoConfig(epochs=o.epochs, episodes_per_epoch=o.episodes,
                    episode_len=o.steps, probe_count=o.probe)
    bundle, curve = train(suite(o.suite), p, cfg,
                          derive_seed(o.seed, "train-rl", p))
    out = _out_dir(o)
    policy_path = out / f"policy-p{p}.json"
    save_policy(bundle, policy_path)
    curve_path = write_csv(
        out / f"curve-p{p}.csv", CURVE_SCHEMA,
        ["epoch", "mean_discounted_reward"],
        ([epoch, repr(float(value))] for epoch, value in enumerate(curve)))
    print(f"wrote {policy_path} and {curve_path} "
          f"(curve {curve[0]:.4f} -> {curve[-1]:.4f})")
    return ({"suite": o.suite, "p": p, "epochs": o.epochs,
             "episodes": o.episodes, "steps": o.steps, "probe": o.probe,
             "seed": o.seed}, [], [policy_path, curve_path])


def cmd_bench(o) -> tuple:
    """run the optimizer comparison"""
    depths = tuple(map(int, o.depths.split(",")))
    roster = tuple(o.roster.split(","))
    cfg = BenchConfig(depths=depths, budget=o.budget, attempts=o.attempts,
                      shots=o.shots, roster=roster,
                      seed=derive_seed(o.seed, "bench"))
    models = {"kde": {}, "rl": {}}
    for kind, load, paths in (("kde", kde_load, o.kde),
                              ("rl", load_policy, o.policy)):
        for path in paths:
            model = load(path)
            models[kind][model.depth] = model
    items = [(spec, g) for spec, g in suite(o.suite)
             if o.max_n is None or g.n <= o.max_n]
    records = run_bench(items, roster, cfg, models, threads=o.threads)
    out = _out_dir(o)
    # the records go to disk first, so a failure in the metrics keeps them
    written = export_report(None, records, out, formats=("csv",))
    table = compute_metrics(records, suite_cut_values(items))
    written += export_report(table, records, out, formats=("json",))
    print(f"wrote {len(records)} records to {out}")
    return ({"suite": o.suite, "p": list(depths), "roster": list(roster),
             "budget": o.budget, "attempts": o.attempts, "shots": o.shots,
             "max_n": o.max_n, "threads": o.threads, "seed": o.seed},
            o.kde + o.policy, written)


def cmd_report(o) -> tuple:
    """recompute metrics from records.csv"""
    records = read_records(o.records)
    formats = ("csv", "json") if o.format == "both" else (o.format,)
    table = compute_metrics(records, records_cut_values(records))
    out = _out_dir(o)
    written = export_report(table, records, out, formats=formats)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return ({"records": str(o.records), "format": o.format}, [o.records],
            written)


# -------------------------------------------------------------- dispatch

HANDLERS = dict(zip(COMMANDS, (cmd_gen, cmd_landscape, cmd_build_sstar,
                               cmd_build_kde, cmd_train_rl, cmd_bench,
                               cmd_report)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qaoabench",
        description="QAOA Max-Cut parameter-optimization workbench")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=fn.__doc__)
               for name, fn in HANDLERS.items()}
    parsers["landscape"].add_argument("--instance", required=True)
    parsers["build-kde"].add_argument("--sstar", type=Path, action="append",
                                      required=True)
    parsers["report"].add_argument("--records", type=Path, required=True)
    parsers["report"].add_argument("--format",
                                   choices=("csv", "json", "both"),
                                   default="both")
    for flag in ("--kde", "--policy"):
        parsers["bench"].add_argument(flag, type=Path, action="append",
                                      default=[])
    # the option flags take text, cast and checked by `resolve`
    for key, option in OPTIONS.items():
        for name in option.defaults:
            parsers[name].add_argument(_flag(key), dest=key,
                                       help=option.help)
    for name in ("landscape", "bench"):
        parsers[name].add_argument(
            "--exact", action="store_true",
            help="exact evaluation instead of shot sampling")
    for sp in parsers.values():
        sp.add_argument("--config", type=Path)
        sp.add_argument("--out", type=Path, required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        resolved, inputs, outputs = HANDLERS[args.command](
            resolve(args, config))
        write_manifest(args.out, args.command, resolved, inputs, outputs)
    except (QaoaBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

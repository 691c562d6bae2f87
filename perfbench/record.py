"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10]
                                [--traced-seed N] [--out FILE]

Each run is `perfbench/run.py --workload W --seed S` in its own process,
with the run length from BENCHMARK.json.  For every end-to-end metric the
summary gives the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the metric's bound.  With
--traced-seed one traced run per workload adds its per-layer metrics.
With --out the summary and the machine description are written as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), None)
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode or not result or not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: FAILED "
              f"(exit {proc.returncode})", file=sys.stderr)
    return result, machine


def summarize(values, bound):
    q1, q2, q3 = quantiles(values, n=4)
    med = median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound,
            "n": len(values), "values": values}


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}

    summary, machine, ok = {}, None, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result, machine = run(workload, seed, 0)
            ok = ok and bool(result and result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"end_to_end": {}}
        for name, vals in values.items():
            s = summarize(vals, bounds[name])
            entry["end_to_end"][name] = {**s, "unit": units[name]}
            flag = "" if s["spread"] is None or s["spread"] < bounds[name] / 3 \
                else "  <-- spread >= bound/3"
            print(f"{workload:12s} {name:13s} median {s['median']:.6g} "
                  f"{units[name]}  IQR/median {s['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        if args.traced_seed is not None:
            result, _ = run(workload, args.traced_seed, 1)
            ok = ok and bool(result and result["correct"])
            entry["per_layer"] = {k: v["value"] for k, v in
                                  result["metrics"].items()}
            entry["traced_seed"] = args.traced_seed
        summary[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(
            {"machine": machine, "seeds": args.seeds,
             "run_seconds": config["run_seconds"], "workloads": summary},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

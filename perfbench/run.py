"""Stage benchmark for qaoabench: bench-small, bench-large and train-rl.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

One workload runs in this process, single-threaded with BLAS/OpenMP pinned
to one thread.  It runs passes of the stage until --seconds (by default
`run_seconds` from BENCHMARK.json) would be exceeded, at least one, and
times set-up in windows spread over the run (the fastest rep is setup_s).
Every pass is checked; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run sets up once under the
tracer, alternates untraced and traced runs of pass 0, and reports
per-layer metrics, the L1 probe and the L4 estimate.  `--workload all` (the
default) runs each workload in a fresh process in turn.  Exit status is 0
only when every check passed.
"""

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("bench-small", "bench-large", "train-rl")

# name -> (unit, better); the set BENCHMARK.json lists as end_to_end
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "approx_ratio": ("ratio", "higher"),
}
# Printed for every run, but carried in the result line as attempted/failed
# rather than as a metric: it is 0 whenever the run is correct.
FAILED_FRAC = ("failed_frac", "ratio", "lower")

# Set-up is timed in windows of repeats spread over the run: before the
# passes, between the instance groups of a bench pass and after every pass.
# This machine's speed stays in a fast or a slow state for seconds and drifts
# over minutes, so the median rep follows whichever state the windows land
# in.  The fastest rep, set-up with nothing slowing it down, repeats from run
# to run; setup_s reports it.
SETUP_WINDOW_REPEATS = 2
SETUP_WINDOW_SECONDS = 2.0
SETUP_WINDOW_MAX_REPEATS = 5000

# The traced run alternates untraced and traced runs of pass 0 while another
# pair fits in this many run lengths.
TRACE_RUN_LENGTHS = 3

# Shares of the traced pass in the groups of the ROADMAP's cProfile split,
# from the self times of the layers.
SPLIT = {
    "mixer": ("kernels.apply_mixer.self_s",),
    "phase": ("kernels.apply_phase.self_s",),
    "sampling+reductions (objective.call self)": ("objective.call.self_s",),
    "seeding (stream_rng self)": ("seeding.stream_rng.self_s",),
    "nets (Mlp forward+backward self)": ("nets.Mlp.forward.self_s",
                                         "nets.Mlp.backward.self_s"),
    "cut_diagonal": ("kernels.cut_diagonal.self_s",),
}


def import_library():
    """Import qaoabench from this checkout's src/, or exit non-zero."""
    pkg = SRC / "qaoabench"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {pkg}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import qaoabench
    if Path(qaoabench.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported qaoabench from {qaoabench.__file__}, "
                 f"not from {pkg}")
    return qaoabench


# ----------------------------------------------------------------- machine

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def describe_machine() -> dict:
    import numpy as np
    from qaoabench import kernels

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    mem_kb = next((int(line.split()[1])
                   for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache_per_core": caches,
        "ram_gib": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "backend": kernels.BACKEND,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_pinned": all(os.environ.get(v) == "1" for v in THREAD_VARS),
        "bench_threads": 1,
    }


# --------------------------------------------------------------- digests

def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.glob("qaoabench/**/*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(name, spec, seed, passes, problems) -> int:
    """Compare pass digests with earlier runs of the same code, workload
    and seed in this checkout.

    Returns the number of operations to count as failed.
    """
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    code = code_hash()
    failed = 0
    for i, res in enumerate(passes):
        key = f"{name} {spec!r} seed={seed} pass={i} code={code}"
        if known.setdefault(key, res.digest) != res.digest:
            problems.append(f"pass {i}: digest {res.digest} differs from an "
                            f"earlier run of the same code ({known[key]})")
            failed += res.attempted
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return failed


# ------------------------------------------------------------------- runs

def timed_setups(spec, seed):
    """One window of set-up repeats: (last context, times)."""
    import workloads

    times = []
    while (len(times) < SETUP_WINDOW_REPEATS
           or (sum(times) < SETUP_WINDOW_SECONDS
               and len(times) < SETUP_WINDOW_MAX_REPEATS)):
        t0 = perf_counter()
        ctx = workloads.setup(spec, seed)
        times.append(perf_counter() - t0)
    return ctx, times


def run_untraced(name, seed, seconds, out_dir):
    import workloads

    spec = workloads.SPECS[name]
    setup_windows = []

    def setup_window():
        ctx, times = timed_setups(spec, seed)
        setup_windows.append(times)
        return ctx

    ctx = setup_window()
    passes = []
    t_start = perf_counter()
    while True:
        passes.append(workloads.run_pass(spec, ctx, seed, len(passes),
                                         out_dir, between=setup_window))
        setup_window()
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            break
    problems = [f"pass {i}: {text}" for i, p in enumerate(passes)
                for text in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failed = min(attempted, failed + check_digests(name, spec, seed,
                                                   passes, problems))
    metrics = {
        "setup_s": min(t for times in setup_windows for t in times),
        "wall_s": median(p.wall_s for p in passes),
        "evals_per_s": (sum(p.evals for p in passes)
                        / sum(p.wall_s for p in passes)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "approx_ratio": median(p.approx_ratio for p in passes),
    }
    detail = {
        "setup_windows_s": setup_windows,
        "passes": [{"wall_s": p.wall_s, "evals": p.evals,
                    "attempted": p.attempted, "failed": p.failed,
                    "approx_ratio": p.approx_ratio, "digest": p.digest}
                   for p in passes],
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, problems, detail


def run_traced(name, seed, seconds, out_dir):
    import probe
    import tracing
    import workloads
    from qaoabench import graphs

    spec = workloads.SPECS[name]
    tracer = tracing.Tracer()
    with tracer:
        ctx = workloads.setup(spec, seed)
    setup_spans = tracer.spans
    tracer.reset()
    # Untraced runs come first and last, since the first pass of a process
    # tends to run slower than later ones; the per-layer metrics and spans
    # are those of the first traced run.
    t_start = perf_counter()
    plain = [workloads.run_pass(spec, ctx, seed, 0, out_dir)]
    traced = []
    while True:
        with tracer:
            traced.append(workloads.run_pass(spec, ctx, seed, 0, out_dir,
                                             untraced=tracer.suspended))
        if len(traced) == 1:
            metrics = tracing.layer_metrics(tracer, setup_spans)
            span_count = len(tracer.spans)
            spans_path = out_dir / "spans.csv"
            tracing.write_spans(tracer, spans_path)
        tracer.reset()
        plain.append(workloads.run_pass(spec, ctx, seed, 0, out_dir))
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(traced) > TRACE_RUN_LENGTHS * seconds:
            break
    traced_wall = median(res.wall_s for res in traced)
    metrics["trace.overhead_frac"] = (
        traced_wall / median(res.wall_s for res in plain) - 1.0)

    eval_ms, for_graph_ms = probe.probe_l1(seed)
    metrics.update(probe.l1_metrics(eval_ms, for_graph_ms))
    hist = {}
    for _, g in graphs.suite("test"):
        hist[g.n] = hist.get(g.n, 0) + 1
    hours, measured, scaled = probe.l4_estimate(eval_ms, for_graph_ms, hist)
    metrics["l4_est_h"] = hours

    runs = {f"untraced {i}": res for i, res in enumerate(plain)}
    runs.update((f"traced {i}", res) for i, res in enumerate(traced))
    problems = [f"{label} pass: {t}" for label, res in runs.items()
                for t in res.problems]
    failed = sum(res.failed for res in runs.values())
    attempted = sum(res.attempted for res in runs.values())
    if len({res.digest for res in runs.values()}) > 1:
        problems.append("pass digests differ: " + ", ".join(
            f"{label} {res.digest}" for label, res in runs.items()))
        failed = attempted
    failed += check_digests(name, spec, seed, plain[:1], problems)

    detail = {
        "untraced_wall_s": [res.wall_s for res in plain],
        "traced_wall_s": [res.wall_s for res in traced],
        "digest": traced[0].digest,
        "split": {part: sum(metrics[k] for k in keys) / traced[0].wall_s
                  for part, keys in SPLIT.items()},
        "l4": {"hours": hours,
               "measured": [f"n={n} p={p}" for n, p in measured],
               "scaled": [f"n={n} p={p}" for n, p in scaled],
               "sizes_histogram": {str(n): c for n, c in sorted(hist.items())}},
        "spans": spans_path.name,
        "span_count": span_count,
    }
    return metrics, attempted, min(failed, attempted), problems, detail


def run_one(name, seed, seconds, trace) -> int:
    import_library()
    machine = describe_machine()
    out_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, attempted, failed, problems, detail = run_traced(
            name, seed, seconds, out_dir)
    else:
        metrics, attempted, failed, problems, detail = run_untraced(
            name, seed, seconds, out_dir)
    units = {k: (layer_unit(k), "") if trace else END_TO_END[k]
             for k in metrics}
    correct = failed == 0 and not problems

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for key, value in metrics.items():
        unit, better = units[key]
        suffix = f" ({better} is better)" if better else ""
        print(f"{name} {key} = {value:.6g} {unit}{suffix}")
    if not trace:
        fname, funit, fbetter = FAILED_FRAC
        print(f"{name} {fname} = {failed / attempted:.6g} {funit} "
              f"({fbetter} is better)")
    else:
        for part, share in detail["split"].items():
            print(f"{name} split {part}: {share:.1%} of traced wall")
        l4 = detail["l4"]
        print(f"{name} l4_est_h = {l4['hours']:.4g} h; measured "
              f"{', '.join(l4['measured'])}; scaled {', '.join(l4['scaled'])}")
    for text in problems:
        print(f"{name} CHECK FAILED: {text}", file=sys.stderr)

    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace,
                   "machine": machine, "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "problems": problems, "detail": detail}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "l4_est_h":
        return "h"
    if name.endswith(("self_s", ".s")) or ".cell_s." in name:
        return "s"
    if ".ms." in name or name.startswith("l1."):
        return "ms"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("state_mib"):
        return "MiB"
    if name.endswith(("frac", "per_graph", "rows_per_call")):
        return "ratio"
    return "count"


def run_all(seed, seconds, trace) -> int:
    """Each workload in a fresh process, one after another."""
    import_library()
    status = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans recorded from outside the library.

`Tracer.install()` rebinds the public functions of each qaoabench module
(and the methods of its classes) to thin wrappers that append one span per
call: name, start, end, parent span and the id of the benchmark cell that
was running.  Every module namespace that imported a function by name gets
the wrapper too, so calls made inside the library are seen as well.
`uninstall()` puts the originals back.  Spans stay in memory; the caller
writes them out when the run ends.
"""

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

# span name -> (module, attribute path) of the wrapped callable
LAYERS = {
    "graphs.suite": ("qaoabench.graphs", "suite"),
    "graphs.max_cut_bruteforce": ("qaoabench.graphs", "max_cut_bruteforce"),
    "kernels.cut_diagonal": ("qaoabench.kernels", "cut_diagonal"),
    "kernels.apply_phase": ("qaoabench.kernels", "apply_phase"),
    "kernels.apply_mixer": ("qaoabench.kernels", "apply_mixer"),
    "seeding.stream_rng": ("qaoabench.seeding", "stream_rng"),
    "seeding.derive_seed": ("qaoabench.seeding", "derive_seed"),
    "objective.call": ("qaoabench.objective", "MeteredObjective.__call__"),
    "objective.exact_value": ("qaoabench.objective",
                              "MeteredObjective.exact_value"),
    "objective.for_graph": ("qaoabench.objective",
                            "MeteredObjective.for_graph"),
    "baselines.random_search": ("qaoabench.baselines", "random_search"),
    "baselines.nelder_mead": ("qaoabench.baselines", "nelder_mead"),
    "baselines.multistart_collect": ("qaoabench.baselines",
                                     "multistart_collect"),
    "kde.kde_fit": ("qaoabench.kde", "kde_fit"),
    "kde.kde_optimize": ("qaoabench.kde", "kde_optimize"),
    "kde.sample_vectors": ("qaoabench.kde", "sample_vectors"),
    "nets.Mlp.forward": ("qaoabench.nets", "Mlp.forward"),
    "nets.Mlp.backward": ("qaoabench.nets", "Mlp.backward"),
    "rl.train": ("qaoabench.rl", "train"),
    "rl.collect_episode": ("qaoabench.rl", "collect_episode"),
    "rl.ppo_update": ("qaoabench.rl", "ppo_update"),
    "rl.reward_normalizer": ("qaoabench.rl", "reward_normalizer"),
    "rl.rl_optimize": ("qaoabench.rl", "rl_optimize"),
    "bench.run_bench": ("qaoabench.bench", "run_bench"),
    # private, but it is the one place a cell starts and ends
    "bench.cell": ("qaoabench.bench", "_run_cell"),
    "bench.compute_metrics": ("qaoabench.bench", "compute_metrics"),
    "bench.export_report": ("qaoabench.bench", "export_report"),
}

# Span fields, stored as lists for cheap appends.
NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, cell id]
        self.cells = {}          # cell id -> optimizer
        self.graphs = set()      # distinct (n, edges) seen by cut_diagonal
        self.mixer_bytes = 0
        self.mlp_rows = 0
        self.normalizer_evals = 0
        self.state_bytes = 0
        self._stack = []
        self._cell = None
        self._undo = []

    def reset(self):
        """Drop recorded spans and counts; stays installed."""
        self.spans = []
        self.cells = {}
        self.graphs = set()
        self.mixer_bytes = self.mlp_rows = 0
        self.normalizer_evals = self.state_bytes = 0

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, note=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = self._cell
            if note is not None:
                note(args, kwargs)
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._cell]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self._cell = cell

        return wrapper

    def _note_for(self, name, fn):
        if name == "kernels.apply_mixer":
            def note(args, kwargs):
                amps, n = args[0], args[1]
                # one read and one write of the whole state per qubit pass
                self.mixer_bytes += 2 * int(n) * amps.nbytes
        elif name == "kernels.cut_diagonal":
            def note(args, kwargs):
                self.graphs.add((int(args[0]), args[1].tobytes()))
        elif name == "nets.Mlp.forward":
            def note(args, kwargs):
                x = np.asarray(args[1])
                self.mlp_rows += 1 if x.ndim == 1 else x.shape[0]
        elif name == "rl.reward_normalizer":
            sig = inspect.signature(fn)

            def note(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["g"].edges:
                    self.normalizer_evals += int(bound.arguments["n_probe"])
        elif name == "objective.call":
            def note(args, kwargs):
                g = args[0].graph
                if g is not None:
                    self.state_bytes = max(self.state_bytes, 16 << g.n)
        elif name == "bench.cell":
            def note(args, kwargs):
                self._cell = len(self.cells)
                self.cells[self._cell] = args[3]
        else:
            note = None
        return note

    # -------------------------------------------------------- install/undo

    def install(self):
        """Rebind every layer in LAYERS; returns self for use in `with`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qaoabench" or key.startswith("qaoabench.")]
        for name, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            if isinstance(raw, classmethod):
                fn = raw.__func__
                wrapped = classmethod(self._wrap(name, fn,
                                                 self._note_for(name, fn)))
                self._set(owner, attr, raw, wrapped)
                continue
            wrapper = self._wrap(name, raw, self._note_for(name, raw))
            if outer:
                self._set(owner, attr, raw, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, raw, wrapper)
        return self

    def _set(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._cell = None

    @contextlib.contextmanager
    def suspended(self):
        """Run a block with the originals bound, then trace again."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.

    Calls are synchronous and single-threaded, so children nest inside their
    parent and never overlap one another.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))


def layer_metrics(tracer: Tracer, setup_spans=()) -> dict:
    """Per-layer counts and times from the spans of one traced pass.

    `setup_spans` are the spans recorded while the workload was set up; the
    set-up layers (suite generation, multistart collection) are read there.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls, total, selfs = {}, {}, {}
    durations = {}
    for s, t_self in zip(spans, own):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        selfs[name] = selfs.get(name, 0.0) + t_self
        if name in ("objective.call", "bench.cell"):
            durations.setdefault(name, []).append((dur, s[CELL]))

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    setup_total = {}
    for sp in setup_spans:
        setup_total[sp[NAME]] = setup_total.get(sp[NAME], 0.0) + \
            sp[END] - sp[START]

    out = {}
    out["kernels.apply_mixer.calls"] = c("kernels.apply_mixer")
    out["kernels.apply_mixer.self_s"] = selfs.get("kernels.apply_mixer", 0.0)
    out["kernels.apply_mixer.bytes_computed"] = tracer.mixer_bytes
    out["kernels.apply_phase.calls"] = c("kernels.apply_phase")
    out["kernels.apply_phase.self_s"] = selfs.get("kernels.apply_phase", 0.0)
    out["kernels.cut_diagonal.calls"] = c("kernels.cut_diagonal")
    out["kernels.cut_diagonal.self_s"] = selfs.get("kernels.cut_diagonal",
                                                   0.0)
    out["kernels.cut_diagonal.per_graph"] = (
        c("kernels.cut_diagonal") / len(tracer.graphs) if tracer.graphs
        else 0.0)
    evals_ms = [d * 1e3 for d, _ in durations.get("objective.call", [])]
    out["objective.call.count"] = c("objective.call")
    out["objective.call.self_s"] = selfs.get("objective.call", 0.0)
    out["objective.call.ms.p50"] = _quantile(evals_ms, 0.5)
    out["objective.call.ms.p99"] = _quantile(evals_ms, 0.99)
    out["objective.call.state_mib"] = tracer.state_bytes / 2**20
    out["objective.exact_value.calls"] = c("objective.exact_value")
    out["objective.exact_value.s"] = s("objective.exact_value")
    out["objective.for_graph.calls"] = c("objective.for_graph")
    out["objective.for_graph.s"] = s("objective.for_graph")
    out["seeding.stream_rng.calls"] = c("seeding.stream_rng")
    out["seeding.stream_rng.self_s"] = selfs.get("seeding.stream_rng", 0.0)
    out["seeding.derive_seed.calls"] = c("seeding.derive_seed")
    out["rl.reward_normalizer.calls"] = c("rl.reward_normalizer")
    out["rl.reward_normalizer.s"] = s("rl.reward_normalizer")
    out["rl.reward_normalizer.evals"] = tracer.normalizer_evals
    out["rl.unmetered_frac"] = (tracer.normalizer_evals / c("objective.call")
                                if c("objective.call") else 0.0)
    out["rl.rl_optimize.s"] = s("rl.rl_optimize")
    out["nets.Mlp.forward.calls"] = c("nets.Mlp.forward")
    out["nets.Mlp.forward.self_s"] = selfs.get("nets.Mlp.forward", 0.0)
    out["nets.Mlp.forward.rows_per_call"] = (
        tracer.mlp_rows / c("nets.Mlp.forward") if c("nets.Mlp.forward")
        else 0.0)
    out["nets.Mlp.backward.calls"] = c("nets.Mlp.backward")
    out["nets.Mlp.backward.self_s"] = selfs.get("nets.Mlp.backward", 0.0)
    out["rl.collect_episode.s"] = s("rl.collect_episode")
    out["rl.ppo_update.s"] = s("rl.ppo_update")
    out["baselines.random_search.s"] = s("baselines.random_search")
    out["baselines.nelder_mead.s"] = s("baselines.nelder_mead")
    out["kde.kde_optimize.s"] = s("kde.kde_optimize")
    out["kde.sample_vectors.s"] = s("kde.sample_vectors")
    by_opt = {}
    for dur, cell in durations.get("bench.cell", []):
        by_opt.setdefault(tracer.cells[cell], []).append(dur)
    for opt in ("random", "nm", "kde", "rl"):
        out[f"bench.cell_s.{opt}.p50"] = _quantile(by_opt.get(opt, []), 0.5)
        out[f"bench.cell_s.{opt}.p90"] = _quantile(by_opt.get(opt, []), 0.9)
    out["baselines.multistart_collect.s"] = setup_total.get(
        "baselines.multistart_collect", 0.0)
    out["graphs.suite.s"] = setup_total.get("graphs.suite", 0.0)
    out["bench.run_bench.s"] = s("bench.run_bench")
    out["bench.compute_metrics.s"] = s("bench.compute_metrics")
    out["bench.export_report.s"] = s("bench.export_report")
    out["graphs.max_cut_bruteforce.s"] = s("graphs.max_cut_bruteforce")
    return {k: float(v) for k, v in out.items()}


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent,cell\n")
        for i, s in enumerate(tracer.spans):
            cell = "" if s[CELL] is None else s[CELL]
            fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                     f"{cell}\n")

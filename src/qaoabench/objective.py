"""Budgeted objective evaluation.

Every optimizer sees the energy only through a MeteredObjective, which
counts calls against a fixed budget, records a full trace, and refuses to
evaluate once the budget is gone.  Attempt-level comparisons stay fair
because nothing can sneak extra circuit evaluations.

A call takes one point or a batch of K points, which evolve together
(`engine.energy`), charged as K evaluations and traced in order, with
the same values, noise and trace as K single calls; random search and
the KDE sampler spend their whole budget in one call.  Every metered
energy goes through one request path, `Meter`, and `lockstep` drives
many step-by-step optimizer runs through it, one call per round.
"""

import contextlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import EnergyValue, GraphStack, QaoaParams, chunk_points, \
    energy
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .seeding import point, stream_keys


@dataclass
class OptResult:
    """Best-ever evaluated point of one optimizer attempt."""

    best_params: QaoaParams
    best_value: float        # noisy value seen by the optimizer
    evals_used: int
    trace: list              # list[(QaoaParams, EnergyValue)], call order
    best_exact: float | None = None   # exact re-score, never budget-counted


class MeteredObjective:
    """Callable energy oracle with a hard evaluation budget.

    `shots=None` evaluates exactly; otherwise evaluation i draws the
    substream (seed, "metered", i) of `seed`, whether it came alone or in
    a batch, so the noise sequence is reproducible and independent of
    parameter values.  The objective owns one Philox generator and points
    it at each evaluation's substream (`seeding.point`); the keys of the
    whole budget's substreams come from one `seeding.stream_keys` call,
    on the first sampled evaluation.

    `fn(points, shots, rngs)` evaluates a list of QaoaParams, with an
    iterable of one generator per point when sampled, and returns their
    EnergyValues in order.
    """

    def __init__(self, fn, budget: int, depth: int = 1,
                 shots: int | None = None, seed: int = 0):
        if budget < 1:
            raise DomainError(f"budget must be >= 1, got {budget}")
        if shots is not None and shots < 1:
            raise DomainError(f"shots must be >= 1 or None, got {shots}")
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        self._fn = fn
        self.graph = None
        self.budget = budget
        self.depth = depth
        self.shots = shots
        self.seed = seed
        self.calls = 0
        self.trace: list[tuple[QaoaParams, EnergyValue]] = []
        self._rng = (None if shots is None
                     else np.random.Generator(np.random.Philox(0)))
        self._keys = None

    @classmethod
    def for_graph(cls, g: Graph, depth: int, budget: int,
                  shots: int | None = None, seed: int = 0) -> "MeteredObjective":
        """Meter the energy of `g`.  Touches `g.cuts`, so a graph past the
        size cap fails here, before any evaluation."""
        g.cuts
        obj = cls(partial(energy, g), budget, depth=depth, shots=shots,
                  seed=seed)
        obj.graph = g
        return obj

    @classmethod
    def for_function(cls, fn, budget: int, depth: int = 1) -> "MeteredObjective":
        """Meter an arbitrary params -> float map (test hook)."""

        def wrapped(points, shots_, rngs) -> list[EnergyValue]:
            return [EnergyValue(mean=float(fn(q))) for q in points]

        return cls(wrapped, budget, depth=depth, shots=None, seed=0)

    @property
    def remaining(self) -> int:
        return self.budget - self.calls

    def __call__(self, points):
        """Evaluate one QaoaParams, for its EnergyValue, or a batch, for a
        list: a sequence of QaoaParams, or a (K, 2p) array of vectors
        [betas, gammas], wrapped like `QaoaParams` wraps them.  A batch
        larger than `remaining` is refused whole, and nothing is charged.
        """
        one = isinstance(points, QaoaParams)
        batch = [points] if one else _as_params(points)
        values = _ALONE._evaluate([(self, batch)])[0]
        return values[0] if one else values

    def _stream(self, i: int):
        """The generator pointed at evaluation i's noise substream."""
        if self._keys is None:
            self._keys = stream_keys(self.seed, ("metered",),
                                     self.budget).tolist()
        return point(self._rng, self._keys[i])

    def exact_value(self, params: QaoaParams) -> float | None:
        """Exact energy at `params`, outside the budget; None for
        `for_function` objectives, which have no graph."""
        if self.graph is None:
            return None
        return energy(self.graph, params).mean

    def result(self, since: int = 0) -> OptResult:
        """Best-ever point over trace[since:] (first occurrence wins ties).

        Every optimizer run ends here.  `best_exact` is the metered value
        itself in exact mode and an exact re-score in sampled mode.
        """
        res = result_from_trace(self.trace[since:])
        res.best_exact = (res.best_value if self.shots is None
                          else self.exact_value(res.best_params))
        return res


class Meter:
    """The metered request path: a call takes requests (objective, points),
    a list of QaoaParams each, and returns their EnergyValues.  It checks
    every budget first, evaluates the graph requests of one (n, shots) as
    one stacked `energy` call, the points of one graph on its row, then
    charges, traces and gives noise to each objective in order, as if
    called alone.  Stacks are built once, of the graphs of `objs`, where a
    kernel chunk holds more than one state (n <= 14).  A call with one
    request is that objective's own call."""

    def __init__(self, objs=()):
        groups = {}
        for obj in objs:
            g = obj.graph
            if g is not None and chunk_points(g.n) > 1:
                groups.setdefault((g.n, obj.shots), {})[id(g)] = g
        self._stacks, self._rows = {}, {}
        for key, graphs in groups.items():
            if len(graphs) > 1:
                self._stacks[key] = GraphStack(graphs.values())
                self._rows.update({key + (gid,): row
                                   for row, gid in enumerate(graphs)})

    def __call__(self, requests) -> list:
        """The EnergyValues of each request, a list per request."""
        if len(requests) == 1:
            obj, points = requests[0]
            return [obj(points)]
        return self._evaluate(requests)

    def _evaluate(self, requests) -> list:
        """`__call__` without the one-request shortcut."""
        if len({id(obj) for obj, _ in requests}) < len(requests):
            raise DomainError("an objective takes one request per call")
        for obj, points in requests:
            if len(points) > obj.remaining:
                raise BudgetExhaustedError(
                    f"{len(points)} evaluations exceed the {obj.remaining} "
                    f"left of a budget of {obj.budget}")
        values = [[] for _ in requests]
        groups = {}
        for k, (obj, points) in enumerate(requests):
            g = obj.graph
            key = (None, id(obj)) if g is None else (g.n, obj.shots, id(g))
            if points:
                groups.setdefault(key[:2] if key in self._rows else key,
                                  []).append(k)
        for key, members in groups.items():
            batch = [requests[k] for k in members]
            fn, shots = batch[0][0]._fn, batch[0][0].shots
            if key in self._stacks:
                fn = partial(energy, self._stacks[key].on([
                    self._rows[key + (id(obj.graph),)]
                    for obj, points in batch for _ in points]))
            rngs = None if shots is None else (
                obj._stream(obj.calls + i)
                for obj, points in batch for i in range(len(points)))
            out = iter(fn([q for _, points in batch for q in points], shots,
                          rngs))
            for k, (_, points) in zip(members, batch):
                values[k] = [next(out) for _ in points]
        for (obj, points), vals in zip(requests, values):
            obj.calls += len(points)
            obj.trace += zip(points, vals)
        return values


_ALONE = Meter()


def lockstep(objs, runs) -> None:
    """Drive step generators to their end, run k on objs[k]: a run yields
    the (K, 2p) vectors of its next step and is sent their K metered
    means, and each round sends every live run's points through one
    `Meter` call over `objs`."""
    meter = Meter(objs)
    live = [(obj, run, next(run)) for obj, run in zip(objs, runs)]
    while live:
        values = meter([(obj, QaoaParams.rows(vecs))
                        for obj, _, vecs in live])
        rounds, live = zip(live, values), []
        for (obj, run, _), vals in rounds:
            with contextlib.suppress(StopIteration):
                live.append((obj, run, run.send(
                    np.array([value.mean for value in vals]))))


def _as_params(points) -> list[QaoaParams]:
    """A batch as a list: QaoaParams as given, vectors as `rows` builds
    them."""
    if not isinstance(points, np.ndarray):
        points = list(points)
        if all(isinstance(q, QaoaParams) for q in points):
            return points
    return QaoaParams.rows(points)


def result_from_trace(trace) -> OptResult:
    if not trace:
        raise DomainError("empty trace has no best point")
    # the first of equal values wins, as max keeps it
    best_q, best = max(trace, key=lambda step: step[1].mean)
    return OptResult(best_params=best_q, best_value=best.mean,
                     evals_used=len(trace), trace=list(trace))

"""Budgeted objective evaluation.

Every optimizer sees the energy only through a MeteredObjective, which
counts calls against a fixed budget, records a full trace, and refuses to
evaluate once the budget is gone.  Attempt-level comparisons stay fair
because nothing can sneak extra circuit evaluations.

Every objective meters the energy of one graph.  A call takes one point
or a (K, 2p) array of K points, which evolve together (`engine.energy`),
charged as K evaluations and traced in order, with the same values,
noise and trace as K single calls; random search and the KDE sampler
spend their whole budget in one call.  Every metered energy goes through
one request path, `Meter`, and `lockstep` drives many step-by-step
optimizer runs through it, one call per round.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .engine import Energy, GraphStack, QaoaParams, chunk_points, energy, \
    wrap_angles
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .seeding import point, stream_keys


@dataclass
class OptResult:
    """Best-ever evaluated point of one optimizer attempt."""

    best_params: QaoaParams
    best_value: float        # noisy value seen by the optimizer
    evals_used: int
    best_exact: float        # exact re-score, never budget-counted


class MeteredObjective:
    """Callable energy oracle of graph `g` with a hard evaluation budget.

    `shots=None` evaluates exactly; otherwise evaluation i draws the
    substream (seed, "metered", i) of `seed`, whether it came alone or in
    a batch, so the noise sequence is reproducible and independent of
    parameter values.  The objective owns one Philox generator and points
    it at each evaluation's substream (`seeding.point`); the keys of the
    whole budget's substreams come from one `seeding.stream_keys` call,
    on the first sampled evaluation.

    The trace is row i < `calls` of `points` (budget, 2p), `means` and
    `stderrs`: evaluation i's wrapped point and Energy.  Construction
    touches `g.cuts`, so a graph past the size cap fails here, before any
    evaluation.
    """

    def __init__(self, g: Graph, depth: int, budget: int,
                 shots: int | None = None, seed: int = 0):
        if budget < 1:
            raise DomainError(f"budget must be >= 1, got {budget}")
        if shots is not None and shots < 1:
            raise DomainError(f"shots must be >= 1 or None, got {shots}")
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        g.cuts
        self.graph = g
        self.budget = budget
        self.depth = depth
        self.shots = shots
        self.seed = seed
        self.calls = 0
        self.points = np.zeros((budget, 2 * depth))
        self.means = np.zeros(budget)
        self.stderrs = np.zeros(budget)
        self._rng = (None if shots is None
                     else np.random.Generator(np.random.Philox(0)))
        self._keys = None

    @classmethod
    def for_graph(cls, g: Graph, depth: int, budget: int,
                  shots: int | None = None, seed: int = 0) -> "MeteredObjective":
        """Meter the energy of `g` (the constructor, by name)."""
        return cls(g, depth, budget, shots, seed)

    @property
    def remaining(self) -> int:
        return self.budget - self.calls

    def __call__(self, points):
        """The Energy of one QaoaParams, as floats, or of a (K, 2p) array
        of vectors [betas, gammas], as (K,) arrays (`engine.energy`).  A
        batch larger than `remaining` is refused whole, uncharged."""
        one = isinstance(points, QaoaParams)
        value = _ALONE._evaluate([(self, points.vector()[None] if one
                                   else points)])[0]
        return value.point() if one else value

    def _stream(self, i: int):
        """The generator pointed at evaluation i's noise substream."""
        if self._keys is None:
            self._keys = stream_keys(self.seed, ("metered",),
                                     self.budget).tolist()
        return point(self._rng, self._keys[i])

    def exact_value(self, params: QaoaParams) -> float:
        """Exact energy at `params`, outside the budget."""
        return energy(self.graph, params).mean

    def best_row(self, since: int = 0) -> int:
        """The first trace row of the highest mean from row `since` on."""
        if since >= self.calls:
            raise DomainError("empty trace has no best point")
        return since + int(np.argmax(self.means[since:self.calls]))

    def result(self, since: int = 0) -> OptResult:
        """Best-ever point from trace row `since` on (`best_row`).

        Every optimizer run ends here.  `best_params` wraps the stored
        row to its own bits.  `best_exact` is the metered value itself in
        exact mode and an exact re-score in sampled mode.
        """
        best = self.best_row(since)
        params = QaoaParams.from_vector(self.points[best])
        value = float(self.means[best])
        return OptResult(best_params=params, best_value=value,
                         evals_used=self.calls - since,
                         best_exact=(value if self.shots is None
                                     else self.exact_value(params)))


class Meter:
    """The metered request path: a call takes requests (objective, (k, 2p)
    array of vectors) and returns an Energy per request.  It checks every
    budget first, then makes one `engine.energy` call per (n, shots)
    group: on a stack of the group's graphs, the points of one graph on
    its row, or, for a graph with no stack, on its own one-row stack
    (`Graph.stack`).  Then it charges, traces and gives noise to each
    objective in order, as if called alone.  Stacks are built once, of
    the graphs of `objs`, where a kernel chunk holds more than one state
    (n <= 14).  A call with one request is that objective's own call."""

    def __init__(self, objs=()):
        groups = {}
        for obj in objs:
            g = obj.graph
            if chunk_points(g.n) > 1:
                groups.setdefault((g.n, obj.shots), {})[id(g)] = g
        self._stacks, self._rows = {}, {}
        for key, graphs in groups.items():
            if len(graphs) > 1:
                self._stacks[key] = GraphStack(graphs.values())
                self._rows.update({key + (gid,): row
                                   for row, gid in enumerate(graphs)})

    def __call__(self, requests) -> list:
        """The Energy of each request."""
        if len(requests) == 1:
            obj, points = requests[0]
            return [obj(points)]
        return self._evaluate(requests)

    def _evaluate(self, requests) -> list:
        """`__call__` without the one-request shortcut.  A group's points
        are wrapped together, elementwise like `QaoaParams` wraps them."""
        requests = [(obj, np.asarray(points, dtype=np.float64))
                    for obj, points in requests]
        if len({id(obj) for obj, _ in requests}) < len(requests):
            raise DomainError("an objective takes one request per call")
        for obj, vecs in requests:
            if vecs.ndim != 2 or vecs.shape[1] != 2 * obj.depth:
                raise DomainError(f"points of shape {vecs.shape} for an "
                                  f"objective of depth {obj.depth}")
            if len(vecs) > obj.remaining:
                raise BudgetExhaustedError(
                    f"{len(vecs)} evaluations exceed the {obj.remaining} "
                    f"left of a budget of {obj.budget}")
        values = [None] * len(requests)
        groups = {}
        for k, (obj, _) in enumerate(requests):
            key = (obj.graph.n, obj.shots, id(obj.graph))
            groups.setdefault(key[:2] if key in self._rows else key,
                              []).append(k)
        for key, members in groups.items():
            batch = [requests[k] for k in members]
            g, shots = batch[0][0].graph, batch[0][0].shots
            if key in self._stacks:
                g = self._stacks[key].on(np.repeat(
                    [self._rows[key + (id(obj.graph),)] for obj, _ in batch],
                    [len(vecs) for _, vecs in batch]))
            rngs = None if shots is None else (
                obj._stream(obj.calls + i)
                for obj, vecs in batch for i in range(len(vecs)))
            rows = wrap_angles(np.concatenate([vecs for _, vecs in batch]))
            out = energy(g, rows, shots, rngs)
            at = 0
            for k, (_, vecs) in zip(members, batch):
                part = slice(at, at + len(vecs))
                values[k] = rows[part], Energy(out.mean[part], out.stderr[part])
                at += len(vecs)
        for (obj, _), (rows, value) in zip(requests, values):
            lo, obj.calls = obj.calls, obj.calls + len(rows)
            obj.points[lo:obj.calls] = rows
            obj.means[lo:obj.calls], obj.stderrs[lo:obj.calls] = value
        return [value for _, value in values]


_ALONE = Meter()


def lockstep(objs, runs) -> None:
    """Drive step generators to their end, run k on objs[k]: a run yields
    the (K, 2p) vectors of its next step and is sent their K metered
    means, and each round sends every live run's points through one
    `Meter` call over `objs`."""
    meter = Meter(objs)
    live = [(obj, run, next(run)) for obj, run in zip(objs, runs)]
    while live:
        values = meter([(obj, vecs) for obj, _, vecs in live])
        rounds, live = zip(live, values), []
        for (obj, run, _), value in rounds:
            with contextlib.suppress(StopIteration):
                live.append((obj, run, run.send(value.mean)))

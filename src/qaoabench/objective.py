"""Budgeted objective evaluation.

Every optimizer sees the energy only through a MeteredObjective, which
counts calls against a fixed budget, records a full trace, and refuses to
evaluate once the budget is gone.  Attempt-level comparisons stay fair
because nothing can sneak extra circuit evaluations.

A call takes one point or a batch of K points, charged as K evaluations
and traced in order, with the same values, noise and trace as K single
calls.  A batch evolves together, along the leading axis of the engine's
kernels, in chunks of at most `kernels.SLICE` amplitudes: 2^14 / 2^(n-1)
points, so one point at a time from n = 15 up.  Optimizers that know
their points in advance (random search, the KDE sampler) spend their
whole budget in one call.

An `ObjectiveStack` takes one point for each of several objectives, as
lockstep walks do: the points of graph objectives with the same n (and
shots) evolve as one stacked evaluation, and each objective is charged,
traced and given noise as if it had been called alone.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import EnergyValue, GraphStack, QaoaParams, energy
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .seeding import reseed


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
    it at each evaluation's substream (`seeding.reseed`).

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
        count = len(batch)
        if self.calls + count > self.budget:
            raise BudgetExhaustedError(
                f"budget of {self.budget} evaluations exhausted" if one else
                f"batch of {count} exceeds the {self.remaining} evaluations "
                f"left of a budget of {self.budget}")
        rngs = None
        if self.shots is not None:
            rngs = (self._stream(self.calls + i) for i in range(count))
        values = self._fn(batch, self.shots, rngs)
        self.calls += count
        self.trace += zip(batch, values)
        return values[0] if one else values

    def _stream(self, i: int):
        """The generator pointed at evaluation i's noise substream."""
        return reseed(self._rng, self.seed, "metered", i)

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


class ObjectiveStack:
    """Metered objectives that take one point each per call, in a fixed
    order.  The graph objectives are grouped by (n, shots) once, and each
    group's points go to `energy` as one stacked evaluation on a
    GraphStack of its graphs; an objective with no graph is called on its
    own.  Every objective is charged one evaluation, traced and given the
    noise of its own next evaluation, as if it had been called alone, and
    every budget is checked before anything is evaluated, so a refused
    call charges nothing.
    """

    def __init__(self, objs):
        self.objs = list(objs)
        if len({id(obj) for obj in self.objs}) != len(self.objs):
            raise DomainError("an objective can take only one point per "
                              "stacked call")
        groups = {}
        self._alone = []
        for k, obj in enumerate(self.objs):
            if obj.graph is None:
                self._alone.append(k)
            else:
                groups.setdefault((obj.graph.n, obj.shots), []).append(k)
        self._groups = [
            (rows, GraphStack([self.objs[k].graph for k in rows]))
            for rows in groups.values()]

    def __call__(self, points) -> list[EnergyValue]:
        """EnergyValue of points[k], a QaoaParams, on objs[k], for every
        k."""
        objs = self.objs
        if len(points) != len(objs):
            raise DomainError(f"{len(objs)} objectives take one point each, "
                              f"got {len(points)}")
        for obj in objs:
            if obj.calls >= obj.budget:
                raise BudgetExhaustedError(
                    f"budget of {obj.budget} evaluations exhausted")
        values = [None] * len(objs)
        for rows, stack in self._groups:
            shots = objs[rows[0]].shots
            rngs = None if shots is None else (
                objs[k]._stream(objs[k].calls) for k in rows)
            for k, value in zip(rows, energy(
                    stack, [points[k] for k in rows], shots, rngs)):
                values[k] = value
        for k in self._alone:
            values[k] = objs[k](points[k])
        for rows, _ in self._groups:
            for k in rows:
                objs[k].calls += 1
                objs[k].trace.append((points[k], values[k]))
        return values


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
    best_i = 0
    best_v = trace[0][1].mean
    for i, (_, ev) in enumerate(trace):
        if ev.mean > best_v:
            best_i, best_v = i, ev.mean
    return OptResult(best_params=trace[best_i][0], best_value=best_v,
                     evals_used=len(trace), trace=list(trace))

"""Budgeted objective evaluation.

Every optimizer sees the energy only through a MeteredObjective, which
counts calls against a fixed budget, records a full trace, and refuses to
evaluate once the budget is gone.  Attempt-level comparisons stay fair
because nothing can sneak extra circuit evaluations.
"""

from dataclasses import dataclass

from .engine import Circuit, EnergyValue, QaoaParams
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .seeding import stream_rng


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

    `shots=None` evaluates exactly; otherwise each call draws a fresh
    substream of `seed` indexed by call number, so the noise sequence is
    reproducible and independent of parameter values.
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
        self.circuit = None
        self.graph = None
        self.budget = budget
        self.depth = depth
        self.shots = shots
        self.seed = seed
        self.calls = 0
        self.trace: list[tuple[QaoaParams, EnergyValue]] = []

    @classmethod
    def for_graph(cls, g: Graph, depth: int, budget: int,
                  shots: int | None = None, seed: int = 0) -> "MeteredObjective":
        """Meter the energy of `g`; the circuit is compiled once."""
        circuit = Circuit(g)
        obj = cls(circuit.energy, budget, depth=depth, shots=shots, seed=seed)
        obj.graph = g
        obj.circuit = circuit
        return obj

    @classmethod
    def for_function(cls, fn, budget: int, depth: int = 1) -> "MeteredObjective":
        """Meter an arbitrary params -> float map (test hook)."""

        def wrapped(params: QaoaParams, shots_, rng) -> EnergyValue:
            return EnergyValue(mean=float(fn(params)))

        return cls(wrapped, budget, depth=depth, shots=None, seed=0)

    @property
    def remaining(self) -> int:
        return self.budget - self.calls

    def __call__(self, params: QaoaParams) -> EnergyValue:
        if self.calls >= self.budget:
            raise BudgetExhaustedError(
                f"budget of {self.budget} evaluations exhausted")
        rng = None
        if self.shots is not None:
            rng = stream_rng(self.seed, "metered", self.calls)
        value = self._fn(params, self.shots, rng)
        self.calls += 1
        self.trace.append((params, value))
        return value

    def exact_value(self, params: QaoaParams) -> float | None:
        """Exact energy at `params`, outside the budget; None for
        `for_function` objectives, which have no circuit."""
        if self.circuit is None:
            return None
        return self.circuit.energy(params).mean

    def result(self, since: int = 0) -> OptResult:
        """Best-ever point over trace[since:] (first occurrence wins ties).

        Every optimizer run ends here.  `best_exact` is the metered value
        itself in exact mode and an exact re-score in sampled mode.
        """
        res = result_from_trace(self.trace[since:])
        res.best_exact = (res.best_value if self.shots is None
                          else self.exact_value(res.best_params))
        return res


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

"""Workbench for learned QAOA parameter optimization on Max-Cut."""

__version__ = "0.1.0"

from .engine import Circuit, EnergyValue, QaoaParams, evolve, \
    expectation_exact, expectation_sampled, landscape_grid
from .errors import BudgetExhaustedError, ConfigError, DomainError, \
    QaoaBenchError, ResourceLimitError
from .graphs import Graph, InstanceSpec, build_test_set, build_train_set, \
    instance_id, max_cut_bruteforce, realize, spec_from_id, suite
from .objective import MeteredObjective, OptResult

__all__ = [
    "__version__",
    "BudgetExhaustedError", "Circuit", "ConfigError", "DomainError",
    "EnergyValue", "Graph", "InstanceSpec", "MeteredObjective", "OptResult",
    "QaoaParams", "QaoaBenchError", "ResourceLimitError",
    "build_test_set", "build_train_set", "evolve",
    "expectation_exact", "expectation_sampled", "instance_id",
    "landscape_grid", "max_cut_bruteforce", "realize", "spec_from_id",
    "suite",
]

"""Workbench for learned QAOA parameter optimization on Max-Cut."""

__version__ = "0.1.0"

from .engine import EnergyValue, QaoaParams, energy, evolve, \
    expectation_sampled, landscape_grid
from .errors import BudgetExhaustedError, ConfigError, DomainError, \
    QaoaBenchError, ResourceLimitError
from .graphs import Graph, InstanceSpec, build_test_set, build_train_set, \
    instance_id, max_cut_bruteforce, realize, spec_from_id, suite
from .objective import MeteredObjective, OptResult

__all__ = [
    "__version__",
    "BudgetExhaustedError", "ConfigError", "DomainError",
    "EnergyValue", "Graph", "InstanceSpec", "MeteredObjective", "OptResult",
    "QaoaParams", "QaoaBenchError", "ResourceLimitError",
    "build_test_set", "build_train_set", "energy", "evolve",
    "expectation_sampled", "instance_id",
    "landscape_grid", "max_cut_bruteforce", "realize", "spec_from_id",
    "suite",
]

"""Workbench for learned QAOA parameter optimization on Max-Cut."""

import os
import sys

# numpy reads its thread counts once, when it loads: pin BLAS to one
# thread unless the caller set the count or loaded numpy first
if "numpy" not in sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .engine import Energy, QaoaParams, energy, evolve, landscape_grid
from .errors import BudgetExhaustedError, ConfigError, DomainError, \
    QaoaBenchError, ResourceLimitError
from .graphs import Graph, InstanceSpec, build_test_set, build_train_set, \
    instance_id, max_cut_bruteforce, realize, spec_from_id, suite
from .objective import MeteredObjective, OptResult

__all__ = [
    "__version__",
    "BudgetExhaustedError", "ConfigError", "DomainError",
    "Energy", "Graph", "InstanceSpec", "MeteredObjective", "OptResult",
    "QaoaParams", "QaoaBenchError", "ResourceLimitError",
    "build_test_set", "build_train_set", "energy", "evolve", "instance_id",
    "landscape_grid", "max_cut_bruteforce", "realize", "spec_from_id",
    "suite",
]

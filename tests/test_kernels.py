"""Kernels that the engine's tests do not reach through a Graph."""

import numpy as np

from conftest import cuts_py, random_graph
from qaoabench import kernels


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_bruteforce_parity_and_chunking():
    rng = np.random.default_rng(4)
    for _ in range(6):
        g = random_graph(rng, 2, 12)
        edges = g.edge_array()
        value, z = kernels.bruteforce_best(g.n, edges, chunk=64)
        # chunked scan must agree with a single-chunk scan
        assert (value, z) == kernels.bruteforce_best(g.n, edges, chunk=1 << 20)
        assert value == max(cuts_py(g.n, g.edges))

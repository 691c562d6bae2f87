"""Kernels that the engine's tests do not reach through a Graph."""

import math

import numpy as np

from conftest import cuts_py, mixer_per_qubit, random_graph
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


def test_blocked_mixer_matches_per_qubit_loop():
    # n below one block, exact multiples of the block, remainder blocks,
    # and up to four slices, where the top block's groups outgrow a slice
    n_max = kernels.SLICE.bit_length() + 1
    rng = np.random.default_rng(21)
    for n in range(1, n_max + 1):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        beta = rng.uniform(-math.pi, math.pi)
        cos_b, msin_b = math.cos(beta), -1j * math.sin(beta)
        want = amps.copy()
        mixer_per_qubit(want, n, cos_b, msin_b)
        kernels.apply_mixer(amps, n, cos_b, msin_b)
        assert np.max(np.abs(amps - want)) < 1e-12, n

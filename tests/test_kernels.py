"""Kernels that the engine's tests do not reach through a Graph."""

import math

import numpy as np

from conftest import cuts_np, full_state, mixer_per_qubit, random_graph
from qaoabench import kernels


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_half_diagonal_matches_xor_enumeration():
    # the half diagonal is the lower half of every cut, and its complement
    # half is the mirror image, so its maximum is the maximum cut
    rng = np.random.default_rng(4)
    for _ in range(6):
        g = random_graph(rng, 2, 12)
        half = kernels.cut_diagonal(g.n, g.edge_array())
        want = cuts_np(g.n, g.edges)
        np.testing.assert_array_equal(np.concatenate([half, half[::-1]]), want)
        assert half.max() == want.max()


def test_blocked_mixer_matches_per_qubit_loop():
    # n below one block, exact multiples of the block, a last block that
    # is the top qubit's reversal alone (n - 1 = 4, 8, 12, 16), a single
    # column (n <= 4), and several slices, where the column pairs of the
    # last block come a slice from each end
    n_max = kernels.SLICE.bit_length() + 2
    rng = np.random.default_rng(21)
    for n in range(2, n_max + 1):
        half = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
        half /= np.linalg.norm(half)
        beta = rng.uniform(-math.pi, math.pi)
        cos_b, msin_b = math.cos(beta), -1j * math.sin(beta)
        want = full_state(half)
        mixer_per_qubit(want, n, cos_b, msin_b)
        kernels.apply_mixer(half, n, cos_b, msin_b)
        assert np.max(np.abs(full_state(half) - want)) < 1e-12, n

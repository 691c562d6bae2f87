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


def test_frame_mixer_matches_per_qubit_loop():
    # the kernel takes D * A to D^-1 * (mixer A), D = diag((-i)^pcm) and
    # pcm the popcount of the middle bits, so a symmetric half state goes
    # in times D and comes back times D: n <= 5 has no middle bits,
    # n = 6..17 one to three middle blocks, and past one slice
    # (n - 1 > 14) the top qubit's rows come a slice from each end
    n_max = kernels.SLICE.bit_length() + 2
    rng = np.random.default_rng(21)
    for n in range(2, n_max + 1):
        half = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
        half /= np.linalg.norm(half)
        w = kernels.middle_bits(n)
        mid = (np.arange(half.size) >> (n - 1 - w)) & ((1 << w) - 1)
        pcm = np.array([bin(x).count("1") for x in range(1 << w)])[mid]
        turn = np.array([1, -1j, -1, 1j])[pcm % 4]
        beta = rng.uniform(-math.pi, math.pi)
        want = full_state(half)
        mixer_per_qubit(want, n, math.cos(beta), -1j * math.sin(beta))
        frame = (half * turn)[None]
        kernels.apply_mixer(frame, n, [beta])
        assert np.max(np.abs(full_state(frame[0] * turn) - want)) < 1e-12, n


def test_phase_index_counts_the_middle_bits():
    # index = cut + (m + 1) * popcount of bits n - 1 - w .. n - 2
    rng = np.random.default_rng(5)
    for n in (2, 5, 6, 9, 13):
        g = random_graph(rng, n, n)
        m = g.num_edges
        index = kernels.phase_index(n, g.cuts, m)
        assert index.dtype == np.int32
        np.testing.assert_array_equal(index % (m + 1), g.cuts)
        w = kernels.middle_bits(n)
        mid = (np.arange(index.size) >> (n - 1 - w)) & ((1 << w) - 1)
        pcm = [bin(x).count("1") for x in mid.tolist()]
        np.testing.assert_array_equal(index // (m + 1), pcm)

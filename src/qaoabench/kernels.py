"""Hot numeric kernels: cut diagonals, statevector layer updates, brute force.

State layout is little-endian: qubit ``q`` is bit ``q`` of the basis index.
Edge arrays are int64 with shape (m, 2), u < v per row.
"""

import numpy as np

# named in benchmark machine descriptions
BACKEND = "numpy"


def cut_diagonal(n, edges):
    """Vector of cut sizes, entry z = number of edges cut by bitstring z."""
    size = 1 << n
    out = np.zeros(size, dtype=np.int32)
    if edges.shape[0]:
        z = np.arange(size, dtype=np.int64)
        for k in range(edges.shape[0]):
            out += (((z >> edges[k, 0]) ^ (z >> edges[k, 1])) & 1).astype(np.int32)
    return out


def apply_phase(amps, cuts, table):
    """In-place amps[z] *= table[cuts[z]] (diagonal cost-phase layer)."""
    amps *= table[cuts]


def apply_mixer(amps, n, cos_b, msin_b):
    """In-place single-qubit rotation on every qubit.

    Pairs (a_z0, a_z1) differing in bit q map to
    (cos_b*a_z0 + msin_b*a_z1, msin_b*a_z0 + cos_b*a_z1)
    where msin_b = -1j*sin(beta).
    """
    for q in range(n):
        view = amps.reshape(-1, 2, 1 << q)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = cos_b * a0 + msin_b * a1
        view[:, 1, :] = msin_b * a0 + cos_b * a1


def bruteforce_best(n, edges, chunk=1 << 18):
    """Best cut over z in [0, 2^(n-1)); the complement covers the rest.

    Returns (value, z) with the lowest-z tie-break.  Restricting to the
    lower half keeps the top vertex in partition 0, so the returned z is
    also the smaller member of its complement pair.
    """
    half = 1 << (n - 1)
    best = -1
    best_z = 0
    for lo in range(0, half, chunk):
        z = np.arange(lo, min(lo + chunk, half), dtype=np.int64)
        c = np.zeros(z.size, dtype=np.int32)
        for k in range(edges.shape[0]):
            c += (((z >> edges[k, 0]) ^ (z >> edges[k, 1])) & 1).astype(np.int32)
        k = int(np.argmax(c))
        if int(c[k]) > best:
            best = int(c[k])
            best_z = int(z[k])
    return best, best_z

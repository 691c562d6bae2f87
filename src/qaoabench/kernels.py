"""Hot numeric kernels: cut diagonals, statevector layer updates, brute force.

State layout is little-endian: qubit ``q`` is bit ``q`` of the basis index.
Edge arrays are int64 with shape (m, 2), u < v per row.  The cut diagonal
is exact integer arithmetic.  The mixer sums each amplitude over a 4-qubit
block in one product, so its results differ from a qubit-by-qubit update in
the last bits (a few 1e-14 in an energy).
"""

import numpy as np

# named in benchmark machine descriptions
BACKEND = "numpy"

# qubits fused into one mixer block, and amplitudes per block slice
# (256 KiB of complex128)
BLOCK = 4
SLICE = 1 << 14
# _HAMMING[i, j] = popcount(i ^ j) for i, j < 2^BLOCK
_HAMMING = np.array([[bin(i ^ j).count("1") for j in range(1 << BLOCK)]
                     for i in range(1 << BLOCK)])


def cut_diagonal(n, edges):
    """Vector of cut sizes, entry z = number of edges cut by bitstring z.

    Built by doubling over vertices: once out[:2^v] holds the cuts of the
    edges among vertices < v, vertex v's edges to its lower neighbours u
    are added.  Below 2^v (bit v = 0) an edge is cut where bit u is 1;
    above it (bit v = 1) where bit u is 0.  Integer arithmetic throughout.
    """
    out = np.zeros(1 << n, dtype=np.int32)
    lower = [[] for _ in range(n)]
    for u, v in edges.tolist():
        lower[v].append(u)
    for v in range(n):
        half = 1 << v
        # ones[z] = number of lower neighbours u of v with bit u of z set
        ones = np.zeros(half, dtype=np.int32)
        for u in lower[v]:
            ones.reshape(-1, 2, 1 << u)[:, 1, :] += 1
        np.subtract(out[:half] + len(lower[v]), ones, out=out[half:2 * half])
        out[:half] += ones
    return out


def apply_phase(amps, cuts, table):
    """In-place amps[z] *= table[cuts[z]] (diagonal cost-phase layer)."""
    amps *= table[cuts]


def apply_mixer(amps, n, cos_b, msin_b):
    """In-place rotation cos_b*I + msin_b*X on every qubit (msin_b =
    -1j*sin(beta)), fused into blocks of up to BLOCK qubits.

    The rotations commute, so a block of b qubits is one 2^b x 2^b matrix
    with entry (i, j) = cos_b^(b-h) * msin_b^h, h = popcount(i ^ j).  The
    matrix is symmetric and depends only on b, so it is built once per
    block size and call.  Each block runs over slices of at most SLICE
    amplitudes, each written back in place, so no temporary outgrows the
    cache.
    """
    powers_c = np.power(cos_b, np.arange(BLOCK + 1))
    powers_s = np.power(msin_b, np.arange(BLOCK + 1))
    mats = {}   # block size -> matrix; every block but a remainder is full
    for q in range(0, n, BLOCK):
        b = min(BLOCK, n - q)
        dim = 1 << b
        mat = mats.get(b)
        if mat is None:
            h = _HAMMING[:dim, :dim]
            mat = mats[b] = powers_c[b - h] * powers_s[h]
        if q == 0:
            # one row per group, so one (rows, dim) @ (dim, dim) product
            # (mat is symmetric); a batch of (dim, 1) columns is slower
            view = amps.reshape(-1, dim)
            rows = max(1, SLICE >> b)
            for r in range(0, view.shape[0], rows):
                piece = view[r:r + rows]
                piece[...] = piece @ mat
            continue
        view = amps.reshape(-1, dim, 1 << q)
        rows = max(1, SLICE >> (b + q))
        cols = min(1 << q, SLICE >> b)
        for r in range(0, view.shape[0], rows):
            for y in range(0, 1 << q, cols):
                piece = view[r:r + rows, :, y:y + cols]
                piece[...] = np.matmul(mat, piece)


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

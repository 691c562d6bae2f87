"""Hot numeric kernels: the cut diagonal and the statevector layer updates.

State layout is little-endian: qubit ``q`` is bit ``q`` of the basis index.
A cut C(z) equals the cut of its complement, and the uniform start and
every layer commute with X on all qubits, so amplitude z equals amplitude
~z throughout (Shaydulin, Hadfield, Hogg & Safro, arXiv:2012.04713).  The
kernels therefore hold only the 2^(n-1) entries whose top bit (qubit
n - 1) is 0: the half state and the half diagonal.  On the half, X on the
top qubit maps index y to 2^(n-1) - 1 - y, which reverses the array.

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
    """Cut sizes of the 2^(n-1) bitstrings z with bit n - 1 clear: entry z
    is the number of edges cut by z (the complement of z cuts the same).

    Built by doubling over vertices: once out[:2^v] holds the cuts of the
    edges among vertices < v, vertex v's edges to its lower neighbours u
    are added.  Below 2^v (bit v = 0) an edge is cut where bit u is 1;
    above it (bit v = 1) where bit u is 0.  The top vertex only adds to
    the lower half, which is all that is kept.  Integer arithmetic
    throughout.
    """
    out = np.zeros(1 << (n - 1), dtype=np.int32)
    lower = [[] for _ in range(n)]
    for u, v in edges.tolist():
        lower[v].append(u)
    for v in range(n):
        half = 1 << v
        # ones[z] = number of lower neighbours u of v with bit u of z set
        ones = np.zeros(half, dtype=np.int32)
        for u in lower[v]:
            ones.reshape(-1, 2, 1 << u)[:, 1, :] += 1
        if v < n - 1:
            np.subtract(out[:half] + len(lower[v]), ones,
                        out=out[half:2 * half])
        out[:half] += ones
    return out


def apply_phase(amps, cuts, table):
    """In-place amps[z] *= table[cuts[z]] (diagonal cost-phase layer), a
    slice of SLICE amplitudes at a time so no temporary outgrows the
    cache."""
    for lo in range(0, amps.size, SLICE):
        amps[lo:lo + SLICE] *= table[cuts[lo:lo + SLICE]]


def apply_mixer(amps, n, cos_b, msin_b):
    """In-place rotation cos_b*I + msin_b*X on every one of the n qubits
    (msin_b = -1j*sin(beta)) of the half state `amps` (2^(n-1) entries),
    fused into blocks of up to BLOCK qubits.

    The rotations commute, so a block of b qubits is one 2^b x 2^b matrix
    with entry (i, j) = cos_b^(b-h) * msin_b^h, h = popcount(i ^ j).  The
    matrix is symmetric and depends only on b, so it is built once per
    block size and call.  The last block holds the top qubit, which the
    half state leaves out: there the full block of column c (the low
    bits) is column c stacked on its complement, column C - 1 - c read
    backwards, and only the first 2^(b-1) rows of the matrix are needed.
    Each block runs over slices of at most SLICE amplitudes, each written
    back in place, so no temporary outgrows the cache.
    """
    last = (n - 1) // BLOCK * BLOCK
    mats = {}   # block size -> matrix; every block but the last is full
    for q in range(0, n, BLOCK):
        b = min(BLOCK, n - q)
        dim = 1 << b
        mat = mats.get(b)
        if mat is None:
            entry = np.array([cos_b ** (b - h) * msin_b ** h
                              for h in range(b + 1)])
            mat = mats[b] = entry[_HAMMING[:dim, :dim]]
        if q == last:
            _apply_top_block(amps, q, b, mat[:dim >> 1])
        elif q == 0:
            # one row per group, so one (rows, dim) @ (dim, dim) product
            # (mat is symmetric); a batch of (dim, 1) columns is slower
            view = amps.reshape(-1, dim)
            rows = max(1, SLICE >> b)
            for r in range(0, view.shape[0], rows):
                piece = view[r:r + rows]
                piece[...] = piece @ mat
        else:
            view = amps.reshape(-1, dim, 1 << q)
            rows = max(1, SLICE >> (b + q))
            cols = min(1 << q, SLICE >> b)
            for r in range(0, view.shape[0], rows):
                for y in range(0, 1 << q, cols):
                    piece = view[r:r + rows, :, y:y + cols]
                    piece[...] = np.matmul(mat, piece)


def _apply_top_block(amps, q, b, head):
    """The block of qubits q..n-1 on the half state, n - 1 = q + b - 1.

    `view` has one row per setting of the b - 1 real qubits and one
    column per setting of the C = 2^q qubits below.  The upper half of
    the full block, rows with the top bit set, is view[::-1, ::-1]: its
    column c is column C - 1 - c reversed.  `head` is the first 2^(b-1)
    rows of the block matrix.  When b = 1 the block is the reversal
    alone; when C = 1 the column pairs with itself.
    """
    view = amps.reshape(-1, 1 << q)
    cols = view.shape[1]
    width = SLICE >> (b + 1)    # column pairs per slice
    if cols <= 2 * width:
        np.matmul(head, np.concatenate([view, view[::-1, ::-1]]), out=view)
        return
    # column y + k pairs with column cols - 1 - y - k, so a slice of
    # `width` columns from each end is closed under the pairing
    for y in range(0, cols >> 1, width):
        low = view[:, y:y + width]
        high = view[:, cols - y - width:cols - y]
        pair = np.concatenate([low, high], axis=1)
        new = head @ np.concatenate([pair, pair[::-1, ::-1]])
        low[...] = new[:, :width]
        high[...] = new[:, width:]

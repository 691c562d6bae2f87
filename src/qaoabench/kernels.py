"""Hot numeric kernels: the cut diagonal, the phase index and the
statevector layer updates.

State layout is little-endian: qubit ``q`` is bit ``q`` of the basis index.
A cut C(z) equals the cut of its complement, and the uniform start and
every layer commute with X on all qubits, so amplitude z equals amplitude
~z throughout (Shaydulin, Hadfield, Hogg & Safro, arXiv:2012.04713).  The
kernels therefore hold only the 2^(n-1) entries whose top bit (qubit
n - 1) is 0: the half state and the half diagonal.

Block plan (`_plan`).  Below the top qubit lie the low b0 = min(BLOCK,
n - 1) bits and the w = n - 1 - b0 middle bits, which go in near-equal
blocks of at most BLOCK qubits.  On b qubits the mixer cos(beta)*I -
i*sin(beta)*X is the 2^b x 2^b matrix D*R*D, with D = diag((-i)^popcount(i))
and R real orthogonal: R[i, j] = cos^(b-h) * sin^h * (-1)^popcount(i & j),
h = popcount(i ^ j).

Frame.  Between layers the state is F = A / (-i)^pcm = D^-1 * A, where A
holds the amplitudes, pcm is the popcount of the middle bits and D is
the middle bits' D; |F| = |A|.  The left D of a layer's middle blocks is
thus never applied, and the next layer's right D meets it across the
diagonal phase layer as D * D = (-1)^pcm, which rides in the phase table
(`phase_table`, read through `phase_index`); the first layer's table
carries (-i)^pcm, the right D on the uniform start.  The phase layer
leaves D*A, and `apply_mixer` takes D*A to D^-1 * (mixer A): the top
qubit alone, the middle blocks as R alone (real products on the float64
view), the low bits as one complex product D*R*D.

Sign.  On D*A, X on the top qubit maps entry y to (-1)^pcm(y) * i^w times
entry 2^(n-1) - 1 - y: the array reversed, with one sign per run of 2^b0
entries (a Thue-Morse sequence over the runs).

Edge arrays are int64 with shape (m, 2), u < v per row.  The cut diagonal
and the phase index are exact integer arithmetic.  The mixer sums each
amplitude over a block in one product, so its results differ from a
qubit-by-qubit update in the last bits (a few 1e-14 in an energy).
"""

import functools
import math

import numpy as np

# named in benchmark machine descriptions
BACKEND = "numpy"

# largest mixer block in qubits, and amplitudes per block slice
# (256 KiB of complex128)
BLOCK = 4
SLICE = 1 << 14
# (-i)^k for k mod 4
_QUARTER_TURNS = np.array([1, -1j, -1, 1j])
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << BLOCK)])
_I = np.arange(1 << BLOCK)
_EXPONENTS = np.arange(BLOCK + 1.0)
_HAMMING = _POPCOUNT[_I[:, None] ^ _I]
_SIGN = 1.0 - 2.0 * (_POPCOUNT[_I[:, None] & _I] & 1)
# per block size b, with h = popcount(i ^ j): where the entry cos^(b-h) *
# sin^h sits in the per-call table of cos^a * sin^c (at a + (BLOCK + 1) *
# c), and the factors (-1)^popcount(i & j) of R and (-i)^h of the complex
# low block D * R * D
_POWER_AT = [_HAMMING[:1 << b, :1 << b] * BLOCK + b for b in range(BLOCK + 1)]
_PARITY = [_SIGN[:1 << b, :1 << b].copy() for b in range(BLOCK + 1)]
_TURNS = [_QUARTER_TURNS[_HAMMING[:1 << b, :1 << b] % 4]
          for b in range(BLOCK + 1)]


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


def middle_bits(n):
    """w: the number of qubits between the low block and the top qubit."""
    return n - 1 - min(BLOCK, n - 1)


@functools.cache
def _plan(n):
    """(b0, middle blocks as (lowest qubit, size), turns) for n qubits.

    turns[g] = -i * i^w * (-1)^popcount(g) over the 2^w runs of 2^b0
    entries (the signs built by doubling): the top qubit's coefficient
    per run, over sin(beta).  Read-only, since the cache shares it.
    """
    b0 = min(BLOCK, n - 1)
    w = middle_bits(n)
    count = -(-w // BLOCK)
    blocks = []
    q = b0
    for k in range(count):
        b = (w + k) // count       # sizes differ by at most one, sum to w
        blocks.append((q, b))
        q += b
    signs = np.ones(1)
    for _ in range(w):
        signs = np.concatenate([signs, -signs])
    turns = _QUARTER_TURNS[(1 - w) % 4] * signs
    turns.flags.writeable = False
    return b0, tuple(blocks), turns


def phase_index(n, cuts, m):
    """Per-entry index cut + (m + 1) * pcm into a phase table of (m + 1)
    * (w + 1) entries, pcm the popcount of the middle bits (int32).  Built
    in place from a copy of `cuts`, one strided add per middle bit."""
    index = cuts.copy()
    for q in range(n - 1 - middle_bits(n), n - 1):
        index.reshape(-1, 2, 1 << q)[:, 1, :] += m + 1
    return index


@functools.cache
def _frame_turns(n):
    """((-i)^pcm, (-1)^pcm) for pcm = 0..w; read-only."""
    pcm = np.arange(middle_bits(n) + 1)
    turns = _QUARTER_TURNS[pcm % 4], _QUARTER_TURNS[2 * pcm % 4]
    for t in turns:
        t.flags.writeable = False
    return turns


def phase_table(n, gamma, levels, first):
    """The table `apply_phase` reads through `phase_index`: the cost phase
    exp(-i*gamma*cut) per cut level in `levels`, times (-i)^pcm on the
    first layer, which takes the amplitudes into the frame, and times
    (-1)^pcm on every later one."""
    turns = _frame_turns(n)[0 if first else 1]
    return np.multiply.outer(turns, np.exp(-1j * gamma * levels)).ravel()


def amplitudes(frame, n, index, m):
    """In place, the amplitudes of a state held in the frame: one gather
    of (-i)^pcm, pcm = index // (m + 1)."""
    frame *= _frame_turns(n)[0][index // (m + 1)]
    return frame


def apply_phase(amps, index, table):
    """In-place amps[z] *= table[index[z]] (diagonal cost-phase layer), a
    slice of SLICE amplitudes at a time so no temporary outgrows the
    cache.  `take` gathers faster than fancy indexing."""
    for lo in range(0, amps.size, SLICE):
        amps[lo:lo + SLICE] *= table.take(index[lo:lo + SLICE])


def apply_mixer(amps, n, beta):
    """In-place rotation cos(beta)*I - i*sin(beta)*X on every one of the n
    qubits of the half state `amps` (2^(n-1) entries), from D*A to
    D^-1 * (mixer A) as above: the top qubit first, then the real middle
    blocks, then the complex low block.  The rotations commute, so the
    order is free.

    Each part runs over slices of at most SLICE amplitudes, each written
    back in place, so no temporary outgrows the cache.
    """
    b0, blocks, turns = _plan(n)
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    _apply_top(amps.reshape(turns.size, 1 << b0), cos_b, sin_b * turns)
    powers = np.multiply.outer(sin_b ** _EXPONENTS,
                               cos_b ** _EXPONENTS).ravel()
    real = amps.view(np.float64)
    for q, b in blocks:
        dim = 1 << b
        mat = powers.take(_POWER_AT[b]) * _PARITY[b]
        # a complex entry is two floats, so bit q strides 2^(q+1) floats
        view = real.reshape(-1, dim, 2 << q)
        rows = max(1, SLICE >> (b + q))
        cols = min(2 << q, 2 * SLICE >> b)
        for r in range(0, view.shape[0], rows):
            for y in range(0, 2 << q, cols):
                piece = view[r:r + rows, :, y:y + cols]
                piece[...] = np.matmul(mat, piece)
    dim = 1 << b0
    mat = powers.take(_POWER_AT[b0]) * _TURNS[b0]
    # one row per run, so one (rows, dim) @ (dim, dim) product (mat is
    # symmetric); a batch of (dim, 1) columns is slower
    view = amps.reshape(-1, dim)
    rows = SLICE >> b0
    for r in range(0, view.shape[0], rows):
        piece = view[r:r + rows]
        piece[...] = piece @ mat


def _apply_top(view, cos_b, coef):
    """The top qubit on the half state, one row per run of 2^b0 entries:
    view[g] <- cos_b * view[g] + coef[g] * view[G - 1 - g, ::-1].

    Row g pairs with row G - 1 - g, so a slice of rows from each end is
    closed under the pairing.
    """
    groups = view.shape[0]
    rows = max(1, SLICE // view.shape[1])
    if groups <= 2 * rows:
        new = view[::-1, ::-1] * coef[:, None]
        view *= cos_b
        view += new
        return
    for g in range(0, groups >> 1, rows):
        top = groups - g - rows
        low = view[g:g + rows]
        high = view[top:top + rows]
        new_low = high[::-1, ::-1] * coef[g:g + rows, None]
        new_high = low[::-1, ::-1] * coef[top:top + rows, None]
        low *= cos_b
        low += new_low
        high *= cos_b
        high += new_high

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
(`phase_tables`, read through `phase_index`); the first layer's table
carries (-i)^pcm, the right D on the uniform start.  The phase layer
leaves D*A, and `apply_mixer` takes D*A to D^-1 * (mixer A): the top
qubit alone, the middle blocks as R alone (real products on the float64
view), the low bits as one complex product D*R*D.

Sign.  On D*A, X on the top qubit maps entry y to (-1)^pcm(y) * i^w times
entry 2^(n-1) - 1 - y: the array reversed, with one sign per run of 2^b0
entries (a Thue-Morse sequence over the runs).

Leading axis.  The layer kernels act on K states at once, the rows of a
(K, 2^(n-1)) array, with one angle per row (`phase_tables`, `apply_phase`,
`apply_mixer`); one evaluation is K = 1.  Each state's products are the
ones a single state would get (its own GEMM per block), so a row's result
does not depend on the batch around it.  Row k reads its phases through
its own index row, offset into the k-th stretch of a layer's table, so
the rows may share one graph or each have their own.  Pieces are cut to
SLICE amplitudes per state, and callers keep a batch to K * 2^(n-1) <=
SLICE (one state at a time from n = 15 up), so a batch stays cache-sized.

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
_ODD = (_POPCOUNT[_I[:, None] & _I] & 1).astype(bool)
# The per-call table of `apply_mixer`, per state: the powers sin^a *
# cos^c at a * (BLOCK + 1) + c, then their negatives, then zeros.  Per
# block size b, with h = popcount(i ^ j), the entry cos^(b-h) * sin^h sits
# at _POWER_AT[b]; R carries the sign (-1)^popcount(i & j), and the
# complex low block D * R * D the factor (-i)^h.
_POWERS = (BLOCK + 1) ** 2
_SIGNS = np.array([1.0, -1.0, 0.0])[:, None, None]
_POWER_AT = [_HAMMING[:1 << b, :1 << b] * BLOCK + b for b in range(BLOCK + 1)]


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
    """(b0, middle blocks as (lowest qubit, size)) for n qubits."""
    b0 = min(BLOCK, n - 1)
    w = middle_bits(n)
    count = -(-w // BLOCK)
    blocks = []
    q = b0
    for k in range(count):
        b = (w + k) // count       # sizes differ by at most one, sum to w
        blocks.append((q, b))
        q += b
    return b0, tuple(blocks)


def _complex_at(at, turn):
    """(real, imaginary) table indices of p * (-i)^turn, p at `at`."""
    neg, zero = at + _POWERS, np.full_like(at, 2 * _POWERS)
    return np.stack([np.choose(turn, [at, zero, neg, zero]),
                     np.choose(turn, [zero, neg, zero, at])], -1)


@functools.cache
def _block_index(n):
    """Where `apply_mixer`'s coefficients sit in its table of 3 * _POWERS
    entries per state, in order:

    - the low block D * R * D, (real, imaginary) pairs of p * (-i)^h;
    - the top qubit's coefficient per run g of 2^b0 entries, sin(beta) *
      -i * i^w * (-1)^popcount(g) as pairs (the signs built by doubling);
    - each middle block's real R.

    Read-only, since the cache shares it."""
    b0, blocks = _plan(n)
    w = middle_bits(n)
    parity = np.zeros(1, dtype=np.int64)
    for _ in range(w):
        parity = np.concatenate([parity, 1 - parity])
    parts = [_complex_at(_POWER_AT[b0], _HAMMING[:1 << b0, :1 << b0] % 4),
             _complex_at(np.full(1 << w, BLOCK + 1), (1 - w + 2 * parity) % 4)]
    for _, b in blocks:
        parts.append(_POWER_AT[b] + _POWERS * _ODD[:1 << b, :1 << b])
    index = np.concatenate([part.ravel() for part in parts])
    index.flags.writeable = False
    return index


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


def phase_tables(n, gammas, m):
    """The tables `apply_phase` reads through `phase_index`, (p, K, (w +
    1) * (m + 1)) for the (K, p) angles `gammas`, layer first: the cost
    phase exp(-i*gamma*cut) per cut level 0..m, times (-i)^pcm on the
    first layer, which takes the amplitudes into the frame, and times
    (-1)^pcm on every later one.  The first layer's table also carries the
    uniform amplitude 2^(-(n-1)/2), so gathering it is the start state
    after the first phase layer.  An entry depends on its level, not on m,
    so a larger m only appends levels."""
    count, depth = gammas.shape
    phases = np.exp(gammas.T[:, :, None] * _turned_levels(m))
    return (_layer_turns(n, depth)[:, None, :, None]
            * phases[:, :, None, :]).reshape(depth, count, -1)


@functools.cache
def _turned_levels(m):
    """-i * cut for the cut levels 0..m; read-only."""
    levels = -1j * np.arange(m + 1.0)
    levels.flags.writeable = False
    return levels


@functools.cache
def _layer_turns(n, depth):
    """(-i)^pcm times the uniform amplitude for the first layer and
    (-1)^pcm for the depth - 1 later ones, (depth, w + 1); read-only.
    (-i)^pcm is exact, so scaling it first gives the same products as
    scaling the phase table."""
    first, later = _frame_turns(n)
    uniform = 1.0 / math.sqrt(1 << (n - 1))
    turns = np.stack([first * uniform] + [later] * (depth - 1))
    turns.flags.writeable = False
    return turns


def amplitudes(frame, n, index, m):
    """In place, the amplitudes of states held in the frame (one per row):
    one gather of (-i)^pcm, pcm = index // (m + 1), for a `phase_index`
    of stride m + 1 (or rows of them, without offsets)."""
    frame *= _frame_turns(n)[0][index // (m + 1)]
    return frame


def apply_phase(amps, index, table):
    """In-place amps[k, z] *= table[index[k, z]] (diagonal cost-phase
    layer) for one layer's flat table, row k's index offset into its own
    stretch of it; a slice of SLICE columns at a time, so no temporary
    outgrows the cache when K = 1.  `take` gathers faster than fancy
    indexing."""
    for lo in range(0, amps.shape[1], SLICE):
        amps[:, lo:lo + SLICE] *= table.take(index[:, lo:lo + SLICE])


def apply_mixer(amps, n, betas):
    """In-place rotation cos(beta)*I - i*sin(beta)*X on every one of the n
    qubits of the K half states in the rows of `amps` (K, 2^(n-1)), with
    beta = betas[k] on row k, from D*A to D^-1 * (mixer A) as above: the
    top qubit first, then the real middle blocks, then the complex low
    block.  The rotations commute, so the order is free.

    Each part runs over pieces of at most SLICE amplitudes per row, each
    written back in place, so a single state's temporaries stay
    cache-sized; a batch is meant to hold K * 2^(n-1) <= SLICE.
    """
    b0, blocks = _plan(n)
    count = len(betas)
    groups = amps.shape[1] >> b0
    angles = np.reshape(betas, (count, 1, 1, 1))
    cos_b, sin_b = np.cos(angles), np.sin(angles)
    # (count, 3, BLOCK + 1, BLOCK + 1); each base is broadcast along the
    # exponents, so numpy's power takes its scalar loop.  One take then
    # gathers every coefficient (`_block_index`).
    powers = sin_b ** _EXPONENTS[:, None] * _SIGNS * cos_b ** _EXPONENTS
    mats = powers.reshape(count, -1).take(_block_index(n), axis=1)
    pairs = mats.view(np.complex128)
    dim = 1 << b0
    low = pairs[:, :dim * dim].reshape(count, dim, dim)
    _apply_top(amps.reshape(count, groups, dim), cos_b[:, 0],
               pairs[:, dim * dim:dim * dim + groups, None])
    at = 2 * (dim * dim + groups)
    real = amps.view(np.float64)
    for q, b in blocks:
        dim = 1 << b
        mat = mats[:, at:at + dim * dim].reshape(count, 1, dim, dim)
        at += dim * dim
        # a complex entry is two floats, so bit q strides 2^(q+1) floats
        view = real.reshape(count, -1, dim, 2 << q)
        rows = max(1, SLICE >> (b + q))
        cols = min(2 << q, 2 * SLICE >> b)
        for r in range(0, view.shape[1], rows):
            for y in range(0, 2 << q, cols):
                piece = view[:, r:r + rows, :, y:y + cols]
                piece[...] = np.matmul(mat, piece)
    # one row per run, so one (rows, dim) @ (dim, dim) product per state
    # (the matrix is symmetric); a batch of (dim, 1) columns is slower
    view = amps.reshape(count, -1, 1 << b0)
    rows = SLICE >> b0
    for r in range(0, view.shape[1], rows):
        piece = view[:, r:r + rows]
        piece[...] = piece @ low


def _reversed(view):
    """A contiguous copy of `view` with its last two axes reversed: the
    copy is one strided pass, where arithmetic on the reversed view
    itself runs several times slower than on contiguous operands."""
    return view[:, ::-1, ::-1].copy()


def _apply_top(view, cos_b, coef):
    """The top qubit on K half states, one row per run of 2^b0 entries:
    view[k, g] <- cos_b[k] * view[k, g] + coef[k, g] * view[k, G - 1 - g,
    ::-1].

    Row g pairs with row G - 1 - g, so a slice of rows from each end is
    closed under the pairing.
    """
    groups = view.shape[1]
    rows = max(1, SLICE // view.shape[2])
    if groups <= 2 * rows:
        new = _reversed(view)
        new *= coef
        view *= cos_b
        view += new
        return
    for g in range(0, groups >> 1, rows):
        top = groups - g - rows
        low = view[:, g:g + rows]
        high = view[:, top:top + rows]
        new_low = _reversed(high)
        new_low *= coef[:, g:g + rows]
        new_high = _reversed(low)
        new_high *= coef[:, top:top + rows]
        low *= cos_b
        low += new_low
        high *= cos_b
        high += new_high

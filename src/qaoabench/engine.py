"""Exact statevector simulation of the depth-p Max-Cut ansatz.

The cost operator is diagonal with entry C(z) = cut size of bitstring z, so
the optimal assignment sits in the highest-energy amplitude.  One layer
applies the diagonal phase exp(-i*gamma*C(z)) followed by the product of
single-qubit rotations cos(beta)*I - i*sin(beta)*X on every qubit.

State layout is little-endian (qubit q = bit q of the index).  The state
is the half state of `kernels`, the 2^(n-1) amplitudes with bit n - 1
clear, normalised to 1; bit-flip symmetry fixes the rest (the full state
is the half and its reversal, over sqrt(2)).  Energies and cut-level laws
are sums over the half with no factor 2.  Angles wrap into [-pi, pi),
and a wrapped angle wraps to its own bits; the spectrum is
integer-valued, so wrapping never changes an energy.  The half cut
diagonal and the phase index belong to the graph (`Graph.cuts`,
`Graph.phase_index`), so each instance builds them once however often it
is evaluated.

`evolve` and `energy` take one QaoaParams or a (K, 2p) array of vectors
[betas, gammas], wrapped like `QaoaParams` wraps them, which evolve
together along the leading axis of the kernels, each with the values it
would get alone, bit for bit.  The points are on a `graphs.GraphStack`
of same-n graphs, point k on its row of the stack: a lone Graph is its
own one-row stack (`Graph.stack`), whose index and cut row every point
reads, and a lockstep round of many optimizer runs is one stacked
evaluation per n.

The layers run in the frame of `kernels`: each entry is its amplitude
over (-i)^pcm, pcm the popcount of the middle bits, so the mixer's middle
blocks are real products and their phases ride in the cost-phase table.
Energies and cut-level laws read |entry|^2, which is the probability
itself; only the public `evolve` converts back to amplitudes.  A sampled
energy draws its shots over the m + 1 cut levels rather than the basis
states: the same law, but not the same draws as a per-bitstring
multinomial.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError
from .graphs import Graph, GraphStack
from .seeding import point, stream_keys

TWO_PI = 2.0 * math.pi


def wrap_angles(x) -> np.ndarray:
    """Map angles periodically into [-pi, pi); a wrapped angle wraps to
    its own bits.  The second mod takes the 2 pi that the first rounds a
    tiny negative x + pi up to, which would give +pi, to 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.mod(np.mod(x + math.pi, TWO_PI), TWO_PI) - math.pi


@dataclass(frozen=True, eq=False)
class QaoaParams:
    """The 2p variational angles; wraps into [-pi, pi) on construction."""

    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        betas = np.atleast_1d(wrap_angles(self.betas))
        gammas = np.atleast_1d(wrap_angles(self.gammas))
        if betas.ndim != 1 or gammas.ndim != 1:
            raise DomainError("betas and gammas must be 1-d")
        if len(betas) != len(gammas) or len(betas) < 1:
            raise DomainError(
                f"need equal-length beta/gamma vectors of length >= 1, "
                f"got {len(betas)} and {len(gammas)}")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self) -> int:
        return len(self.betas)

    def vector(self) -> np.ndarray:
        """Flat form [beta_1..beta_p, gamma_1..gamma_p]."""
        return np.concatenate([self.betas, self.gammas])

    @classmethod
    def from_vector(cls, vec) -> "QaoaParams":
        vec = np.atleast_1d(np.asarray(vec, dtype=np.float64))
        return cls(vec[:len(vec) // 2], vec[len(vec) // 2:])


def _wrap_rows(params):
    """(wrapped (K, 2p) rows, one point?) of one QaoaParams, as it is, or
    of a (K, 2p) array of vectors, wrapped elementwise like `QaoaParams`."""
    if isinstance(params, QaoaParams):
        return params.vector()[None], True
    vecs = np.asarray(params, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] < 2 or vecs.shape[1] % 2:
        raise DomainError(f"parameter rows must have even length >= 2, "
                          f"got shape {vecs.shape}")
    return wrap_angles(vecs), False


class Energy(NamedTuple):
    """Energy estimates: floats for one point, (K,) arrays for a batch;
    `stderr` is 0 in exact mode."""

    mean: float | np.ndarray
    stderr: float | np.ndarray

    def point(self, k: int = 0) -> "Energy":
        """The floats of point k of a batch."""
        return Energy(float(self.mean[k]), float(self.stderr[k]))


def _stacked(g, count: int):
    """(stack, point rows) of `g` for `count` points: a Graph's own
    one-row stack, or a GraphStack, with the row each point reads: row 0
    for every point on a one-graph stack, else the stack's `rows`, which
    must hold one per point."""
    stack = g if isinstance(g, GraphStack) else g.stack
    if len(stack.graphs) == 1:
        return stack, np.zeros(count, dtype=np.intp)
    if len(stack.rows) != count:
        raise DomainError(f"a stack of {len(stack.rows)} graph rows takes "
                          f"one point each, got {count}")
    return stack, stack.rows


def _rows(a, rows, lo: int, count: int):
    """The rows of `a` for points lo..lo + count: its one row if every
    point shares it, else row rows[k] for point k."""
    return a if len(a) == 1 else a.take(rows[lo:lo + count], axis=0)


def _evolve_frame(n: int, levels: int, index, vecs) -> np.ndarray:
    """All p layers from the uniform state for the K wrapped rows of
    `vecs`, in the frame of `kernels`: row k of the (K, 2^(n-1)) result
    holds point k, and |entry|^2 is the probability of z.

    `index` holds one phase-index row per point, or one row they share,
    on level stride `levels`; row k is offset into the k-th stretch of
    each layer's table.  Kernels are looked up on the `kernels` module at
    call time, never bound to a local name.
    """
    p = vecs.shape[1] // 2
    # contiguous (K, p) copies: the kernels' angles keep one layout
    betas, gammas = vecs[:, :p].copy(), vecs[:, p:].copy()
    tables = kernels.phase_tables(n, gammas, levels - 1)
    flat = tables.reshape(len(tables), -1)
    if len(vecs) > 1:
        # row k reads the k-th stretch of each layer's table; a lone row
        # reads the first as it is
        index = index + np.arange(0, flat.shape[1], tables.shape[2])[:, None]
    # the uniform start through the first phase layer: one gather
    amps = flat[0].take(index)
    kernels.apply_mixer(amps, n, betas[:, 0])
    for k in range(1, len(flat)):
        kernels.apply_phase(amps, index, flat[k])
        kernels.apply_mixer(amps, n, betas[:, k])
    return amps


def chunk_points(n: int) -> int:
    """Points per kernel batch: SLICE amplitudes, one point from n = 15."""
    return max(1, kernels.SLICE >> (n - 1))


def _frames(stack, rows, vecs):
    """(first point, frames) of the wrapped rows `vecs`, in order, a chunk
    of `chunk_points(n)` at a time, so a batch's state stays cache-sized;
    point k reads index row rows[k] of `stack` (`_rows`)."""
    step = chunk_points(stack.n)
    for lo in range(0, len(vecs), step):
        chunk = vecs[lo:lo + step]
        yield lo, _evolve_frame(stack.n, stack.levels,
                                _rows(stack.index, rows, lo, len(chunk)),
                                chunk)


def evolve(g, params) -> np.ndarray:
    """Apply all p layers to the uniform state; returns fresh amplitudes of
    the half state (2^(n-1) entries, normalised to 1), taken out of the
    frame by `kernels.amplitudes`.  `params` is one QaoaParams, or a
    (K, 2p) array of vectors for a (K, 2^(n-1)) array, row k for point k.
    `g` is one Graph, or a GraphStack of same-n graphs."""
    vecs, one = _wrap_rows(params)
    stack, rows = _stacked(g, len(vecs))
    amps = np.concatenate([f for _, f in _frames(stack, rows, vecs)])
    amps = kernels.amplitudes(amps, stack.n,
                              _rows(stack.index, rows, 0, len(vecs)),
                              stack.levels - 1)
    return amps[0] if one else amps


def _pieces(cuts, amps: np.ndarray):
    """(probabilities, cut sizes) of the K half states in the rows of
    `amps`, a slice of `kernels.SLICE` columns at a time, so no temporary
    of one state outgrows the cache.  `cuts` holds one cut row per state,
    or one row they share."""
    step = kernels.SLICE
    for lo in range(0, amps.shape[1], step):
        a = amps[:, lo:lo + step]
        yield a.real**2 + a.imag**2, cuts[:, lo:lo + step]


def _laws(cuts, amps: np.ndarray, levels: int) -> np.ndarray:
    """(K, levels) probability of each cut level in the K rows of
    `amps`: one bincount per piece over all rows, row k's levels offset
    to bins k * levels on, so each bin adds its terms in the order a
    bincount of row k alone would."""
    count = len(amps)
    offsets = np.arange(0, count * levels, levels)[:, None]
    law = np.zeros(count * levels)
    for probs, piece in _pieces(cuts, amps):
        law += np.bincount((piece + offsets).ravel(), weights=probs.ravel(),
                           minlength=count * levels)
    return law.reshape(count, levels)


def energy(g, params, shots: int | None = None, rng=None) -> Energy:
    """Exact expected cut size, or the mean of `shots` measurements: an
    Energy of floats for one QaoaParams, drawn with the generator `rng`,
    or of (K,) arrays for a (K, 2p) array, drawn with an iterable `rng`
    of K generators.  Every statevector energy in the package is
    computed here.

    `g` is one Graph for every point, or a GraphStack of same-n graphs,
    point k on graph rows[k] of the stack.  Sampled, the generators are
    taken in order, point k's draws made before generator k + 1 is taken
    (so one generator re-pointed per point serves).  The points evolve
    together, `_frames` chunks at a time, and each gets the value it
    would get alone, bit for bit.

    A measurement enters the estimate only through its cut size, so the
    shots are one multinomial draw over the m + 1 cut levels of the
    point's own graph.  `shots` below 1 raises DomainError, and so does
    a sampled point without a generator, naming the first.
    """
    if shots is not None and shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}; "
                          f"shots=None is exact")
    vecs, one = _wrap_rows(params)
    stack, rows = _stacked(g, len(vecs))
    if one:
        rng = [rng]
    rngs = None if shots is None else iter(() if rng is None else rng)
    means, stderrs = np.zeros(len(vecs)), np.zeros(len(vecs))
    for lo, amps in _frames(stack, rows, vecs):
        hi = lo + len(amps)
        chunk_cuts = _rows(stack.cuts, rows, lo, len(amps))
        if shots is None:
            # a sum reduces pairwise within a slice, which keeps the error
            # well under 1e-10 even for 2^20 terms; np.dot would go
            # through BLAS with no such bound.
            chunk = 0.0
            for probs, piece in _pieces(chunk_cuts, amps):
                chunk = chunk + np.add.reduce(probs * piece, axis=1)
            means[lo:hi] = chunk
        else:
            means[lo:hi], stderrs[lo:hi] = _sampled_chunk(
                _laws(chunk_cuts, amps, stack.levels),
                stack.sizes[rows[lo:hi]].tolist(), shots, rngs, lo)
        # free this chunk's states before the next chunk evolves
        del amps
    value = Energy(means, stderrs)
    return value.point() if one else value


def _sampled_chunk(laws: np.ndarray, sizes, shots: int, rngs, lo: int):
    """(means, stderrs) of `shots` cut sizes drawn from each row of
    `laws`, the chunk of points lo, lo + 1, ..., row k over its own
    `sizes[k]` levels, with the next generator of `rngs` per row.  Only
    the draw is per row.  Rows of one level count are normalized, and
    their variances summed, together: a row-wise reduction or dot adds in
    the order of the row's own 1-d one, but that order depends on the
    length, so lengths are never mixed."""
    groups = {}
    for k, size in enumerate(sizes):
        groups.setdefault(size, []).append(k)
    groups = {size: slice(None) if len(groups) == 1 else np.array(rows)
              for size, rows in groups.items()}
    # the point's own levels: zero levels past its m would change the
    # normalizing sum and the multinomial's draws
    probs = np.zeros(laws.shape)
    for size, rows in groups.items():
        law = laws[rows, :size]
        probs[rows, :size] = law / np.add.reduce(law, axis=-1)[..., None]
    counts = np.zeros(laws.shape, dtype=np.int64)
    for k, (p, size) in enumerate(zip(probs, sizes)):
        rng = next(rngs, None)
        if rng is None:
            raise DomainError(f"sampled point {lo + k} has no generator")
        counts[k, :size] = rng.multinomial(shots, p[:size])
    levels = np.arange(laws.shape[1])
    means = (counts @ levels) / shots
    var = np.zeros(len(laws))
    if shots > 1:
        d2 = (levels - means[:, None]) ** 2
        for size, rows in groups.items():
            var[rows] = np.matmul(counts[rows, None, :size].astype(float),
                                  d2[rows, :size, None])[..., 0, 0]
        var /= shots - 1
    return means, np.sqrt(var / shots)


def energy_p1(g: Graph, betas, gammas) -> np.ndarray:
    """Exact p = 1 energy at every point of the broadcast angle arrays,
    from the closed form of Wang, Hadfield, Jiang & Rieffel (PRA 97,
    022304, arXiv:1706.02998) in this package's sign convention.

    Per edge (u, v), with d_u = deg(u) - 1, d_v = deg(v) - 1 and lam
    common neighbours:
      <C_uv> = 1/2 + 1/4 sin(4b) sin(g) (cos^d_u(g) + cos^d_v(g))
               - 1/4 sin^2(2b) cos^(d_u + d_v - 2 lam)(g) (1 - cos^lam(2g))
    No state is built, so any n works.  As a function of the angles this
    is a trigonometric polynomial of degree 4 in beta and at most
    d_u + d_v <= 2n - 4 in gamma.
    """
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    du = np.array([len(nbrs[u]) - 1 for u, _ in g.edges], dtype=np.int64)
    dv = np.array([len(nbrs[v]) - 1 for _, v in g.edges], dtype=np.int64)
    lam = np.array([len(nbrs[u] & nbrs[v]) for u, v in g.edges],
                   dtype=np.int64)
    # one trailing axis over the edges
    b = np.asarray(betas, dtype=np.float64)[..., None]
    c = np.asarray(gammas, dtype=np.float64)[..., None]
    cos_c = np.cos(c)
    per_edge = (0.5
                + 0.25 * np.sin(4 * b) * np.sin(c) * (cos_c**du + cos_c**dv)
                - 0.25 * np.sin(2 * b) ** 2 * cos_c ** (du + dv - 2 * lam)
                * (1 - np.cos(2 * c) ** lam))
    return per_edge.sum(axis=-1)


@dataclass
class LandscapeGrid:
    """Energy surface on a uniform (beta, gamma) grid over [-pi, pi]^2."""

    betas: np.ndarray   # axis values, length = resolution
    gammas: np.ndarray
    mean: np.ndarray    # (resolution, resolution), row = beta index
    stderr: np.ndarray

    def rows(self):
        """Row-major (beta, gamma, mean, stderr) tuples for CSV export."""
        for i, b in enumerate(self.betas):
            for j, c in enumerate(self.gammas):
                yield float(b), float(c), float(self.mean[i, j]), float(self.stderr[i, j])


def landscape_grid(g: Graph, resolution: int, shots: int | None = None,
                   seed: int = 0) -> LandscapeGrid:
    """Evaluate the p=1 energy on a resolution x resolution grid.

    shots=None evaluates `energy_p1` over the whole grid at once; otherwise
    each grid row is one batch, and point (i, j) is sampled with its own
    substream (seed, "landscape", i, j), the row's keys derived at once.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    axis = np.linspace(-math.pi, math.pi, resolution)
    stderr = np.zeros((resolution, resolution))
    if shots is None:
        # wrapped like QaoaParams wraps them, so -pi and pi agree exactly
        angles = wrap_angles(axis)
        mean = energy_p1(g, angles[:, None], angles)
    else:
        mean = np.zeros((resolution, resolution))
        rng = np.random.Generator(np.random.Philox(0))
        for i, beta in enumerate(axis):
            row = np.column_stack([np.full(resolution, beta), axis])
            keys = stream_keys(seed, ("landscape", i), resolution)
            mean[i], stderr[i] = energy(
                g, row, shots, (point(rng, key) for key in keys.tolist()))
    return LandscapeGrid(betas=axis.copy(), gammas=axis.copy(),
                         mean=mean, stderr=stderr)

"""Exact statevector simulation of the depth-p Max-Cut ansatz.

The cost operator is diagonal with entry C(z) = cut size of bitstring z, so
the optimal assignment sits in the highest-energy amplitude.  One layer
applies the diagonal phase exp(-i*gamma*C(z)) followed by the product of
single-qubit rotations cos(beta)*I - i*sin(beta)*X on every qubit.

State layout is little-endian (qubit q = bit q of the index).  Angles wrap
into [-pi, pi] on construction; the spectrum is integer-valued, so wrapping
never changes an energy.  The cut diagonal belongs to the graph
(`Graph.cuts`), so each instance builds it once however often it is
evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .graphs import Graph
from .seeding import stream_rng

TWO_PI = 2.0 * math.pi


def wrap_angles(x) -> np.ndarray:
    """Map angles periodically into [-pi, pi)."""
    x = np.asarray(x, dtype=np.float64)
    return np.mod(x + math.pi, TWO_PI) - math.pi


@dataclass(frozen=True, eq=False)
class QaoaParams:
    """The 2p variational angles; wraps into [-pi, pi] on construction."""

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
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1 or vec.size < 2 or vec.size % 2:
            raise DomainError(f"parameter vector must have even length >= 2, "
                              f"got shape {vec.shape}")
        p = vec.size // 2
        return cls(vec[:p], vec[p:])


@dataclass(frozen=True)
class EnergyValue:
    """Energy estimate; shots == 0 means exact (stderr 0)."""

    mean: float
    shots: int = 0
    stderr: float = 0.0


def evolve(g: Graph, params: QaoaParams) -> np.ndarray:
    """Apply all p layers to the uniform state; returns fresh amplitudes.

    Reads the graph's cached cut diagonal.  Kernels are looked up on the
    `kernels` module at call time, never bound to a local name.
    """
    cuts = g.cuts
    levels = np.arange(g.num_edges + 1, dtype=np.float64)
    amps = np.full(cuts.size, 1.0 / math.sqrt(cuts.size), dtype=np.complex128)
    for k in range(params.p):
        table = np.exp(-1j * params.gammas[k] * levels)
        kernels.apply_phase(amps, cuts, table)
        beta = params.betas[k]
        kernels.apply_mixer(amps, g.n, math.cos(beta), -1j * math.sin(beta))
    return amps


def energy(g: Graph, params: QaoaParams, shots: int | None = None,
           rng=None) -> EnergyValue:
    """Exact expected cut size, or the mean of `shots` measurements drawn
    with `rng`.  Every energy in the package is computed here."""
    cuts = g.cuts
    amps = evolve(g, params)
    probs = amps.real**2 + amps.imag**2
    if shots is None:
        # np.sum reduces pairwise, which keeps the error well under 1e-10
        # even for 2^20 terms; np.dot would go through BLAS with no such
        # bound.
        return EnergyValue(mean=float(np.sum(probs * cuts)))
    probs /= probs.sum()
    counts = rng.multinomial(shots, probs)
    mean = float(np.sum(counts * cuts) / shots)
    if shots > 1:
        var = float(np.sum(counts * (cuts - mean) ** 2) / (shots - 1))
    else:
        var = 0.0
    return EnergyValue(mean=mean, shots=shots, stderr=math.sqrt(var / shots))


def expectation_sampled(g: Graph, params: QaoaParams, shots: int,
                        seed: int) -> EnergyValue:
    """Energy from `shots` simulated measurements; deterministic per seed."""
    if shots < 1:
        raise DomainError("shots must be >= 1; use energy(g, params) for exact")
    return energy(g, params, shots, stream_rng(seed, "shots"))


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

    shots=None evaluates exactly; otherwise each grid point is sampled with
    its own substream of `seed`.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    axis = np.linspace(-math.pi, math.pi, resolution)
    mean = np.zeros((resolution, resolution))
    stderr = np.zeros((resolution, resolution))
    for i, beta in enumerate(axis):
        for j, gamma in enumerate(axis):
            rng = None if shots is None else stream_rng(seed, "landscape", i, j)
            ev = energy(g, QaoaParams([beta], [gamma]), shots, rng)
            mean[i, j] = ev.mean
            stderr[i, j] = ev.stderr
    return LandscapeGrid(betas=axis.copy(), gammas=axis.copy(),
                         mean=mean, stderr=stderr)

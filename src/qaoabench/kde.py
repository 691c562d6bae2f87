"""Gaussian kernel density model over near-optimal parameter vectors.

One model per circuit depth, fit on the pooled parameter sets of every
training instance.  Density is an equal-weight mixture of isotropic
Gaussians; sampling picks a center uniformly, perturbs with N(0, w^2 I),
and wraps back into [-pi, pi]^d so a fixed budget is never wasted on
rejected draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import KDE_SCHEMA, read_json, write_json
from .engine import QaoaParams, wrap_angles
from .errors import DomainError
from .objective import MeteredObjective, OptResult
from .seeding import stream_rng

BANDWIDTH_FLOOR = 0.01


@dataclass(frozen=True)
class KdeModel:
    centers: np.ndarray   # (N, d) with d = 2 * depth
    bandwidth: float
    depth: int

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise DomainError("centers must be a non-empty (N, d) matrix")
        if c.shape[1] != 2 * self.depth or self.depth < 1:
            raise DomainError(
                f"centers have {c.shape[1]} columns, expected {2 * self.depth}")
        if not np.all(np.abs(c) <= math.pi + 1e-12):
            raise DomainError("centers must lie within [-pi, pi]^d")
        if not self.bandwidth > 0:
            raise DomainError(f"bandwidth must be > 0, got {self.bandwidth}")
        object.__setattr__(self, "centers", c)


def _as_matrix(s_star) -> np.ndarray:
    rows = [q.vector() if isinstance(q, QaoaParams) else np.asarray(q, float)
            for q in s_star]
    if not rows:
        raise DomainError("cannot fit a density on an empty parameter set")
    d = rows[0].size
    if any(r.ndim != 1 or r.size != d for r in rows):
        raise DomainError("all parameter vectors must share one length")
    return np.vstack(rows)


def _circular_std(col: np.ndarray) -> float:
    # dispersion that ignores the -pi/pi seam; equals the linear std in the
    # concentrated limit
    r = abs(np.mean(np.exp(1j * col)))
    return math.sqrt(max(-2.0 * math.log(max(r, 1e-12)), 0.0))


def scott_bandwidth(centers: np.ndarray) -> float:
    n, d = centers.shape
    spread = float(np.mean([_circular_std(centers[:, k]) for k in range(d)]))
    return max(n ** (-1.0 / (d + 4)) * spread, BANDWIDTH_FLOOR)


def kde_fit(s_star, bandwidth="auto") -> KdeModel:
    """Fit the mixture on pooled vectors; "auto" uses Scott's rule."""
    centers = _as_matrix(s_star)
    d = centers.shape[1]
    if d < 2 or d % 2:
        raise DomainError(f"parameter dimension must be even >= 2, got {d}")
    if bandwidth == "auto":
        omega = scott_bandwidth(centers)
    else:
        omega = float(bandwidth)
        if not omega > 0:
            raise DomainError(f"bandwidth must be > 0, got {bandwidth}")
    return KdeModel(centers=centers, bandwidth=omega, depth=d // 2)


def sample_vectors(model: KdeModel, m: int, seed: int) -> np.ndarray:
    """(m, d) array of mixture draws wrapped into [-pi, pi]^d."""
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    rng = stream_rng(seed, "kde-sample")
    n, d = model.centers.shape
    idx = rng.integers(0, n, size=m)
    noise = rng.normal(0.0, model.bandwidth, size=(m, d))
    return wrap_angles(model.centers[idx] + noise)


def kde_sample(model: KdeModel, m: int, seed: int) -> list[QaoaParams]:
    return [QaoaParams.from_vector(v) for v in sample_vectors(model, m, seed)]


def kde_optimize(obj: MeteredObjective, model: KdeModel, seed: int) -> OptResult:
    """Spend the remaining budget on mixture draws; return the argmax."""
    if model.depth != obj.depth:
        raise DomainError(
            f"model depth {model.depth} != objective depth {obj.depth}")
    if obj.remaining < 1:
        raise DomainError("no budget left for kde_optimize")
    start = len(obj.trace)
    for params in kde_sample(model, obj.remaining, seed):
        obj(params)
    return obj.result(since=start)


def kde_save(model: KdeModel, path) -> None:
    write_json(path, KDE_SCHEMA, {"p": model.depth, "omega": model.bandwidth,
                                  "centers": model.centers.tolist()})


def kde_load(path) -> KdeModel:
    return read_json(path, KDE_SCHEMA, "KDE model", lambda body: KdeModel(
        centers=np.asarray(body["centers"], dtype=np.float64),
        bandwidth=float(body["omega"]), depth=int(body["p"])))

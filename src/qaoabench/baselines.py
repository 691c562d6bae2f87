"""Classical optimizers: uniform random search and Nelder-Mead simplex.

Both maximize through a MeteredObjective.  Nelder-Mead minimizes the
negated energy internally; the negation never reaches the trace, which
records the values the meter produced.
"""

import functools
import math

import numpy as np

from .engine import QaoaParams, wrap_angles
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .objective import MeteredObjective, OptResult, lockstep
from .seeding import stream_rng

NM_ALPHA = 1.0     # reflection
NM_GAMMA = 2.0     # expansion
NM_RHO = 0.5       # contraction
NM_SIGMA = 0.5     # shrink
NM_DIAMETER_TOL = 1e-4
NM_SIMPLEX_STEP = 0.25   # radians, offset per coordinate for the start simplex

MULTISTART_BUDGET = 200


def random_search(obj: MeteredObjective, seed: int) -> OptResult:
    """Evaluate i.i.d. uniform points in [-pi, pi]^(2p) until budget runs
    out, drawn as one (remaining, 2p) array (the same doubles as one row at
    a time) and evaluated in one batch."""
    if obj.remaining < 1:
        raise BudgetExhaustedError("no budget left for random search")
    rng = stream_rng(seed, "random-search")
    start = obj.calls
    obj(rng.uniform(-math.pi, math.pi, (obj.remaining, 2 * obj.depth)))
    return obj.result(since=start)


def _simplex_diameter(points: np.ndarray) -> float:
    """Largest distance between two vertices: the square root of the
    largest x.dot(x) over the pairwise differences x, which is what
    `np.linalg.norm` takes the root of; a stack of 1 x d by d x 1
    products takes each as x.dot(x) does."""
    first, second = _pairs(len(points))
    diffs = points[first] - points[second]
    return math.sqrt(np.matmul(diffs[:, None, :], diffs[:, :, None]).max())


@functools.cache
def _pairs(count: int):
    """Index arrays of every vertex pair a < b of a simplex."""
    return np.triu_indices(count, 1)


def nelder_mead(obj: MeteredObjective, x0: QaoaParams) -> OptResult:
    """Simplex search maximizing the metered objective from x0
    (`simplex_steps`); returns the best point this run evaluated."""
    return nelder_mead_all([obj], x0.vector()[None])[0]


def nelder_mead_all(objs, starts) -> list[OptResult]:
    """`nelder_mead` on each objs[k] from row k of the (K, 2p) vectors
    `starts`, wrapped like `QaoaParams` wraps them, the runs in lockstep
    (`objective.lockstep`), so each round's points are one request."""
    since = [obj.calls for obj in objs]
    lockstep(objs, [simplex_steps(x0, obj.remaining)
                    for obj, x0 in zip(objs, wrap_angles(starts))])
    return [obj.result(since=k) for obj, k in zip(objs, since)]


def simplex_steps(x0: np.ndarray, budget: int):
    """Nelder-Mead from the vector x0 as a step generator: it yields the
    (K, d) vectors of its next step, at most the `budget` left, and is
    sent their K metered means.  Classic coefficients (reflect 1, expand
    2, contract 0.5, shrink 0.5); the start simplex offsets each coordinate
    of x0 by +0.25 rad, then a step is one point, or the d of a shrink.
    Stops when the budget runs out or the simplex diameter drops below
    1e-4.  Deterministic; it minimizes the negated means on unwrapped
    vectors, which the objective wraps.
    """
    d = len(x0)
    if budget < d + 2:
        raise DomainError(
            f"nelder_mead needs at least {d + 2} evaluations, "
            f"{budget} left in budget")
    pts = np.tile(x0, (d + 1, 1))
    for i in range(d):
        pts[i + 1, i] += NM_SIMPLEX_STEP
    left = budget - (d + 1)
    vals = -(yield pts)
    while left and _simplex_diameter(pts) >= NM_DIAMETER_TOL:
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        centroid = pts[:-1].mean(axis=0)
        xr = centroid + NM_ALPHA * (centroid - pts[-1])
        left -= 1
        fr = -(yield xr[None])[0]
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
            continue
        if not left:
            return
        left -= 1
        if fr < vals[0]:
            xe = centroid + NM_GAMMA * (centroid - pts[-1])
            fe = -(yield xe[None])[0]
            pts[-1], vals[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        # an outside contraction if the reflection beat the worst point,
        # else an inside one
        outside = fr < vals[-1]
        xc = centroid + (NM_RHO if outside else -NM_RHO) * (centroid
                                                            - pts[-1])
        fc = -(yield xc[None])[0]
        if fc <= fr if outside else fc < vals[-1]:
            pts[-1], vals[-1] = xc, fc
            continue
        pts[1:] = pts[0] + NM_SIGMA * (pts[1:] - pts[0])
        count = min(d, left)
        left -= count
        vals[1:count + 1] = -(yield pts[1:count + 1])
        if count < d:
            return


def multistart_collect(g: Graph, p: int, n_starts: int,
                       seed: int) -> list[np.ndarray]:
    """Near-optimal parameter set for one instance and depth.

    Runs exact-mode Nelder-Mead (budget 200) from n_starts uniform points
    in lockstep and keeps each final point whose exact value reaches 99%
    of the best value any start found, as a list of wrapped (2p,)
    vectors [betas, gammas].
    """
    if n_starts < 1:
        raise DomainError(f"n_starts must be >= 1, got {n_starts}")
    rng = stream_rng(seed, "multistart")
    starts = rng.uniform(-math.pi, math.pi, (n_starts, 2 * p))
    results = nelder_mead_all(
        [MeteredObjective.for_graph(g, depth=p, budget=MULTISTART_BUDGET)
         for _ in starts], starts)
    best = max(r.best_value for r in results)
    return [r.best_params.vector() for r in results
            if r.best_value >= 0.99 * best]


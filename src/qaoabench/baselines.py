"""Classical optimizers: uniform random search and Nelder-Mead simplex.

Both maximize through a MeteredObjective.  Nelder-Mead minimizes the
negated energy internally; the negation never reaches the trace, which
records the values the meter produced.
"""

import functools
import math

import numpy as np

from .engine import QaoaParams
from .errors import BudgetExhaustedError, DomainError
from .graphs import Graph
from .objective import MeteredObjective, OptResult
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
    start = len(obj.trace)
    obj(rng.uniform(-math.pi, math.pi, (obj.remaining, 2 * obj.depth)))
    return obj.result(since=start)


def _simplex_diameter(points: np.ndarray) -> float:
    """Largest distance between two vertices: the square root of the
    largest x.dot(x) over the pairwise differences x, which is what
    `np.linalg.norm` takes the root of."""
    first, second = _pairs(len(points))
    diffs = points[first] - points[second]
    return math.sqrt(max(x.dot(x) for x in diffs))


@functools.cache
def _pairs(count: int):
    """Index arrays of every vertex pair a < b of a simplex."""
    return np.triu_indices(count, 1)


def nelder_mead(obj: MeteredObjective, x0: QaoaParams) -> OptResult:
    """Simplex search maximizing the metered objective from x0
    (`simplex_search`); returns the best point this run evaluated."""
    start = len(obj.trace)
    simplex_search(obj, x0)
    return obj.result(since=start)


def simplex_search(obj: MeteredObjective, x0: QaoaParams) -> None:
    """Nelder-Mead steps from x0; the caller reads the points from obj.trace.

    Classic coefficients (reflect 1, expand 2, contract 0.5, shrink 0.5);
    the initial simplex offsets each coordinate of x0 by +0.25 rad.  Stops
    when the budget runs out or the simplex diameter drops below 1e-4.  The
    method is deterministic.
    """
    d = 2 * x0.p
    if obj.remaining < d + 2:
        raise DomainError(
            f"nelder_mead needs at least {d + 2} evaluations, "
            f"{obj.remaining} left in budget")

    def g(vec: np.ndarray) -> float:
        # simplex vectors stay unwrapped; evaluation wraps via QaoaParams
        return -obj(QaoaParams.from_vector(vec)).mean

    def g_rows(vecs: np.ndarray) -> list[float]:
        """g of each row in one batch, as many rows as the budget allows
        (the points a loop of g calls would evaluate before running out)."""
        values = [-ev.mean for ev in obj(vecs[:obj.remaining])]
        if len(values) < len(vecs):
            raise BudgetExhaustedError("budget ran out inside a batch")
        return values

    pts = np.tile(x0.vector(), (d + 1, 1))
    for i in range(d):
        pts[i + 1, i] += NM_SIMPLEX_STEP
    try:
        vals = np.array(g_rows(pts))
        while obj.remaining > 0 and _simplex_diameter(pts) >= NM_DIAMETER_TOL:
            order = np.argsort(vals, kind="stable")
            pts, vals = pts[order], vals[order]
            centroid = pts[:-1].mean(axis=0)
            xr = centroid + NM_ALPHA * (centroid - pts[-1])
            fr = g(xr)
            if fr < vals[0]:
                xe = centroid + NM_GAMMA * (centroid - pts[-1])
                fe = g(xe)
                pts[-1], vals[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < vals[-2]:
                pts[-1], vals[-1] = xr, fr
            else:
                if fr < vals[-1]:   # outside contraction
                    xc = centroid + NM_RHO * (centroid - pts[-1])
                    fc = g(xc)
                    accept = fc <= fr
                else:               # inside contraction
                    xc = centroid - NM_RHO * (centroid - pts[-1])
                    fc = g(xc)
                    accept = fc < vals[-1]
                if accept:
                    pts[-1], vals[-1] = xc, fc
                else:
                    pts[1:] = pts[0] + NM_SIGMA * (pts[1:] - pts[0])
                    vals[1:] = g_rows(pts[1:])
    except BudgetExhaustedError:
        pass


def multistart_collect(g: Graph, p: int, n_starts: int, seed: int) -> list[QaoaParams]:
    """Near-optimal parameter set for one instance and depth.

    Runs exact-mode Nelder-Mead (budget 200) from n_starts uniform points
    and keeps each final point whose exact value reaches 99% of the best
    value any start found.
    """
    if n_starts < 1:
        raise DomainError(f"n_starts must be >= 1, got {n_starts}")
    rng = stream_rng(seed, "multistart")
    starts = rng.uniform(-math.pi, math.pi, (n_starts, 2 * p))
    results = []
    for x0 in starts:
        obj = MeteredObjective.for_graph(g, depth=p, budget=MULTISTART_BUDGET)
        results.append(nelder_mead(obj, QaoaParams.from_vector(x0)))
    best = max(r.best_value for r in results)
    return [r.best_params for r in results if r.best_value >= 0.99 * best]


"""Classical optimizers: uniform random search and Nelder-Mead simplex.

Both maximize through a MeteredObjective.  Nelder-Mead minimizes the
negated energy internally; the negation never reaches the trace, which
records the values the meter produced.
"""

import itertools
import math

import numpy as np

from .engine import QaoaParams, landscape_grid
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
    """Evaluate i.i.d. uniform points in [-pi, pi]^(2p) until budget runs out."""
    if obj.remaining < 1:
        raise BudgetExhaustedError("no budget left for random search")
    rng = stream_rng(seed, "random-search")
    d = 2 * obj.depth
    start = len(obj.trace)
    while obj.remaining > 0:
        obj(QaoaParams.from_vector(rng.uniform(-math.pi, math.pi, d)))
    return obj.result(since=start)


def _simplex_diameter(points: np.ndarray) -> float:
    diam = 0.0
    for a, b in itertools.combinations(range(len(points)), 2):
        diam = max(diam, float(np.linalg.norm(points[a] - points[b])))
    return diam


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

    pts = np.tile(x0.vector(), (d + 1, 1))
    for i in range(d):
        pts[i + 1, i] += NM_SIMPLEX_STEP
    try:
        vals = np.array([g(v) for v in pts])
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
                    for i in range(1, d + 1):
                        pts[i] = pts[0] + NM_SIGMA * (pts[i] - pts[0])
                        vals[i] = g(pts[i])
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


def grid_oracle_best(g: Graph, resolution: int) -> tuple[QaoaParams, float]:
    """Argmax of the exact p=1 landscape on a uniform grid (ties: first)."""
    if resolution < 16:
        raise DomainError(f"oracle resolution must be >= 16, got {resolution}")
    grid = landscape_grid(g, resolution)
    flat = int(np.argmax(grid.mean))
    i, j = divmod(flat, resolution)
    return (QaoaParams([grid.betas[i]], [grid.gammas[j]]),
            float(grid.mean[i, j]))

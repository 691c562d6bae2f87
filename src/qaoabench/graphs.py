"""Max-Cut instance graphs: types, the four generators, suites, brute force.

All generators are deterministic: the random class draws from a named Philox
substream keyed by (seed, n, edge probability), so suite contents are frozen
across platforms.  Vertices are 0..n-1 and every edge is stored as (u, v)
with u < v.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError
from .seeding import stream_rng

# one cap on every 2^n table: cut diagonals, statevectors, brute force
MAX_N = 24

GRAPH_CLASSES = ("random", "ladder", "barbell", "caveman")

# Table-pinned seeds for the four random training instances, keyed by e_p.
TRAIN_ER_SEEDS = {0.5: 11, 0.6: 12, 0.7: 13, 0.8: 14}


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted simple graph."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"graph needs at least 2 vertices, got n={self.n}")
        seen = set()
        canon = []
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u},{v}) outside vertex range [0,{self.n})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DomainError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """Edges as an int64 array of shape (m, 2)."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    @cached_property
    def cuts(self) -> np.ndarray:
        """Cut size per basis state, length 2^n (int32), built on first use
        and kept for the graph's lifetime."""
        if self.n > MAX_N:
            raise ResourceLimitError(f"2^n tables capped at n={MAX_N}, "
                                     f"got n={self.n}")
        return kernels.cut_diagonal(self.n, self.edge_array())


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one suite instance; `seed` only for the random class."""

    family: str
    params: tuple  # ((name, value), ...) in canonical order
    seed: int | None = None

    def __post_init__(self):
        if self.family not in GRAPH_CLASSES:
            raise DomainError(f"unknown graph class {self.family!r}")
        if (self.seed is not None) != (self.family == "random"):
            raise DomainError("seed is required for random instances and only those")
        object.__setattr__(self, "params", tuple((k, v) for k, v in self.params))

    def param(self, name):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class CutResult:
    value: int
    assignment: tuple  # +/-1 per vertex


def gen_erdos_renyi(n_r: int, e_p: float, seed: int) -> Graph:
    """Random graph: each pair kept independently with probability e_p.

    Pairs are visited in row-major order (0,1), (0,2), ..., one uniform
    draw per pair from the `("erdos-renyi", n_r, e_p)` substream of `seed`.
    """
    if n_r < 2:
        raise DomainError(f"n_R must be >= 2, got {n_r}")
    if not 0.0 <= e_p <= 1.0:
        raise DomainError(f"edge probability must be in [0,1], got {e_p}")
    rng = stream_rng(seed, "erdos-renyi", n_r, int(round(e_p * 10**9)))
    edges = []
    for i in range(n_r):
        for j in range(i + 1, n_r):
            if rng.random() < e_p:
                edges.append((i, j))
    return Graph(n_r, tuple(edges))


def gen_ladder(n_l: int) -> Graph:
    """Two paths of n_l vertices joined by n_l rungs (3*n_l - 2 edges)."""
    if n_l < 2:
        raise DomainError(f"ladder length must be >= 2, got {n_l}")
    edges = []
    for i in range(n_l - 1):
        edges.append((i, i + 1))                    # bottom rail
        edges.append((n_l + i, n_l + i + 1))        # top rail
    for i in range(n_l):
        edges.append((i, n_l + i))                  # rungs
    return Graph(2 * n_l, tuple(edges))


def gen_barbell(n_b: int) -> Graph:
    """Two complete graphs K_{n_b} joined by a single bridge edge."""
    if n_b < 3:
        raise DomainError(f"clique size must be >= 3, got {n_b}")
    edges = []
    for base in (0, n_b):
        for i in range(n_b):
            for j in range(i + 1, n_b):
                edges.append((base + i, base + j))
    edges.append((n_b - 1, n_b))  # bridge between the cliques
    return Graph(2 * n_b, tuple(edges))


def gen_caveman(n_c: int, n_k: int) -> Graph:
    """Connected caveman graph: n_c cliques of size n_k arranged in a cycle.

    In each clique one internal edge is rewired to reach the next clique,
    which keeps the edge count at n_c * C(n_k, 2) and makes the graph
    connected.
    """
    if n_c < 2:
        raise DomainError(f"number of cliques must be >= 2, got {n_c}")
    if n_k < 3:
        raise DomainError(f"clique size must be >= 3, got {n_k}")
    edges = set()
    for c in range(n_c):
        base = c * n_k
        for i in range(n_k):
            for j in range(i + 1, n_k):
                edges.add((base + i, base + j))
    for c in range(n_c):
        base = c * n_k
        nxt = ((c + 1) % n_c) * n_k
        # drop clique edge (0,1), reconnect vertex 0 to the next clique
        edges.discard((base, base + 1))
        a, b = base, nxt + 1
        if a > b:
            a, b = b, a
        edges.add((a, b))
    return Graph(n_c * n_k, tuple(sorted(edges)))


def realize(spec: InstanceSpec) -> Graph:
    """Build the graph an InstanceSpec describes."""
    if spec.family == "random":
        return gen_erdos_renyi(spec.param("n_R"), spec.param("e_p"), spec.seed)
    if spec.family == "ladder":
        return gen_ladder(spec.param("n_L"))
    if spec.family == "barbell":
        return gen_barbell(spec.param("n_B"))
    return gen_caveman(spec.param("n_C"), spec.param("n_k"))


def instance_id(spec: InstanceSpec) -> str:
    """Canonical id string, parseable back into an InstanceSpec."""
    if spec.family == "random":
        return f"R-n{spec.param('n_R')}-ep{spec.param('e_p'):g}-s{spec.seed}"
    if spec.family == "ladder":
        return f"L-n{spec.param('n_L')}"
    if spec.family == "barbell":
        return f"B-n{spec.param('n_B')}"
    return f"C-{spec.param('n_C')}x{spec.param('n_k')}"


def spec_from_id(iid: str) -> InstanceSpec:
    """Inverse of instance_id."""
    try:
        kind, rest = iid.split("-", 1)
        if kind == "R":
            n_part, ep_part, s_part = rest.split("-")
            return InstanceSpec("random",
                                (("n_R", int(n_part[1:])), ("e_p", float(ep_part[2:]))),
                                seed=int(s_part[1:]))
        if kind == "L":
            return InstanceSpec("ladder", (("n_L", int(rest[1:])),))
        if kind == "B":
            return InstanceSpec("barbell", (("n_B", int(rest[1:])),))
        if kind == "C":
            n_c, n_k = rest.split("x")
            return InstanceSpec("caveman", (("n_C", int(n_c)), ("n_k", int(n_k))))
    except (ValueError, IndexError):
        pass
    raise DomainError(f"unparseable instance id {iid!r}")


def group_of(spec: InstanceSpec) -> str:
    """Reporting subgroup: barbell and caveman count as community graphs."""
    if spec.family == "random":
        return "random"
    if spec.family == "ladder":
        return "ladder"
    return "community"


def build_train_set() -> list:
    """The 7 training instances, all on 8 vertices."""
    out = []
    for e_p in (0.5, 0.6, 0.7, 0.8):
        out.append(InstanceSpec("random", (("n_R", 8), ("e_p", e_p)),
                                seed=TRAIN_ER_SEEDS[e_p]))
    out.append(InstanceSpec("ladder", (("n_L", 4),)))
    out.append(InstanceSpec("barbell", (("n_B", 4),)))
    out.append(InstanceSpec("caveman", (("n_C", 2), ("n_k", 4))))
    return [(s, realize(s)) for s in out]


def build_test_set() -> list:
    """The 94 test instances."""
    out = []
    for n_r in (8, 12, 16, 20):
        for e_p in (0.5, 0.6, 0.7, 0.8):
            for seed in (1, 2, 3, 4):
                out.append(InstanceSpec("random", (("n_R", n_r), ("e_p", e_p)),
                                        seed=seed))
    for n_l in (2, 3, 5, 6, 7, 8, 9, 10, 11):
        out.append(InstanceSpec("ladder", (("n_L", n_l),)))
    for n_b in (3, 5, 6, 7, 8, 9, 10, 11):
        out.append(InstanceSpec("barbell", (("n_B", n_b),)))
    caveman_params = ([(n_c, 4) for n_c in (3, 4, 5)]
                      + [(n_c, 3) for n_c in (3, 5, 7)]
                      + [(2, n_k) for n_k in (3, 5, 6, 7, 8, 9, 10)])
    for n_c, n_k in caveman_params:
        out.append(InstanceSpec("caveman", (("n_C", n_c), ("n_k", n_k))))
    return [(s, realize(s)) for s in out]


def suite(name: str) -> list:
    if name == "train":
        return build_train_set()
    if name == "test":
        return build_test_set()
    raise DomainError(f"unknown suite {name!r} (expected 'train' or 'test')")


def max_cut_bruteforce(g: Graph) -> CutResult:
    """Exact maximum cut by enumerating 2^(n-1) assignments.

    Scans the half-space where the top vertex sits in partition 0 (bit-flip
    symmetry covers the other half); among optimal assignments the one with
    the lowest bitstring value wins.
    """
    if g.n > MAX_N:
        raise ResourceLimitError(f"brute force capped at n={MAX_N}, got n={g.n}")
    value, z = kernels.bruteforce_best(g.n, g.edge_array())
    bits = [(int(z) >> i) & 1 for i in range(g.n)]
    assignment = tuple(1 - 2 * b for b in bits)
    return CutResult(value=int(value), assignment=assignment)

"""Shared test fixtures and independent reference implementations.

The reference implementations here deliberately avoid the package's own
kernels: cut values are counted bit-by-bit in pure Python, and the circuit
reference diagonalizes the full mixer matrix instead of applying per-qubit
rotations.  Agreement between the two code paths is therefore meaningful.
"""

import math

import numpy as np
import pytest

from qaoabench.engine import QaoaParams, landscape_grid
from qaoabench.errors import DomainError
from qaoabench.graphs import Graph


def cuts_py(n, edges):
    """Pure-python cut counter over all 2^n assignments (bit i = vertex i)."""
    out = []
    for z in range(1 << n):
        c = 0
        for u, v in edges:
            if ((z >> u) & 1) != ((z >> v) & 1):
                c += 1
        out.append(c)
    return out


def dense_reference(n, edges, betas, gammas):
    """Full-matrix circuit reference: explicit mixer matrix, eigendecomposition.

    Index convention matches the package (bit i of the basis index is vertex
    i), so with numpy's kron the single-qubit operator for vertex i sits at
    position n-1-i from the left.
    """
    dim = 1 << n
    cuts = np.array(cuts_py(n, edges), dtype=float)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mixer = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        mixer += np.kron(np.eye(1 << (n - 1 - i)), np.kron(x, np.eye(1 << i)))
    evals, evecs = np.linalg.eigh(mixer)
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    for beta, gamma in zip(betas, gammas):
        psi = np.exp(-1j * gamma * cuts) * psi
        psi = evecs @ (np.exp(-1j * beta * evals) * (evecs.conj().T @ psi))
    return psi


def dense_energy(n, edges, betas, gammas):
    psi = dense_reference(n, edges, betas, gammas)
    cuts = np.array(cuts_py(n, edges), dtype=float)
    return float(np.real(np.vdot(psi, cuts * psi)))


def random_graph(rng, n_min=2, n_max=6):
    """Small random graph for property tests (at least one edge)."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.6]
    if not edges:
        edges = [(0, 1)]
    return Graph(n, tuple(edges))


def cut_of(g, assignment) -> int:
    """Cut size of a +/-1 (or 0/1) partition vector."""
    a = np.asarray(assignment)
    return int(sum(1 for (u, v) in g.edges if a[u] != a[v]))


def grid_oracle_best(g, resolution):
    """Argmax of the exact p=1 landscape on a uniform grid (ties: first)."""
    if resolution < 16:
        raise DomainError(f"oracle resolution must be >= 16, got {resolution}")
    grid = landscape_grid(g, resolution)
    flat = int(np.argmax(grid.mean))
    i, j = divmod(flat, resolution)
    return (QaoaParams([grid.betas[i]], [grid.gammas[j]]),
            float(grid.mean[i, j]))


def kde_density(model, x) -> float:
    """Mixture density (1/N) sum_i (2 pi w^2)^(-d/2) exp(-|x-x_i|^2 / 2 w^2)."""
    x = np.asarray(x, dtype=np.float64)
    n, d = model.centers.shape
    if x.shape != (d,):
        raise DomainError(f"point has shape {x.shape}, model dimension is {d}")
    w2 = model.bandwidth ** 2
    sq = np.sum((model.centers - x) ** 2, axis=1)
    norm = (2.0 * math.pi * w2) ** (-d / 2.0)
    return float(norm * np.mean(np.exp(-sq / (2.0 * w2))))


# Frozen reference values.  Each was computed with the pure-python and
# dense-matrix references above and is pinned so that regressions in the
# fast kernels are caught exactly.
ER8_SEED1_EDGES = ((0, 3), (0, 5), (0, 7), (1, 3), (2, 5), (3, 4), (3, 6),
                   (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7))
PIN_ER8_P1 = 5.702112626753834        # erdos_renyi(8,0.5,1), betas=[0.7], gammas=[-1.2]
PIN_CAVE24_P2 = 5.825150622838295     # caveman(2,4), betas=[0.35,-0.9], gammas=[1.1,0.45]


@pytest.fixture(scope="session")
def train_set():
    from qaoabench.graphs import build_train_set
    return build_train_set()


@pytest.fixture(scope="session")
def test_set():
    from qaoabench.graphs import build_test_set
    return build_test_set()


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion(request):
    """Reporter for the acceptance suite: one PASS/FAIL line per criterion."""
    def report(num, ok, detail):
        line = "[criterion %d] %s — %s" % (num, "PASS" if ok else "FAIL", detail)
        request.config._criterion_lines.append(line)
        print(line)
        return ok
    return report

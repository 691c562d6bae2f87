"""Shared test fixtures and independent reference implementations.

The reference implementations here deliberately avoid the package's own
kernels: cut values are counted bit-by-bit in pure Python or by a numpy XOR
over all 2^n assignments, the circuit reference diagonalizes the full mixer
matrix on all 2^n amplitudes, the mixer reference applies one qubit at a
time to a full state, and the statevector reference runs the circuit with
those two on all 2^n amplitudes.  Agreement between these code paths and the package
(whose p = 1 closed form, `engine.energy_p1`, needs no state at all) is
therefore meaningful.
"""

import math

import numpy as np
import pytest

from qaoabench.engine import QaoaParams, energy, landscape_grid
from qaoabench.errors import DomainError
from qaoabench.graphs import Graph
from qaoabench.kde import sample_vectors
from qaoabench.seeding import point, seed_sequence, stream_rng


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


def cuts_np(n, edges):
    """Numpy cut counter over all 2^n assignments: edge (u, v) is cut where
    bits u and v of z differ (z >> u ^ z >> v has bit 0 set)."""
    z = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for u, v in edges:
        out += ((z >> u) ^ (z >> v)) & 1
    return out


def full_state(half):
    """All 2^n amplitudes from the package's half state (the 2^(n-1) with
    the top bit clear, normalised to 1): amplitude z equals that of its
    complement, which sits at the mirrored index."""
    return np.concatenate([half, half[::-1]]) / math.sqrt(2.0)


def level_probs(g, half):
    """Probability of each cut level 0..m in the half state `half`: the
    law of one measurement's cut size, summed as `engine.energy` sums it
    for a sampled energy (one slice of `kernels.SLICE` entries up to
    n = 15)."""
    return np.bincount(g.cuts, weights=half.real**2 + half.imag**2,
                       minlength=g.num_edges + 1)


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


def mixer_per_qubit(amps, n, cos_b, msin_b):
    """In-place rotation on every qubit, one qubit at a time.

    Pairs (a_z0, a_z1) differing in bit q map to
    (cos_b*a_z0 + msin_b*a_z1, msin_b*a_z0 + cos_b*a_z1).
    """
    for q in range(n):
        view = amps.reshape(-1, 2, 1 << q)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = cos_b * a0 + msin_b * a1
        view[:, 1, :] = msin_b * a0 + cos_b * a1


def statevector_reference(n, edges, betas, gammas):
    """All 2^n amplitudes of the circuit: `cuts_np` phases and
    `mixer_per_qubit` rotations on the full state, no half and no frame.
    Cheap enough to check n up to the high teens."""
    cuts = cuts_np(n, edges)
    psi = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for beta, gamma in zip(betas, gammas):
        psi *= np.exp(-1j * gamma * cuts)
        mixer_per_qubit(psi, n, math.cos(beta), -1j * math.sin(beta))
    return psi


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


def kde_sample(model, m, seed):
    """`m` mixture draws of `model` as QaoaParams."""
    return [QaoaParams.from_vector(vec)
            for vec in sample_vectors(model, m, seed)]


def expectation_sampled(g, params, shots, seed):
    """Energy of one QaoaParams from `shots` simulated measurements, drawn
    from the substream (seed, "shots"); deterministic per seed."""
    return energy(g, params, shots, stream_rng(seed, "shots"))


def reseed(rng, root, *path):
    """`point` `rng` at the substream addressed by (root, *path): its
    draws are then those of `stream_rng(root, *path)`."""
    return point(rng, seed_sequence(root, *path).generate_state(4).view("<u8"))


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

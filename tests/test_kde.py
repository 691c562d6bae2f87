"""Gaussian kernel density model: fitting, density math, sampling law."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import grid_oracle_best, kde_density, kde_sample
from qaoabench.baselines import multistart_collect
from qaoabench.engine import wrap_angles
from qaoabench.errors import DomainError
from qaoabench.graphs import Graph
from qaoabench.kde import (
    BANDWIDTH_FLOOR,
    KdeModel,
    kde_fit,
    kde_load,
    kde_optimize,
    kde_save,
    sample_vectors,
    scott_bandwidth,
)
from qaoabench.objective import MeteredObjective


K2 = Graph(2, ((0, 1),))


def model_from(centers, omega, depth=1):
    return KdeModel(centers=np.asarray(centers, dtype=float),
                    bandwidth=float(omega), depth=depth)


def test_single_center_density_formula():
    m = model_from([[0.0, 0.0]], 0.1)
    want_peak = (2 * math.pi * 0.1**2) ** -1.0  # (2*pi*w^2)^(-d/2), d=2
    assert kde_density(m, [0.0, 0.0]) == pytest.approx(want_peak, rel=1e-12)
    # one sigma out along one axis
    assert kde_density(m, [0.1, 0.0]) == pytest.approx(want_peak * math.exp(-0.5),
                                                       rel=1e-12)


def test_density_dimension_scaling():
    m4 = model_from([[0.0] * 4], 0.2, depth=2)
    want = (2 * math.pi * 0.2**2) ** -2.0
    assert kde_density(m4, [0.0] * 4) == pytest.approx(want, rel=1e-12)


def test_density_symmetry_and_far_decay():
    m = model_from([[-0.5, 0.0], [0.5, 0.0]], 0.2)
    assert kde_density(m, [0.0, 0.3]) == pytest.approx(
        kde_density(m, [0.0, -0.3]), rel=1e-12)
    assert kde_density(model_from([[0.0, 0.0]], 0.05), [3.0, 3.0]) < 1e-12


def test_density_integrates_to_one():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-2.0, 2.0, (4, 2))
    m = model_from(centers, 0.3)
    lo, hi, k = -math.pi - 2.0, math.pi + 2.0, 220
    axis = np.linspace(lo, hi, k, endpoint=False) + (hi - lo) / (2 * k)
    total = 0.0
    for x in axis:
        total += sum(kde_density(m, [x, y]) for y in axis)
    total *= ((hi - lo) / k) ** 2
    assert abs(total - 1.0) < 1e-2


def test_density_input_validation():
    m = model_from([[0.0, 0.0]], 0.1)
    with pytest.raises(DomainError):
        kde_density(m, [0.0, 0.0, 0.0])


def test_model_validation():
    with pytest.raises(DomainError):
        model_from(np.zeros((0, 2)), 0.1)
    with pytest.raises(DomainError):
        model_from([[0.0, 0.0]], 0.0)
    with pytest.raises(DomainError):
        model_from([[4.0, 0.0]], 0.1)  # center outside [-pi, pi]
    with pytest.raises(DomainError):
        model_from([[0.0, 0.0, 0.0]], 0.1)  # odd dimension


def test_fit_accepts_params_and_floors_bandwidth():
    pts = [[0.2, 0.3]] * 5  # identical centers -> zero spread
    m = kde_fit(pts)
    assert m.bandwidth == BANDWIDTH_FLOOR
    assert m.depth == 1
    assert m.centers.shape == (5, 2)


def test_scott_bandwidth_matches_manual():
    rng = np.random.default_rng(2)
    centers = rng.uniform(-1.0, 1.0, (40, 2))
    n, d = centers.shape
    spreads = []
    for j in range(d):
        r = abs(np.mean(np.exp(1j * centers[:, j])))
        spreads.append(math.sqrt(-2.0 * math.log(r)))
    want = n ** (-1.0 / (d + 4)) * float(np.mean(spreads))
    assert scott_bandwidth(centers) == pytest.approx(want, rel=1e-12)
    assert kde_fit(list(centers)).bandwidth == pytest.approx(max(want, 0.01))


def test_fit_validation():
    with pytest.raises(DomainError):
        kde_fit([])
    with pytest.raises(DomainError):
        kde_fit([[0.1, 0.2], [0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(DomainError):
        kde_fit([[0.1, 0.2]], bandwidth=-1.0)


def test_fit_is_order_insensitive():
    rng = np.random.default_rng(3)
    # the centers wrapped, as parameter vectors come
    pts = list(wrap_angles(rng.uniform(-1, 1, (10, 2))))
    a = kde_fit(pts)
    b = kde_fit(pts[::-1])
    assert a.bandwidth == b.bandwidth
    assert sorted(map(tuple, a.centers)) == sorted(map(tuple, b.centers))
    probe = [0.4, -0.2]
    assert kde_density(a, probe) == pytest.approx(kde_density(b, probe), rel=1e-12)


def test_samples_deterministic_and_in_range():
    m = model_from([[2.0, -2.0], [-1.0, 1.0]], 0.8)
    a = sample_vectors(m, 500, seed=4)
    b = sample_vectors(m, 500, seed=4)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (500, 2)
    assert np.all(a >= -math.pi) and np.all(a < math.pi)
    assert not np.array_equal(a, sample_vectors(m, 500, seed=5))


def test_tiny_bandwidth_samples_collapse_to_center():
    m = model_from([[0.7, -1.1]], 1e-9)
    xs = sample_vectors(m, 100, seed=0)
    np.testing.assert_allclose(xs, np.tile([0.7, -1.1], (100, 1)), atol=1e-6)


def test_sample_mean_tracks_center_mean():
    omega, m_draws = 0.2, 200_000
    m = model_from([[0.25, -0.4]] * 3, omega)
    xs = sample_vectors(m, m_draws, seed=6)
    tol = 4 * omega / math.sqrt(m_draws)
    assert abs(xs[:, 0].mean() - 0.25) < tol
    assert abs(xs[:, 1].mean() - (-0.4)) < tol


def test_sample_variance_is_kernel_plus_center_variance():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-0.8, 0.8, (6, 2))  # well inside, no wrap mass
    omega = 0.3
    m = model_from(centers, omega)
    xs = sample_vectors(m, 200_000, seed=8)
    for j in range(2):
        want = omega**2 + np.var(centers[:, j])
        got = np.var(xs[:, j])
        assert abs(got - want) / want < 0.05


def test_sampling_law_ks_per_coordinate():
    # compare against an independently coded mixture simulation
    rng = np.random.default_rng(9)
    centers = rng.uniform(-1.5, 1.5, (5, 2))
    omega = 0.35
    m = model_from(centers, omega)
    ours = sample_vectors(m, 10_000, seed=10)
    ref_rng = np.random.default_rng(12345)
    idx = ref_rng.integers(0, len(centers), 10_000)
    ref = centers[idx] + ref_rng.normal(0.0, omega, (10_000, 2))
    ref = np.mod(ref + math.pi, 2 * math.pi) - math.pi
    for j in range(2):
        assert stats.ks_2samp(ours[:, j], ref[:, j]).pvalue > 0.01


def test_sampling_law_chi_square_2d():
    rng = np.random.default_rng(11)
    centers = rng.uniform(-math.pi, math.pi, (40, 2))
    omega = 0.5
    m = model_from(centers, omega)
    draws = sample_vectors(m, 100_000, seed=12)
    edges = np.linspace(-math.pi, math.pi, 17)
    obs, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges, edges])

    # exact wrapped bin mass: Gaussian box integrals plus one image each side
    def axis_mass(c):
        p = np.zeros(16)
        for k in (-1, 0, 1):
            shift = 2 * math.pi * k
            p += (stats.norm.cdf((edges[1:] - c + shift) / omega)
                  - stats.norm.cdf((edges[:-1] - c + shift) / omega))
        return p

    expected = np.zeros((16, 16))
    for cx, cy in centers:
        expected += np.outer(axis_mass(cx), axis_mass(cy))
    expected *= 100_000 / len(centers)

    obs_f, exp_f = obs.ravel(), expected.ravel()
    # pool sparse bins so the chi-square approximation holds
    keep = exp_f >= 10
    if not keep.all():
        obs_f = np.append(obs_f[keep], obs_f[~keep].sum())
        exp_f = np.append(exp_f[keep], exp_f[~keep].sum())
    exp_f = exp_f * (obs_f.sum() / exp_f.sum())
    assert stats.chisquare(obs_f, exp_f).pvalue > 0.01


def test_kde_sample_returns_params():
    m = model_from([[0.1, 0.2, 0.3, 0.4]], 0.1, depth=2)
    pts = kde_sample(m, 7, seed=0)
    assert len(pts) == 7
    assert all(q.p == 2 for q in pts)


def test_kde_optimize_spends_budget_and_finds_peak():
    start, oracle = grid_oracle_best(K2, 64)
    m = model_from([start.vector()], 0.02)
    obj = MeteredObjective.for_graph(K2, depth=1, budget=32)
    res = kde_optimize(obj, m, seed=1)
    assert res.evals_used == 32
    assert obj.remaining == 0
    assert res.best_exact >= 0.99 * oracle


def test_kde_optimize_depth_mismatch():
    m = model_from([[0.0] * 4], 0.1, depth=2)
    obj = MeteredObjective.for_graph(K2, depth=1, budget=8)
    with pytest.raises(DomainError):
        kde_optimize(obj, m, seed=0)


def test_kde_optimize_deterministic():
    m = model_from([[0.3, 0.9]], 0.3)
    runs = []
    for _ in range(2):
        obj = MeteredObjective.for_graph(K2, depth=1, budget=16,
                                         shots=256, seed=3)
        runs.append(kde_optimize(obj, m, seed=4))
    assert runs[0].best_value == runs[1].best_value
    np.testing.assert_array_equal(runs[0].best_params.vector(),
                                  runs[1].best_params.vector())


def test_fitted_model_concentrates_on_good_region():
    # pooled near-optimal parameters of the train graphs give a clearly
    # non-uniform density: max/min over a 64x64 grid beyond 10x
    from qaoabench.graphs import build_train_set

    pts = []
    for _, g in build_train_set():
        pts.extend(multistart_collect(g, p=1, n_starts=12, seed=5))
    m = kde_fit(pts)
    axis = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    dens = np.array([[kde_density(m, [b, c]) for c in axis] for b in axis])
    assert dens.max() / dens.min() > 10.0


def test_save_load_round_trip(tmp_path):
    m = model_from([[0.5, -0.5], [0.1, 0.9]], 0.123, depth=1)
    path = tmp_path / "kde.json"
    kde_save(m, path)
    back = kde_load(path)
    assert back.depth == m.depth
    assert back.bandwidth == m.bandwidth
    np.testing.assert_array_equal(back.centers, m.centers)

"""Statevector simulator: parameters, evolution, energies, landscape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (PIN_CAVE24_P2, PIN_ER8_P1, cuts_py, dense_energy,
                      dense_reference, expectation_sampled, full_state,
                      level_probs, random_graph, statevector_reference)
from qaoabench.engine import (
    Energy,
    LandscapeGrid,
    QaoaParams,
    energy,
    energy_p1,
    evolve,
    landscape_grid,
    wrap_angles,
)
from qaoabench.errors import DomainError, ResourceLimitError
from qaoabench.graphs import (MAX_N, Graph, gen_caveman, gen_erdos_renyi,
                              gen_ladder, instance_id, suite)
from qaoabench.seeding import stream_rng


K2 = Graph(2, ((0, 1),))


def test_wrap_angles_range():
    wrapped = wrap_angles([0.0, math.pi, -math.pi, 3 * math.pi, -7.5, 100.0])
    assert np.all(wrapped >= -math.pi)
    assert np.all(wrapped < math.pi)
    assert wrapped[0] == 0.0
    assert wrapped[1] == -math.pi  # +pi folds onto -pi
    np.testing.assert_allclose(wrapped[3], -math.pi)
    # x + pi rounds to a tiny negative number, which np.mod rounds up to
    # 2 pi: that reads -pi, not +pi
    assert wrap_angles(-math.pi - 4.5e-16) == -math.pi
    assert QaoaParams([-math.pi - 4.5e-16], [0.0]).betas[0] == -math.pi


def _ulps(x: float, count: int) -> float:
    """x moved by `count` units in the last place."""
    for _ in range(abs(count)):
        x = float(np.nextafter(x, math.copysign(math.inf, count)))
    return x


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.floats(-1e4, 1e4),
    # tiny values, subnormals included
    st.floats(-1e-290, 1e-290),
    # a few units in the last place either side of an odd multiple of
    # pi, the seam, and of 0
    st.builds(lambda k, d: _ulps((2 * k + 1) * math.pi, d),
              st.integers(-20, 19), st.integers(-6, 6)),
    st.builds(lambda d: _ulps(0.0, d), st.integers(-6, 6))))
def test_wrap_angles_is_idempotent(x):
    once = wrap_angles(x)
    assert wrap_angles(once).tobytes() == once.tobytes()
    assert -math.pi <= once < math.pi
    assert wrap_angles([x, once]).tobytes() == np.array([once, once]).tobytes()


def test_params_wrap_on_construction():
    params = QaoaParams([0.3 + 2 * math.pi], [-0.4 - 4 * math.pi])
    np.testing.assert_allclose(params.betas, [0.3], atol=1e-12)
    np.testing.assert_allclose(params.gammas, [-0.4], atol=1e-12)
    assert params.p == 1


def test_params_validation():
    with pytest.raises(DomainError):
        QaoaParams([0.1, 0.2], [0.3])
    with pytest.raises(DomainError):
        QaoaParams([], [])
    with pytest.raises(DomainError):
        QaoaParams.from_vector([0.1, 0.2, 0.3])


def test_params_vector_round_trip():
    params = QaoaParams([0.1, -0.2], [0.3, 0.4])
    vec = params.vector()
    np.testing.assert_allclose(vec, [0.1, -0.2, 0.3, 0.4], atol=1e-15)
    back = QaoaParams.from_vector(vec)
    np.testing.assert_allclose(back.betas, params.betas, atol=1e-15)
    np.testing.assert_allclose(back.gammas, params.gammas, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.integers(-3, 3),
       st.integers(-3, 3))
def test_energy_is_2pi_periodic(beta, gamma, kb, kg):
    g = gen_ladder(2)
    base = energy(g, QaoaParams([beta], [gamma])).mean
    shifted = energy(
        g, QaoaParams([beta + 2 * math.pi * kb], [gamma + 2 * math.pi * kg])).mean
    assert abs(base - shifted) < 1e-9


def test_energy_value_defaults():
    # one point gives floats, exact mode a stderr of 0
    ev = energy(K2, QaoaParams([0.3], [0.4]))
    assert type(ev) is Energy
    assert type(ev.mean) is float and ev.stderr == 0.0


def test_cut_diagonal_k2():
    # the half with vertex 1 in partition 0: z = 00 and 01 of 00, 01, 10, 11
    np.testing.assert_array_equal(K2.cuts, [0, 1])
    assert K2.cuts.dtype == np.int32


def test_cut_diagonal_edgeless():
    np.testing.assert_array_equal(Graph(3, ()).cuts, np.zeros(4))


def test_cut_diagonal_matches_python():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, 2, 9)
        np.testing.assert_array_equal(g.cuts,
                                      cuts_py(g.n, g.edges)[:1 << (g.n - 1)])


def test_cut_diagonal_complement_symmetry():
    # the symmetry the half diagonal rests on, checked on the pure-python
    # cuts: z and its complement mask - z cut the same edges, so the upper
    # half is the lower half reversed
    g = gen_erdos_renyi(7, 0.6, 4)
    cuts = np.array(cuts_py(g.n, g.edges))
    mask = (1 << g.n) - 1
    np.testing.assert_array_equal(cuts, cuts[mask - np.arange(1 << g.n)])
    np.testing.assert_array_equal(np.concatenate([g.cuts, g.cuts[::-1]]), cuts)


def test_cut_diagonal_ladder_max():
    assert int(gen_ladder(2).cuts.max()) == 4


def test_simulator_size_cap():
    big = Graph(MAX_N + 1, ((0, 1),))
    with pytest.raises(ResourceLimitError):
        big.cuts
    with pytest.raises(ResourceLimitError):
        energy(big, QaoaParams([0.1], [0.2]))


def test_zero_angles_keep_uniform_state():
    g = gen_erdos_renyi(6, 0.5, 2)
    amps = evolve(g, QaoaParams([0.0, 0.0], [0.0, 0.0]))
    # the half state of 32 amplitudes, normalised to 1
    np.testing.assert_allclose(amps, np.full(32, 1 / math.sqrt(32)),
                               atol=1e-15)
    np.testing.assert_allclose(full_state(amps), np.full(64, 1 / 8.0),
                               atol=1e-15)


def test_zero_angles_energy_is_half_edges():
    for g in (K2, gen_ladder(3), gen_caveman(2, 4), gen_erdos_renyi(10, 0.7, 5)):
        ev = energy(g, QaoaParams([0.0], [0.0]))
        assert abs(ev.mean - g.num_edges / 2.0) < 1e-12


def test_evolution_is_unitary():
    rng = np.random.default_rng(3)
    for p in (1, 2, 4):
        g = random_graph(rng, 3, 10)
        params = QaoaParams(rng.uniform(-math.pi, math.pi, p),
                            rng.uniform(-math.pi, math.pi, p))
        amps = evolve(g, params)
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_state_has_complement_symmetry():
    # the symmetry the half state rests on, checked on the dense reference
    g = gen_erdos_renyi(6, 0.6, 9)
    rng = np.random.default_rng(0)
    betas, gammas = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    psi = dense_reference(g.n, g.edges, betas, gammas)
    mask = (1 << g.n) - 1
    np.testing.assert_allclose(psi, psi[mask - np.arange(1 << g.n)], atol=1e-12)


def test_evolve_matches_dense_reference():
    # n = 2..9 covers mixer blocks below, at and past one 4-qubit block
    rng = np.random.default_rng(17)
    for p in (1, 2, 4):
        for n in range(2, 10):
            g = random_graph(rng, n, n)
            betas = rng.uniform(-math.pi, math.pi, p)
            gammas = rng.uniform(-math.pi, math.pi, p)
            fast = full_state(evolve(g, QaoaParams(betas, gammas)))
            ref = dense_reference(g.n, g.edges, betas, gammas)
            assert np.max(np.abs(fast - ref)) < 1e-10


def test_evolve_matches_statevector_reference_past_n9():
    # n = 10..17: two and three middle blocks, and states past one slice
    rng = np.random.default_rng(19)
    for p in (1, 2):
        for n in range(10, 18):
            g = random_graph(rng, n, n)
            betas = rng.uniform(-math.pi, math.pi, p)
            gammas = rng.uniform(-math.pi, math.pi, p)
            fast = full_state(evolve(g, QaoaParams(betas, gammas)))
            ref = statevector_reference(g.n, g.edges, betas, gammas)
            assert np.max(np.abs(fast - ref)) < 1e-10, (n, p)


def test_energy_matches_p1_closed_form():
    rng = np.random.default_rng(41)
    checked = set()
    for spec, g in suite("test"):
        if g.n > 18:
            continue
        angles = rng.uniform(-math.pi, math.pi, (3, 2))
        closed = energy_p1(g, angles[:, 0], angles[:, 1])
        for (beta, gamma), want in zip(angles, closed):
            got = energy(g, QaoaParams([beta], [gamma])).mean
            assert abs(got - want) < 1e-10
        checked.add(instance_id(spec))
    assert len(checked) == 71
    assert {"L-n9", "R-n16-ep0.5-s1"} <= checked


def test_p1_closed_form_past_the_statevector_cap():
    # no 2^n table exists here; the energy is a cut-size mean, so it lies
    # in [0, m], and with beta = 0 the state stays uniform: m/2
    rng = np.random.default_rng(43)
    graphs = [gen_ladder(MAX_N // 2 + 2),
              gen_erdos_renyi(MAX_N + 6, 0.3, 1),
              gen_caveman(4, 8)]
    for g in graphs:
        assert g.n > MAX_N
        m = g.num_edges
        betas = rng.uniform(-math.pi, math.pi, 64)
        gammas = rng.uniform(-math.pi, math.pi, 64)
        values = energy_p1(g, betas, gammas)
        assert values.shape == (64,)
        assert np.all((values >= 0) & (values <= m))
        assert np.all(energy_p1(g, 0.0, gammas) == m / 2)


@pytest.mark.parametrize("g", [K2, gen_ladder(3), Graph(3, ())],
                         ids=["K2", "ladder", "edgeless"])
def test_shots_follow_the_cut_level_law(g):
    rng = np.random.default_rng(8)
    params = QaoaParams(rng.uniform(-math.pi, math.pi, 2),
                        rng.uniform(-math.pi, math.pi, 2))
    half = evolve(g, params)
    probs = np.abs(full_state(half)) ** 2
    law = level_probs(g, half)
    want = np.zeros(g.num_edges + 1)
    for cut, prob in zip(cuts_py(g.n, g.edges), probs):
        want[cut] += prob
    np.testing.assert_allclose(law, want, rtol=0, atol=1e-12)
    assert abs(np.arange(law.size) @ law - energy(g, params).mean) < 1e-12
    # the shots are one multinomial draw over the levels
    counts = stream_rng(3, "shots").multinomial(256, law / law.sum())
    drawn = energy(g, params, 256, stream_rng(3, "shots"))
    assert drawn.mean == float(counts @ np.arange(law.size)) / 256
    single = energy(g, params, 1, stream_rng(3, "shots"))
    assert single.stderr == 0.0 and single.mean in range(g.num_edges + 1)


def test_energy_reads_the_graph_diagonal():
    rng = np.random.default_rng(29)
    for p in (1, 2):
        g = random_graph(rng, 3, 8)
        cuts = g.cuts
        assert g.cuts is cuts            # built once, kept by the graph
        params = QaoaParams(rng.uniform(-math.pi, math.pi, p),
                            rng.uniform(-math.pi, math.pi, p))
        probs = np.abs(full_state(evolve(g, params))) ** 2
        assert energy(g, params).mean == pytest.approx(
            float(probs @ np.array(cuts_py(g.n, g.edges))), abs=1e-12)
        assert energy(g, params) == energy(g, params)
        # the substream expectation_sampled draws from
        assert energy(g, params, 256, stream_rng(5, "shots")) == \
            expectation_sampled(g, params, 256, seed=5)
        assert g.cuts is cuts


def test_single_edge_closed_form():
    # one edge at p=1 under this mixer convention:
    #   f(beta, gamma) = (1 + sin(4*beta) * sin(gamma)) / 2, peak at (pi/8, pi/2)
    for beta, gamma in [(0.2, 0.3), (math.pi / 8, math.pi / 2), (-0.9, 1.7),
                        (1.2, -2.5)]:
        got = energy(K2, QaoaParams([beta], [gamma])).mean
        want = 0.5 * (1.0 + math.sin(4 * beta) * math.sin(gamma))
        assert abs(got - want) < 1e-12
    assert abs(energy(
        K2, QaoaParams([math.pi / 8], [math.pi / 2])).mean - 1.0) < 1e-12


def test_pinned_energies():
    g8 = gen_erdos_renyi(8, 0.5, 1)
    got = energy(g8, QaoaParams([0.7], [-1.2])).mean
    assert abs(got - PIN_ER8_P1) < 1e-12
    assert abs(dense_energy(8, g8.edges, [0.7], [-1.2]) - PIN_ER8_P1) < 1e-12

    gc = gen_caveman(2, 4)
    got2 = energy(gc, QaoaParams([0.35, -0.9], [1.1, 0.45])).mean
    assert abs(got2 - PIN_CAVE24_P2) < 1e-12


def test_sampled_deterministic_per_seed():
    params = QaoaParams([0.4], [0.9])
    g = gen_ladder(3)
    a = expectation_sampled(g, params, 512, seed=7)
    b = expectation_sampled(g, params, 512, seed=7)
    assert a == b
    c = expectation_sampled(g, params, 512, seed=8)
    assert a.mean != c.mean or a.stderr != c.stderr


def test_sampled_requires_positive_shots():
    with pytest.raises(DomainError):
        expectation_sampled(K2, QaoaParams([0.1], [0.1]), 0, seed=0)


@pytest.mark.parametrize("shots", [0, -3])
def test_energy_refuses_fewer_than_one_shot(shots):
    q = QaoaParams([0.1], [0.1])
    with pytest.raises(DomainError, match="shots must be >= 1"):
        energy(K2, q, shots, stream_rng(0, "shots"))
    with pytest.raises(DomainError, match="shots must be >= 1"):
        energy(K2, np.full((2, 2), 0.1), shots,
               (stream_rng(0, k) for k in range(2)))


def test_sampled_points_without_a_generator_are_refused():
    q = QaoaParams([0.1], [0.1])
    with pytest.raises(DomainError, match="point 0 has no generator"):
        energy(K2, q, 64)
    with pytest.raises(DomainError, match="point 0 has no generator"):
        energy(K2, np.full((2, 2), 0.1), 64)
    with pytest.raises(DomainError, match="point 2 has no generator"):
        energy(K2, np.full((4, 2), 0.1), 64,
               (stream_rng(0, k) for k in range(2)))


def test_sampled_single_shot_and_edgeless():
    ev = expectation_sampled(K2, QaoaParams([0.3], [0.4]), 1, seed=0)
    assert ev.stderr == 0.0
    empty = expectation_sampled(Graph(3, ()), QaoaParams([0.3], [0.4]), 64, seed=0)
    assert empty.mean == 0.0 and empty.stderr == 0.0


def test_sampled_tracks_exact():
    g = gen_erdos_renyi(8, 0.6, 3)
    params = QaoaParams([0.5], [-0.7])
    exact = energy(g, params).mean
    ev = expectation_sampled(g, params, 16384, seed=1)
    assert abs(ev.mean - exact) < 6 * ev.stderr + 1e-9


def test_landscape_grid_shape_and_wrap():
    g = gen_ladder(2)
    grid = landscape_grid(g, 5)
    assert grid.mean.shape == (5, 5)
    # -pi and +pi wrap to the same parameters, exactly
    np.testing.assert_array_equal(grid.mean[0, :], grid.mean[-1, :])
    np.testing.assert_array_equal(grid.mean[:, 0], grid.mean[:, -1])
    rows = list(grid.rows())
    assert len(rows) == 25
    # row-major: first row sweeps gamma at fixed beta
    assert rows[0][0] == rows[1][0] == grid.betas[0]
    assert rows[0][1] == grid.gammas[0] and rows[1][1] == grid.gammas[1]


def test_landscape_center_point_is_uniform_energy():
    g = gen_ladder(2)
    grid = landscape_grid(g, 5)
    assert abs(grid.mean[2, 2] - g.num_edges / 2.0) < 1e-12


def test_landscape_k2_peak_near_one():
    grid = landscape_grid(K2, 64)
    assert grid.mean.max() >= 0.99


@pytest.mark.parametrize("g", [gen_ladder(3), gen_caveman(2, 4),
                               gen_erdos_renyi(7, 0.6, 2)],
                         ids=["ladder", "caveman", "random"])
def test_exact_landscape_is_the_statevector_pointwise(g):
    # the exact grid comes from the closed form in one broadcast call
    grid = landscape_grid(g, 9)
    for i, beta in enumerate(grid.betas):
        for j, gamma in enumerate(grid.gammas):
            want = energy(g, QaoaParams([beta], [gamma])).mean
            assert abs(grid.mean[i, j] - want) < 1e-10
    assert np.all(grid.stderr == 0.0)


def test_landscape_sampled_mode():
    g = gen_ladder(2)
    a = landscape_grid(g, 3, shots=128, seed=5)
    b = landscape_grid(g, 3, shots=128, seed=5)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    assert (a.stderr > 0).any()


def test_landscape_validation_and_edgeless():
    with pytest.raises(DomainError):
        landscape_grid(K2, 1)
    grid = landscape_grid(Graph(2, ()), 3)
    assert np.all(grid.mean == 0.0)

"""Learned-optimizer stack: landscape walk, policy, PPO, test-time search."""

import json
import math
import threading

import numpy as np
import pytest
from scipy import stats

from qaoabench.engine import QaoaParams, energy
from qaoabench.errors import BudgetExhaustedError, ConfigError, DomainError
from qaoabench.graphs import Graph, gen_caveman, gen_erdos_renyi, gen_ladder
from qaoabench.nets import Adam, Mlp
from qaoabench.objective import MeteredObjective
from qaoabench.rl import (
    ACTION_BOUND,
    HISTORY_LEN,
    NOISE_VARIANCE,
    PolicyBundle,
    PpoConfig,
    Trajectory,
    Walk,
    _actor_loss_grads,
    _critic_loss_grads,
    _mean_kl,
    collect_episode,
    discounted_returns,
    gae_advantages,
    gaussian_logp,
    init_policy,
    load_policy,
    ppo_update,
    reward_normalizer,
    rl_optimize,
    sample_action,
    save_policy,
    state_dim,
    train,
)


K2 = Graph(2, ((0, 1),))


def k2_objective(budget=100, **kw):
    return MeteredObjective.for_graph(K2, depth=1, budget=budget, **kw)


# --- shared with the acceptance suite -------------------------------------

def clamped_bandit_optimum(target=0.05, sigma=math.exp(-3.0)):
    """Argmax of E[-(clamp(mu + noise) - target)^2] by quadrature."""
    xs = np.linspace(-6 * sigma, 6 * sigma, 4001)
    w = stats.norm.pdf(xs, 0, sigma)
    w /= w.sum()
    grid = np.linspace(-ACTION_BOUND, ACTION_BOUND, 2001)
    vals = [-np.sum(w * (np.clip(m + xs, -ACTION_BOUND, ACTION_BOUND)
                         - target) ** 2) for m in grid]
    return float(grid[int(np.argmax(vals))])


def bandit_tail_mean(seed, updates=200, n_ep=24, steps=8, tail=50):
    """Train on a stateless 2-d bandit; returns the tail-averaged mean action.

    Reward is -||a - (0.05, -0.05)||^2 of the clamped action, so the true
    optimum of the sampled policy is clamped_bandit_optimum() per coordinate.
    """
    target = np.array([0.05, -0.05])
    cfg = PpoConfig(actor_lr=1e-3, critic_lr=1e-3, max_passes=30,
                    epochs=1, episodes_per_epoch=1)
    bundle = init_policy(1, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    dim = state_dim(1)
    tail_means = []
    for u in range(updates):
        sts = np.zeros((n_ep, steps, dim))
        acts = np.zeros((n_ep, steps, 2))
        lps = np.zeros((n_ep, steps))
        rws = np.zeros((n_ep, steps))
        vals = np.zeros((n_ep, steps + 1))
        for e in range(n_ep):
            for t in range(steps):
                a, lp = sample_action(bundle, sts[e, t][None], [rng])
                acts[e, t], lps[e, t] = a[0], lp[0]
                rws[e, t] = -float(np.sum((a[0] - target) ** 2))
                vals[e, t] = float(bundle.critic(sts[e, t])[0])
            vals[e, steps] = float(bundle.critic(sts[e, 0])[0])
        bundle, _ = ppo_update(bundle, Trajectory(sts, acts, lps, rws, vals),
                               cfg)
        if u >= updates - tail:
            tail_means.append(bundle.actor(np.zeros(dim)))
    return np.mean(tail_means, axis=0)


# --- environment -----------------------------------------------------------

def test_state_dim():
    assert state_dim(1) == 12
    assert state_dim(4) == 36


def one_walk(obj, seed=0, normalizer=1.0, start=None):
    """The landscape environment: a one-row Walk."""
    return Walk([obj], [seed], [normalizer],
                None if start is None else start.vector()[None])


def test_env_reset_shape_and_cost():
    obj = k2_objective(budget=5)
    walk = one_walk(obj)
    assert obj.calls == 1
    assert walk.history.shape == (1, HISTORY_LEN, 3)
    assert np.all(walk.history == 0.0)
    assert walk.states.shape == (1, 12)
    assert walk.f[0] == energy(K2, QaoaParams.from_vector(obj.points[0])).mean


def test_env_reset_deterministic_and_start_override():
    a = one_walk(k2_objective(), seed=4)
    b = one_walk(k2_objective(), seed=4)
    np.testing.assert_array_equal(a.current, b.current)
    fixed = QaoaParams([0.3], [0.9])
    obj = k2_objective()
    c = one_walk(obj, seed=4, start=fixed)
    np.testing.assert_array_equal(obj.points[0], fixed.vector())
    np.testing.assert_array_equal(c.current[0], fixed.vector())


def test_env_step_zero_action_zero_reward():
    walk = one_walk(k2_objective(), seed=1)
    f0 = walk.f.copy()
    rewards = walk.step(np.zeros((1, 2)))
    assert rewards.tolist() == [0.0]
    np.testing.assert_array_equal(walk.f, f0)
    np.testing.assert_array_equal(walk.history[0, 0], [0.0, 0.0, 0.0])


def test_env_step_validates_action():
    walk = one_walk(k2_objective(), seed=1)
    for bad in (np.zeros((1, 4)), np.zeros(2), np.zeros((2, 2)),
                np.array([[0.11, 0.0]])):
        with pytest.raises(DomainError):
            walk.step(bad)
    assert walk.objs[0].calls == 1   # a rejected action costs nothing


def test_env_step_history_newest_first():
    obj = k2_objective()
    walk = one_walk(obj, seed=2, normalizer=2.0)
    f0 = walk.f[0]
    (r1,) = walk.step(np.array([[0.05, 0.0]]))
    f1 = walk.f[0]
    (r2,) = walk.step(np.array([[0.0, -0.08]]))
    np.testing.assert_allclose(walk.history[0, 0], [r2, 0.0, -0.08])
    np.testing.assert_allclose(walk.history[0, 1], [r1, 0.05, 0.0])
    assert np.all(walk.history[0, 2:] == 0.0)
    # the states are the history, flattened newest first
    np.testing.assert_array_equal(walk.states[0], walk.history[0].ravel())
    # normalizer divides the reward entry
    assert r1 == (f1 - f0) / 2.0


def test_env_step_budget_propagates():
    walk = one_walk(k2_objective(budget=1))
    with pytest.raises(BudgetExhaustedError):
        walk.step(np.zeros((1, 2)))


def test_env_rewards_telescope():
    obj = k2_objective(budget=30)
    norm = 3.7
    walk = one_walk(obj, seed=5, normalizer=norm)
    rng = np.random.default_rng(6)
    total = 0.0
    for _ in range(20):
        total += walk.step(rng.uniform(-ACTION_BOUND, ACTION_BOUND, (1, 2)))[0]
    f0 = obj.means[0]
    f_end = obj.means[obj.calls - 1]
    assert abs(total * norm - (f_end - f0)) < 1e-9


def test_env_climbs_when_pointed_uphill():
    # K2 peak is at (pi/8, pi/2); a step toward it from below must pay off
    walk = one_walk(k2_objective(), start=QaoaParams([0.15], [1.2]))
    assert walk.step(np.array([[0.1, 0.1]]))[0] > 0.0


def test_empty_graph_rewards_are_zero():
    g = Graph(3, ())
    walk = one_walk(MeteredObjective.for_graph(g, depth=1, budget=10), seed=1)
    for _ in range(3):
        assert walk.step(np.array([[0.1, -0.1]]))[0] == 0.0


# --- reward normalizer -----------------------------------------------------

def test_normalizer_k2_near_half():
    # mean over uniform angles of (1 + sin4b*sing)/2 is exactly 1/2
    assert reward_normalizer(K2, 1) == 0.5


def test_normalizer_edgeless_and_validation():
    assert reward_normalizer(Graph(4, ()), 1) == 1.0
    with pytest.raises(DomainError):
        reward_normalizer(K2, 1, n_probe=0)


@pytest.mark.parametrize("g", [K2, gen_ladder(3), gen_caveman(2, 4),
                               gen_erdos_renyi(7, 0.6, 2)],
                         ids=["K2", "ladder", "caveman", "random"])
def test_p1_normalizer_is_the_exact_torus_mean(g):
    # the statevector energy on a uniform grid finer than the energy's
    # degree in either angle averages to the torus mean
    res = 4 * g.n + 8
    axis = 2 * math.pi * np.arange(res) / res - math.pi
    grid_mean = np.mean([energy(g, QaoaParams([b], [c])).mean
                         for b in axis for c in axis])
    got = reward_normalizer(g, 1)
    assert abs(got - grid_mean) < 1e-12
    # exact, so neither the probe count nor the seed enters
    assert reward_normalizer(g, 1, n_probe=3, seed=9) == got


def test_normalizer_stable_in_probe_count():
    # at p > 1 the normalizer is a Monte Carlo mean over n_probe draws
    g = gen_ladder(2)
    a = reward_normalizer(g, 2, n_probe=500, seed=3)
    b = reward_normalizer(g, 2, n_probe=1000, seed=4)
    assert abs(a - b) / a < 0.05


# --- policy ----------------------------------------------------------------

def test_init_policy_shapes_and_determinism():
    bundle = init_policy(2, seed=9)
    assert bundle.actor.sizes == [20, 64, 64, 4]
    assert bundle.critic.sizes == [20, 64, 64, 1]
    assert bundle.noise_variance == NOISE_VARIANCE
    again = init_policy(2, seed=9)
    np.testing.assert_array_equal(bundle.actor.weights[0],
                                  again.actor.weights[0])


def test_zero_noise_variance_is_rejected(tmp_path):
    bundle = init_policy(1, seed=0)
    for variance in (0.0, -1e-3, math.nan):
        with pytest.raises(DomainError):
            PolicyBundle(actor=bundle.actor, critic=bundle.critic, depth=1,
                         noise_variance=variance)
    path = tmp_path / "policy.json"
    save_policy(bundle, path)
    payload = json.loads(path.read_text())
    payload["noise_variance"] = 0.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="policy.json"):
        load_policy(path)


def test_gaussian_logp_formula():
    # at the mean: -(d/2) * log(2*pi*variance)
    mean = np.zeros(2)
    want = -1.0 * math.log(2 * math.pi * NOISE_VARIANCE)
    assert gaussian_logp(mean, mean, NOISE_VARIANCE) == pytest.approx(want)
    batch = gaussian_logp(np.zeros((5, 2)), np.zeros((5, 2)), NOISE_VARIANCE)
    np.testing.assert_allclose(batch, want)


def test_sample_action_bounds_and_std():
    bundle = init_policy(1, seed=1)
    rng = np.random.default_rng(2)
    zeros = np.zeros(state_dim(1))  # actor(0) = 0 exactly (zero biases)
    draws = np.array([sample_action(bundle, zeros[None], [rng])[0][0]
                      for _ in range(20000)])
    assert np.all(np.abs(draws) <= ACTION_BOUND)
    # clamping at ~2 sigma trims the std by ~4%
    emp = draws.std()
    assert abs(emp / math.exp(-3.0) - 1.0) < 0.06


def test_sample_action_logp_is_density_at_kept_action():
    bundle = init_policy(1, seed=3)
    x = np.random.default_rng(4).normal(size=state_dim(1))
    action, logp = sample_action(bundle, x[None], [np.random.default_rng(5)])
    assert logp.shape == (1,)
    assert logp[0] == pytest.approx(
        float(gaussian_logp(action[0], bundle.actor(x), NOISE_VARIANCE)),
        abs=1e-15)


# --- trajectories and PPO --------------------------------------------------

def episode(g, bundle, seed, normalizer=0.5, steps=10):
    """One episode, as a one-row lockstep walk."""
    return collect_episode([g], bundle, [seed], [normalizer], steps)


def episodes(bundle, seed0, count, steps=16):
    """`count` K2 episodes in one walk, seeds seed0, seed0 + 1, ..."""
    return collect_episode([K2] * count, bundle,
                           list(range(seed0, seed0 + count)),
                           [0.5] * count, steps)


def test_collect_episode_shapes_and_determinism():
    bundle = init_policy(1, seed=0)
    a = episode(K2, bundle, seed=11)
    b = episode(K2, bundle, seed=11)
    assert a.states.shape == (1, 10, 12)
    assert a.actions.shape == (1, 10, 2)
    assert a.rewards.shape == a.logps.shape == (1, 10)
    assert a.values.shape == (1, 11)   # + the value after the last step
    np.testing.assert_array_equal(a.rewards, b.rewards)
    np.testing.assert_array_equal(a.actions, b.actions)
    c = episode(K2, bundle, seed=12)
    assert not np.array_equal(a.actions, c.actions)


def test_lockstep_episodes_match_one_graph_walks():
    bundle = init_policy(1, seed=4)
    graphs = [gen_ladder(3), gen_caveman(2, 4), gen_erdos_renyi(7, 0.6, 2)]
    seeds, norms = [41, 42, 43], [1.5, 4.0, 0.7]
    both = collect_episode(graphs, bundle, seeds, norms, steps=12)
    for e, g in enumerate(graphs):
        one = episode(g, bundle, seeds[e], norms[e], steps=12)
        for name in ("states", "actions", "rewards", "logps", "values"):
            np.testing.assert_allclose(getattr(both, name)[e],
                                       getattr(one, name)[0],
                                       rtol=0, atol=1e-12, err_msg=name)


def test_collect_episode_ratio_identity():
    bundle = init_policy(1, seed=1)
    traj = episodes(bundle, 13, 3)
    fresh = gaussian_logp(traj.actions, bundle.actor(
        traj.states.reshape(-1, 12)).reshape(3, 16, 2), NOISE_VARIANCE)
    ratio = np.exp(fresh - traj.logps)
    np.testing.assert_allclose(ratio, 1.0, rtol=0, atol=1e-12)


def test_total_discounted():
    traj = Trajectory(states=np.zeros((2, 3, 1)), actions=np.zeros((2, 3, 1)),
                      logps=np.zeros((2, 3)),
                      rewards=np.array([[1.0, 2.0, 4.0], [0.0, 0.0, 8.0]]),
                      values=np.zeros((2, 4)))
    np.testing.assert_allclose(traj.total_discounted(0.5), [3.0, 2.0])


def test_gae_and_returns_hand_example():
    # the same episode twice, and once with every reward doubled
    traj = Trajectory(states=np.zeros((2, 2, 1)), actions=np.zeros((2, 2, 1)),
                      logps=np.zeros((2, 2)),
                      rewards=np.array([[1.0, 2.0], [2.0, 4.0]]),
                      values=np.array([[0.5, 0.25, 0.125],
                                       [0.5, 0.25, 0.125]]))
    adv = gae_advantages(traj, discount=0.5, lam=0.5)
    np.testing.assert_allclose(adv[0], [1.078125, 1.8125])
    np.testing.assert_allclose(adv[1], [2.578125, 3.8125])
    ret = discounted_returns(traj, discount=0.5)
    np.testing.assert_allclose(ret[0], [2.03125, 2.0625])
    np.testing.assert_allclose(ret[1], [4.03125, 4.0625])


def test_actor_first_pass_ratio_is_one():
    bundle = init_policy(1, seed=2)
    traj = episode(K2, bundle, seed=14, steps=8)
    adv = np.linspace(-1, 1, 8)
    means, cache = bundle.actor.forward(traj.states[0])
    loss, grads, clip_fraction = _actor_loss_grads(
        bundle.actor, means, cache, traj.actions[0], traj.logps[0], adv,
        clip=0.2, variance=NOISE_VARIANCE)
    assert clip_fraction == 0.0
    # with ratio == 1 the surrogate is just -mean(adv)
    assert loss == pytest.approx(-float(adv.mean()), abs=1e-12)


def test_ppo_zero_advantage_leaves_actor_unchanged():
    bundle = init_policy(1, seed=3)
    steps, dim = 6, state_dim(1)
    traj = Trajectory(states=np.zeros((1, steps, dim)),
                      actions=np.full((1, steps, 2), 0.01),
                      logps=np.full((1, steps), float(gaussian_logp(
                          np.full(2, 0.01), bundle.actor(np.zeros(dim)),
                          NOISE_VARIANCE))),
                      rewards=np.zeros((1, steps)),
                      values=np.zeros((1, steps + 1)))
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1, max_passes=5)
    new, diag = ppo_update(bundle, traj, cfg)
    for w_old, w_new in zip(bundle.actor.parameters(), new.actor.parameters()):
        np.testing.assert_array_equal(w_old, w_new)
    assert diag["actor_passes"] == 5  # ran, but with zero gradients


def test_ppo_update_rejects_bad_input():
    bundle = init_policy(1, seed=4)
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1)
    empty = Trajectory(states=np.zeros((0, 4, 12)),
                       actions=np.zeros((0, 4, 2)), logps=np.zeros((0, 4)),
                       rewards=np.zeros((0, 4)), values=np.zeros((0, 5)))
    with pytest.raises(DomainError):
        ppo_update(bundle, empty, cfg)


def test_ppo_kl_checked_before_every_pass():
    # replicate the actor loop and confirm the update never continues from
    # an over-threshold policy, then match ppo_update's result exactly
    bundle = init_policy(1, seed=5)
    traj = episodes(bundle, 16, 4)
    cfg = PpoConfig(actor_lr=0.05, critic_lr=1e-3, max_passes=15,
                    epochs=1, episodes_per_epoch=1)
    new, diag = ppo_update(bundle, traj, cfg)

    states = traj.states.reshape(64, -1)
    actions = traj.actions.reshape(64, -1)
    logp_old = traj.logps.reshape(64)
    adv = gae_advantages(traj, cfg.discount, cfg.gae_lambda).reshape(64)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    replica = bundle.copy()
    old_means = bundle.actor(states)
    opt = Adam(replica.actor.parameters(), cfg.actor_lr)
    kls_before_passes = []
    for _ in range(cfg.max_passes):
        means, cache = replica.actor.forward(states)
        kl = _mean_kl(old_means, means, NOISE_VARIANCE)
        if kl > cfg.kl_stop:
            break
        kls_before_passes.append(kl)
        _, grads, _ = _actor_loss_grads(replica.actor, means, cache, actions,
                                        logp_old, adv, cfg.clip,
                                        NOISE_VARIANCE)
        opt.step(grads)

    assert len(kls_before_passes) == diag["actor_passes"]
    assert all(kl <= cfg.kl_stop for kl in kls_before_passes)
    for w_r, w_n in zip(replica.actor.parameters(), new.actor.parameters()):
        np.testing.assert_array_equal(w_r, w_n)
    if diag["actor_passes"] < cfg.max_passes:
        assert diag["kl"] > cfg.kl_stop  # stopped by the divergence guard


def test_ppo_improves_critic_fit():
    bundle = init_policy(1, seed=6)
    traj = episodes(bundle, 30, 4)
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1, max_passes=40)
    states = traj.states.reshape(64, -1)
    returns = discounted_returns(traj, cfg.discount).reshape(64)
    before = float(np.mean((bundle.critic(states)[:, 0] - returns) ** 2))
    new, diag = ppo_update(bundle, traj, cfg)
    after = float(np.mean((new.critic(states)[:, 0] - returns) ** 2))
    assert after < before
    assert 0.0 <= diag["critic_loss"] < before  # loss at the last pass


def serial_ppo_update(bundle, traj, cfg):
    """ppo_update's actor loop, then its critic loop, on the calling thread
    and without work buffers."""
    rows = traj.rewards.size
    states = traj.states.reshape(rows, -1)
    actions = traj.actions.reshape(rows, -1)
    logp_old = traj.logps.reshape(rows)
    adv = gae_advantages(traj, cfg.discount, cfg.gae_lambda).reshape(rows)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    returns = discounted_returns(traj, cfg.discount).reshape(rows)
    new, variance = bundle.copy(), bundle.noise_variance
    means, cache = new.actor.forward(states)
    old_means = means
    opt = Adam(new.actor.parameters(), cfg.actor_lr)
    for passes in range(1, cfg.max_passes + 1):
        actor_loss, grads, clip_fraction = _actor_loss_grads(
            new.actor, means, cache, actions, logp_old, adv, cfg.clip,
            variance)
        opt.step(grads)
        means, cache = new.actor.forward(states)
        kl = _mean_kl(old_means, means, variance)
        if kl > cfg.kl_stop:
            break
    opt = Adam(new.critic.parameters(), cfg.critic_lr)
    for _ in range(cfg.max_passes):
        critic_loss, grads = _critic_loss_grads(new.critic, states, returns,
                                                None)
        opt.step(grads)
    return new, {"kl": kl, "clip_fraction": clip_fraction,
                 "actor_passes": passes, "actor_loss": actor_loss,
                 "critic_loss": critic_loss}


@pytest.mark.parametrize("p,actor_lr,max_passes,stops_on_kl",
                         [(1, 3e-4, 6, False), (2, 3e-4, 6, False),
                          (1, 2e-3, 80, True)])
def test_ppo_update_matches_serial_reference(p, actor_lr, max_passes,
                                             stops_on_kl):
    bundle = init_policy(p, seed=8)
    traj = collect_episode([K2, gen_ladder(2)] * 4, bundle,
                           list(range(40, 48)), [0.5] * 8, 16)
    cfg = PpoConfig(actor_lr=actor_lr, max_passes=max_passes, epochs=1,
                    episodes_per_epoch=1)
    new, diag = ppo_update(bundle, traj, cfg)
    want, want_diag = serial_ppo_update(bundle, traj, cfg)
    assert (diag["actor_passes"] < max_passes) == stops_on_kl
    assert diag == want_diag
    for net, ref in ((new.actor, want.actor), (new.critic, want.critic)):
        for a, b in zip(net.parameters(), ref.parameters()):
            assert a.tobytes() == b.tobytes()


class FitError(Exception):
    pass


@pytest.mark.parametrize("loop", ["_actor_loss_grads", "_critic_loss_grads"])
def test_ppo_update_error_in_either_fit_joins_the_worker(monkeypatch, loop):
    bundle = init_policy(1, seed=9)
    traj = episodes(bundle, 16, 4)
    cfg = PpoConfig(max_passes=5, epochs=1, episodes_per_epoch=1)

    def fail(*args):
        raise FitError(loop)

    monkeypatch.setattr(f"qaoabench.rl.{loop}", fail)
    threads = threading.active_count()
    with pytest.raises(FitError, match=loop):
        ppo_update(bundle, traj, cfg)
    assert threading.active_count() == threads


def test_ppo_update_critic_sees_the_callers_error_settings(monkeypatch):
    bundle = init_policy(1, seed=10)
    traj = episodes(bundle, 16, 4)
    cfg = PpoConfig(max_passes=3, epochs=1, episodes_per_epoch=1)
    seen = []

    def recording(*args):
        seen.append((threading.current_thread(), np.geterr()["over"]))
        return _critic_loss_grads(*args)

    monkeypatch.setattr("qaoabench.rl._critic_loss_grads", recording)
    threads = threading.active_count()
    with np.errstate(over="raise"):
        ppo_update(bundle, traj, cfg)
    assert len(seen) == cfg.max_passes
    assert all(thread is not threading.main_thread() and over == "raise"
               for thread, over in seen)
    assert threading.active_count() == threads


def test_bandit_converges_to_clamped_optimum():
    opt = clamped_bandit_optimum()
    mean = bandit_tail_mean(seed=0)
    assert np.abs(mean - [opt, -opt]).max() <= 0.01


# --- training and test-time optimization ------------------------------------

def test_train_deterministic_curve():
    suite = [(None, K2), (None, gen_ladder(2))]
    cfg = PpoConfig(epochs=2, episodes_per_epoch=4, episode_len=6,
                    probe_count=20, max_passes=10)
    threads = threading.active_count()
    bundle_a, curve_a = train(suite, p=1, cfg=cfg, seed=21)
    bundle_b, curve_b = train(suite, p=1, cfg=cfg, seed=21)
    assert threading.active_count() == threads
    assert curve_a.tobytes() == curve_b.tobytes()
    for a, b in zip(bundle_a.actor.parameters() + bundle_a.critic.parameters(),
                    bundle_b.actor.parameters() + bundle_b.critic.parameters()):
        assert a.tobytes() == b.tobytes()
    assert curve_a.shape == (2,)
    _, curve_c = train(suite, p=1, cfg=cfg, seed=22)
    assert not np.array_equal(curve_a, curve_c)


def test_train_runs_on_suite_items_and_rejects_empty():
    cfg = PpoConfig(epochs=1, episodes_per_epoch=2, episode_len=4,
                    probe_count=10, max_passes=5)
    bundle, curve = train([(None, K2)], p=1, cfg=cfg, seed=0)
    assert bundle.depth == 1 and curve.shape == (1,)
    with pytest.raises(DomainError):
        train([], p=1, cfg=cfg, seed=0)


def count_forwards(monkeypatch):
    """Patch Mlp.forward to count actor and critic calls, told apart by
    their heads, so the copies ppo_update trains count too."""
    calls = {"actor": 0, "critic": 0}
    names = {"scaled_tanh": "actor", "linear": "critic"}
    forward = Mlp.forward

    def counted(net, x, *args):
        calls[names[net.head]] += 1
        return forward(net, x, *args)

    monkeypatch.setattr(Mlp, "forward", counted)
    return calls


def test_rollout_runs_one_forward_per_net_and_step(monkeypatch):
    bundle = init_policy(1, seed=7)
    calls = count_forwards(monkeypatch)
    episodes(bundle, 3, 5, steps=10)   # five episodes in lockstep
    assert calls == {"actor": 10, "critic": 11}   # + 1 bootstrap value
    calls.update(actor=0, critic=0)
    rl_optimize(k2_objective(budget=40), bundle, seed=23)
    assert calls == {"actor": 19, "critic": 0}    # half budget - 1 steps


@pytest.mark.parametrize("actor_lr,max_passes,stops_on_kl",
                         [(2e-3, 80, True), (3e-4, 5, False)])
def test_ppo_update_runs_one_actor_forward_per_pass(monkeypatch, actor_lr,
                                                    max_passes, stops_on_kl):
    bundle = init_policy(1, seed=5)
    traj = episodes(bundle, 16, 4)
    cfg = PpoConfig(actor_lr=actor_lr, max_passes=max_passes, epochs=1,
                    episodes_per_epoch=1)
    calls = count_forwards(monkeypatch)
    _, diag = ppo_update(bundle, traj, cfg)
    assert (diag["actor_passes"] < max_passes) == stops_on_kl
    assert (diag["kl"] > cfg.kl_stop) == stops_on_kl
    # one forward before the first pass, one after each
    assert calls == {"actor": diag["actor_passes"] + 1, "critic": max_passes}


def test_rl_optimize_rescores_once(monkeypatch):
    bundle = init_policy(1, seed=7)
    obj = k2_objective(budget=40, shots=64, seed=5)
    rescored = []
    exact_value = MeteredObjective.exact_value

    def counted(self, params):
        rescored.append(params)
        return exact_value(self, params)

    monkeypatch.setattr(MeteredObjective, "exact_value", counted)
    res = rl_optimize(obj, bundle, seed=23)
    assert len(rescored) == 1 and rescored[0] is res.best_params
    # the result is the whole run's, as obj.result reports it
    expected = obj.result()
    assert res.best_params.vector().tolist() == \
        expected.best_params.vector().tolist()
    assert (res.best_value, res.evals_used, res.best_exact) == (
        expected.best_value, expected.evals_used, expected.best_exact)
    assert res.best_exact == energy(K2, res.best_params).mean


def test_rl_optimize_budget_accounting():
    bundle = init_policy(1, seed=7)
    obj = k2_objective(budget=40)
    res = rl_optimize(obj, bundle, seed=23)
    assert res.evals_used <= 40
    assert obj.calls == res.evals_used
    assert res.best_value == max(obj.means[:obj.calls])
    assert res.best_exact is not None


def test_rl_optimize_minimum_budget():
    bundle = init_policy(1, seed=8)
    with pytest.raises(DomainError):
        rl_optimize(k2_objective(budget=7), bundle, seed=0)  # needs 4p+4
    res = rl_optimize(k2_objective(budget=8), bundle, seed=0)
    assert res.evals_used <= 8


def test_rl_optimize_depth_mismatch():
    bundle = init_policy(2, seed=9)
    with pytest.raises(DomainError):
        rl_optimize(k2_objective(), bundle, seed=0)


def test_rl_optimize_deterministic_and_start():
    bundle = init_policy(1, seed=10)
    runs = []
    for _ in range(2):
        obj = k2_objective(budget=24, shots=128, seed=3)
        runs.append(rl_optimize(obj, bundle, seed=24))
    assert runs[0].best_value == runs[1].best_value
    start = QaoaParams([0.2], [0.4])
    obj = k2_objective(budget=24)
    res = rl_optimize(obj, bundle, seed=24, start=start)
    np.testing.assert_array_equal(obj.points[0], start.vector())
    assert res.evals_used <= 24


@pytest.mark.parametrize("g,p,shots,want", [
    (gen_ladder(3), 1, 256, (4.09375, 4.023221736098774, 40)),
    (gen_caveman(2, 4), 2, 128, (8.234375, 8.00922572752637, 40)),
], ids=["ladder-p1", "caveman-p2"])
def test_rl_optimize_reproduces_pinned_cells(g, p, shots, want):
    # literals from the one-episode rollout; a one-row walk runs the same
    # arithmetic, so they hold bit for bit
    obj = MeteredObjective.for_graph(g, depth=p, budget=40, shots=shots,
                                     seed=5)
    res = rl_optimize(obj, init_policy(p, seed=7), seed=23)
    assert (res.best_value, res.best_exact, res.evals_used) == want


def test_save_load_round_trip(tmp_path):
    bundle = init_policy(2, seed=11)
    path = tmp_path / "policy.json"
    save_policy(bundle, path)
    back = load_policy(path)
    assert back.depth == 2
    assert back.noise_variance == bundle.noise_variance
    for w_a, w_b in zip(bundle.actor.parameters(), back.actor.parameters()):
        np.testing.assert_array_equal(w_a, w_b)
    x = np.random.default_rng(0).normal(size=state_dim(2))
    np.testing.assert_array_equal(bundle.actor(x), back.actor(x))


@pytest.mark.parametrize("drop", ["noise_variance", "scale"])
def test_load_policy_needs_every_v1_field(tmp_path, drop):
    path = tmp_path / "policy.json"
    save_policy(init_policy(1, seed=3), path)
    payload = json.loads(path.read_text())
    payload.pop(drop, None)
    payload["arch"].pop(drop, None)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="policy.json"):
        load_policy(path)


@pytest.mark.parametrize("bad", [
    {"episode_len": 0}, {"actor_lr": 0.0}, {"actor_lr": -1e-3},
    {"critic_lr": 0.0}, {"kl_stop": 0.0}, {"kl_stop": -0.1},
])
def test_ppo_config_rejects_degenerate_settings(bad):
    with pytest.raises(DomainError):
        PpoConfig(**bad)


def test_load_policy_rejects_a_depth_its_layers_do_not_fit(tmp_path):
    path = tmp_path / "policy.json"
    save_policy(init_policy(1, seed=3), path)
    payload = json.loads(path.read_text())
    payload["p"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="policy.json"):
        load_policy(path)
    # a critic head of the wrong width fails too
    save_policy(init_policy(1, seed=3), path)
    payload = json.loads(path.read_text())
    w, b = payload["critic_weights"][-1]
    payload["critic_weights"][-1] = [[row * 2 for row in w], b * 2]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="critic"):
        load_policy(path)

"""Learned-optimizer stack: environment, policy, PPO, test-time search."""

import json
import math

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
    _actor_loss_grads,
    _mean_kl,
    collect_episode,
    discounted_returns,
    env_reset,
    env_step,
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
        batch = []
        for _ in range(n_ep):
            sts = np.zeros((steps, dim))
            acts = np.zeros((steps, 2))
            lps = np.zeros(steps)
            rws = np.zeros(steps)
            vals = np.zeros(steps)
            for t in range(steps):
                a, lp = sample_action(bundle, sts[t], rng)
                acts[t], lps[t] = a, lp
                rws[t] = -float(np.sum((a - target) ** 2))
                vals[t] = float(bundle.critic(sts[t])[0])
            batch.append(Trajectory(sts, acts, lps, rws, vals,
                                    bootstrap=float(bundle.critic(sts[0])[0])))
        bundle, _ = ppo_update(bundle, batch, cfg)
        if u >= updates - tail:
            tail_means.append(bundle.actor(np.zeros(dim)))
    return np.mean(tail_means, axis=0)


# --- environment -----------------------------------------------------------

def test_state_dim():
    assert state_dim(1) == 12
    assert state_dim(4) == 36


def test_env_reset_shape_and_cost():
    obj = k2_objective(budget=5)
    state = env_reset(obj, seed=0)
    assert obj.calls == 1
    assert state.history.shape == (HISTORY_LEN, 3)
    assert np.all(state.history == 0.0)
    assert state.flatten().shape == (12,)
    assert state.current_f == energy(K2, state.current).mean


def test_env_reset_deterministic_and_start_override():
    a = env_reset(k2_objective(), seed=4)
    b = env_reset(k2_objective(), seed=4)
    np.testing.assert_array_equal(a.current.vector(), b.current.vector())
    fixed = QaoaParams([0.3], [0.9])
    c = env_reset(k2_objective(), seed=4, start=fixed)
    assert c.current is fixed


def test_env_step_zero_action_zero_reward():
    obj = k2_objective()
    state = env_reset(obj, seed=1)
    nxt, reward = env_step(state, np.zeros(2), obj)
    assert reward == 0.0
    assert nxt.current_f == state.current_f
    np.testing.assert_array_equal(nxt.history[0], [0.0, 0.0, 0.0])


def test_env_step_validates_action():
    obj = k2_objective()
    state = env_reset(obj, seed=1)
    with pytest.raises(DomainError):
        env_step(state, np.zeros(4), obj)
    with pytest.raises(DomainError):
        env_step(state, np.array([0.11, 0.0]), obj)


def test_env_step_history_newest_first():
    obj = k2_objective()
    state = env_reset(obj, seed=2, normalizer=2.0)
    s1, r1 = env_step(state, np.array([0.05, 0.0]), obj)
    s2, r2 = env_step(s1, np.array([0.0, -0.08]), obj)
    np.testing.assert_allclose(s2.history[0], [r2, 0.0, -0.08])
    np.testing.assert_allclose(s2.history[1], [r1, 0.05, 0.0])
    assert np.all(s2.history[2:] == 0.0)
    # normalizer divides the reward entry
    assert r1 == (s1.current_f - state.current_f) / 2.0


def test_env_step_budget_propagates():
    obj = k2_objective(budget=1)
    state = env_reset(obj, seed=0)
    with pytest.raises(BudgetExhaustedError):
        env_step(state, np.zeros(2), obj)


def test_env_rewards_telescope():
    obj = k2_objective(budget=30)
    norm = 3.7
    state = env_reset(obj, seed=5, normalizer=norm)
    rng = np.random.default_rng(6)
    total = 0.0
    for _ in range(20):
        state, reward = env_step(
            state, rng.uniform(-ACTION_BOUND, ACTION_BOUND, 2), obj)
        total += reward
    f0 = obj.trace[0][1].mean
    f_end = obj.trace[-1][1].mean
    assert abs(total * norm - (f_end - f0)) < 1e-9


def test_env_climbs_when_pointed_uphill():
    # K2 peak is at (pi/8, pi/2); a step toward it from below must pay off
    obj = k2_objective()
    state = env_reset(obj, seed=0, start=QaoaParams([0.15], [1.2]))
    _, reward = env_step(state, np.array([0.1, 0.1]), obj)
    assert reward > 0.0


def test_empty_graph_rewards_are_zero():
    g = Graph(3, ())
    obj = MeteredObjective.for_graph(g, depth=1, budget=10)
    state = env_reset(obj, seed=1)
    for _ in range(3):
        state, reward = env_step(state, np.array([0.1, -0.1]), obj)
        assert reward == 0.0


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
    draws = np.array([sample_action(bundle, zeros, rng)[0]
                      for _ in range(20000)])
    assert np.all(np.abs(draws) <= ACTION_BOUND)
    # clamping at ~2 sigma trims the std by ~4%
    emp = draws.std()
    assert abs(emp / math.exp(-3.0) - 1.0) < 0.06


def test_sample_action_logp_is_density_at_kept_action():
    bundle = init_policy(1, seed=3)
    x = np.random.default_rng(4).normal(size=state_dim(1))
    action, logp = sample_action(bundle, x, np.random.default_rng(5))
    assert logp == pytest.approx(
        float(gaussian_logp(action, bundle.actor(x), NOISE_VARIANCE)),
        abs=1e-15)


# --- trajectories and PPO --------------------------------------------------

def test_collect_episode_shapes_and_determinism():
    bundle = init_policy(1, seed=0)
    a = collect_episode(K2, bundle, seed=11, normalizer=0.5, steps=10)
    b = collect_episode(K2, bundle, seed=11, normalizer=0.5, steps=10)
    assert len(a) == 10
    assert a.states.shape == (10, 12)
    np.testing.assert_array_equal(a.rewards, b.rewards)
    np.testing.assert_array_equal(a.actions, b.actions)
    c = collect_episode(K2, bundle, seed=12, normalizer=0.5, steps=10)
    assert not np.array_equal(a.actions, c.actions)


def test_collect_episode_ratio_identity():
    bundle = init_policy(1, seed=1)
    traj = collect_episode(K2, bundle, seed=13, normalizer=0.5, steps=16)
    fresh = gaussian_logp(traj.actions, bundle.actor(traj.states),
                          NOISE_VARIANCE)
    ratio = np.exp(fresh - traj.logps)
    np.testing.assert_allclose(ratio, 1.0, rtol=0, atol=1e-12)


def test_total_discounted():
    traj = Trajectory(states=np.zeros((3, 1)), actions=np.zeros((3, 1)),
                      logps=np.zeros(3), rewards=np.array([1.0, 2.0, 4.0]),
                      values=np.zeros(3), bootstrap=0.0)
    assert traj.total_discounted(0.5) == pytest.approx(1 + 1.0 + 1.0)


def test_gae_and_returns_hand_example():
    traj = Trajectory(states=np.zeros((2, 1)), actions=np.zeros((2, 1)),
                      logps=np.zeros(2), rewards=np.array([1.0, 2.0]),
                      values=np.array([0.5, 0.25]), bootstrap=0.125)
    adv = gae_advantages(traj, discount=0.5, lam=0.5)
    np.testing.assert_allclose(adv, [1.078125, 1.8125])
    ret = discounted_returns(traj, discount=0.5)
    np.testing.assert_allclose(ret, [2.03125, 2.0625])


def test_actor_first_pass_ratio_is_one():
    bundle = init_policy(1, seed=2)
    traj = collect_episode(K2, bundle, seed=14, normalizer=0.5, steps=8)
    adv = np.linspace(-1, 1, 8)
    means, cache = bundle.actor.forward(traj.states)
    loss, grads, clip_fraction = _actor_loss_grads(
        bundle.actor, means, cache, traj.actions, traj.logps, adv,
        clip=0.2, variance=NOISE_VARIANCE)
    assert clip_fraction == 0.0
    # with ratio == 1 the surrogate is just -mean(adv)
    assert loss == pytest.approx(-float(adv.mean()), abs=1e-12)


def test_ppo_zero_advantage_leaves_actor_unchanged():
    bundle = init_policy(1, seed=3)
    steps, dim = 6, state_dim(1)
    traj = Trajectory(states=np.zeros((steps, dim)),
                      actions=np.full((steps, 2), 0.01),
                      logps=np.full(steps, float(gaussian_logp(
                          np.full(2, 0.01), bundle.actor(np.zeros(dim)),
                          NOISE_VARIANCE))),
                      rewards=np.zeros(steps), values=np.zeros(steps),
                      bootstrap=0.0)
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1, max_passes=5)
    new, diag = ppo_update(bundle, [traj], cfg)
    for w_old, w_new in zip(bundle.actor.parameters(), new.actor.parameters()):
        np.testing.assert_array_equal(w_old, w_new)
    assert diag["actor_passes"] == 5  # ran, but with zero gradients


def test_ppo_update_rejects_bad_input():
    bundle = init_policy(1, seed=4)
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1)
    with pytest.raises(DomainError):
        ppo_update(bundle, [], cfg)


def test_ppo_kl_checked_before_every_pass():
    # replicate the actor loop and confirm the update never continues from
    # an over-threshold policy, then match ppo_update's result exactly
    bundle = init_policy(1, seed=5)
    batch = [collect_episode(K2, bundle, seed=16 + i, normalizer=0.5, steps=16)
             for i in range(4)]
    cfg = PpoConfig(actor_lr=0.05, critic_lr=1e-3, max_passes=15,
                    epochs=1, episodes_per_epoch=1)
    new, diag = ppo_update(bundle, batch, cfg)

    states = np.concatenate([t.states for t in batch])
    actions = np.concatenate([t.actions for t in batch])
    logp_old = np.concatenate([t.logps for t in batch])
    adv = np.concatenate([gae_advantages(t, cfg.discount, cfg.gae_lambda)
                          for t in batch])
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
    batch = [collect_episode(K2, bundle, seed=30 + i, normalizer=0.5, steps=16)
             for i in range(4)]
    cfg = PpoConfig(epochs=1, episodes_per_epoch=1, max_passes=40)
    states = np.concatenate([t.states for t in batch])
    returns = np.concatenate([discounted_returns(t, cfg.discount)
                              for t in batch])
    before = float(np.mean((bundle.critic(states)[:, 0] - returns) ** 2))
    new, diag = ppo_update(bundle, batch, cfg)
    after = float(np.mean((new.critic(states)[:, 0] - returns) ** 2))
    assert after < before
    assert 0.0 <= diag["critic_loss"] < before  # loss at the last pass


def test_bandit_converges_to_clamped_optimum():
    opt = clamped_bandit_optimum()
    mean = bandit_tail_mean(seed=0)
    assert np.abs(mean - [opt, -opt]).max() <= 0.01


# --- training and test-time optimization ------------------------------------

def test_train_deterministic_curve():
    suite = [(None, K2), (None, gen_ladder(2))]
    cfg = PpoConfig(epochs=2, episodes_per_epoch=4, episode_len=6,
                    probe_count=20, max_passes=10)
    _, curve_a = train(suite, p=1, cfg=cfg, seed=21)
    _, curve_b = train(suite, p=1, cfg=cfg, seed=21)
    np.testing.assert_array_equal(curve_a, curve_b)
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
    collect_episode(K2, bundle, seed=3, normalizer=0.5, steps=10)
    assert calls == {"actor": 10, "critic": 11}   # + 1 bootstrap value
    calls.update(actor=0, critic=0)
    rl_optimize(k2_objective(budget=40), bundle, seed=23)
    assert calls == {"actor": 19, "critic": 0}    # half budget - 1 steps


@pytest.mark.parametrize("actor_lr,max_passes,stops_on_kl",
                         [(2e-3, 80, True), (3e-4, 5, False)])
def test_ppo_update_runs_one_actor_forward_per_pass(monkeypatch, actor_lr,
                                                    max_passes, stops_on_kl):
    bundle = init_policy(1, seed=5)
    batch = [collect_episode(K2, bundle, seed=16 + i, normalizer=0.5, steps=16)
             for i in range(4)]
    cfg = PpoConfig(actor_lr=actor_lr, max_passes=max_passes, epochs=1,
                    episodes_per_epoch=1)
    calls = count_forwards(monkeypatch)
    _, diag = ppo_update(bundle, batch, cfg)
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
    assert res.best_params is expected.best_params
    assert res.trace == expected.trace == obj.trace
    assert (res.best_value, res.evals_used, res.best_exact) == (
        expected.best_value, expected.evals_used, expected.best_exact)
    assert res.best_exact == energy(K2, res.best_params).mean


def test_rl_optimize_budget_accounting():
    bundle = init_policy(1, seed=7)
    obj = k2_objective(budget=40)
    res = rl_optimize(obj, bundle, seed=23)
    assert res.evals_used <= 40
    assert obj.calls == res.evals_used
    assert res.best_value == max(ev.mean for _, ev in res.trace)
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
    np.testing.assert_array_equal(obj.trace[0][0].vector(), start.vector())
    assert res.evals_used <= 24


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

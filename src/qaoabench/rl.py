"""Learned optimizer: a finite-difference MDP over QAOA objectives.

The agent never sees the graph, only the last L = 4 moves: each history
record is (normalized objective change, parameter step).  A tanh actor
emits bounded parameter increments, a twin critic scores states, and both
train with clipped-surrogate PPO.  At test time the mean policy (noise
off) spends half the budget walking the landscape and Nelder-Mead polishes
the best point found with the other half.
"""

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import POLICY_SCHEMA, read_json, write_json
from .engine import TWO_PI, QaoaParams, energy, energy_p1
from .errors import ConfigError, DomainError
from .graphs import Graph
from .nets import Adam, Mlp, init_mlp
from .objective import MeteredObjective, OptResult, result_from_trace
from .baselines import simplex_search
from .seeding import derive_seed, stream_rng

HISTORY_LEN = 4
EPISODE_LEN = 64
ACTION_BOUND = 0.1
NOISE_VARIANCE = math.exp(-6.0)   # fixed Gaussian policy variance (std ~ 0.0498)
HIDDEN = 64


def state_dim(p: int) -> int:
    return (2 * p + 1) * HISTORY_LEN


@dataclass(frozen=True)
class EnvState:
    """Rolling window of the last L moves, newest first.

    Each history row is [df, dbeta_1..dbeta_p, dgamma_1..dgamma_p] with df
    already divided by the instance normalizer; rows not yet filled are 0.
    """

    history: np.ndarray
    current: QaoaParams
    current_f: float
    normalizer: float = 1.0

    @property
    def depth(self) -> int:
        return self.current.p

    def flatten(self) -> np.ndarray:
        return self.history.reshape(-1).copy()


def env_reset(obj: MeteredObjective, seed: int, normalizer: float = 1.0,
              start: QaoaParams | None = None) -> EnvState:
    """Start at a uniform random point (or `start`); costs one metered eval."""
    if start is None:
        rng = stream_rng(seed, "env-reset")
        params = QaoaParams.from_vector(
            rng.uniform(-math.pi, math.pi, 2 * obj.depth))
    else:
        params = start
    f0 = obj(params).mean
    history = np.zeros((HISTORY_LEN, 2 * obj.depth + 1))
    return EnvState(history=history, current=params, current_f=f0,
                    normalizer=normalizer)


def env_step(state: EnvState, action, obj: MeteredObjective):
    """Apply a bounded parameter step; returns (next state, reward)."""
    step = np.asarray(action, dtype=np.float64).ravel()
    if step.shape != (2 * state.depth,):
        raise DomainError(
            f"action has shape {step.shape}, expected ({2 * state.depth},)")
    if np.any(np.abs(step) > ACTION_BOUND + 1e-12):
        raise DomainError(f"action components must stay in "
                          f"[-{ACTION_BOUND}, {ACTION_BOUND}]")
    params = QaoaParams.from_vector(state.current.vector() + step)
    f_next = obj(params).mean
    reward = (f_next - state.current_f) / state.normalizer
    record = np.concatenate([[reward], step])
    history = np.vstack([record, state.history[:-1]])
    return EnvState(history=history, current=params, current_f=f_next,
                    normalizer=state.normalizer), float(reward)


def reward_normalizer(g: Graph, p: int, n_probe: int = 500,
                      seed: int = 0) -> float:
    """Mean exact objective over the angle torus (1 if no edges).

    At p = 1 the mean is exact and costs no evaluation: the closed-form
    energy is a trigonometric polynomial of degree 4 in beta and at most
    2n - 4 in gamma, and a uniform grid with more points per axis than
    that averages it exactly; `n_probe` and `seed` go unused.  At p > 1
    it is the mean over `n_probe` uniform draws from `seed`'s stream.
    """
    if n_probe < 1:
        raise DomainError(f"n_probe must be >= 1, got {n_probe}")
    if not g.edges:
        return 1.0
    if p == 1:
        betas = TWO_PI * np.arange(5) / 5 - math.pi
        gammas = TWO_PI * np.arange(2 * g.n - 1) / (2 * g.n - 1) - math.pi
        return float(np.mean(energy_p1(g, betas[:, None], gammas)))
    rng = stream_rng(seed, "normalizer")
    total = 0.0
    for _ in range(n_probe):
        params = QaoaParams.from_vector(rng.uniform(-math.pi, math.pi, 2 * p))
        total += energy(g, params).mean
    return total / n_probe


@dataclass
class PolicyBundle:
    """Actor + critic pair for one circuit depth."""

    actor: Mlp
    critic: Mlp
    depth: int
    noise_variance: float = NOISE_VARIANCE

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise DomainError(f"noise_variance must be > 0, got "
                              f"{self.noise_variance}")

    def copy(self) -> "PolicyBundle":
        return PolicyBundle(actor=self.actor.copy(), critic=self.critic.copy(),
                            depth=self.depth,
                            noise_variance=self.noise_variance)


def init_policy(p: int, seed: int) -> PolicyBundle:
    rng = stream_rng(seed, "policy-init")
    dim = state_dim(p)
    actor = init_mlp([dim, HIDDEN, HIDDEN, 2 * p], "scaled_tanh",
                     ACTION_BOUND, rng)
    critic = init_mlp([dim, HIDDEN, HIDDEN, 1], "linear", 1.0, rng)
    return PolicyBundle(actor=actor, critic=critic, depth=p)


def gaussian_logp(action, mean, variance: float):
    """Log density of an isotropic Gaussian; supports (d,) or (B, d)."""
    diff = np.asarray(action, float) - np.asarray(mean, float)
    d = diff.shape[-1]
    sq = np.sum(diff * diff, axis=-1)
    return -0.5 * (sq / variance + d * math.log(2.0 * math.pi * variance))


def sample_action(bundle: PolicyBundle, x: np.ndarray,
                  rng: np.random.Generator):
    """Draw actor(x) + N(0, noise_variance I), clamp to the action box.

    The log-probability is the plain Gaussian density at the action that is
    actually kept, so recomputing it from a stored (state, action) pair
    under unchanged weights reproduces it exactly.
    """
    mean = bundle.actor(x)
    action = mean + rng.normal(0.0, math.sqrt(bundle.noise_variance),
                               size=mean.shape)
    action = np.clip(action, -ACTION_BOUND, ACTION_BOUND)
    return action, float(gaussian_logp(action, mean, bundle.noise_variance))


@dataclass
class Trajectory:
    states: np.ndarray    # (T, state_dim)
    actions: np.ndarray   # (T, 2p)
    logps: np.ndarray     # (T,)
    rewards: np.ndarray   # (T,)
    values: np.ndarray    # (T,)
    bootstrap: float      # critic value of the state after the last step

    def __len__(self) -> int:
        return len(self.rewards)

    def total_discounted(self, discount: float) -> float:
        t = np.arange(len(self.rewards))
        return float(np.sum(self.rewards * discount**t))


def collect_episode(g: Graph, bundle: PolicyBundle, seed: int,
                    normalizer: float, steps: int) -> Trajectory:
    """Roll the stochastic policy for `steps` exact moves on one instance:
    one actor and one critic forward per step, one bootstrap critic
    forward at the end."""
    p = bundle.depth
    obj = MeteredObjective.for_graph(g, depth=p, budget=steps + 1)
    rng = stream_rng(seed, "episode")
    state = env_reset(obj, derive_seed(seed, "reset"), normalizer)
    states = np.zeros((steps, state_dim(p)))
    actions = np.zeros((steps, 2 * p))
    logps = np.zeros(steps)
    rewards = np.zeros(steps)
    values = np.zeros(steps)
    for t in range(steps):
        states[t] = state.flatten()
        actions[t], logps[t] = sample_action(bundle, states[t], rng)
        values[t] = float(bundle.critic(states[t])[0])
        state, rewards[t] = env_step(state, actions[t], obj)
    bootstrap = float(bundle.critic(state.flatten())[0])
    return Trajectory(states=states, actions=actions, logps=logps,
                      rewards=rewards, values=values, bootstrap=bootstrap)


@dataclass(frozen=True)
class PpoConfig:
    clip: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.97
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    max_passes: int = 80
    kl_stop: float = 0.015
    epochs: int = 750
    episodes_per_epoch: int = 128
    episode_len: int = EPISODE_LEN
    probe_count: int = 500

    def __post_init__(self):
        if not 0.0 < self.clip < 1.0:
            raise DomainError(f"clip must be in (0,1), got {self.clip}")
        if not 0.0 < self.discount <= 1.0:
            raise DomainError(f"discount must be in (0,1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise DomainError(f"gae_lambda must be in [0,1], got {self.gae_lambda}")
        if (self.max_passes < 1 or self.epochs < 1
                or self.episodes_per_epoch < 1 or self.episode_len < 1):
            raise DomainError("pass/epoch/episode/step counts must be >= 1")
        if not (self.actor_lr > 0 and self.critic_lr > 0):
            raise DomainError(f"learning rates must be > 0, got actor "
                              f"{self.actor_lr}, critic {self.critic_lr}")
        if not self.kl_stop > 0:
            raise DomainError(f"kl_stop must be > 0, got {self.kl_stop}")


def gae_advantages(traj: Trajectory, discount: float, lam: float) -> np.ndarray:
    v_next = np.append(traj.values[1:], traj.bootstrap)
    deltas = traj.rewards + discount * v_next - traj.values
    adv = np.zeros_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + discount * lam * acc
        adv[t] = acc
    return adv


def discounted_returns(traj: Trajectory, discount: float) -> np.ndarray:
    out = np.zeros_like(traj.rewards)
    acc = traj.bootstrap
    for t in range(len(out) - 1, -1, -1):
        acc = traj.rewards[t] + discount * acc
        out[t] = acc
    return out


def _actor_loss_grads(actor: Mlp, mu, cache, actions, logp_old, adv,
                      clip: float, variance: float, buffers=None):
    """Clipped-surrogate loss and actor gradients at the batched forward
    `mu, cache = actor.forward(states, buffers)`."""
    batch = mu.shape[0]
    diff = actions - mu
    logp = gaussian_logp(actions, mu, variance)
    ratio = np.exp(logp - logp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    loss = -float(np.mean(np.minimum(unclipped, clipped)))
    inside = (ratio > 1.0 - clip) & (ratio < 1.0 + clip)
    dmin = np.where(unclipped <= clipped, adv, np.where(inside, adv, 0.0))
    dlogp = -(dmin / batch) * ratio
    dmu = dlogp[:, None] * (diff / variance)
    grads = actor.backward(cache, dmu, buffers)
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip))
    return loss, grads, clip_fraction


def _critic_loss_grads(critic: Mlp, states, returns, buffers):
    v, cache = critic.forward(states, buffers)
    err = v[:, 0] - returns
    loss = float(np.mean(err**2))
    grads = critic.backward(cache, (2.0 * err / len(err))[:, None], buffers)
    return loss, grads


def _mean_kl(old_means, new_means, variance: float) -> float:
    # closed form for equal-covariance Gaussians
    sq = np.sum((old_means - new_means) ** 2, axis=1)
    return float(np.mean(sq) / (2.0 * variance))


def ppo_update(bundle: PolicyBundle, batch, cfg: PpoConfig):
    """One policy improvement step; returns (new bundle, diagnostics).

    The actor ascends the clipped surrogate for at most cfg.max_passes; the
    divergence from the pre-update policy is checked before every pass, so
    training never continues from an already over-threshold policy.  One
    actor forward serves each check and the pass after it, so an update
    makes actor_passes + 1 actor and cfg.max_passes critic forwards.
    Each net's passes write their batch activations and temporaries into
    one set of buffers per update (`Mlp.buffers`), so how fast they run
    does not hang on where the allocator puts fresh arrays.
    """
    if not batch:
        raise DomainError("ppo_update needs a non-empty batch")
    states = np.concatenate([t.states for t in batch])
    actions = np.concatenate([t.actions for t in batch])
    logp_old = np.concatenate([t.logps for t in batch])
    adv = np.concatenate(
        [gae_advantages(t, cfg.discount, cfg.gae_lambda) for t in batch])
    returns = np.concatenate(
        [discounted_returns(t, cfg.discount) for t in batch])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    new = bundle.copy()
    buffers = new.actor.buffers(len(states))
    # a forward's output is never one of the buffers, so later forwards
    # leave old_means as it is
    means, cache = new.actor.forward(states, buffers)
    old_means = means
    opt_actor = Adam(new.actor.parameters(), cfg.actor_lr)
    # the check before the first pass reads KL 0, so the first pass runs
    for passes in range(1, cfg.max_passes + 1):
        actor_loss, grads, clip_fraction = _actor_loss_grads(
            new.actor, means, cache, actions, logp_old, adv, cfg.clip,
            bundle.noise_variance, buffers)
        opt_actor.step(grads)
        means, cache = new.actor.forward(states, buffers)
        kl = _mean_kl(old_means, means, bundle.noise_variance)
        if kl > cfg.kl_stop:
            break
    del cache, buffers   # one set of buffers alive at a time

    buffers = new.critic.buffers(len(states))
    opt_critic = Adam(new.critic.parameters(), cfg.critic_lr)
    for _ in range(cfg.max_passes):
        critic_loss, grads = _critic_loss_grads(new.critic, states, returns,
                                                buffers)
        opt_critic.step(grads)

    diagnostics = {
        "kl": kl,
        "clip_fraction": clip_fraction,
        "actor_passes": passes,
        "actor_loss": actor_loss,
        "critic_loss": critic_loss,
    }
    return new, diagnostics


def train(train_suite, p: int, cfg: PpoConfig, seed: int):
    """PPO over the (spec, graph) training items, round-robin one episode
    at a time.

    Returns (bundle, curve) where curve[k] is the mean total discounted
    reward of the episodes collected during epoch k (i.e. under the policy
    as of the start of that epoch).
    """
    graphs = [g for _, g in train_suite]
    if not graphs:
        raise DomainError("training suite is empty")
    bundle = init_policy(p, derive_seed(seed, "init"))
    normalizers = [
        reward_normalizer(g, p, cfg.probe_count, derive_seed(seed, "norm", i))
        for i, g in enumerate(graphs)]
    curve = np.zeros(cfg.epochs)
    episode_index = 0
    for epoch in range(cfg.epochs):
        batch = []
        for _ in range(cfg.episodes_per_epoch):
            gi = episode_index % len(graphs)
            batch.append(collect_episode(
                graphs[gi], bundle, derive_seed(seed, "ep", episode_index),
                normalizers[gi], cfg.episode_len))
            episode_index += 1
        curve[epoch] = float(np.mean(
            [t.total_discounted(cfg.discount) for t in batch]))
        bundle, _ = ppo_update(bundle, batch, cfg)
    return bundle, curve


def rl_optimize(obj: MeteredObjective, bundle: PolicyBundle, seed: int,
                start: QaoaParams | None = None) -> OptResult:
    """Mean-policy walk for half the budget, Nelder-Mead for the rest."""
    p = bundle.depth
    if obj.depth != p:
        raise DomainError(f"bundle depth {p} != objective depth {obj.depth}")
    budget = obj.remaining
    if budget < 4 * p + 4:
        raise DomainError(
            f"rl_optimize needs a budget of at least {4 * p + 4}, "
            f"got {budget}")
    normalizer = 1.0
    if obj.graph is not None:
        # a-priori constant like in training; not counted against the budget
        normalizer = reward_normalizer(obj.graph, p,
                                       seed=derive_seed(seed, "norm"))
    trace_base = len(obj.trace)
    half = budget // 2
    state = env_reset(obj, derive_seed(seed, "reset"), normalizer,
                      start=start)
    for _ in range(half - 1):
        mean = bundle.actor(state.flatten())
        state, _ = env_step(state, np.clip(mean, -ACTION_BOUND, ACTION_BOUND),
                            obj)
    phase1 = result_from_trace(obj.trace[trace_base:])
    simplex_search(obj, phase1.best_params)
    return obj.result(since=trace_base)


def save_policy(bundle: PolicyBundle, path) -> None:
    def dump(net: Mlp):
        return [[w.tolist(), b.tolist()]
                for w, b in zip(net.weights, net.biases)]

    write_json(path, POLICY_SCHEMA, {
        "arch": {"layers": bundle.actor.sizes, "activation": "tanh",
                 "scale": ACTION_BOUND},
        "actor_weights": dump(bundle.actor),
        "critic_weights": dump(bundle.critic),
        "p": bundle.depth,
        "noise_variance": bundle.noise_variance,
    })


def load_policy(path) -> PolicyBundle:
    def mlp(rows, head, scale):
        weights = [np.asarray(w, dtype=np.float64) for w, _ in rows]
        biases = [np.asarray(b, dtype=np.float64) for _, b in rows]
        return Mlp(weights=weights, biases=biases, head=head, scale=scale)

    def build(body):
        return PolicyBundle(
            actor=mlp(body["actor_weights"], "scaled_tanh",
                      float(body["arch"]["scale"])),
            critic=mlp(body["critic_weights"], "linear", 1.0),
            depth=int(body["p"]), noise_variance=float(body["noise_variance"]))

    bundle = read_json(path, POLICY_SCHEMA, "policy", build)
    p, dim = bundle.depth, state_dim(bundle.depth)
    for name, net, want in (("actor", bundle.actor, (dim, 2 * p)),
                            ("critic", bundle.critic, (dim, 1))):
        got = (net.sizes[0], net.sizes[-1])
        if got != want:
            raise ConfigError(
                f"{path}: {name} maps {got[0]} -> {got[1]}, but a p={p} "
                f"policy needs {want[0]} -> {want[1]}")
    return bundle

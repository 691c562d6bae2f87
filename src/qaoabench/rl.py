"""Learned optimizer: a finite-difference MDP over QAOA objectives.

The agent never sees the graph, only the last L = 4 moves: each history
record is (normalized objective change, parameter step).  A tanh actor
emits bounded parameter increments, a twin critic scores states, and both
train with clipped-surrogate PPO.  At test time the mean policy (noise
off) spends half the budget walking the landscape and Nelder-Mead polishes
the best point found with the other half.
"""

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import POLICY_SCHEMA, read_json, write_json
from .engine import TWO_PI, QaoaParams, energy, energy_p1, wrap_angles
from .errors import ConfigError, DomainError
from .graphs import Graph
from .nets import Adam, Mlp, init_mlp
from .objective import Meter, MeteredObjective, OptResult, lockstep
from .baselines import simplex_steps
from .seeding import derive_seed, stream_rng

HISTORY_LEN = 4
EPISODE_LEN = 64
ACTION_BOUND = 0.1
NOISE_VARIANCE = math.exp(-6.0)   # fixed Gaussian policy variance (std ~ 0.0498)
HIDDEN = 64


def state_dim(p: int) -> int:
    return (2 * p + 1) * HISTORY_LEN


class Walk:
    """E landscape walks in lockstep, one metered objective each.

    `history` (E, L, 2p + 1) holds each walk's last L moves, newest first:
    rows [df, dbeta_1..dbeta_p, dgamma_1..dgamma_p], df divided by the
    walk's normalizer, 0 until filled.  `states` is the same memory as
    (E, state_dim) policy inputs.  Walk e starts at `starts[e]`, else at a
    uniform point drawn from `seeds[e]`, for one metered eval; `starts`
    is an (E, 2p) array of vectors, wrapped like `QaoaParams` wraps them.

    The E positions `current` are one wrapped (E, 2p) array; a step's E
    points are one-point requests of one `Meter` call.
    """

    def __init__(self, objs, seeds, normalizers, starts=None):
        self.objs = list(objs)
        self._meter = Meter(self.objs)
        count, p = len(self.objs), self.objs[0].depth
        if starts is None:
            starts = np.array([
                stream_rng(derive_seed(seed, "reset"), "env-reset").uniform(
                    -math.pi, math.pi, 2 * p) for seed in seeds])
        self.f = self._values(starts)
        self.current = wrap_angles(starts)
        self.normalizers = np.asarray(normalizers, dtype=np.float64)
        self.states = np.zeros((count, state_dim(p)))
        self.history = self.states.reshape(count, HISTORY_LEN, -1)

    def _values(self, vecs) -> np.ndarray:
        values = self._meter([(obj, vecs[e:e + 1])
                              for e, obj in enumerate(self.objs)])
        return np.array([value.mean[0] for value in values])

    def step(self, actions) -> np.ndarray:
        """Move each walk by its row of `actions`, bounded parameter steps
        of shape (E, 2p); returns the (E,) rewards."""
        steps = np.asarray(actions, dtype=np.float64)
        if steps.shape != self.current.shape:
            raise DomainError(f"actions have shape {steps.shape}, "
                              f"expected {self.current.shape}")
        if np.any(np.abs(steps) > ACTION_BOUND + 1e-12):
            raise DomainError(f"action components must stay in "
                              f"[-{ACTION_BOUND}, {ACTION_BOUND}]")
        raw = self.current + steps
        f_next = self._values(raw)
        rewards = (f_next - self.f) / self.normalizers
        self.current = wrap_angles(raw)
        self.f = f_next
        self.history[:, 1:] = self.history[:, :-1]
        self.history[:, 0, 0] = rewards
        self.history[:, 0, 1:] = steps
        return rewards


def reward_normalizer(g: Graph, p: int, n_probe: int = 500,
                      seed: int = 0) -> float:
    """Mean exact objective over the angle torus (1 if no edges).

    At p = 1 the mean is exact and costs no evaluation: the closed-form
    energy is a trigonometric polynomial of degree 4 in beta and at most
    2n - 4 in gamma, and a uniform grid with more points per axis than
    that averages it exactly; `n_probe` and `seed` go unused.  At p > 1
    it is the mean over `n_probe` uniform draws from `seed`'s stream, one
    (n_probe, 2p) draw evaluated in one exact batch.
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
    means = energy(g, rng.uniform(-math.pi, math.pi, (n_probe, 2 * p))).mean
    # summed left to right, as a loop adds; np.sum would add pairwise
    return float(np.cumsum(means)[-1] / n_probe)


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
        return replace(self, actor=self.actor.copy(), critic=self.critic.copy())


def init_policy(p: int, seed: int) -> PolicyBundle:
    rng = stream_rng(seed, "policy-init")
    dim = state_dim(p)
    actor = init_mlp([dim, HIDDEN, HIDDEN, 2 * p], "scaled_tanh",
                     ACTION_BOUND, rng)
    critic = init_mlp([dim, HIDDEN, HIDDEN, 1], "linear", 1.0, rng)
    return PolicyBundle(actor=actor, critic=critic, depth=p)


def gaussian_logp(action, mean, variance: float):
    """Log density of an isotropic Gaussian over the last axis."""
    diff = np.asarray(action, float) - np.asarray(mean, float)
    d = diff.shape[-1]
    sq = np.sum(diff * diff, axis=-1)
    return -0.5 * (sq / variance + d * math.log(2.0 * math.pi * variance))


def sample_action(bundle: PolicyBundle, x: np.ndarray, rngs):
    """Draw actor(x) + N(0, noise_variance I) for the rows of `x`, row
    e's noise from `rngs[e]`, clamped to the action box.

    The log-probability is the plain Gaussian density at the action that is
    actually kept, so recomputing it from a stored (state, action) pair
    under unchanged weights reproduces it exactly.
    """
    mean = bundle.actor(x)
    sd = math.sqrt(bundle.noise_variance)
    noise = np.array([rng.normal(0.0, sd, size=mean.shape[1])
                      for rng in rngs])
    action = np.clip(mean + noise, -ACTION_BOUND, ACTION_BOUND)
    return action, gaussian_logp(action, mean, bundle.noise_variance)


@dataclass
class Trajectory:
    """E episodes of T steps each, episode axis first."""

    states: np.ndarray    # (E, T, state_dim)
    actions: np.ndarray   # (E, T, 2p)
    logps: np.ndarray     # (E, T)
    rewards: np.ndarray   # (E, T)
    values: np.ndarray    # (E, T + 1), the last after the final step

    def total_discounted(self, discount: float) -> np.ndarray:
        t = np.arange(self.rewards.shape[1])
        return np.sum(self.rewards * discount**t, axis=1)


def collect_episode(graphs, bundle: PolicyBundle, seeds, normalizers,
                    steps: int) -> Trajectory:
    """Roll the stochastic policy for `steps` exact moves on each graph in
    one walk, episode e with `seeds[e]`'s streams and `normalizers[e]`.
    Each step makes one actor and one critic forward over all E states;
    one more critic forward values the final states."""
    p = bundle.depth
    objs = [MeteredObjective.for_graph(g, depth=p, budget=steps + 1)
            for g in graphs]
    rngs = [stream_rng(seed, "episode") for seed in seeds]
    walk = Walk(objs, seeds, normalizers)
    n_ep = len(objs)
    states = np.zeros((n_ep, steps, state_dim(p)))
    actions = np.zeros((n_ep, steps, 2 * p))
    logps = np.zeros((n_ep, steps))
    rewards = np.zeros((n_ep, steps))
    values = np.zeros((n_ep, steps + 1))
    for t in range(steps):
        x = walk.states
        states[:, t] = x
        actions[:, t], logps[:, t] = sample_action(bundle, x, rngs)
        values[:, t] = bundle.critic(x)[:, 0]
        rewards[:, t] = walk.step(actions[:, t])
    values[:, steps] = bundle.critic(walk.states)[:, 0]
    return Trajectory(states=states, actions=actions, logps=logps,
                      rewards=rewards, values=values)


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
    """(E, T) generalized advantage estimates, one pass back over T."""
    deltas = (traj.rewards + discount * traj.values[:, 1:]
              - traj.values[:, :-1])
    adv = np.zeros_like(deltas)
    acc = 0.0
    for t in range(deltas.shape[1] - 1, -1, -1):
        acc = deltas[:, t] + discount * lam * acc
        adv[:, t] = acc
    return adv


def discounted_returns(traj: Trajectory, discount: float) -> np.ndarray:
    """(E, T) discounted returns bootstrapped from the critic."""
    out = np.zeros_like(traj.rewards)
    acc = traj.values[:, -1]
    for t in range(out.shape[1] - 1, -1, -1):
        acc = traj.rewards[:, t] + discount * acc
        out[:, t] = acc
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


def _fit_critic(critic: Mlp, states, returns, cfg: PpoConfig) -> float:
    """Fit `critic` to `returns` for cfg.max_passes; returns the last loss."""
    buffers = critic.buffers(len(states))
    opt = Adam(critic.parameters(), cfg.critic_lr)
    for _ in range(cfg.max_passes):
        loss, grads = _critic_loss_grads(critic, states, returns, buffers)
        opt.step(grads)
    return loss


def ppo_update(bundle: PolicyBundle, traj: Trajectory, cfg: PpoConfig):
    """One policy improvement step; returns (new bundle, diagnostics).

    The actor ascends the clipped surrogate for at most cfg.max_passes; the
    divergence from the pre-update policy is checked before every pass, so
    training never continues from an already over-threshold policy.  One
    actor forward serves each check and the pass after it, so an update
    makes actor_passes + 1 actor and cfg.max_passes critic forwards.

    The critic fits on a worker thread while the actor trains on this one;
    the fits share only read-only inputs, so the bits are a serial
    update's.  The worker runs in a copy of the caller's context (so an
    `np.errstate` holds there too) and is joined before this returns or
    raises.  Each net's passes reuse one set of buffers per update
    (`Mlp.buffers`), so their speed does not hang on where the allocator
    puts fresh arrays.
    """
    if not traj.rewards.size:
        raise DomainError("ppo_update needs a non-empty batch")
    rows = traj.rewards.size
    states = traj.states.reshape(rows, -1)
    actions = traj.actions.reshape(rows, -1)
    logp_old = traj.logps.reshape(rows)
    adv = gae_advantages(traj, cfg.discount, cfg.gae_lambda).reshape(rows)
    returns = discounted_returns(traj, cfg.discount).reshape(rows)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    new = bundle.copy()
    with ThreadPoolExecutor(max_workers=1) as pool:
        critic_fit = pool.submit(contextvars.copy_context().run, _fit_critic,
                                 new.critic, states, returns, cfg)
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
        critic_loss = critic_fit.result()

    diagnostics = {
        "kl": kl,
        "clip_fraction": clip_fraction,
        "actor_passes": passes,
        "actor_loss": actor_loss,
        "critic_loss": critic_loss,
    }
    return new, diagnostics


def train(train_suite, p: int, cfg: PpoConfig, seed: int):
    """PPO over the (spec, graph) training items; each epoch walks its
    episodes in lockstep, assigned to the items round-robin.

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
    for epoch in range(cfg.epochs):
        episodes = range(epoch * cfg.episodes_per_epoch,
                         (epoch + 1) * cfg.episodes_per_epoch)
        items = [i % len(graphs) for i in episodes]
        traj = collect_episode(
            [graphs[i] for i in items], bundle,
            [derive_seed(seed, "ep", i) for i in episodes],
            [normalizers[i] for i in items], cfg.episode_len)
        curve[epoch] = float(np.mean(traj.total_discounted(cfg.discount)))
        bundle, _ = ppo_update(bundle, traj, cfg)
    return bundle, curve


def rl_optimize(obj: MeteredObjective, bundle: PolicyBundle, seed: int,
                start: QaoaParams | None = None) -> OptResult:
    """Mean-policy walk for half the budget, Nelder-Mead for the rest."""
    return rl_optimize_all([obj], bundle, [seed],
                           None if start is None else start.vector()[None])[0]


def rl_optimize_all(objs, bundle: PolicyBundle, seeds,
                    starts=None) -> list[OptResult]:
    """`rl_optimize` on each objs[k] with seeds[k] (and row k of the
    (K, 2p) vectors `starts`, wrapped like `QaoaParams` wraps them), in
    lockstep: one `Walk`, with one actor forward per step over a stack of
    one-row inputs, each run's row with the bits of its own forward,
    then one `objective.lockstep` of Nelder-Mead runs.  The objectives
    need equal budgets, so the walks end together."""
    p, budget = bundle.depth, objs[0].remaining
    for obj in objs:
        if obj.depth != p:
            raise DomainError(f"bundle depth {p} != objective depth "
                              f"{obj.depth}")
        if obj.remaining != budget:
            raise DomainError("lockstep runs need equal budgets")
    if budget < 4 * p + 4:
        raise DomainError(
            f"rl_optimize needs a budget of at least {4 * p + 4}, "
            f"got {budget}")
    # a-priori constants like in training; not counted against the budget
    normalizers = [
        reward_normalizer(obj.graph, p, seed=derive_seed(seed, "norm"))
        for obj, seed in zip(objs, seeds)]
    since = [obj.calls for obj in objs]
    walk = Walk(objs, seeds, normalizers, starts)
    for _ in range(budget // 2 - 1):
        walk.step(np.clip(bundle.actor(walk.states[:, None])[:, 0],
                          -ACTION_BOUND, ACTION_BOUND))
    lockstep(objs, [simplex_steps(obj.points[obj.best_row(k)], obj.remaining)
                    for obj, k in zip(objs, since)])
    return [obj.result(since=k) for obj, k in zip(objs, since)]


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

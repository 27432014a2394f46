"""From-scratch deterministic actor-critic training for voltage control.

Plain-numpy feedforward critics learned by temporal difference, slowly
tracking target copies, a FIFO replay buffer, Gaussian exploration noise,
and two actor families: the constrained monotone deadband controller
(updated through its reparameterization, so every iterate stays a certified
stabilizer) and an unconstrained multilayer perceptron baseline.
"""

import contextlib
import ctypes
import json
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_DT,
    ScenarioConfig,
    band_violation,
    rollout,
    row_dot,
    sample_scenario,
    scenario_kinds,
)
from .policy import (
    MonotonePolicy,
    RawPolicyParams,
    constrain,
    policy_eval,
    policy_eval_bus,
    policy_param_grad,
    sample_raw_params,
)
from .util import fmt


class TrainingDiverged(RuntimeError):
    """Raised when an update produces a non-finite loss or gradient."""


# ---------------------------------------------------------------------------
# feedforward networks
# ---------------------------------------------------------------------------

class FeedForwardNet:
    """Affine layers with ReLU hidden activations and a linear output."""

    def __init__(self, weights, biases):
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, sizes, rng):
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights, biases)

    def copy(self):
        return FeedForwardNet([w.copy() for w in self.weights],
                              [b.copy() for b in self.biases])

    def arrays(self):
        """Every parameter array: the weights, then the biases."""
        return (*self.weights, *self.biases)


def net_eval(net, x):
    """Forward pass; accepts (..., d_in) batches or a single (d_in,) vector."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[-1] != net.weights[0].shape[0]:
        raise ValueError(f"input width {h.shape[-1]} does not match network "
                         f"input {net.weights[0].shape[0]}")
    for h in _layers(net, h):     # only the newest layer stays alive
        pass
    return h[0] if single else h


def _layers(net, h):
    """Yield each layer's activations on a batch in turn: hidden..., output."""
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if k < last:
            np.maximum(h, 0.0, out=h)
        yield h


def _forward(net, h):
    """Every layer's activations on a batch: [input, hidden..., output]."""
    return [h, *_layers(net, h)]


def _backward(net, acts, upstream, param_grads=True):
    """Reverse pass through the activations of ``_forward``.

    Returns (parameter grads, input grad); the parameter grads are None when
    ``param_grads`` is false. A hidden unit passes gradient where its
    activation is positive, which is where its pre-activation was.
    """
    last = len(net.weights) - 1
    grads = [None] * len(net.weights) if param_grads else None
    delta = upstream
    for k in range(last, -1, -1):
        if k < last:
            delta = delta * (acts[k + 1] > 0.0)
        if param_grads:
            grads[k] = (acts[k].T @ delta, delta.sum(axis=0))
        delta = delta @ net.weights[k].T
    return grads, delta


def net_backprop(net, x, upstream):
    """Reverse-mode pass. Returns (parameter grads, input grad).

    ``upstream`` holds d(objective)/d(output) per sample; parameter grads are
    summed over the batch, the input grad keeps its per-sample shape.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    upstream = np.asarray(upstream, dtype=float)
    if upstream.ndim == 1:
        upstream = upstream[None, :] if single else upstream[:, None]
    grads, delta = _backward(net, _forward(net, h), upstream)
    return grads, (delta[0] if single else delta)


def sgd_step(net, grads, lr):
    for (w, b), (dw, db) in zip(zip(net.weights, net.biases), grads):
        w -= lr * dw
        b -= lr * db


def soft_update(target, source, tau):
    """target <- (1 - tau) * target + tau * source, elementwise."""
    for t, s in zip(target.arrays(), source.arrays()):
        t *= (1.0 - tau)
        t += tau * s


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """FIFO ring of transitions with seeded uniform sampling.

    Each field (v, u, r, v_next) is one (capacity, ...) array, allocated on
    the first push; the t-th transition ever pushed lives in row
    ``t % capacity``.
    """

    def __init__(self, capacity, seed=0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._fields = None
        self._pushed = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self):
        return min(self._pushed, self.capacity)

    def push(self, v, u, r, v_next):
        """Append a (k, ...) block of transitions, one per row.

        Only the last ``capacity`` rows of a longer block are kept.
        """
        block = [np.asarray(f, dtype=float) for f in (v, u, r, v_next)]
        k = len(block[0])
        if any(len(f) != k for f in block):
            raise ValueError("transition blocks differ in length")
        if not all(np.isfinite(f).all() for f in block):
            raise ValueError("non-finite transition field")
        if k == 0:
            return
        if self._fields is None:
            self._fields = [np.empty((self.capacity, *f.shape[1:]))
                            for f in block]
        if any(f.shape[1:] != arr.shape[1:]
               for f, arr in zip(block, self._fields)):
            raise ValueError("transition field shapes differ from the "
                             "buffer's")
        skip = max(0, k - self.capacity)
        rows = (self._pushed + np.arange(skip, k)) % self.capacity
        for arr, f in zip(self._fields, block):
            arr[rows] = f[skip:]
        self._pushed += k

    def snapshot(self):
        """The four field arrays oldest first; empty before the first push."""
        order = (self._pushed + np.arange(-len(self), 0)) % self.capacity
        return tuple(arr[order] for arr in self._fields or ())

    def sample(self, batch_size):
        if not 0 < batch_size <= len(self):
            raise ValueError(f"cannot sample {batch_size} transitions from a "
                             f"buffer holding {len(self)}")
        idx = self._rng.integers(0, len(self), size=batch_size)
        return tuple(arr[idx] for arr in self._fields)


# ---------------------------------------------------------------------------
# configuration and environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    actor_lr: float = 1e-4
    critic_lr: float = 2e-4
    noise_std: float = 0.05
    noise_clip_sigmas: float = 3.0
    batch_size: int = 256
    tau: float = 1e-2
    episodes: int = 200
    episode_len: int = 30
    updates_per_episode: int = 30
    buffer_capacity: int = 1_000_000
    seed: int = 0
    agent_scope: str = "local"          # 'local' per-bus agents or 'joint'
    critic_hidden: tuple = (100, 100)
    actor_hidden: tuple = (100, 100)    # unconstrained baseline actor
    actor_units: int = 16               # ramp units per side, monotone actor
    eps: float = 1e-3
    record_timing: bool = False

    def __post_init__(self):
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ValueError("learning rates must be positive")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch size cannot exceed buffer capacity")
        if self.agent_scope not in ("local", "joint"):
            raise ValueError(f"unknown agent scope {self.agent_scope!r}")
        if self.episode_len < 1:
            raise ValueError("episode_len must be at least 1")
        if self.actor_units < 2:
            raise ValueError("actor_units must be at least 2")


@dataclass(frozen=True)
class VoltEnv:
    """Training environment: sensitivity matrix, band, cost, and scenarios."""

    X: np.ndarray
    v_lower: np.ndarray
    v_upper: np.ndarray
    cp: object
    dt: float = DEFAULT_DT

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def bounds(self):
        return self.v_lower, self.v_upper

    def sample_start(self, rng):
        kinds = scenario_kinds(self.n)
        kind = kinds[int(rng.integers(0, len(kinds)))]
        return sample_scenario(ScenarioConfig(kind=kind, n=self.n), rng)

    def per_bus_reward(self, v, u):
        """Negated per-bus stage cost, elementwise over any leading axes."""
        dev = band_violation(v, self.bounds)
        return -(self.cp.eta1 * dev ** 2 + self.cp.eta2 * u ** 2)


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

def critic_update(critic, critic_target, batch, u_next, cfg):
    """One SGD step on the squared temporal-difference error.

    ``batch`` is (s, u, r, s_next) with 2-d arrays and ``u_next`` holds the
    target policy's actions at s_next; the bootstrap target
    r + gamma * Q_target(s', u_next) is held fixed. Returns the pre-step loss.
    """
    s, u, r, s_next = batch
    q_next = net_eval(critic_target, np.hstack([s_next, u_next]))
    y = r + cfg.gamma * q_next
    acts = _forward(critic, np.hstack([s, u]))
    err = acts[-1] - y
    loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise TrainingDiverged("temporal-difference loss is not finite")
    upstream = 2.0 * err / len(err)
    grads, _ = _backward(critic, acts, upstream)
    sgd_step(critic, grads, cfg.critic_lr)
    return loss


def q_action_grad(critic, s, u):
    """Critic value and its gradient with respect to the action block.

    The action occupies the trailing columns of the critic input; the
    backward pass skips the parameter gradients. A non-finite gradient
    raises TrainingDiverged before any actor takes a step along it.
    """
    acts = _forward(critic, np.hstack([s, u]))
    q = acts[-1]
    _, input_grad = _backward(critic, acts, np.ones_like(q),
                              param_grads=False)
    dq_du = input_grad[:, s.shape[1]:]
    if not np.isfinite(dq_du).all():
        raise TrainingDiverged("critic action gradient is not finite")
    return q, dq_du


def stable_actor_update(raw, band, eps, v_batch, dq_du, lr):
    """Ascend the critic through the constraint map for every bus at once.

    ``v_batch`` and ``dq_du`` are (m, n). Updates ``raw`` in place and
    returns the applied gradient norm of each bus, shape (n,).
    """
    grads = policy_param_grad(raw, band, eps, v_batch)
    m = len(v_batch)
    total = 0.0
    for arr, g in zip(raw.arrays(), grads):
        mean_g = (dq_du[:, :, None] * g).sum(axis=0) / m
        arr += lr * mean_g
        total = total + row_dot(mean_g, mean_g)
    return np.sqrt(total)


def net_actor_update(actor, v_batch, dq_du, lr):
    """Deterministic policy-gradient ascent for the unconstrained actor."""
    m = len(v_batch)
    grads, _ = net_backprop(actor, v_batch, dq_du / m)
    sgd_step(actor, grads, -lr)
    total = sum(float((dw ** 2).sum() + (db ** 2).sum()) for dw, db in grads)
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

NET_CHECKPOINT_VERSION = 1


def save_net_policy(path, nets, joint, band, meta=None):
    """Persist the unconstrained perceptron policy (one net per agent)."""
    data = {
        "format_version": NET_CHECKPOINT_VERSION,
        "kind": "mlp",
        "joint": bool(joint),
        "band": {"v_lower": list(map(float, band[0])),
                 "v_upper": list(map(float, band[1]))},
        "nets": [{"weights": [w.tolist() for w in net.weights],
                  "biases": [b.tolist() for b in net.biases]}
                 for net in nets],
    }
    if meta:
        data["meta"] = meta
    with open(path, "w") as fh:
        json.dump(data, fh)


def load_net_policy(path):
    """Load an unconstrained policy saved by ``save_net_policy``."""
    with open(path) as fh:
        data = json.load(fh)
    return parse_net_policy(data, path)


def parse_net_policy(data, path):
    """``load_net_policy`` on an already parsed file read from ``path``:
    returns (policy, band)."""
    if data.get("kind") != "mlp" or \
            data.get("format_version") != NET_CHECKPOINT_VERSION:
        raise ValueError(f"not an mlp policy checkpoint: {path}")
    nets = [FeedForwardNet(
        [np.array(w, dtype=float) for w in entry["weights"]],
        [np.array(b, dtype=float) for b in entry["biases"]])
        for entry in data["nets"]]
    band = (np.array(data["band"]["v_lower"], dtype=float),
            np.array(data["band"]["v_upper"], dtype=float))
    # local scope: one 1 -> 1 net per bus; joint scope: one n -> n net
    n, joint = len(band[0]), bool(data["joint"])
    width = n if joint else 1
    if len(nets) != (1 if joint else n):
        raise ValueError(f"{'joint' if joint else 'local'} checkpoint has "
                         f"{len(nets)} nets for {n} buses")
    for k, net in enumerate(nets):
        ws, bs = net.weights, net.biases
        if not (ws and len(ws) == len(bs)
                and all(w.ndim == 2 and b.shape == (w.shape[1],)
                        for w, b in zip(ws, bs))
                and all(a.shape[1] == b.shape[0] for a, b in zip(ws, ws[1:]))
                and ws[0].shape[0] == width == ws[-1].shape[1]):
            raise ValueError(f"net {k} is not a consistent {width} -> {width} "
                             f"network")
        if not all(np.isfinite(a).all() for a in net.arrays()):
            raise ValueError(f"net {k} has a non-finite weight or bias")
    return _NetPolicy(nets, joint), band


@dataclass
class TrainResult:
    policy: object
    log: list
    raw: RawPolicyParams = None
    init_raw: RawPolicyParams = None
    actor_nets: list = None
    diverged_episodes: int = 0
    updates: int = 0          # minibatch update rounds run


class _NetPolicy:
    """Vector policy backed by per-bus (or one joint) perceptrons."""

    def __init__(self, nets, joint):
        self.nets = nets
        self.joint = joint

    def __call__(self, v):
        # each row of an (S, n) batch is fed as its own (1, n) input, so a
        # batch gives bit for bit the outputs of row-by-row calls
        v = np.asarray(v, dtype=float)[..., None, :]
        if self.joint:
            u = net_eval(self.nets[0], v)
        else:
            u = np.concatenate([net_eval(net, v[..., i:i + 1])
                                for i, net in enumerate(self.nets)], axis=-1)
        return u[..., 0, :]

    def input_grad(self, v):
        """Slope du_i/dv_i of each bus at (n,) or (S, n) voltages.

        Local nets give their input gradient; the joint net gives the
        diagonal of its Jacobian, one input-only backward pass per bus
        through a shared forward pass.
        """
        v = np.asarray(v, dtype=float)
        x = v.reshape(-1, v.shape[-1])
        ones = np.ones((len(x), 1))
        if self.joint:
            acts = _forward(self.nets[0], x)
            cols = [_backward(self.nets[0], acts, ones * e,
                              param_grads=False)[1][:, i]
                    for i, e in enumerate(np.eye(x.shape[1]))]
        else:
            cols = [_backward(net, _forward(net, x[:, i:i + 1]), ones,
                              param_grads=False)[1][:, 0]
                    for i, net in enumerate(self.nets)]
        return np.stack(cols, axis=-1).reshape(v.shape)


def _agent_actions(actor, joint, i, s):
    """Actions of agent i on its (m, k) state block.

    ``actor`` is a constrained monotone controller or a list of nets, one
    per agent; a local monotone agent evaluates only its own bus.
    """
    if isinstance(actor, list):
        return net_eval(actor[i], s)
    if joint:
        return policy_eval(actor, s)
    return policy_eval_bus(actor, i, s[:, 0])[:, None]


def _log_row(episode, ret, td_mean, grad_norm, wall_ms):
    return {"episode": episode, "return": ret, "td_loss_mean": td_mean,
            "grad_norms": grad_norm, "wall_ms": wall_ms}


def write_training_log(log, path):
    with open(path, "w") as fh:
        fh.write("episode,return,td_loss_mean,grad_norms,wall_ms\n")
        for row in log:
            fh.write(f"{row['episode']},{fmt(row['return'])},"
                     f"{fmt(row['td_loss_mean'])},{fmt(row['grad_norms'])},"
                     f"{fmt(row['wall_ms'])}\n")


def train(env, cfg, actor_kind="stable", episode_callback=None):
    """Run episodic training and return the final greedy policy plus a log.

    Per episode: draw a disturbance scenario and roll the greedy policy plus
    clipped Gaussian noise for ``episode_len`` steps on the closed-loop
    engine (``rollout``, one scenario of ``rollout_batch``). The engine cuts
    an episode whose voltages blow up or whose action is not finite; it
    counts as diverged and keeps the steps before the cut. The recorded
    steps become per-bus transitions in the replay buffer; then come batched
    critic/actor updates with soft target tracking. Deterministic under
    ``cfg.seed``.
    """
    if actor_kind not in ("stable", "unconstrained"):
        raise ValueError(f"unknown actor kind {actor_kind!r}")
    # each critic pass frees ~2 MB of (batch, hidden) arrays; glibc's default
    # thresholds return it to the kernel and page-fault it back on the next
    # pass, so keep freed memory mapped (a no-op without glibc)
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)    # M_TRIM_THRESHOLD
    n = env.n
    joint = cfg.agent_scope == "joint"
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    init_rng = np.random.default_rng(seeds[0])
    scen_rng = np.random.default_rng(seeds[1])
    noise_rng = np.random.default_rng(seeds[2])
    # a run pushes at most episodes * episode_len transitions
    buffer = ReplayBuffer(max(1, min(cfg.buffer_capacity,
                                     cfg.episodes * cfg.episode_len)),
                          seed=seeds[3])
    band = env.bounds

    # agents: one per bus column in local scope, the whole feeder for joint
    dim = n if joint else 1
    agent_cols = [slice(None)] if joint else [slice(i, i + 1) for i in range(n)]
    critics = [FeedForwardNet.create([2 * dim, *cfg.critic_hidden, 1], init_rng)
               for _ in agent_cols]
    critic_targets = [critic.copy() for critic in critics]

    raw = target_raw = init_raw = None
    actor_nets = actor_targets = None
    if actor_kind == "stable":
        raw = sample_raw_params(n, cfg.actor_units, init_rng, eps=cfg.eps)
        target_raw = raw.copy()
        init_raw = raw.copy()
    else:
        actor_nets = [FeedForwardNet.create([dim, *cfg.actor_hidden, dim],
                                            init_rng) for _ in agent_cols]
        actor_targets = [net.copy() for net in actor_nets]

    def greedy_policy():
        # the actor only changes in the update phase, so one build serves a
        # whole episode's collection
        if actor_kind == "stable":
            return MonotonePolicy.from_raw(raw, band, cfg.eps)
        return _NetPolicy(actor_nets, joint)

    log = []
    diverged_episodes = 0
    updates = 0
    clip = cfg.noise_clip_sigmas * cfg.noise_std

    for episode in range(cfg.episodes):
        t0 = time.perf_counter()
        v_env, q0 = env.sample_start(scen_rng)
        greedy = greedy_policy()

        def noisy(v):
            return greedy(v) + np.clip(
                noise_rng.normal(0.0, cfg.noise_std, size=v.shape), -clip, clip)

        runs = rollout(noisy, env.X, v_env, q0, cfg.episode_len, env.dt)
        k = int(runs.steps[0])
        v, u = runs.v[:k + 1, 0], runs.u[:k, 0]
        r = env.per_bus_reward(v[:-1], u)
        buffer.push(v[:-1], u, r, v[1:])
        ep_return = 0.0
        for t in range(k):
            ep_return += (cfg.gamma ** t) * float(r[t].sum())
        diverged_episodes += int(runs.diverged[0])

        td_losses = []
        grad_norms = []
        if len(buffer) >= cfg.batch_size:
            for _ in range(cfg.updates_per_episode):
                updates += 1
                v_b, u_b, r_b, vn_b = buffer.sample(cfg.batch_size)
                if actor_kind == "stable":
                    actor = constrain(raw, band, cfg.eps)
                    actor_tgt = constrain(target_raw, band, cfg.eps)
                else:
                    actor, actor_tgt = actor_nets, actor_targets
                dqs = []
                for i, cols in enumerate(agent_cols):
                    s, s_next = v_b[:, cols], vn_b[:, cols]
                    r = r_b.sum(axis=1, keepdims=True) if joint else r_b[:, cols]
                    td_losses.append(critic_update(
                        critics[i], critic_targets[i],
                        (s, u_b[:, cols], r, s_next),
                        _agent_actions(actor_tgt, joint, i, s_next), cfg))
                    _, dq = q_action_grad(critics[i], s,
                                          _agent_actions(actor, joint, i, s))
                    dqs.append(dq)
                    soft_update(critic_targets[i], critics[i], cfg.tau)

                if actor_kind == "stable":
                    norms = stable_actor_update(raw, band, cfg.eps, v_b,
                                                np.hstack(dqs), cfg.actor_lr)
                    grad_norms.extend([np.sqrt(sum(norms ** 2))] if joint
                                      else norms)
                    soft_update(target_raw, raw, cfg.tau)
                else:
                    for i, cols in enumerate(agent_cols):
                        grad_norms.append(net_actor_update(
                            actor_nets[i], v_b[:, cols], dqs[i], cfg.actor_lr))
                        soft_update(actor_targets[i], actor_nets[i], cfg.tau)

        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        log.append(_log_row(episode, ep_return,
                            float(np.mean(td_losses)) if td_losses else 0.0,
                            float(np.mean(grad_norms)) if grad_norms else 0.0,
                            wall))
        if episode_callback is not None:
            episode_callback(episode, raw if actor_kind == "stable"
                             else actor_nets)

    return TrainResult(policy=greedy_policy(), log=log, raw=raw,
                       init_raw=init_raw, actor_nets=actor_nets,
                       diverged_episodes=diverged_episodes,
                       updates=updates)

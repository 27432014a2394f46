"""From-scratch deterministic actor-critic training for voltage control.

Plain-numpy feedforward critics learned by temporal difference, slowly
tracking target copies, a FIFO replay buffer, Gaussian exploration noise,
and two actor families: the constrained monotone deadband controller
(updated through its reparameterization, so every iterate stays monotone,
which makes the energy decrease along the continuous-time loop; the
discrete step condition dt * L * lambda_max(X) < 2 is not enforced) and an
unconstrained multilayer perceptron baseline.
"""

import contextlib
import ctypes
import json
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_DT,
    band_violation,
    rollout,
    row_dot,
    sample_scenario,
    scenario_kinds,
)
from .policy import (
    CheckpointError,
    MonotonePolicy,
    PieceTable,
    RawPolicyParams,
    band_record,
    constrain,
    parse_band,
    policy_eval,
    sample_raw_params,
)
from .policy import _ramp_grads, _ramp_pass, _sorted_rows
from .util import fmt, json_floats, keep_freed_memory


class TrainingDiverged(RuntimeError):
    """Raised when an update produces a non-finite loss or gradient."""


# ---------------------------------------------------------------------------
# feedforward networks
# ---------------------------------------------------------------------------

class FeedForwardNet:
    """Affine layers with ReLU hidden activations and a linear output.

    A net has (fan_in, fan_out) weights and (fan_out,) biases; a stack of A
    nets of one shape (``stack``) has (A, fan_in, fan_out) weights and
    (A, 1, fan_out) biases and runs on (A, m, d) batches, each agent's slice
    bit for bit as its own net would. The passes below read layer shapes
    from the end and compute in the dtype of the net's parameters.
    """

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

    @classmethod
    def stack(cls, nets):
        """One stacked net whose agent i is ``nets[i]``."""
        return cls([np.stack(ws) for ws in zip(*(n.weights for n in nets))],
                   [np.stack(bs)[:, None, :]
                    for bs in zip(*(n.biases for n in nets))])

    def agent(self, i):
        """Agent i of a stack as a net of views: its steps move the stack."""
        return FeedForwardNet([w[i] for w in self.weights],
                              [b[i, 0] for b in self.biases])

    def block(self, agents):
        """The agents of slice ``agents`` as a stack of views."""
        return FeedForwardNet([w[agents] for w in self.weights],
                              [b[agents] for b in self.biases])

    @property
    def dtype(self):
        return self.weights[0].dtype

    def astype(self, dtype):
        """A copy with every parameter array cast to ``dtype``."""
        return FeedForwardNet([w.astype(dtype) for w in self.weights],
                              [b.astype(dtype) for b in self.biases])

    def copy(self):
        return self.astype(self.dtype)

    def arrays(self):
        """Every parameter array: the weights, then the biases."""
        return (*self.weights, *self.biases)


def net_eval(net, x):
    """Forward pass; accepts (..., d_in) batches or a single (d_in,) vector."""
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[-1] != net.weights[0].shape[-2]:
        raise ValueError(f"input width {h.shape[-1]} does not match network "
                         f"input {net.weights[0].shape[-2]}")
    for h in _layers(net, h):     # only the newest layer stays alive
        pass
    return h[0] if single else h


def _layers(net, h):
    """Yield each layer's activations on a batch in turn: hidden..., output."""
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        # a fan-in-1 layer is an outer product: each entry is one multiply,
        # the value BLAS gives, at about a third of its cost
        h = h * w if w.shape[-2] == 1 else h @ w
        h += b
        if k < last:
            np.maximum(h, 0.0, out=h)
        yield h


def _forward(net, h):
    """Every layer's activations on a batch: [input, hidden..., output]."""
    h = np.asarray(h, dtype=net.dtype)
    return [h, *_layers(net, h)]


def _backward(net, acts, upstream, param_grads=True, input_grad=True,
              release=False):
    """Reverse pass through the activations of ``_forward``.

    Returns (parameter grads, input grad); the parameter grads are None when
    ``param_grads`` is false, and the input grad is None, its product
    skipped, when ``input_grad`` is false. A hidden unit passes gradient
    where its activation is positive, which is where its pre-activation was.
    A caller that owns ``acts`` may ``release`` each hidden activation once
    its mask is applied.
    """
    last = len(net.weights) - 1
    grads = [None] * len(net.weights) if param_grads else None
    delta = np.asarray(upstream, dtype=net.dtype)
    for k in range(last, -1, -1):
        if k < last:
            delta *= acts[k + 1] > 0.0      # delta is a fresh product here
            if release:
                acts[k + 1] = None
        if param_grads:
            grads[k] = (acts[k].swapaxes(-1, -2) @ delta,
                        delta.sum(axis=-2).reshape(net.biases[k].shape))
        if k == 0 and not input_grad:
            return grads, None
        w = net.weights[k]
        # through a fan-out-1 layer the product is again an outer product
        w_t = w.swapaxes(-1, -2)
        delta = delta * w_t if w.shape[-1] == 1 else delta @ w_t
    return grads, delta


def net_backprop(net, x, upstream):
    """Reverse-mode pass. Returns (parameter grads, input grad).

    ``upstream`` holds d(objective)/d(output) per sample; parameter grads are
    summed over the batch, the input grad keeps its per-sample shape.
    """
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == 1
    h = x[None, :] if single else x
    upstream = np.asarray(upstream, dtype=net.dtype)
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
    agent_scope: str = "local"          # monotone actor's critic: per bus
                                        # ('local') or one over all ('joint')
    critic_hidden: tuple = (100, 100)
    actor_hidden: tuple = (100, 100)    # unconstrained baseline actor
    actor_units: int = 16               # ramp units per side, monotone actor
    eps: float = 1e-3

    def __post_init__(self):
        for name in ("actor_lr", "critic_lr", "eps"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch size cannot exceed buffer capacity")
        for name in ("noise_std", "noise_clip_sigmas"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if self.updates_per_episode < 0:
            raise ValueError("updates_per_episode must be nonnegative")
        for name in ("critic_hidden", "actor_hidden"):
            if not all(size >= 1 for size in getattr(self, name)):
                raise ValueError(f"{name} sizes must be at least 1")
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
        return sample_scenario(kind, self.n, rng)

    def per_bus_reward(self, v, u):
        """Negated per-bus stage cost, elementwise over any leading axes."""
        dev = band_violation(v, self.bounds)
        return -(self.cp.eta1 * dev ** 2 + self.cp.eta2 * u ** 2)


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

def critic_update(critic, critic_target, batch, u_next, cfg):
    """One SGD step on the squared temporal-difference error.

    ``batch`` is (s, u, r, s_next) with (m, d) arrays, or (A, m, d) arrays
    for a stack of A critics, and ``u_next`` holds the target policy's
    actions at s_next; the bootstrap target r + gamma * Q_target(s', u_next)
    is held fixed. Returns each agent's pre-step loss, a float64 scalar for
    one critic and an (A,) array for a stack, reduced in float64 whatever
    the critic's dtype, so that its finiteness check is not bounded by the
    range of float32.
    """
    s, u, r, s_next = batch
    q_next = net_eval(critic_target, np.concatenate([s_next, u_next], axis=-1))
    y = r + cfg.gamma * q_next
    acts = _forward(critic, np.concatenate([s, u], axis=-1))
    err = acts[-1] - y
    losses = np.mean(np.square(err, dtype=float), axis=(-2, -1))
    if not np.isfinite(losses).all():
        raise TrainingDiverged("temporal-difference loss is not finite")
    upstream = 2.0 * err / err.shape[-2]
    grads, _ = _backward(critic, acts, upstream, input_grad=False,
                         release=True)
    sgd_step(critic, grads, cfg.critic_lr)
    return losses


def q_action_grad(critic, s, u):
    """Critic value and its gradient with respect to the action block.

    ``s`` and ``u`` are (m, d) blocks, or (A, m, d) for a stack of A
    critics; the action occupies the trailing columns of the critic input,
    and dQ/du has the shape of ``u``. The backward pass skips the parameter
    gradients. A non-finite gradient raises TrainingDiverged before any
    actor takes a step along it.
    """
    acts = _forward(critic, np.concatenate([s, u], axis=-1))
    q = acts[-1]
    _, input_grad = _backward(critic, acts, np.ones_like(q),
                              param_grads=False, release=True)
    dq_du = input_grad[..., s.shape[-1]:]
    if not np.isfinite(dq_du).all():
        raise TrainingDiverged("critic action gradient is not finite")
    return q, dq_du


def stable_actor_update(raw, ramps, dq_du, lr):
    """Ascend the critic through the constraint map for every bus at once.

    ``ramps`` is the ``_ramp_pass`` on the (m, n) state batch of the
    controller ``raw`` constrains to, and ``dq_du`` is (m, n). The step is
    one vector-Jacobian product: dQ/du contracts each (m, n, d) ramp array
    to its (n, d) batch mean, which ``_ramp_grads`` maps to the mean
    gradient. Updates ``raw`` in place and returns the applied gradient
    norm of each bus, shape (n,).
    """
    m = len(dq_du)
    dq = dq_du.T[:, None, :].astype(float)                      # (n, 1, m)
    means = [[(dq @ a.transpose(1, 0, 2))[:, 0] / m for a in pair]
             for pair in ramps]
    total = 0.0
    for arr, g in zip(raw.arrays(), _ramp_grads(raw, means)):
        arr += lr * g
        total = total + row_dot(g, g)
    return np.sqrt(total)


def net_actor_update(actor, acts, dq_du, lr):
    """Deterministic policy-gradient ascent for one unconstrained actor.

    ``acts`` is ``_forward(actor, v_batch)`` on an (m, d) batch, the pass
    whose output gave the actions at which ``dq_du`` was taken; the step
    backpropagates through it instead of running the forward pass again.
    Returns the gradient norm (an (A,) array for a stack of A actors on
    (A, m, d) batches), reduced in float64 whatever the actor's dtype.
    """
    grads, _ = _backward(actor, acts, dq_du / acts[0].shape[-2],
                         input_grad=False)
    sgd_step(actor, grads, -lr)
    lead = acts[0].shape[:-2]
    return np.sqrt(sum(np.square(dw, dtype=float).reshape(*lead, -1).sum(-1)
                       + np.square(db, dtype=float).reshape(*lead, -1).sum(-1)
                       for dw, db in grads))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _block_round(nets, rows, block, cfg):
    """One update round of the agents of slice ``block``, in stacked passes
    on their slices of the ``nets`` (the critic stack, its target, then the
    MLP actors and theirs) and their rows of the per-agent ``rows`` (s, u,
    r, s_next and the monotone actor's u_next, u), copied C-contiguous:
    strided rows take a fan-in-1 layer's weight gradient off BLAS. Returns
    the TD losses and the MLP actors' gradient norms or the monotone dQ/du.
    """
    critic, critic_target, *actors = (x.block(block) for x in nets)
    batch = tuple(np.ascontiguousarray(x[block]) for x in rows)
    s, s_next = batch[0], batch[3]
    u_next, u = batch[4:] or (net_eval(actors[1], s_next), None)
    losses = critic_update(critic, critic_target, batch[:4], u_next, cfg)
    if not actors:
        return losses, q_action_grad(critic, s, u)[1]
    acts = _forward(actors[0], s)
    _, dq = q_action_grad(critic, s, acts[-1])
    return losses, net_actor_update(actors[0], acts, dq, cfg.actor_lr)


AGENT_BLOCK = 4     # train-mlp-16bus: +48% updates/s, +6% RSS (8: +19% RSS)
NET_CHECKPOINT_VERSION = 1


def save_net_policy(path, actor, band, meta=None):
    """Persist the perceptron policy, a stack of one 1 -> 1 net per bus."""
    data = {
        "format_version": NET_CHECKPOINT_VERSION,
        "kind": "mlp",
        "band": band_record(band),
        "nets": [{"weights": [w.tolist() for w in net.weights],
                  "biases": [b.tolist() for b in net.biases]}
                 for net in map(actor.agent, range(len(actor.weights[0])))],
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
    """``load_net_policy`` on parsed ``data``: (the ``PieceTable`` of the
    nets' walked pieces, band); every defect raises ``CheckpointError``."""
    if not isinstance(data, dict) or data.get("kind") != "mlp" or \
            type(data.get("format_version")) is not int or \
            data["format_version"] != NET_CHECKPOINT_VERSION:
        raise CheckpointError(f"not an mlp policy checkpoint: {path}")
    try:
        nets = [FeedForwardNet(
            [json_floats(w) for w in entry["weights"]],
            [json_floats(b) for b in entry["biases"]])
            for entry in data["nets"]]
        band = parse_band(data["band"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if len(nets) != len(band[0]):
        raise CheckpointError(f"checkpoint has {len(nets)} nets for "
                              f"{len(band[0])} buses, one 1 -> 1 net per bus")
    for k, net in enumerate(nets):
        ws, bs = net.weights, net.biases
        if not (ws and len(ws) == len(bs)
                and all(w.ndim == 2 and b.shape == (w.shape[1],)
                        for w, b in zip(ws, bs))
                and all(a.shape[1] == b.shape[0] for a, b in zip(ws, ws[1:]))
                and ws[0].shape[0] == 1 == ws[-1].shape[1]):
            raise CheckpointError(f"net {k} is not a consistent 1 -> 1 "
                                  f"network")
        if not all(np.isfinite(a).all() for a in net.arrays()):
            raise CheckpointError(f"net {k} has a non-finite weight or bias")
        if [w.shape for w in ws] != [w.shape for w in nets[0].weights]:
            raise CheckpointError(f"net {k} has other layer sizes than net 0")
    pieces = _NetPolicy(FeedForwardNet.stack(nets)).breakpoints(band)
    return PieceTable(*pieces, band), band


@dataclass
class TrainResult:
    policy: object
    log: list
    raw: RawPolicyParams = None
    init_raw: RawPolicyParams = None
    diverged_episodes: int = 0
    updates: int = 0          # minibatch update rounds run


class _NetPolicy:
    """Vector policy backed by a stack of one 1 -> 1 perceptron per bus."""

    def __init__(self, actor):
        self.actor = actor
        # one (1, 1) row per voltage, so a batch gives row-by-row bits
        self._rows = FeedForwardNet([w[:, None] for w in actor.weights],
                                    [b[:, None] for b in actor.biases])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        x = v.reshape(-1, v.shape[-1]).T[:, :, None, None]     # (n, S, 1, 1)
        return net_eval(self._rows, x)[:, :, 0, 0].T.reshape(v.shape)

    def input_grad(self, v):
        """Slope du_i/dv_i of each bus at (n,) or (S, n) voltages, from one
        backward pass per bus's net, so only one bus's activations are
        alive at a time. u_i reads only v_i, so the Jacobian is diagonal
        and these slopes are all of it."""
        v = np.asarray(v, dtype=float)
        x = v.reshape(-1, v.shape[-1]).T[:, :, None]           # (n, S, 1)
        grad = np.empty(x.shape, self.actor.dtype)
        for i, x_i in enumerate(x):
            net = self.actor.agent(i)
            _, grad[i] = _backward(net, _forward(net, x_i),
                                   np.ones_like(x_i), param_grads=False)
        return grad[:, :, 0].T.reshape(v.shape)

    def breakpoints(self, edges):
        """``policy._breakpoints``'s piece table over the nets' kinks and
        the ``edges``, found exactly layer by layer (ExactLine, arXiv
        1908.06214): between the earlier layers' kinks each pre-activation
        is affine in v, so one division places its zero. Slopes come from
        ``input_grad`` inside each piece, the tails' one unit out. The
        layers and the values run in blocks of ``AGENT_BLOCK`` buses, so
        only one block's activations are alive at a time."""
        pts = np.sort(np.vstack(edges), axis=0)
        blocks = [slice(i, i + AGENT_BLOCK)
                  for i in range(0, pts.shape[1], AGENT_BLOCK)]
        w, b = self.actor.weights, self.actor.biases
        for k in range(1, len(w)):
            x = np.vstack([pts[0] - 1.0, pts, pts[-1] + 1.0]).T[:, :, None]
            front = FeedForwardNet(w[:k], b[:k])
            zeros = [_kinks(front.block(bl), x[bl]) for bl in blocks]
            found = np.full((len(x), max(z.shape[1] for z in zeros)), np.inf)
            for bl, z in zip(blocks, zeros):
                found[bl, :z.shape[1]] = z
            # a bus with fewer zeros parks its spare rows on the last edge
            pts = np.sort(np.vstack(
                [pts, np.where(np.isinf(found.T), edges[-1], found.T)]), axis=0)
        pts = _sorted_rows([pts])
        # a row's slope is read inside the next piece of nonzero width
        after = np.vstack([pts[1:], np.full(pts.shape[1], np.inf)])
        nxt = np.minimum.accumulate(
            np.where(after > pts, after, np.inf)[::-1])[::-1]
        mid = np.where(np.isinf(nxt), pts + 1.0, 0.5 * (pts + nxt))
        mid[0] = pts[1] - 1.0
        u = np.hstack([_NetPolicy(self.actor.block(bl))(pts[:, bl])
                       for bl in blocks])
        return pts, u, self.input_grad(mid)


def _kinks(net, x):
    """Each net's last-layer pre-activation zeros (the next layer's kinks)
    between its sorted (R, 1) points of the (A, R, 1) ``x``, sorted and
    inf-padded to the net with the most."""
    z = net_eval(net, x)
    # a zero counts inside its piece; the tails run out to -+inf
    ends = x.copy()
    ends[:, 0], ends[:, -1] = -np.inf, np.inf
    x0, z0 = x[:, :-1], z[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = x0 - z0 * np.diff(x, axis=1) / np.diff(z, axis=1)
        inside = (root > ends[:, :-1]) & (root < ends[:, 1:])
    zeros = np.where(inside, root, np.inf).reshape(len(x), -1)
    return np.sort(zeros, axis=1)[:, :inside.sum(axis=(1, 2)).max()]


def write_training_log(log, path):
    with open(path, "w") as fh:
        fh.write("episode,return,td_loss_mean,grad_norms\n")
        for row in log:
            fh.write(f"{row['episode']},{fmt(row['return'])},"
                     f"{fmt(row['td_loss_mean'])},{fmt(row['grad_norms'])}\n")


def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or
    None for a numpy built against another BLAS."""
    with contextlib.suppress(ImportError, OSError, AttributeError):
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        return (lib.scipy_openblas_get_num_threads64_,
                lib.scipy_openblas_set_num_threads64_)
    return None


def blas_meta():
    """numpy's BLAS library and the thread count ``train`` runs it at: 1
    where ``_one_blas_thread`` pins it, else None for the library's own
    count, which numpy cannot read."""
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1 if _openblas_threads() else None}


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block, since
    threaded products of either dtype round differently by thread count; a
    numpy built against another BLAS runs unpinned."""
    get, put = _openblas_threads() or ((lambda: 1), (lambda threads: None))
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    with contextlib.suppress(AttributeError):     # no affinity off Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _agent_map(blocks):
    """Yield a ``map`` over ``blocks`` agent blocks that returns results in
    block order and raises the lowest block's exception: on a thread pool
    of one worker per usable CPU, shut down when the block ends, or the
    builtin ``map`` with no thread for one agent block or one CPU."""
    workers = min(blocks, _usable_cpus())
    if workers < 2:
        yield map
        return
    # imported here: gridvolt's import path stays free of concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        yield pool.map


@_one_blas_thread()
def train(env, cfg, actor_kind="stable", episode_callback=None):
    """Run episodic training and return the final greedy policy plus a log.

    Per episode: draw a disturbance scenario and roll the greedy policy plus
    clipped Gaussian noise for ``episode_len`` steps on the closed-loop
    engine (``rollout``, one scenario of ``rollout_batch``). The engine cuts
    an episode whose voltages blow up or whose action is not finite; it
    counts as diverged and keeps the steps before the cut. The recorded
    steps become per-bus transitions in the replay buffer; then come batched
    critic/actor updates, each round closed by one target update per stack.
    A round steps the agents in blocks of ``AGENT_BLOCK``, one stacked pass
    per block, on a worker thread per usable CPU (``_agent_map``); the
    monotone actor's ramp pass and step stay one call per round.
    Deterministic under ``cfg.seed`` at any BLAS thread count (see
    ``_one_blas_thread``) and any CPU count.
    """
    if actor_kind not in ("stable", "unconstrained"):
        raise ValueError(f"unknown actor kind {actor_kind!r}")
    if actor_kind == "unconstrained" and cfg.agent_scope == "joint":
        raise ValueError("agent_scope='joint' picks the monotone actor's "
                         "critic; actor_kind='unconstrained' trains one "
                         "local net per bus")
    # a block's round frees about A x 0.9 MB of (A, batch, hidden) float32
    # arrays on its worker thread, A <= AGENT_BLOCK, each under 4 MB; an
    # 8 MB trim threshold returned a 16-agent stacked round's temporaries
    # (1,900 pages) to the kernel
    keep_freed_memory()
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

    # agents: one per bus column in local scope, the whole feeder for the
    # monotone actor's joint critic; an (m, n) block maps to the
    # (A, m, dim) per-agent block (a view)
    dim, agents = (n, 1) if joint else (1, n)

    def per_agent(block):
        return block.reshape(len(block), agents, dim).swapaxes(0, 1)

    # the critics only supply dQ/du and are dropped after training, so they
    # run in float32 (drawn in float64 from the seeded stream, one agent
    # after another, then stacked and cast); the replay buffer and the
    # logged losses and gradient norms stay float64
    critic = FeedForwardNet.stack(
        [FeedForwardNet.create([2 * dim, *cfg.critic_hidden, 1], init_rng)
         for _ in range(agents)]).astype(np.float32)
    critic_target = critic.copy()

    raw = init_raw = actor = None
    if actor_kind == "stable":
        raw = online = sample_raw_params(n, cfg.actor_units, init_rng,
                                         eps=cfg.eps)
        init_raw = raw.copy()
    else:
        # the perceptron baseline's actors train in float32 too
        actor = online = FeedForwardNet.stack(
            [FeedForwardNet.create([1, *cfg.actor_hidden, 1], init_rng)
             for _ in range(n)]).astype(np.float32)
    target = online.copy()      # the actor's slowly tracking copy
    nets = ((critic, critic_target) if actor is None
            else (critic, critic_target, actor, target))

    def greedy_policy():
        # the actor only changes in the update phase, so one build serves a
        # whole episode's collection; the MLP policy holds the float32
        # weights as float64 values, exactly what its checkpoint saves
        return (MonotonePolicy.from_raw(raw, band, cfg.eps) if actor is None
                else _NetPolicy(actor.astype(np.float64)))

    log = []
    diverged_episodes = 0
    updates = 0
    clip = cfg.noise_clip_sigmas * cfg.noise_std
    blocks = [slice(i, i + AGENT_BLOCK) for i in range(0, agents, AGENT_BLOCK)]

    with _agent_map(len(blocks)) as agent_map:
        for episode in range(cfg.episodes):
            v_env, q0 = env.sample_start(scen_rng)
            greedy = greedy_policy()

            def noisy(v):
                return greedy(v) + np.clip(noise_rng.normal(
                    0.0, cfg.noise_std, size=v.shape), -clip, clip)

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
                    rows = [per_agent(v_b), per_agent(u_b),
                            r_b.sum(axis=1, keepdims=True)[None] if joint
                            else per_agent(r_b), per_agent(vn_b)]
                    if actor is None:
                        # the actions and the step's ramps from one ramp
                        # pass, the target actions from one policy_eval
                        u, ramps = _ramp_pass(constrain(raw, band, cfg.eps),
                                              v_b)
                        rows += [per_agent(policy_eval(
                            constrain(target, band, cfg.eps), vn_b)),
                            per_agent(u)]
                    losses, outs = zip(*agent_map(
                        lambda b: _block_round(nets, rows, b, cfg), blocks))
                    td_losses.extend(np.concatenate(losses))
                    if actor is None:
                        dq = np.concatenate(outs).swapaxes(0, 1)
                        norms = stable_actor_update(
                            raw, ramps, dq.reshape(u.shape), cfg.actor_lr)
                        grad_norms.extend([np.sqrt(sum(norms ** 2))] if joint
                                          else norms)
                        # freed before the next round's ramp pass
                        del ramps
                    else:
                        grad_norms.extend(np.concatenate(outs))
                    # no round reads a target after its critic step, and
                    # the updates are elementwise: one per stack serves all
                    soft_update(critic_target, critic, cfg.tau)
                    soft_update(target, online, cfg.tau)

            log.append({"episode": episode, "return": ep_return,
                        "td_loss_mean": float(np.mean(td_losses or [0.0])),
                        "grad_norms": float(np.mean(grad_norms or [0.0]))})
            if episode_callback is not None:
                episode_callback(episode, online)

    final = greedy_policy()
    return TrainResult(policy=final, log=log, raw=raw, init_raw=init_raw,
                       diverged_episodes=diverged_episodes,
                       updates=updates)

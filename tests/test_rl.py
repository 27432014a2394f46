import itertools
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

import gridvolt
from gridvolt import rl
from gridvolt.dynamics import CostParams, stage_cost
from gridvolt.grid import (
    build_sensitivity,
    five_bus_fixture,
    generate_random_feeder,
)
from gridvolt.policy import (
    CheckpointError,
    MonotonePolicy,
    PieceTable,
    RawPolicyParams,
    constrain,
    load_checkpoint,
    policy_eval,
    policy_eval_bus,
    policy_param_grad,
    sample_raw_params,
    save_checkpoint,
    verify_monotone,
)
from gridvolt.rl import (
    FeedForwardNet,
    ReplayBuffer,
    TrainConfig,
    TrainingDiverged,
    VoltEnv,
    critic_update,
    load_net_policy,
    net_actor_update,
    net_backprop,
    net_eval,
    q_action_grad,
    save_net_policy,
    sgd_step,
    soft_update,
    stable_actor_update,
    train,
    write_training_log,
)
from gridvolt.policy import _ramp_pass
from gridvolt.rl import _backward, _forward

NET = five_bus_fixture()
X5 = build_sensitivity(NET).X
BOUNDS = NET.bounds()


def discounted_stage_cost(runs, gamma=TrainConfig().gamma):
    """Sum over the run's steps of gamma^t times the stage cost."""
    k = runs.steps[0]
    costs = stage_cost(runs.v[:k, 0], runs.u[:k, 0], BOUNDS, CostParams())
    return sum((gamma ** t) * c for t, c in enumerate(costs))


def make_env():
    return VoltEnv(X=X5, v_lower=BOUNDS[0], v_upper=BOUNDS[1],
                   cp=CostParams())


def feeder_env(buses, seed=0):
    """The training environment of ``generate_random_feeder(buses, seed)``."""
    net = generate_random_feeder(buses, rng_seed=seed)
    band = net.bounds()
    return VoltEnv(X=build_sensitivity(net).X, v_lower=band[0],
                   v_upper=band[1], cp=CostParams())


def small_cfg(**over):
    base = dict(episodes=6, episode_len=10, batch_size=16,
                updates_per_episode=2, critic_hidden=(16, 16),
                actor_hidden=(16, 16), actor_units=6, seed=0)
    base.update(over)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# feedforward nets
# ---------------------------------------------------------------------------

def reference_forward(net, x):
    """Independent straight-line recomputation of the forward pass."""
    h = np.asarray(x, dtype=net.dtype)
    for k in range(len(net.weights)):
        z = h @ net.weights[k] + net.biases[k]
        h = z if k == len(net.weights) - 1 else np.where(z > 0, z, 0.0)
    return h


def test_net_zero_weights_outputs_bias():
    rng = np.random.default_rng(0)
    net = FeedForwardNet.create([3, 8, 2], rng)
    for w in net.weights:
        w[:] = 0.0
    net.biases[0][:] = 0.0
    net.biases[1][:] = [1.5, -2.0]
    out = net_eval(net, np.zeros(3))
    np.testing.assert_array_equal(out, [1.5, -2.0])


def test_net_identity_single_layer():
    net = FeedForwardNet([np.eye(4)], [np.zeros(4)])
    x = np.arange(4.0)
    np.testing.assert_array_equal(net_eval(net, x), x)


def test_net_matches_reference():
    rng = np.random.default_rng(1)
    for sizes in ([2, 5, 1], [3, 16, 16, 2], [1, 100, 100, 1]):
        net = FeedForwardNet.create(sizes, rng)
        x = rng.normal(size=(7, sizes[0]))
        np.testing.assert_allclose(net_eval(net, x), reference_forward(net, x),
                                   atol=1e-12)


@pytest.mark.parametrize("shape", [(3,), (6, 1, 3)])
def test_net_eval_is_the_last_forward_layer_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    net = FeedForwardNet.create([3, 16, 16, 2], rng)
    x = rng.normal(size=shape)
    before = x.copy()
    got = net_eval(net, x)
    h = x if x.ndim > 1 else x[None, :]
    want = _forward(net, h)[-1]
    want = want if x.ndim > 1 else want[0]
    assert got.shape == want.shape == shape[:-1] + (2,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the straight-line layer arithmetic, one layer at a time
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        h = np.maximum(h, 0.0) if k < len(net.weights) - 1 else h
    h = h if x.ndim > 1 else h[0]
    np.testing.assert_array_equal(got.view(np.uint64), h.view(np.uint64))
    np.testing.assert_array_equal(x, before)


def test_net_shape_mismatch():
    net = FeedForwardNet.create([3, 4, 1], np.random.default_rng(2))
    with pytest.raises(ValueError, match="input width"):
        net_eval(net, np.zeros(5))


def test_backprop_linear_input_grad():
    w = np.array([[2.0, 0.0], [0.5, -1.0], [0.0, 3.0]])
    net = FeedForwardNet([w.copy()], [np.zeros(2)])
    _, gin = net_backprop(net, np.array([1.0, 2.0, 3.0]),
                          np.array([1.0, 1.0]))
    np.testing.assert_allclose(gin, w.sum(axis=1))


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = FeedForwardNet.create([2, 12, 12, 1], rng)
    x = rng.normal(size=(5, 2))
    upstream = rng.normal(size=(5, 1))
    grads, gin = net_backprop(net, x, upstream)

    def objective(n):
        return float((net_eval(n, x) * upstream).sum())

    h = 1e-6
    for k in range(len(net.weights)):
        for arr, g in ((net.weights[k], grads[k][0]),
                       (net.biases[k], grads[k][1])):
            flat = arr.reshape(-1)
            probes = np.random.default_rng(10 + k).choice(
                flat.size, size=min(6, flat.size), replace=False)
            for j in probes:
                old = flat[j]
                flat[j] = old + h
                up = objective(net)
                flat[j] = old - h
                dn = objective(net)
                flat[j] = old
                fd = (up - dn) / (2 * h)
                assert fd == pytest.approx(g.reshape(-1)[j],
                                           rel=1e-4, abs=1e-8)
    # input gradient
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            old = x[i, j]
            x[i, j] = old + h
            up = objective(net)
            x[i, j] = old - h
            dn = objective(net)
            x[i, j] = old
            assert (up - dn) / (2 * h) == pytest.approx(gin[i, j],
                                                        rel=1e-4, abs=1e-8)


def test_backprop_dead_relu_zero_grads():
    net = FeedForwardNet([np.array([[1.0]]), np.array([[1.0]])],
                         [np.array([-5.0]), np.array([0.0])])
    # hidden unit is dead for small positive inputs
    grads, gin = net_backprop(net, np.array([[1.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(grads[0][0], 0.0)
    np.testing.assert_array_equal(grads[0][1], 0.0)
    np.testing.assert_array_equal(gin, 0.0)


def reference_backprop(net, x, upstream):
    """Reverse pass that keeps the pre-activations and masks on them.

    Parameter grads are summed over a 2-d batch only; a stacked batch gets
    the input grad alone.
    """
    acts, pre = [x], []
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if k < last else z)
    grads = [None] * len(net.weights)
    delta = upstream
    for k in range(last, -1, -1):
        if k < last:
            delta = delta * (pre[k] > 0.0)
        if x.ndim == 2:
            grads[k] = (acts[k].T @ delta, delta.sum(axis=0))
        delta = delta @ net.weights[k].T
    return grads, delta


def critic_with_dead_units(sizes, rng):
    """A critic whose even hidden units never fire and some sit exactly at 0.

    With zero biases on every fourth unit, an all-zero input row gives those
    units a pre-activation of exactly 0.0, the edge of the ReLU mask.
    """
    net = FeedForwardNet.create(sizes, rng)
    for b in net.biases[:-1]:
        b[::2] = -1e3
        b[1::4] = 0.0
    return net


def critic_cases():
    rng = np.random.default_rng(21)
    for sizes in ([2, 16, 1], [2, 16, 16, 1], [4, 12, 10, 8, 1]):
        for dead in (False, True):
            make = critic_with_dead_units if dead else FeedForwardNet.create
            critic = make(sizes, rng)
            m, half = 24, sizes[0] // 2
            batch = (rng.uniform(0.9, 1.1, size=(m, half)),
                     rng.normal(scale=0.5, size=(m, half)),
                     rng.normal(size=(m, 1)),
                     rng.uniform(0.9, 1.1, size=(m, half)))
            if dead:
                batch[0][0] = 0.0
                batch[1][0] = 0.0
            yield critic, batch, rng.normal(scale=0.5, size=(m, half))


def test_backprop_equals_pre_activation_reference():
    for critic, (s, u, _, _), _ in critic_cases():
        x = np.hstack([s, u])
        upstream = np.random.default_rng(3).normal(size=(len(x), 1))
        grads, gin = net_backprop(critic, x, upstream)
        ref_grads, ref_gin = reference_backprop(critic, x, upstream)
        np.testing.assert_array_equal(gin, ref_gin)
        for (dw, db), (rw, rb) in zip(grads, ref_grads):
            np.testing.assert_array_equal(dw, rw)
            np.testing.assert_array_equal(db, rb)


def actor_cases(dtype):
    """Local-scope MLP actors, whose first layer has fan-in 1 and whose
    last has fan-out 1, with and without dead units and exact zeros."""
    rng = np.random.default_rng(31)
    for dead in (False, True):
        make = critic_with_dead_units if dead else FeedForwardNet.create
        net = make([1, 16, 16, 1], rng).astype(dtype)
        x = rng.uniform(0.9, 1.1, size=(24, 1))
        upstream = rng.normal(size=(24, 1))
        if dead:
            x[0] = 0.0
            upstream[1] = 0.0
        yield net, x.astype(dtype), upstream.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fan_in_one_passes_equal_the_blas_reference(dtype):
    # fan-in-1 forward and fan-out-1 backward products are broadcasts with
    # one multiply per entry; they are compared as values, because an
    # exactly zero product keeps its sign there and is +0.0 from BLAS
    for net, x, upstream in actor_cases(dtype):
        out = net_eval(net, x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, reference_forward(net, x))
        grads, gin = net_backprop(net, x, upstream)
        ref_grads, ref_gin = reference_backprop(net, x, upstream)
        assert gin.dtype == dtype
        np.testing.assert_array_equal(gin, ref_gin)
        for (dw, db), (rw, rb) in zip(grads, ref_grads):
            np.testing.assert_array_equal(dw, rw)
            np.testing.assert_array_equal(db, rb)
        # a CLI batch feeds each row as its own (1, 1) input
        x3, up3 = x[:, :, None], upstream[:, :, None]
        np.testing.assert_array_equal(net_eval(net, x3),
                                      reference_forward(net, x3))
        _, gin3 = _backward(net, _forward(net, x3), up3, param_grads=False)
        np.testing.assert_array_equal(gin3,
                                      reference_backprop(net, x3, up3)[1])


# ---------------------------------------------------------------------------
# soft updates
# ---------------------------------------------------------------------------

def test_soft_update_extremes():
    rng = np.random.default_rng(4)
    src = FeedForwardNet.create([2, 4, 1], rng)
    tgt = FeedForwardNet.create([2, 4, 1], rng)
    keep = tgt.copy()
    soft_update(tgt, src, tau=0.0)
    for a, b in zip(tgt.weights, keep.weights):
        np.testing.assert_array_equal(a, b)
    soft_update(tgt, src, tau=1.0)
    for a, b in zip(tgt.weights, src.weights):
        np.testing.assert_array_equal(a, b)


def test_soft_update_two_halves():
    t0 = FeedForwardNet([np.array([[1.0]])], [np.array([0.0])])
    src = FeedForwardNet([np.array([[5.0]])], [np.array([4.0])])
    soft_update(t0, src, 0.5)
    soft_update(t0, src, 0.5)
    assert t0.weights[0][0, 0] == pytest.approx(0.25 * 1.0 + 0.75 * 5.0)
    assert t0.biases[0][0] == pytest.approx(0.75 * 4.0)


def test_soft_update_raw_params():
    tgt = RawPolicyParams(*(np.zeros((2, 3)) for _ in range(4)))
    src = RawPolicyParams(*(np.ones((2, 3)) for _ in range(4)))
    soft_update(tgt, src, 0.25)
    np.testing.assert_allclose(tgt.slope_pos, 0.25)


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

def tr(val):
    """A one-row block of transitions whose every field holds ``val``."""
    arr = np.array([[float(val)]])
    return arr, arr, arr, arr


def snapshot(buf):
    """The buffer's four field arrays oldest first; empty before the first
    push."""
    order = (buf._pushed + np.arange(-len(buf), 0)) % buf.capacity
    return tuple(arr[order] for arr in buf._fields or ())


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=5, seed=0)
    for k in range(8):
        buf.push(*tr(k))
    assert len(buf) == 5
    held = list(snapshot(buf)[0][:, 0])
    assert held == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_buffer_rejects_oversample():
    buf = ReplayBuffer(capacity=5, seed=0)
    buf.push(*tr(1))
    with pytest.raises(ValueError, match="cannot sample"):
        buf.sample(2)


def test_buffer_uniform_sampling():
    k = 10
    buf = ReplayBuffer(capacity=k, seed=123)
    for i in range(k):
        buf.push(*tr(i))
    draws = 100_000
    counts = np.zeros(k)
    for _ in range(draws // k):
        v, _, _, _ = buf.sample(k)
        idx = v[:, 0].astype(int)
        counts += np.bincount(idx, minlength=k)
    p = 1.0 / k
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


Row = namedtuple("Row", "v u r v_next")


class ListReplayBuffer:
    """A list of transitions stacked on sampling: the reference layout."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.items = []
        self.head = 0
        self.rng = np.random.default_rng(seed)

    def push(self, t):
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.head] = t
            self.head = (self.head + 1) % self.capacity

    def sample(self, batch_size):
        idx = self.rng.integers(0, len(self.items), size=batch_size)
        return tuple(np.stack([getattr(self.items[i], name) for i in idx])
                     for name in ("v", "u", "r", "v_next"))


def random_rows(rng, count, width=3):
    return [Row(*(rng.normal(size=width) for _ in range(4)))
            for _ in range(count)]


def push_rows(buf, ref, rows):
    """One block push into ``buf``; the same rows one at a time into ``ref``."""
    buf.push(*(np.array([getattr(t, name) for t in rows]).reshape(-1, 3)
               for name in Row._fields))
    for t in rows:
        ref.push(t)


def assert_same_contents(buf, ref):
    assert len(buf) == len(ref.items)
    oldest_first = ref.items[ref.head:] + ref.items[:ref.head]
    for got, name in zip(snapshot(buf), Row._fields, strict=True):
        want = [getattr(t, name) for t in oldest_first]
        np.testing.assert_array_equal(got, np.array(want).reshape(-1, 3))


@pytest.mark.parametrize("capacity, pushes", [
    (4096, 512),          # still filling
    (4096, 1324),         # filling across many blocks
    (1224, 3072),         # filled, then wrapped
    (50, 130),            # wrapped in the first blocks
], ids=["filling", "grown", "grown-wrapped", "small-wrapped"])
def test_buffer_sample_equals_list_reference(capacity, pushes):
    rng = np.random.default_rng(capacity + pushes)
    buf = ReplayBuffer(capacity, seed=9)
    ref = ListReplayBuffer(capacity, seed=9)
    rows = random_rows(rng, pushes)
    for k in range(0, pushes, 97):
        push_rows(buf, ref, rows[k:k + 97])
        for got, want in zip(buf.sample(32), ref.sample(32)):
            np.testing.assert_array_equal(got, want)
    assert len(buf) == len(ref.items) == min(capacity, pushes)
    assert_same_contents(buf, ref)


@pytest.mark.parametrize("blocks", [
    (0, 1, 30, 200),      # every block size in turn, starting empty
    (30,),                # one episode of the default length per push
    (1,),                 # one row per push
    (200, 0),             # blocks longer than the capacity of 150
], ids=["all-sizes", "episode", "one-row", "over-capacity"])
def test_buffer_block_push_equals_list_reference(blocks):
    capacity, total = 150, 700
    rng = np.random.default_rng(len(blocks))
    buf = ReplayBuffer(capacity, seed=4)
    ref = ListReplayBuffer(capacity, seed=4)
    rows = random_rows(rng, total)
    sizes = itertools.cycle(blocks)
    k = 0
    while k < total:
        size = next(sizes)
        push_rows(buf, ref, rows[k:k + size])
        k += size
        if not ref.items:
            assert len(buf) == 0 and snapshot(buf) == ()
            continue
        assert_same_contents(buf, ref)
        m = min(8, len(buf))
        for got, want in zip(buf.sample(m), ref.sample(m)):
            np.testing.assert_array_equal(got, want)
    assert len(buf) == capacity


def test_buffer_eviction_after_wrap():
    capacity = 1034
    buf = ReplayBuffer(capacity, seed=0)
    total = capacity + 500     # overwrites the oldest 500, keeps the rest
    for k in range(total):
        buf.push(*tr(k))
    assert len(buf) == capacity
    held = list(snapshot(buf)[0][:, 0])
    assert held == list(map(float, range(total - capacity, total)))


def test_buffer_rejects_mismatched_widths():
    buf = ReplayBuffer(capacity=5, seed=0)
    buf.push(*tr(1))
    arr = np.zeros((1, 2))
    with pytest.raises(ValueError, match="shapes"):
        buf.push(arr, arr, arr, arr)


def test_buffer_rejects_mismatched_block_lengths():
    buf = ReplayBuffer(capacity=5, seed=0)
    arr = np.zeros((2, 1))
    with pytest.raises(ValueError, match="length"):
        buf.push(arr, arr, arr, arr[:1])


def test_push_rejects_nonfinite():
    buf = ReplayBuffer(capacity=5, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        buf.push(np.array([[np.inf]]), np.zeros((1, 1)), np.zeros((1, 1)),
                 np.zeros((1, 1)))
    assert len(buf) == 0


# ---------------------------------------------------------------------------
# critic updates
# ---------------------------------------------------------------------------

def frozen_batch(rng, m=32):
    s = rng.uniform(0.9, 1.1, size=(m, 1))
    u = rng.normal(scale=0.5, size=(m, 1))
    r = np.full((m, 1), -2.0)
    return s, u, r, s.copy()


def test_critic_converges_to_constant_reward():
    # gamma = 0 turns TD learning into regression on the constant reward
    rng = np.random.default_rng(5)
    critic = FeedForwardNet.create([2, 16, 16, 1], rng)
    target = critic.copy()
    cfg = TrainConfig(gamma=0.0, critic_lr=0.3, batch_size=16)
    batch = frozen_batch(rng)

    u_next = np.zeros((len(batch[3]), 1))

    loss = None
    for _ in range(2000):
        loss = critic_update(critic, target, batch, u_next, cfg)
    assert loss < 1e-5
    q = net_eval(critic, np.hstack([batch[0], batch[1]]))
    np.testing.assert_allclose(q, -2.0, atol=0.01)


def test_critic_loss_nonnegative_and_duplicate_batch():
    rng = np.random.default_rng(6)
    critic = FeedForwardNet.create([2, 8, 1], rng)
    target = critic.copy()
    cfg = TrainConfig(gamma=0.9, critic_lr=1e-5, batch_size=16)

    one = (np.array([[1.02]]), np.array([[0.3]]), np.array([[-1.0]]),
           np.array([[1.01]]))
    loss_one = critic_update(critic.copy(), target, one, np.zeros((1, 1)), cfg)
    rep = tuple(np.repeat(a, 8, axis=0) for a in one)
    loss_rep = critic_update(critic.copy(), target, rep, np.zeros((8, 1)), cfg)
    assert loss_one >= 0.0
    assert loss_rep == pytest.approx(loss_one, rel=1e-12)


def reference_critic_update(critic, critic_target, batch, u_next, cfg):
    """The TD step composed from separate forward and backward passes."""
    s, u, r, s_next = batch
    y = r + cfg.gamma * net_eval(critic_target, np.hstack([s_next, u_next]))
    x = np.hstack([s, u])
    err = net_eval(critic, x) - y
    grads, _ = net_backprop(critic, x, 2.0 * err / len(err))
    sgd_step(critic, grads, cfg.critic_lr)
    return float(np.mean(err ** 2))


def reference_q_action_grad(critic, s, u):
    x = np.hstack([s, u])
    q = net_eval(critic, x)
    _, gin = net_backprop(critic, x, np.ones_like(q))
    return q, gin[:, s.shape[1]:]


def test_critic_update_bit_equals_reference():
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, batch_size=16)
    for critic, batch, u_next in critic_cases():
        target = critic.copy()
        ref = critic.copy()
        for _ in range(3):
            loss = critic_update(critic, target, batch, u_next, cfg)
            assert loss == reference_critic_update(ref, target, batch,
                                                   u_next, cfg)
        for a, b in zip(critic.weights + critic.biases,
                        ref.weights + ref.biases):
            np.testing.assert_array_equal(a, b)


def test_q_action_grad_bit_equals_reference():
    for critic, (s, u, _, _), _ in critic_cases():
        q, dq = q_action_grad(critic, s, u)
        q_ref, dq_ref = reference_q_action_grad(critic, s, u)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(dq, dq_ref)
        assert dq.shape == u.shape


def test_float32_critic_passes_bit_equal_reference_and_stay_float32():
    # a float32 critic runs the same code path in float32: its SGD steps and
    # soft updates keep every weight float32, and its TD loss is float64
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, batch_size=16)
    for critic, batch, u_next in critic_cases():
        critic = critic.astype(np.float32)
        target = critic.copy()
        ref = critic.copy()
        for _ in range(3):
            loss = critic_update(critic, target, batch, u_next, cfg)
            assert loss == reference_critic_update(ref, target, batch,
                                                   u_next, cfg)
            soft_update(target, critic, 0.3)
        for a, b, t in zip(critic.arrays(), ref.arrays(), target.arrays()):
            assert a.dtype == t.dtype == np.float32
            np.testing.assert_array_equal(a, b)
        s, u = batch[:2]
        q, dq = q_action_grad(critic, s, u)
        q_ref, dq_ref = reference_q_action_grad(critic, s, u)
        assert q.dtype == dq.dtype == np.float32
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(dq, dq_ref)


def test_float32_backprop_agrees_with_float64_of_the_same_weights():
    for critic, (s, u, _, _), _ in critic_cases():
        net32 = critic.astype(np.float32)
        x = np.hstack([s, u]).astype(np.float32)
        upstream = np.random.default_rng(3).normal(size=(len(x), 1))
        upstream = upstream.astype(np.float32)
        grads32, gin32 = net_backprop(net32, x, upstream)
        grads64, gin64 = net_backprop(net32.astype(np.float64), x, upstream)
        pairs = [(gin32, gin64), *zip(itertools.chain(*grads32),
                                      itertools.chain(*grads64))]
        for got, want in pairs:
            assert got.dtype == np.float32 and want.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())


# ---------------------------------------------------------------------------
# stacked critics
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.dtype(f"u{got.itemsize}")
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


def assert_nets_same_bits(got, want):
    for a, b in zip(got.arrays(), want.arrays(), strict=True):
        assert_same_bits(a, b)


def stacked_cases():
    """(per-agent float32 nets, their stack, per-agent blocks, critic?).

    Four local [2, 16, 16, 1] critics with dead units, four fan-in-1
    [1, 16, 16, 1] nets and one joint [2n, 16, 16, 1] critic. The blocks
    (s, u, r, s_next, u_next) are strided (A, m, d) views of (m, n) arrays,
    as ``train`` takes them, with the joint reward summed over buses.
    """
    rng = np.random.default_rng(41)
    m, n = 24, 4
    v, u, r, v_next, u_next = (rng.uniform(0.9, 1.1, size=(m, n)),
                               rng.normal(scale=0.5, size=(m, n)),
                               rng.normal(size=(m, n)),
                               rng.uniform(0.9, 1.1, size=(m, n)),
                               rng.normal(scale=0.5, size=(m, n)))
    # an all-zero input row puts some pre-activations exactly at 0.0
    v[0] = u[0] = 0.0
    for sizes, agents in (([2, 16, 16, 1], n), ([1, 16, 16, 1], n),
                          ([2 * n, 16, 16, 1], 1)):
        nets = [critic_with_dead_units(sizes, rng).astype(np.float32)
                for _ in range(agents)]
        dim = n // agents

        def per_agent(block):
            return block.reshape(m, agents, dim).swapaxes(0, 1)

        rewards = (r.sum(axis=1, keepdims=True)[None] if agents == 1
                   else per_agent(r))
        blocks = (per_agent(v), per_agent(u), rewards, per_agent(v_next),
                  per_agent(u_next))
        yield nets, FeedForwardNet.stack(nets), blocks, sizes[0] == 2 * dim


def test_stacked_passes_equal_per_agent_passes_bit_for_bit():
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, batch_size=16)
    for nets, stack, (s, u, r, s_next, u_next), is_critic in stacked_cases():
        assert stack.weights[0].shape[0] == len(nets)
        assert stack.biases[0].shape == (len(nets), 1, 16)
        x = np.concatenate([s, u], axis=-1) if is_critic else s
        xs = [np.hstack([s[i], u[i]]) if is_critic else s[i]
              for i in range(len(nets))]
        acts = _forward(stack, x)
        upstream = np.random.default_rng(5).normal(
            size=acts[-1].shape).astype(np.float32)
        upstream[:, 1] = 0.0
        grads, gin = _backward(stack, acts, upstream)
        no_grads, gin_only = _backward(stack, acts, upstream,
                                       param_grads=False)
        assert no_grads is None
        assert_same_bits(gin_only, gin)
        stepped = stack.copy()
        sgd_step(stepped, grads, 0.05)
        blended = stack.copy()
        soft_update(blended, stepped, 0.3)
        for i, net in enumerate(nets):
            net_acts = _forward(net, xs[i])
            for got, want in zip(acts, net_acts, strict=True):
                assert_same_bits(got[i], want)
            net_grads, net_gin = _backward(net, net_acts, upstream[i])
            assert_same_bits(gin[i], net_gin)
            for (dw, db), (nw, nb) in zip(grads, net_grads, strict=True):
                assert_same_bits(dw[i], nw)
                assert_same_bits(db[i, 0], nb)
            own = net.copy()
            sgd_step(own, net_grads, 0.05)
            assert_nets_same_bits(stepped.agent(i), own)
            own_blend = net.copy()
            soft_update(own_blend, own, 0.3)
            assert_nets_same_bits(blended.agent(i), own_blend)
        if not is_critic:
            continue
        trained, target = stack.copy(), stack.copy()
        alone = [net.copy() for net in nets]
        for _ in range(3):
            losses = critic_update(trained, target, (s, u, r, s_next),
                                   u_next, cfg)
            assert losses.shape == (len(nets),)
            for i, net in enumerate(alone):
                assert_same_bits(losses[i], critic_update(
                    net, nets[i], (s[i], u[i], r[i], s_next[i]),
                    u_next[i], cfg))
        q, dq = q_action_grad(trained, s, u)
        assert dq.shape == u.shape
        for i, net in enumerate(alone):
            assert_nets_same_bits(trained.agent(i), net)
            net_q, net_dq = q_action_grad(net, s[i], u[i])
            assert_same_bits(q[i], net_q)
            assert_same_bits(dq[i], net_dq)


def test_agent_view_step_moves_only_its_slice():
    # an agent's view, critic.agent(i), and a block's, critic.block(...),
    # which train's rounds step, are views of the stack
    rng = np.random.default_rng(43)
    nets = [critic_with_dead_units([2, 16, 16, 1], rng).astype(np.float32)
            for _ in range(4)]
    stack = FeedForwardNet.stack(nets)
    target = stack.copy()
    before = [a.copy() for a in stack.arrays()]
    block = rng.uniform(0.9, 1.1, size=(24, 4))
    i = 2
    batch = (block[:, i:i + 1], rng.normal(scale=0.5, size=(24, 4))[:, i:i + 1],
             rng.normal(size=(24, 1)), block[::-1, i:i + 1])
    u_next = rng.normal(scale=0.5, size=(24, 1))
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, batch_size=16)
    alone = nets[i].copy()
    loss = critic_update(stack.agent(i), target.agent(i), batch, u_next, cfg)
    assert_same_bits(loss, critic_update(alone, nets[i], batch, u_next, cfg))
    assert_nets_same_bits(stack.agent(i), alone)
    assert not np.array_equal(stack.weights[0][i], before[0][i])
    for a, old in zip(stack.arrays(), before):
        for j in range(len(nets)):
            if j != i:
                assert a[j].tobytes() == old[j].tobytes()
    for a, old in zip(target.arrays(), before):
        assert a.tobytes() == old.tobytes()
    block = slice(1, 3)
    moved = [a.copy() for a in stack.arrays()]
    alone = stack.block(block).copy()
    pair = tuple(np.stack([x, x[::-1]]) for x in (*batch, u_next))
    assert_same_bits(
        critic_update(stack.block(block), target.block(block), pair[:4],
                      pair[4], cfg),
        critic_update(alone, target.block(block).copy(), pair[:4], pair[4],
                      cfg))
    assert_nets_same_bits(stack.block(block), alone)
    for a, old in zip(stack.arrays(), moved):
        assert not np.array_equal(a[block], old[block])
        for j in (0, 3):
            assert a[j].tobytes() == old[j].tobytes()


def test_one_target_update_per_round_equals_per_view_updates_bit_for_bit():
    # train's round steps the agents through views of the stacks and then
    # updates both target stacks once; updating each agent's targets
    # inside its round, after its critic and its actor step, must give the
    # same bits, since no round reads a target after its critic step and
    # the update is elementwise
    rng = np.random.default_rng(47)
    m, n = 24, 4

    def per_agent(block):
        return block.reshape(m, n, 1).swapaxes(0, 1)

    def stacks():
        critics = [critic_with_dead_units([2, 16, 16, 1], rng)
                   for _ in range(n)]
        actors = [FeedForwardNet.create([1, 16, 16, 1], rng)
                  for _ in range(n)]
        return (FeedForwardNet.stack(critics).astype(np.float32),
                FeedForwardNet.stack(actors))

    online, targets = stacks(), stacks()
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, actor_lr=0.05, tau=0.3,
                      batch_size=16)
    runs = []
    for per_view in (True, False):
        critic, actor = (net.copy() for net in online)
        critic_target, actor_target = (net.copy() for net in targets)
        stack_rng = np.random.default_rng(48)
        for _ in range(3):
            s, a, r, s_next = (per_agent(stack_rng.uniform(0.9, 1.1, (m, n)))
                               for _ in range(4))
            for i in range(n):
                c, c_target, a_i, a_target = (
                    x.agent(i) for x in (critic, critic_target, actor,
                                         actor_target))
                critic_update(c, c_target, (s[i], a[i], r[i], s_next[i]),
                              net_eval(a_target, s_next[i]), cfg)
                if per_view:
                    soft_update(c_target, c, cfg.tau)
                acts = _forward(a_i, s[i])
                _, dq = q_action_grad(c, s[i], acts[-1])
                net_actor_update(a_i, acts, dq, cfg.actor_lr)
                if per_view:
                    soft_update(a_target, a_i, cfg.tau)
            if not per_view:
                soft_update(critic_target, critic, cfg.tau)
                soft_update(actor_target, actor, cfg.tau)
        runs.append((critic, critic_target, actor, actor_target))
    dtypes = [net.dtype for net in runs[1]]
    assert dtypes == [np.float32, np.float32, np.float64, np.float64]
    for got, want in zip(*runs, strict=True):
        assert_nets_same_bits(got, want)
    for moved, before in zip(runs[1][1::2], targets, strict=True):
        assert not np.array_equal(moved.weights[1], before.weights[1])


@pytest.mark.parametrize("actor", ["stable", "unconstrained"])
def test_blocked_round_equals_the_per_agent_loop_bit_for_bit(actor):
    # train steps 7 agents in blocks of 4 + 3 on strided per-agent views of
    # a sampled batch; each agent must get the bits of its own round
    # through views of the stacks. Strided rows would take the fan-in-1
    # actor's layer-0 weight gradient off BLAS and move its norm
    assert rl.AGENT_BLOCK == 4
    rng = np.random.default_rng(59)
    m, n = 64, 7
    buffer = ReplayBuffer(4 * m, seed=60)
    buffer.push(*(rng.uniform(0.9, 1.1, size=(4 * m, n)) for _ in range(4)))

    def per_agent(block):
        return block.reshape(m, n, 1).swapaxes(0, 1)

    rows = [per_agent(x) for x in buffer.sample(m)]
    if actor == "stable":       # the target and current actions
        rows += [per_agent(rng.normal(scale=0.5, size=(m, n)))
                 for _ in range(2)]
    assert not rows[0].flags.c_contiguous

    def stack(sizes):
        return FeedForwardNet.stack([critic_with_dead_units(sizes, rng)
                                     for _ in range(n)]).astype(np.float32)

    nets = [stack([2, 16, 16, 1]), stack([2, 16, 16, 1])]
    if actor == "unconstrained":
        nets += [stack([1, 16, 16, 1]), stack([1, 16, 16, 1])]
    ref = [net.copy() for net in nets]
    cfg = TrainConfig(gamma=0.9, critic_lr=0.05, actor_lr=0.05,
                      batch_size=16)
    losses, outs = zip(*(rl._block_round(nets, rows, block, cfg)
                         for block in (slice(0, 4), slice(4, 8))))
    assert [len(x) for x in losses] == [4, 3]
    losses, outs = np.concatenate(losses), np.concatenate(outs)
    for i in range(n):
        c, c_target, *actors = (net.agent(i) for net in ref)
        s, a, r, s_next, *actions = (x[i] for x in rows)
        u_next = actions[0] if actions else net_eval(actors[1], s_next)
        assert_same_bits(losses[i], critic_update(
            c, c_target, (s, a, r, s_next), u_next, cfg))
        if actions:
            assert_same_bits(outs[i], q_action_grad(c, s, actions[1])[1])
            continue
        acts = _forward(actors[0], s)
        _, dq = q_action_grad(c, s, acts[-1])
        assert_same_bits(outs[i], net_actor_update(actors[0], acts, dq,
                                                   cfg.actor_lr))
    for got, want in zip(nets, ref, strict=True):
        assert_nets_same_bits(got, want)


# ---------------------------------------------------------------------------
# actor updates
# ---------------------------------------------------------------------------

def test_actor_update_constant_critic_is_noop():
    rng = np.random.default_rng(7)
    critic = FeedForwardNet.create([2, 8, 1], rng)
    for w in critic.weights:
        w[:] = 0.0
    critic.biases[-1][:] = 3.0
    raw = sample_raw_params(1, 6, rng)
    before = raw.copy()
    band1 = (BOUNDS[0][:1], BOUNDS[1][:1])
    v = np.array([1.07, 1.08, 0.92])
    u, ramps = _ramp_pass(constrain(raw, band1, 1e-3), v[:, None])
    _, dq = q_action_grad(critic, v[:, None], u)
    norm, = stable_actor_update(raw, ramps, dq, lr=1e-2)
    assert norm == 0.0
    np.testing.assert_array_equal(raw.slope_pos, before.slope_pos)
    np.testing.assert_array_equal(raw.decr_pos, before.decr_pos)


def test_actor_drives_output_to_feasible_optimum():
    # quadratic toy critic Q = -(u - u*)^2 at a fixed over-voltage state;
    # a feasible optimum is matched, an infeasible one clamps to the
    # monotone boundary -eps * (v - v_upper)
    band1 = (np.array([0.95]), np.array([1.05]))
    v = np.array([1.07])
    for u_star, expect, tol in ((-0.5, -0.5, 1e-3), (0.5, -2e-5, 5e-5)):
        raw = RawPolicyParams(*(np.zeros((1, 6)) for _ in range(4)))
        for _ in range(5000):
            u, ramps = _ramp_pass(constrain(raw, band1, 1e-3), v[:, None])
            dq = -2.0 * (u - u_star)
            stable_actor_update(raw, ramps, dq, lr=5.0)
        u_final = policy_eval_bus(constrain(raw, band1, 1e-3), 0, v)[0]
        assert u_final == pytest.approx(expect, abs=tol)


@pytest.mark.parametrize("scope", ["local", "joint"])
@pytest.mark.parametrize("feeder", ["fixture", "16bus"])
def test_stable_actor_step_is_the_mean_of_per_sample_gradients(
        monkeypatch, feeder, scope):
    # the step contracts dQ/du with the round's ramps before mapping them
    # to raw gradients; that must be the batch mean of dQ/du times
    # policy_param_grad's per-sample blocks
    net = NET if feeder == "fixture" else generate_random_feeder(16, 1)
    band, n, m, lr = net.bounds(), net.n, 256, 1e-2
    rng = np.random.default_rng(42)
    raw = sample_raw_params(n, 16, rng)
    # voltages inside, on and beyond the kinks on both sides of the band
    v = rng.uniform(0.85, 1.15, size=(m, n))
    p = constrain(raw, band, 1e-3)
    u, ramps = _ramp_pass(p, v)
    np.testing.assert_array_equal(u.view(np.uint64),
                                  policy_eval(p, v).view(np.uint64))
    # the float32 critics' dQ/du, one critic per agent as in training
    dim = n if scope == "joint" else 1
    dq = np.hstack([q_action_grad(
        FeedForwardNet.create([2 * dim, 16, 1], rng).astype(np.float32),
        v[:, c:c + dim], u[:, c:c + dim])[1] for c in range(0, n, dim)])
    want = [(dq[:, :, None] * g).sum(axis=0) / m
            for g in policy_param_grad(raw, band, 1e-3, v)]
    mapped, ramp_grads = [], rl._ramp_grads

    def spy(*args):
        mapped.extend(ramp_grads(*args))
        return mapped

    monkeypatch.setattr(rl, "_ramp_grads", spy)
    before = raw.copy()
    norms = stable_actor_update(raw, ramps, dq, lr)
    for got, exp, old, new in zip(mapped, want, before.arrays(),
                                  raw.arrays()):
        assert np.abs(exp).max() > 0.0
        np.testing.assert_allclose(got, exp, rtol=0.0,
                                   atol=1e-12 * np.abs(exp).max())
        np.testing.assert_array_equal(new, old + lr * got)
    for g in mapped[::2]:
        np.testing.assert_array_equal(g[:, 0], 0.0)      # inert slopes
    for g in mapped[1::2]:
        np.testing.assert_array_equal(g[:, :2], 0.0)     # inert spacings
    np.testing.assert_allclose(
        norms, np.sqrt(sum((g ** 2).sum(axis=1) for g in want)), rtol=1e-12)


@pytest.mark.parametrize("sizes", [[1, 16, 16, 1], [4, 16, 16, 4]])
def test_net_actor_update_from_the_action_pass_equals_a_backprop_step(sizes):
    # training steps the actor through the forward pass that gave its
    # actions; that step must be the one a separate net_backprop pass gives
    rng = np.random.default_rng(41)
    actor = critic_with_dead_units(sizes, rng)
    ref = actor.copy()
    m, lr = 32, 0.05
    for _ in range(3):
        # a column of the sampled batch, as a local agent sees its bus
        v = rng.uniform(0.9, 1.1, size=(m, sizes[0] + 2))[:, 1:-1]
        v[0] = 0.0
        acts = _forward(actor, v)
        np.testing.assert_array_equal(acts[-1].view(np.uint64),
                                      net_eval(ref, v).view(np.uint64))
        # the float32 critics' dQ/du
        dq = rng.normal(size=(m, sizes[-1])).astype(np.float32)
        dq[1] = 0.0
        norm = net_actor_update(actor, acts, dq, lr)
        grads, _ = net_backprop(ref, v, dq / m)
        sgd_step(ref, grads, -lr)
        assert norm == np.sqrt(sum(float((dw ** 2).sum() + (db ** 2).sum())
                                   for dw, db in grads))
        for got, want in zip(actor.arrays(), ref.arrays()):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


def test_net_actor_ascends_quadratic():
    rng = np.random.default_rng(8)
    actor = FeedForwardNet.create([1, 8, 1], rng)
    v = rng.uniform(0.9, 1.1, size=(16, 1))
    for _ in range(4000):
        acts = _forward(actor, v)
        dq = -2.0 * (acts[-1] - 0.7)
        net_actor_update(actor, acts, dq, lr=0.2)
    np.testing.assert_allclose(net_eval(actor, v), 0.7, atol=0.01)


def actor_step_case(dtype):
    """A [1, 16, 16, 1] actor in ``dtype``, its pass on a batch, and dQ/du."""
    rng = np.random.default_rng(12)
    actor = FeedForwardNet.create([1, 16, 16, 1], rng).astype(dtype)
    acts = _forward(actor, rng.uniform(0.9, 1.1, size=(32, 1)))
    return actor, acts, rng.normal(size=(32, 1)).astype(dtype)


def test_net_actor_update_norm_keeps_the_float64_bits():
    actor, acts, dq = actor_step_case(np.float64)
    grads, _ = _backward(actor, acts, dq / 32, input_grad=False)
    want = np.sqrt(sum((dw ** 2).sum() + (db ** 2).sum() for dw, db in grads))
    assert_same_bits(net_actor_update(actor, acts, dq, 1e-3), want)


def test_net_actor_update_reduces_a_float32_norm_in_float64():
    actor, acts, dq = actor_step_case(np.float32)
    grads, _ = _backward(actor, acts, dq / 32, input_grad=False)
    want = np.sqrt(sum((dw.astype(float) ** 2).sum()
                       + (db.astype(float) ** 2).sum() for dw, db in grads))
    norm = net_actor_update(actor, acts, dq, 1e-3)
    assert norm.dtype == np.float64
    assert_same_bits(norm, want)
    assert all(a.dtype == np.float32 for a in actor.arrays())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sizes, agents", [([2, 16, 16, 1], 4),
                                           ([1, 16, 16, 1], None),
                                           ([4, 16, 16, 4], None)])
def test_backward_without_input_grad_keeps_the_parameter_grads(
        sizes, agents, dtype):
    rng = np.random.default_rng(53)
    nets = [critic_with_dead_units(sizes, rng).astype(dtype)
            for _ in range(agents or 1)]
    net = FeedForwardNet.stack(nets) if agents else nets[0]
    lead = (agents,) if agents else ()
    x = rng.uniform(0.9, 1.1, size=(*lead, 24, sizes[0]))
    x[..., 0, :] = 0.0
    acts = _forward(net, x)
    upstream = rng.normal(size=acts[-1].shape)
    grads, gin = _backward(net, acts, upstream)
    only, none = _backward(net, acts, upstream, input_grad=False)
    assert gin.shape == x.shape and none is None
    for (dw, db), (ow, ob) in zip(grads, only, strict=True):
        assert_same_bits(ow, dw)
        assert_same_bits(ob, db)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_without_updates_returns_initial_policy():
    # one 10-step episode never fills a batch of 16, so no update runs
    env = make_env()
    res1 = train(env, small_cfg(episodes=1))
    res2 = train(env, small_cfg(episodes=1))
    assert res1.updates == 0 and len(res1.log) == 1
    for a, b in zip(res1.raw.arrays(), res1.init_raw.arrays()):
        np.testing.assert_array_equal(a, b)
    probe = np.array([1.07, 1.0, 0.93, 1.06])
    np.testing.assert_array_equal(res1.policy(probe), res2.policy(probe))


@pytest.mark.parametrize("actor, scope", [("stable", "local"),
                                          ("stable", "joint"),
                                          ("unconstrained", "local")])
def test_train_deterministic_logs(actor, scope):
    env = make_env()
    r1 = train(env, small_cfg(agent_scope=scope), actor_kind=actor)
    r2 = train(env, small_cfg(agent_scope=scope), actor_kind=actor)
    assert r1.updates > 0
    assert r1.log == r2.log
    probe = np.array([1.08, 0.94, 1.0, 1.02])
    np.testing.assert_array_equal(r1.policy(probe), r2.policy(probe))


# a 16-bus perceptron run and monotone-actor runs in both scopes, whose
# step contracts by matmul (on feeder seed 1: on seed 0 their float32
# critics overflow). Every training product is float32 or too small to
# thread, and OpenBLAS 0.3.31's Haswell kernels round those alike at one
# and two threads, so there the bytes match even unpinned (float64
# products of 100 x 128 x 100 and up do not, and other kernels may differ
# in float32); test_train_holds_openblas_at_one_thread checks the pin.
_THREADED_TRAIN = """
import sys
from gridvolt import dynamics, grid, policy, rl
for case in sys.argv[2:]:
    actor, scope, seed = case.split(":")
    net = grid.generate_random_feeder(16, rng_seed=int(seed))
    X = grid.build_sensitivity(net).X
    band = net.bounds()
    env = rl.VoltEnv(X=X, v_lower=band[0], v_upper=band[1],
                     cp=dynamics.CostParams())
    cfg = rl.TrainConfig(episodes=12, seed=0, updates_per_episode=5,
                         agent_scope=scope)
    res = rl.train(env, cfg, actor_kind=actor)
    assert res.updates > 0
    out = f"{sys.argv[1]}/{actor}-{scope}"
    rl.write_training_log(res.log, out + ".log.csv")
    if actor == "stable":
        policy.save_checkpoint(out + ".json", res.raw, band, cfg.eps)
    else:
        rl.save_net_policy(out + ".json", res.policy.actor, band)
"""


_THREADED_CASES = ("unconstrained:local:0", "stable:local:1",
                   "stable:joint:1")


def threaded_train_outputs(out, cases, threads="1", prelude=""):
    """Run ``_THREADED_TRAIN`` on ``cases`` in a fresh interpreter at
    ``threads`` OpenBLAS threads, after ``prelude``; {file name: bytes}."""
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(Path(gridvolt.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", prelude + _THREADED_TRAIN,
                    str(out), *cases], env=env, check=True, timeout=600)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_train_bits_do_not_depend_on_blas_threads(tmp_path):
    outputs = [threaded_train_outputs(tmp_path / threads, _THREADED_CASES,
                                      threads=threads)
               for threads in ("1", "2")]
    assert len(outputs[0]) == 6
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two usable CPUs")
def test_train_bits_do_not_depend_on_the_cpu_count(tmp_path):
    # 16 agents' rounds run their 4 blocks on one worker per usable CPU,
    # inline on one
    cpu = min(os.sched_getaffinity(0))
    one_cpu = (f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n"
               f"assert len(os.sched_getaffinity(0)) == 1\n")
    outputs = [threaded_train_outputs(tmp_path / label, _THREADED_CASES[:2],
                                      prelude=prelude)
               for label, prelude in (("one", one_cpu), ("all", ""))]
    assert len(outputs[0]) == 4
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


def fake_cpus(monkeypatch, count):
    """Make ``train`` see ``count`` usable CPUs."""
    monkeypatch.setattr(rl.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started during the test."""
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_mlp_rounds_give_the_same_bits_on_any_worker_count(
        monkeypatch, started_threads):
    # 7 agents in blocks of 4 + 3: up to one worker per block, more
    # workers than cores, and thread switches forced far more often than
    # the interpreter's default
    runs, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cpus in (1, 2, 8):
            fake_cpus(monkeypatch, cpus)
            started_threads.clear()
            before = threading.active_count()
            res = train(feeder_env(7), small_cfg(),
                        actor_kind="unconstrained")
            assert threading.active_count() == before
            assert (len(started_threads) > 0) == (cpus > 1)
            assert res.updates > 0
            runs.append(res)
    finally:
        sys.setswitchinterval(interval)
    for res in runs[1:]:
        assert res.log == runs[0].log
        assert_nets_same_bits(res.policy.actor, runs[0].policy.actor)


@pytest.mark.parametrize("actor, scope, buses", [
    ("unconstrained", "local", 1), ("stable", "local", 4),
    ("stable", "joint", 4),
], ids=["unconstrained-1bus", "stable-local", "stable-joint"])
def test_one_agent_and_stable_runs_start_no_thread(
        monkeypatch, started_threads, actor, scope, buses):
    # a 1-bus feeder has one MLP agent, so its rounds run inline
    if buses == 1:
        env, cfg = feeder_env(1), small_cfg(episodes=12, batch_size=32)
    else:
        env, cfg = make_env(), small_cfg(agent_scope=scope)
    fake_cpus(monkeypatch, 4)
    res = train(env, cfg, actor_kind=actor)
    assert res.updates > 0
    assert started_threads == []


def test_stable_runs_of_two_blocks_start_the_pool(monkeypatch,
                                                  started_threads):
    # 7 monotone-actor agents step their critics in blocks of 4 + 3 on the
    # pool, with the bits of the inline run
    runs = []
    for cpus in (1, 2):
        fake_cpus(monkeypatch, cpus)
        started_threads.clear()
        runs.append(train(feeder_env(7), small_cfg(), actor_kind="stable"))
        assert runs[-1].updates > 0
        assert (len(started_threads) > 0) == (cpus > 1)
    assert runs[1].log == runs[0].log
    for got, want in zip(runs[1].raw.arrays(), runs[0].raw.arrays()):
        assert_same_bits(got, want)


def test_threaded_rounds_raise_the_lowest_agents_exception(
        monkeypatch, started_threads):
    # both blocks of 7 agents (4 + 3) diverge; block 0 raises last in time
    # on two workers, but the sequential loop would have raised it first
    update, seen = rl.net_actor_update, {}

    def diverge_both(actor, *args):
        stack = seen["actor"].weights[0]
        lo = next(k for k in range(len(stack))
                  if np.shares_memory(actor.weights[0], stack[k]))
        if lo == 0:
            time.sleep(0.05)
        raise TrainingDiverged(f"block at agent {lo} diverged")

    def keep_actor(episode, actor):
        seen.setdefault("actor", actor)

    monkeypatch.setattr(rl, "net_actor_update", diverge_both)
    raised = []
    for cpus in (1, 2):
        fake_cpus(monkeypatch, cpus)
        started_threads.clear()
        seen.clear()
        before = threading.active_count()
        # a 10-step episode does not fill a batch of 16, so the first
        # update round runs after the callback has seen the actor
        with pytest.raises(TrainingDiverged) as info:
            train(feeder_env(7), small_cfg(), actor_kind="unconstrained",
                  episode_callback=keep_actor)
        assert threading.active_count() == before
        assert (len(started_threads) > 0) == (cpus > 1)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(TrainingDiverged, "block at agent 0 diverged")] * 2


@pytest.mark.parametrize("actor, step", [
    ("stable", "stable_actor_update"), ("unconstrained", "net_actor_update"),
])
def test_each_round_ends_with_one_update_of_each_target_stack(
        monkeypatch, actor, step):
    # the targets move once per round, after every block's critic and
    # actor step: the critic stack's first, then the actor's
    calls = []
    for name in ("critic_update", step, "soft_update"):
        def spy(*args, _name=name, _call=getattr(rl, name)):
            calls.append((_name, args[0]))
            return _call(*args)
        monkeypatch.setattr(rl, name, spy)
    # the fixture's 4 agents are one block, 7 agents two
    for env, buses, sizes in ((make_env(), NET.n, [4]),
                              (feeder_env(7), 7, [4, 3])):
        calls.clear()
        res = train(env, small_cfg(), actor_kind=actor)
        assert res.updates > 0
        # one critic step per block; the monotone actor steps every agent
        # in one call, the MLP actors one per block
        steps = 1 if actor == "stable" else len(sizes)
        per_round = len(sizes) + steps + 2
        assert len(calls) == per_round * res.updates
        for k in range(0, len(calls), per_round):
            names, args = zip(*calls[k:k + per_round])
            assert sorted(names[:-2]) == sorted(
                ["critic_update"] * len(sizes) + [step] * steps)
            blocks = [len(net.weights[0]) for name, net in zip(names, args)
                      if name == "critic_update"]
            assert sorted(blocks) == sorted(sizes)
            assert names[-2:] == ("soft_update", "soft_update")
            # whole stacks: the critic target's and the actor target's
            critic_target, actor_target = args[-2:]
            assert critic_target.weights[0].shape[0] == buses
            assert len(actor_target.arrays()[0]) == buses


@pytest.mark.skipif(rl._openblas_threads() is None,
                    reason="needs numpy's bundled OpenBLAS")
@pytest.mark.parametrize("actor", ["stable", "unconstrained"])
def test_train_holds_openblas_at_one_thread(monkeypatch, actor):
    # on a machine whose products of the training shapes happen to round
    # alike at any thread count, the subprocess tests above cannot see a
    # lost pin; this reads the thread count inside the rounds directly
    get, put = rl._openblas_threads()
    counts, update = set(), rl.critic_update

    def spy(*args):
        counts.add(get())
        return update(*args)

    monkeypatch.setattr(rl, "critic_update", spy)
    old = get()
    put(2)
    try:
        before = get()      # 2, or fewer where OpenBLAS caps it
        res = train(make_env(), small_cfg(), actor_kind=actor)
        after = get()
    finally:
        put(old)
    assert res.updates > 0
    assert counts == {1}
    assert after == before


def test_train_runs_unpinned_without_bundled_openblas(monkeypatch):
    # a numpy whose BLAS library cannot be opened trains as before
    pinned = train(make_env(), small_cfg())

    def missing(name):
        raise OSError(name)

    monkeypatch.setattr(rl.ctypes, "CDLL", missing)
    unpinned = train(make_env(), small_cfg())
    assert unpinned.updates > 0
    assert unpinned.log == pinned.log


@pytest.mark.parametrize("actor", ["stable", "unconstrained"])
def test_train_runs_float32_critics_and_keeps_the_actor_float64(
        tmp_path, monkeypatch, actor):
    # the perceptron actors step in float32 too, but every policy built from
    # them, and so the result and its checkpoint, holds float64 values
    seen, rounds, policies = set(), set(), []
    calls = Counter()
    update, step = rl.critic_update, rl.net_actor_update
    q_grad, net_policy = rl.q_action_grad, rl._NetPolicy

    def spy(critic, critic_target, *args):
        seen.add((str(critic.dtype), str(critic_target.dtype)))
        calls["critic", len(critic.weights[0])] += 1
        return update(critic, critic_target, *args)

    def step_spy(actor_net, acts, dq, lr):
        rounds.add(("step", str(actor_net.dtype),
                    *(str(a.dtype) for a in (*acts, dq))))
        calls["step", len(actor_net.weights[0])] += 1
        return step(actor_net, acts, dq, lr)

    def q_spy(critic, s, u):
        rounds.add(("q", str(critic.dtype), str(u.dtype)))
        calls["q", len(critic.weights[0])] += 1
        return q_grad(critic, s, u)

    def policy_spy(actor_net):
        policies.append(actor_net)
        return net_policy(actor_net)

    monkeypatch.setattr(rl, "critic_update", spy)
    monkeypatch.setattr(rl, "net_actor_update", step_spy)
    monkeypatch.setattr(rl, "q_action_grad", q_spy)
    monkeypatch.setattr(rl, "_NetPolicy", policy_spy)
    res = train(make_env(), small_cfg(), actor_kind=actor)
    assert res.updates > 0
    # the fixture's 4 agents are one block: one stacked call of each per
    # round
    steps = ("critic", "q", "step") if actor == "unconstrained" else (
        "critic", "q")
    assert calls == {(name, NET.n): res.updates for name in steps}
    assert seen == {("float32", "float32")}
    assert all(type(row["td_loss_mean"]) is float for row in res.log)
    assert all(type(row["grad_norms"]) is float for row in res.log)
    if actor == "unconstrained":
        assert rounds == {("step", *["float32"] * 6),
                          ("q", "float32", "float32")}
        # one collection policy per episode, then the result's
        assert len(policies) == len(res.log) + 1
        assert policies[-1] is res.policy.actor
        for net in policies:
            for a in net.arrays():
                assert a.dtype == np.float64
                assert_same_bits(a.astype(np.float32).astype(np.float64), a)
    else:
        assert rounds == {("q", "float32", "float64")} and not policies
    path = tmp_path / "policy.json"
    if actor == "stable":
        arrays = [*res.raw.arrays(), *res.init_raw.arrays()]
        save_checkpoint(str(path), res.raw, BOUNDS, 1e-3)
        raw, _band, _eps = load_checkpoint(str(path))
        for a, b in zip(raw.arrays(), res.raw.arrays()):
            np.testing.assert_array_equal(a, b)
    else:
        arrays = res.policy.actor.arrays()
        save_net_policy(str(path), res.policy.actor, BOUNDS)
        # a reloaded checkpoint acts as the table of the nets' pieces
        loaded, _band = load_net_policy(str(path))
        table = PieceTable(*res.policy.breakpoints(BOUNDS), BOUNDS)
        for got, want in zip(loaded.pieces, table.pieces):
            assert_same_bits(got, want)
        v = np.random.default_rng(9).uniform(0.85, 1.15, size=(50, NET.n))
        assert_same_bits(loaded(v), table(v))
    assert all(a.dtype == np.float64 for a in arrays)


def test_train_log_csv_roundtrip(tmp_path):
    env = make_env()
    res = train(env, small_cfg(episodes=3))
    path = tmp_path / "log.csv"
    write_training_log(res.log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "episode,return,td_loss_mean,grad_norms"
    assert len(lines) == 4


def test_train_iterates_stay_monotone():
    env = make_env()
    seen = []

    def check(episode, raw):
        params = constrain(raw, BOUNDS, 1e-3)
        report = verify_monotone(params)
        seen.append(report.passed)

    train(env, small_cfg(episodes=4), episode_callback=check)
    assert seen == [True] * 4


def test_train_unconstrained_smoke():
    env = make_env()
    res = train(env, small_cfg(episodes=3), actor_kind="unconstrained")
    assert len(res.log) == 3
    u = res.policy(np.array([1.07, 1.0, 0.93, 1.0]))
    assert u.shape == (4,)
    assert np.all(np.isfinite(u))


def test_train_refuses_the_joint_mlp_before_drawing(monkeypatch):
    # joint scope only picks the monotone actor's critic; the MLP actor is
    # one local net per bus
    def no_draw(*args, **kwargs):
        raise AssertionError("train drew before refusing")

    monkeypatch.setattr(rl.np.random, "SeedSequence", no_draw)
    with pytest.raises(ValueError, match="agent_scope='joint'.*"
                                         "actor_kind='unconstrained'"):
        train(make_env(), small_cfg(agent_scope="joint"),
              actor_kind="unconstrained")


def test_train_joint_scope_smoke():
    env = make_env()
    res = train(env, small_cfg(episodes=3, agent_scope="joint"))
    assert len(res.log) == 3
    assert np.all(np.isfinite(res.policy(np.array([1.07, 1.0, 0.93, 1.0]))))


def test_train_reward_sign_convention():
    # known cost ordering: pointless action from an in-band start costs
    # strictly more than doing nothing, and the per-bus rewards used by
    # train are the exact negation of the stage costs
    env = make_env()
    from gridvolt.dynamics import rollout
    from gridvolt.policy import zero_policy

    def fidgety(v):
        return np.full_like(v, 0.1)

    v_env = np.full(4, 1.0)
    cost_zero = discounted_stage_cost(
        rollout(zero_policy(BOUNDS), X5, v_env, np.zeros(4), T=30, dt=0.1))
    cost_fidget = discounted_stage_cost(
        rollout(fidgety, X5, v_env, np.zeros(4), T=30, dt=0.1))
    assert cost_zero == 0.0
    assert cost_fidget > cost_zero

    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(0.85, 1.15, 4)
        u = rng.normal(scale=0.5, size=4)
        r = env.per_bus_reward(v, u)
        assert float(r.sum()) == pytest.approx(
            -stage_cost(v, u, BOUNDS, env.cp), abs=1e-12)


def reference_collection(env, cfg, policy):
    """Episode returns and diverged count of a per-step collection loop.

    Plain numpy on the same seeded streams as ``train``: q + dt u,
    X q + v_env, and an episode cut once |v| passes 10 or the noisy action
    is not finite. ``policy`` is the greedy actor, fixed when no update runs.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    scen_rng = np.random.default_rng(seeds[1])
    noise_rng = np.random.default_rng(seeds[2])
    clip = cfg.noise_clip_sigmas * cfg.noise_std
    lo, hi = env.bounds
    returns, diverged = [], 0
    for _ in range(cfg.episodes):
        v_env, q = env.sample_start(scen_rng)
        v = env.X @ q + v_env
        ret = 0.0
        for t in range(cfg.episode_len):
            if np.max(np.abs(v)) > 10.0:
                diverged += 1
                break
            u = policy(v) + np.clip(
                noise_rng.normal(0.0, cfg.noise_std, size=env.n), -clip, clip)
            if not np.all(np.isfinite(u)):
                diverged += 1
                break
            dev = np.maximum(v - hi, 0.0) + np.minimum(v - lo, 0.0)
            r = -(env.cp.eta1 * dev ** 2 + env.cp.eta2 * u ** 2)
            ret += (cfg.gamma ** t) * float(r.sum())
            q = q + env.dt * u
            v = env.X @ q + v_env
        returns.append(ret)
    return returns, diverged


@pytest.mark.parametrize("actor", ["stable", "unconstrained"])
@pytest.mark.parametrize("feeder", ["fixture", "16-bus-seed-2"])
def test_train_collection_matches_reference_loop(feeder, actor):
    net = NET if feeder == "fixture" else generate_random_feeder(16, rng_seed=2)
    band = net.bounds()
    env = VoltEnv(X=build_sensitivity(net).X, v_lower=band[0],
                  v_upper=band[1], cp=CostParams())
    # a batch larger than everything collected: no update ever runs
    cfg = small_cfg(episodes=8, episode_len=30, batch_size=8 * 30 + 1)
    res = train(env, cfg, actor_kind=actor)
    assert res.updates == 0
    returns, diverged = reference_collection(env, cfg, res.policy)
    assert [row["return"] for row in res.log] == returns
    assert res.diverged_episodes == diverged
    if feeder != "fixture" and actor == "stable":
        # the initial gains exceed this feeder's step-size limit
        assert 0 < diverged < cfg.episodes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scope", ["local", "joint"])
def test_overflowing_critic_raises_training_diverged(scope):
    # the initial gains exceed this feeder's step-size limit, so the replay
    # buffer holds blown-up voltages and the critics overflow
    net = generate_random_feeder(16, rng_seed=2)
    band = net.bounds()
    env = VoltEnv(X=build_sensitivity(net).X, v_lower=band[0],
                  v_upper=band[1], cp=CostParams())
    cfg = TrainConfig(episodes=8, seed=0, batch_size=64,
                      updates_per_episode=2, critic_hidden=(16, 16),
                      agent_scope=scope)
    with pytest.raises(TrainingDiverged):
        train(env, cfg, actor_kind="stable")


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(actor_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(tau=1.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=64, buffer_capacity=32)
    with pytest.raises(ValueError):
        TrainConfig(agent_scope="global")
    with pytest.raises(ValueError):
        TrainConfig(episode_len=0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma=-0.1)
    with pytest.raises(ValueError, match="actor_units"):
        TrainConfig(actor_units=1)
    for field, value in (("batch_size", 0), ("noise_std", -0.1),
                         ("noise_std", float("nan")),
                         ("noise_clip_sigmas", -3.0),
                         ("updates_per_episode", -1), ("episodes", 0),
                         ("critic_hidden", (100, 0)), ("actor_hidden", (0,)),
                         ("actor_lr", float("nan")), ("actor_lr", np.inf),
                         ("critic_lr", float("nan")), ("critic_lr", np.inf),
                         ("critic_lr", -1e-4), ("eps", 0.0), ("eps", -1e-3),
                         ("eps", float("nan")), ("eps", np.inf)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


def test_net_policy_batch_equals_row_by_row(tmp_path):
    rng = np.random.default_rng(4)
    n = NET.n
    nets = [FeedForwardNet.create([1, 16, 16, 1], rng) for _ in range(n)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), FeedForwardNet.stack(nets), BOUNDS)
    pol, _band = load_net_policy(str(path))
    v = rng.uniform(0.9, 1.1, size=(7, n))
    batch = pol(v)
    assert batch.shape == (7, n)
    np.testing.assert_array_equal(batch, np.array([pol(row) for row in v]))
    assert pol(v[0]).shape == (n,)


def per_net_policy(nets, v):
    """u and du/dv of one net per bus, each net run on its own: bus i's
    voltages go through ``net_eval`` as (S, 1, 1) rows and its slopes come
    from a backward pass of that net alone."""
    x = np.asarray(v, dtype=float).reshape(-1, len(nets))
    ones = np.ones((len(x), 1))
    u = [net_eval(net, x[:, i, None, None])[:, 0, 0]
         for i, net in enumerate(nets)]
    grad = [_backward(net, _forward(net, x[:, i:i + 1]), ones,
                      param_grads=False)[1][:, 0]
            for i, net in enumerate(nets)]
    return (np.stack(u, axis=-1).reshape(np.shape(v)),
            np.stack(grad, axis=-1).reshape(np.shape(v)))


@pytest.mark.parametrize("shape", [(4,), (1, 4), (9, 4)])
def test_net_policy_stack_equals_per_net_passes_bit_for_bit(shape):
    # nets with dead units and a voltage of 0.0, whose pre-activations sit
    # exactly at the edge of the ReLU mask
    rng = np.random.default_rng(16)
    nets = [critic_with_dead_units([1, 16, 16, 1], rng) for _ in range(4)]
    from gridvolt.rl import _NetPolicy
    pol = _NetPolicy(FeedForwardNet.stack(nets))
    v = rng.uniform(0.9, 1.1, size=shape)
    v.flat[0] = 0.0
    want_u, want_grad = per_net_policy(nets, v)
    assert_same_bits(pol(v), want_u)
    assert_same_bits(pol.input_grad(v), want_grad)


@pytest.mark.parametrize("sizes, count, message", [
    ([1, 8, 1], 3, "checkpoint has 3 nets for 4 buses"),
    ([2, 8, 1], 4, "not a consistent 1 -> 1"),
], ids=["too-few-nets", "not-1-to-1"])
def test_load_net_policy_rejects_nets_that_miss_the_band(tmp_path, sizes,
                                                         count, message):
    rng = np.random.default_rng(8)
    nets = [FeedForwardNet.create(sizes, rng) for _ in range(count)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), FeedForwardNet.stack(nets), BOUNDS)
    with pytest.raises(CheckpointError, match=message):
        load_net_policy(str(path))


def test_load_net_policy_refuses_a_checkpoint_with_no_buses(tmp_path):
    rng = np.random.default_rng(8)
    nets = [FeedForwardNet.create([1, 8, 1], rng) for _ in range(NET.n)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), FeedForwardNet.stack(nets), BOUNDS)
    data = json.loads(path.read_text())
    data.update(nets=[], band={"v_lower": [], "v_upper": []})
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="band has no buses"):
        load_net_policy(str(path))


def test_load_net_policy_ignores_a_stray_joint_key(tmp_path):
    # files written before the joint MLP was removed carry a "joint" field:
    # a local file loads as before, and so does a 1-bus joint file, whose
    # one 1 -> 1 net is a local net
    rng = np.random.default_rng(10)
    band1 = (BOUNDS[0][:1], BOUNDS[1][:1])
    v = rng.uniform(0.9, 1.1, size=(5, NET.n))
    for band, joint in ((BOUNDS, False), (band1, True)):
        nets = [FeedForwardNet.create([1, 8, 1], rng)
                for _ in range(len(band[0]))]
        path = tmp_path / "mlp.json"
        save_net_policy(str(path), FeedForwardNet.stack(nets), band)
        want = load_net_policy(str(path))[0](v[:, :len(nets)])
        data = json.loads(path.read_text())
        data["joint"] = joint
        path.write_text(json.dumps(data))
        got = load_net_policy(str(path))[0](v[:, :len(nets)])
        assert_same_bits(got, want)


def _drop(key):
    def edit(data):
        del data[key]
    return edit


def _set_net(key, value):
    def edit(data):
        data["nets"][0][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _drop("nets"), _drop("band"),
    _set_net("weights", "abc"), _set_net("biases", None),
    _set_net("weights", [[["x"]]]),
    lambda data: data.update(nets=[[1.0]]),
], ids=["no-nets", "no-band", "weights-string", "biases-null",
        "weights-not-numbers", "net-not-an-object"])
def test_load_net_policy_wraps_malformed_fields(tmp_path, edit):
    rng = np.random.default_rng(9)
    nets = [FeedForwardNet.create([1, 4, 1], rng) for _ in range(NET.n)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), FeedForwardNet.stack(nets), BOUNDS)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_net_policy(str(path))


def relu_pattern(net, x):
    """Sign pattern of every hidden pre-activation, one row per sample."""
    h, signs = x, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w + b
        signs.append(z > 0.0)
        h = np.maximum(z, 0.0)
    return np.concatenate(signs, axis=-1)


def test_net_policy_input_grad_matches_central_differences():
    rng = np.random.default_rng(12)
    n, h = NET.n, 1e-6
    nets = [FeedForwardNet.create([1, 16, 16, 1], rng) for _ in range(n)]
    from gridvolt.rl import _NetPolicy
    pol = _NetPolicy(FeedForwardNet.stack(nets))
    v = rng.uniform(0.9, 1.1, size=(40, n))
    grad = pol.input_grad(v)
    assert grad.shape == (40, n)
    assert pol.input_grad(v[3]).shape == (n,)
    np.testing.assert_allclose(pol.input_grad(v[3]), grad[3],
                               rtol=1e-12, atol=1e-14)
    checked = 0
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        col = v[:, i:i + 1]
        keep = [np.all(relu_pattern(nets[i], col + s) ==
                       relu_pattern(nets[i], col), axis=1)
                for s in (h, -h)]
        rows = keep[0] & keep[1]
        # u_j reads only v_j, so the slopes are the whole Jacobian
        np.testing.assert_array_equal(np.delete(pol(v + step), i, axis=1),
                                      np.delete(pol(v), i, axis=1))
        fd = (pol(v[rows] + step)[:, i] - pol(v[rows] - step)[:, i]) / (2 * h)
        np.testing.assert_allclose(grad[rows, i], fd, rtol=1e-6, atol=1e-7)
        checked += int(rows.sum())
    assert checked > 30 * n


@pytest.mark.parametrize("feeder", ["fixture", "16bus"])
def test_loaded_mlp_table_equals_its_nets(tmp_path, feeder):
    # a loaded checkpoint's table holds the nets' bits at every breakpoint
    # and follows them within 1e-15 between breakpoints on the voltages a
    # feeder sees; far out the rounding grows with |v|
    net = NET if feeder == "fixture" else generate_random_feeder(16, 1)
    rng = np.random.default_rng(net.n)
    nets = FeedForwardNet.stack(
        [FeedForwardNet.create([1, *TrainConfig.actor_hidden, 1], rng)
         for _ in range(net.n)])
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), nets, net.bounds())
    table, _band = load_net_policy(str(path))
    assert isinstance(table, PieceTable)
    from gridvolt.rl import _NetPolicy
    pol = _NetPolicy(nets)
    pts = table.pieces[0]
    assert_same_bits(table(pts[1:]), pol(pts[1:]))
    v = rng.uniform(0.5, 1.5, size=(2_000, net.n))
    np.testing.assert_allclose(table(v), pol(v), rtol=0.0, atol=1e-15)
    mids = np.vstack([pts[:1], 0.5 * (pts[1:] + pts[:-1])])
    assert np.all(np.abs(table(mids) - pol(mids))
                  <= 1e-15 * np.maximum(1.0, np.abs(mids)))


@pytest.mark.parametrize("sizes", [[1, 8, 1], [1, 16, 16, 1]])
def test_net_policy_breakpoints_bound_pieces_of_one_slope(sizes):
    # between the listed breakpoints a dense input_grad sweep never changes,
    # and the values follow the piece's line; one net with dead units
    rng = np.random.default_rng(len(sizes))
    nets = [FeedForwardNet.create(sizes, rng) for _ in range(NET.n - 1)]
    nets.append(critic_with_dead_units(sizes, rng))
    nets[-1].weights[0][0, 1] = 0.0    # a unit without a kink: rows to park
    from gridvolt.rl import _NetPolicy
    pol = _NetPolicy(FeedForwardNet.stack(nets))
    pts, u, du = pol.breakpoints(BOUNDS)
    assert pts.shape == u.shape == du.shape and pts.shape[1] == NET.n
    assert np.all(np.diff(pts, axis=0) >= 0.0)
    assert np.array_equal(pts[0], np.nextafter(pts[1], -np.inf))
    assert_same_bits(u, pol(pts))
    # a repeated breakpoint's row holds the slope right of its last copy
    for b in range(NET.n):
        last = np.searchsorted(pts[:, b], pts[:, b], side="right") - 1
        np.testing.assert_array_equal(du[:, b], du[last, b])
    assert any(len(np.unique(col)) < len(col) for col in pts.T)
    sweep = np.concatenate([np.linspace(-3.0, 5.0, 20_001),
                            np.linspace(-300.0, 300.0, 4_001)])
    v = np.tile(sweep[:, None], (1, NET.n))
    grad = pol.input_grad(v)
    for b in range(NET.n):
        # the left tail's voltages below row 0 read row 0
        k = np.maximum(np.searchsorted(pts[:, b], v[:, b], side="right") - 1,
                       0)
        gap = np.abs(v[:, b, None] - pts[None, :, b]).min(axis=1)
        rows = gap > 1e-9
        assert rows.sum() > 23_900
        # equal up to the rounding of a row's place in a batched product
        np.testing.assert_allclose(grad[rows, b], du[k[rows], b],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            pol(v)[rows, b],
            u[k[rows], b] + du[k[rows], b] * (v[rows, b] - pts[k[rows], b]),
            rtol=1e-9, atol=1e-9)

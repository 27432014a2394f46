import numpy as np
import pytest

from gridvolt.dynamics import CostParams
from gridvolt.grid import (
    build_sensitivity,
    five_bus_fixture,
    generate_random_feeder,
)
from gridvolt.policy import (
    MonotonePolicy,
    RawPolicyParams,
    constrain,
    policy_eval_bus,
    sample_raw_params,
    verify_monotone,
)
from gridvolt.rl import (
    _FIRST_ROWS,
    FeedForwardNet,
    ReplayBuffer,
    TrainConfig,
    TrainingDiverged,
    Transition,
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

NET = five_bus_fixture()
X5 = build_sensitivity(NET).X
BOUNDS = NET.bounds()


def make_env():
    return VoltEnv(X=X5, v_lower=BOUNDS[0], v_upper=BOUNDS[1],
                   cp=CostParams())


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
    h = np.asarray(x, dtype=float)
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
    """Reverse pass that keeps the pre-activations and masks on them."""
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
    arr = np.array([float(val)])
    return Transition(v=arr, u=arr, r=arr, v_next=arr)


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=5, seed=0)
    for k in range(8):
        buf.push(tr(k))
    assert len(buf) == 5
    held = [t.v[0] for t in buf.snapshot()]
    assert held == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_buffer_rejects_oversample():
    buf = ReplayBuffer(capacity=5, seed=0)
    buf.push(tr(1))
    with pytest.raises(ValueError, match="cannot sample"):
        buf.sample(2)


def test_buffer_uniform_sampling():
    k = 10
    buf = ReplayBuffer(capacity=k, seed=123)
    for i in range(k):
        buf.push(tr(i))
    draws = 100_000
    counts = np.zeros(k)
    for _ in range(draws // k):
        v, _, _, _ = buf.sample(k)
        idx = v[:, 0].astype(int)
        counts += np.bincount(idx, minlength=k)
    p = 1.0 / k
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


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


@pytest.mark.parametrize("capacity, pushes", [
    (4 * _FIRST_ROWS, _FIRST_ROWS // 2),          # still filling
    (4 * _FIRST_ROWS, _FIRST_ROWS + 300),         # across a growth boundary
    (_FIRST_ROWS + 200, 3 * _FIRST_ROWS),         # grown, then wrapped
    (50, 130),                                    # wrapped in the first rows
], ids=["filling", "grown", "grown-wrapped", "small-wrapped"])
def test_buffer_sample_equals_list_reference(capacity, pushes):
    rng = np.random.default_rng(capacity + pushes)
    buf = ReplayBuffer(capacity, seed=9)
    ref = ListReplayBuffer(capacity, seed=9)
    for k in range(pushes):
        t = Transition(v=rng.normal(size=3), u=rng.normal(size=3),
                       r=rng.normal(size=3), v_next=rng.normal(size=3))
        buf.push(t)
        ref.push(t)
        if k % 97 == 96 or k == pushes - 1:
            for got, want in zip(buf.sample(32), ref.sample(32)):
                np.testing.assert_array_equal(got, want)
    assert len(buf) == len(ref.items) == min(capacity, pushes)
    oldest_first = ref.items[ref.head:] + ref.items[:ref.head]
    for got, want in zip(buf.snapshot(), oldest_first, strict=True):
        for name in ("v", "u", "r", "v_next"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


def test_buffer_eviction_past_first_allocation():
    capacity = _FIRST_ROWS + 10
    buf = ReplayBuffer(capacity, seed=0)
    total = capacity + 500     # overwrites the oldest 500, keeps the rest
    for k in range(total):
        buf.push(tr(k))
    assert len(buf) == capacity
    held = [t.v[0] for t in buf.snapshot()]
    assert held == list(map(float, range(total - capacity, total)))


def test_buffer_rejects_mismatched_widths():
    buf = ReplayBuffer(capacity=5, seed=0)
    buf.push(tr(1))
    arr = np.zeros(2)
    with pytest.raises(ValueError, match="shapes"):
        buf.push(Transition(v=arr, u=arr, r=arr, v_next=arr))


def test_transition_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Transition(v=np.array([np.inf]), u=np.zeros(1), r=np.zeros(1),
                   v_next=np.zeros(1))


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
    params = constrain(raw, band1, 1e-3)
    u = policy_eval_bus(params, 0, v)[:, None]
    _, dq = q_action_grad(critic, v[:, None], u)
    norm, = stable_actor_update(raw, band1, 1e-3, v[:, None], dq, lr=1e-2)
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
            params = constrain(raw, band1, 1e-3)
            u = policy_eval_bus(params, 0, v)[0]
            dq = np.array([-2.0 * (u - u_star)])
            stable_actor_update(raw, band1, 1e-3, v[:, None], dq[:, None],
                                lr=5.0)
        u_final = policy_eval_bus(constrain(raw, band1, 1e-3), 0, v)[0]
        assert u_final == pytest.approx(expect, abs=tol)


def test_net_actor_ascends_quadratic():
    rng = np.random.default_rng(8)
    actor = FeedForwardNet.create([1, 8, 1], rng)
    v = rng.uniform(0.9, 1.1, size=(16, 1))
    for _ in range(4000):
        u = net_eval(actor, v)
        dq = -2.0 * (u - 0.7)
        net_actor_update(actor, v, dq, lr=0.2)
    np.testing.assert_allclose(net_eval(actor, v), 0.7, atol=0.01)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_zero_episodes_returns_initial_policy():
    env = make_env()
    res1 = train(env, small_cfg(episodes=0))
    res2 = train(env, small_cfg(episodes=0))
    assert res1.log == []
    probe = np.array([1.07, 1.0, 0.93, 1.06])
    np.testing.assert_array_equal(res1.policy(probe), res2.policy(probe))


@pytest.mark.parametrize("scope", ["local", "joint"])
@pytest.mark.parametrize("actor", ["stable", "unconstrained"])
def test_train_deterministic_logs(actor, scope):
    env = make_env()
    r1 = train(env, small_cfg(agent_scope=scope), actor_kind=actor)
    r2 = train(env, small_cfg(agent_scope=scope), actor_kind=actor)
    assert r1.updates > 0
    assert r1.log == r2.log
    probe = np.array([1.08, 0.94, 1.0, 1.02])
    np.testing.assert_array_equal(r1.policy(probe), r2.policy(probe))


def test_train_log_csv_roundtrip(tmp_path):
    env = make_env()
    res = train(env, small_cfg(episodes=3))
    path = tmp_path / "log.csv"
    write_training_log(res.log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "episode,return,td_loss_mean,grad_norms,wall_ms"
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
    from gridvolt.dynamics import rollout, stage_cost
    from gridvolt.policy import ZeroPolicy

    def fidgety(v):
        return np.full_like(v, 0.1)

    v_env = np.full(4, 1.0)
    kw = dict(T=30, dt=0.1, cp=CostParams(), bounds=BOUNDS)
    cost_zero = rollout(ZeroPolicy(), X5, v_env, np.zeros(4),
                        **kw).discounted_cost[0]
    cost_fidget = rollout(fidgety, X5, v_env, np.zeros(4),
                          **kw).discounted_cost[0]
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


@pytest.mark.parametrize("joint", [False, True])
def test_net_policy_batch_equals_row_by_row(tmp_path, joint):
    rng = np.random.default_rng(4)
    n = NET.n
    sizes = [n, 16, 16, n] if joint else [1, 16, 16, 1]
    nets = [FeedForwardNet.create(sizes, rng)
            for _ in range(1 if joint else n)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), nets, joint, BOUNDS)
    pol, _band = load_net_policy(str(path))
    v = rng.uniform(0.9, 1.1, size=(7, n))
    batch = pol(v)
    assert batch.shape == (7, n)
    np.testing.assert_array_equal(batch, np.array([pol(row) for row in v]))
    assert pol(v[0]).shape == (n,)


@pytest.mark.parametrize("joint, sizes, count, message", [
    (False, [1, 8, 1], 3, "local checkpoint has 3 nets for 4 buses"),
    (True, [4, 8, 4], 2, "joint checkpoint has 2 nets for 4 buses"),
    (False, [2, 8, 1], 4, "not a consistent 1 -> 1"),
    (True, [4, 8, 1], 1, "not a consistent 4 -> 4"),
])
def test_load_net_policy_rejects_nets_that_miss_the_band(tmp_path, joint,
                                                         sizes, count,
                                                         message):
    rng = np.random.default_rng(8)
    nets = [FeedForwardNet.create(sizes, rng) for _ in range(count)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), nets, joint, BOUNDS)
    with pytest.raises(ValueError, match=message):
        load_net_policy(str(path))


def relu_pattern(net, x):
    """Sign pattern of every hidden pre-activation, one row per sample."""
    h, signs = x, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w + b
        signs.append(z > 0.0)
        h = np.maximum(z, 0.0)
    return np.concatenate(signs, axis=-1)


@pytest.mark.parametrize("joint", [False, True])
def test_net_policy_input_grad_matches_central_differences(joint):
    rng = np.random.default_rng(12)
    n, h = NET.n, 1e-6
    sizes = [n, 16, 16, n] if joint else [1, 16, 16, 1]
    nets = [FeedForwardNet.create(sizes, rng)
            for _ in range(1 if joint else n)]
    from gridvolt.rl import _NetPolicy
    pol = _NetPolicy(nets, joint)
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
        if joint:
            keep = [np.all(relu_pattern(nets[0], v + s) ==
                           relu_pattern(nets[0], v), axis=1)
                    for s in (step, -step)]
        else:
            col = v[:, i:i + 1]
            keep = [np.all(relu_pattern(nets[i], col + s) ==
                           relu_pattern(nets[i], col), axis=1)
                    for s in (h, -h)]
        rows = keep[0] & keep[1]
        fd = (pol(v[rows] + step)[:, i] - pol(v[rows] - step)[:, i]) / (2 * h)
        np.testing.assert_allclose(grad[rows, i], fd, rtol=1e-6, atol=1e-7)
        checked += int(rows.sum())
    assert checked > 30 * n

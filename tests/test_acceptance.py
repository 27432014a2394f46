"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The training-backed criteria share one full 200-episode run through a
module fixture; everything is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from gridvolt.bench import evaluate
from gridvolt.dynamics import CostParams, make_suite, rollout, stage_cost
from gridvolt.grid import (
    build_sensitivity,
    check_positive_definite,
    five_bus_fixture,
    generate_random_feeder,
    solve_distflow,
)
from gridvolt.lyapunov import CertifyConfig, certify_policy
from gridvolt.policy import (
    LinearDeadbandPolicy,
    MonotonePolicy,
    RawPolicyParams,
    constrain,
    policy_eval_bus,
    policy_input_grad,
    policy_param_grad,
    sample_raw_params,
    verify_monotone,
)
from gridvolt.rl import (
    FeedForwardNet,
    TrainConfig,
    VoltEnv,
    critic_update,
    net_backprop,
    net_eval,
    train,
    write_training_log,
)

NET = five_bus_fixture()
SENS = build_sensitivity(NET)
X5 = SENS.X
BOUNDS = NET.bounds()
CP = CostParams()


def discounted_stage_cost(runs, gamma=TrainConfig().gamma):
    """Sum over the run's steps of gamma^t times the stage cost."""
    k = runs.steps[0]
    costs = stage_cost(runs.v[:k, 0], runs.u[:k, 0], BOUNDS, CP)
    return sum((gamma ** t) * c for t, c in enumerate(costs))


def line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {status}{tail}")
    return ok


@pytest.fixture(scope="module")
def trained():
    """One full default training run, with per-episode monotonicity audits."""
    env = VoltEnv(X=X5, v_lower=BOUNDS[0], v_upper=BOUNDS[1], cp=CP)
    cfg = TrainConfig(seed=0)
    audits = []

    def audit(_episode, raw):
        params = constrain(raw, BOUNDS, cfg.eps)
        audits.append(verify_monotone(params).passed)

    t0 = time.perf_counter()
    result = train(env, cfg, episode_callback=audit)
    elapsed = time.perf_counter() - t0
    return {"result": result, "audits": audits, "train_seconds": elapsed,
            "cfg": cfg, "env": env}


def train_policy_for_seed(seed):
    env = VoltEnv(X=X5, v_lower=BOUNDS[0], v_upper=BOUNDS[1], cp=CP)
    return train(env, TrainConfig(seed=seed)).policy


# ---------------------------------------------------------------------------
# 1. positive definiteness of the sensitivity matrices
# ---------------------------------------------------------------------------

def test_criterion_1_sensitivity_positive_definite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = np.inf
    for k in range(100):
        n = int(rng.integers(1, 57))
        net = generate_random_feeder(n=n, rng_seed=1000 + k)
        sens = build_sensitivity(net)
        mx = check_positive_definite(sens.X)
        mr = check_positive_definite(sens.R)
        worst = min(worst, mx, mr)
    elapsed = time.perf_counter() - t0
    ok = worst > 0.0 and elapsed < 10.0
    line(1, "sensitivity matrices positive definite on 100 random feeders",
         ok, f"min eigenvalue {worst:.3e}, {elapsed:.1f}s")
    assert worst > 0.0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. recursion vs closed linear form
# ---------------------------------------------------------------------------

def test_criterion_2_distflow_consistency():
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 41))
        net = generate_random_feeder(n=n, rng_seed=2000 + k)
        sens = build_sensitivity(net)
        p = rng.normal(scale=0.3, size=n)
        q = rng.normal(scale=0.3, size=n)
        _, v = solve_distflow(net, p, q)
        v_lin = sens.R @ p + sens.X @ q + net.v0
        worst = max(worst, float(np.max(np.abs(v - v_lin))))
    ok = worst <= 1e-10
    line(2, "branch-flow recursion matches linear form on 100 random cases",
         ok, f"max deviation {worst:.2e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 3. monotonicity certificate over the constraint map
# ---------------------------------------------------------------------------

def test_criterion_3_monotone_policy_suite():
    rng = np.random.default_rng(303)
    failures = 0
    for k in range(1000):
        if k % 3 == 0:
            raw = sample_raw_params(NET.n, 16, rng)
        elif k % 3 == 1:
            raw = RawPolicyParams(
                *(rng.normal(scale=2.0, size=(NET.n, 16)) for _ in range(4)))
        else:
            raw = RawPolicyParams(
                *(rng.uniform(-60.0, 60.0, size=(NET.n, 16))
                  for _ in range(4)))
        params = constrain(raw, BOUNDS, 1e-3)
        if not verify_monotone(params).passed:
            failures += 1
    ok = failures == 0
    line(3, "1000 random constrained policies pass the monotone certificate",
         ok, f"{failures} failures")
    assert failures == 0


# ---------------------------------------------------------------------------
# 4. stability certificate: energy decrease and convergence on rollouts
# ---------------------------------------------------------------------------

def test_criterion_4_stability_certificates():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    cfg = CertifyConfig(v_lower=tuple(BOUNDS[0]), v_upper=tuple(BOUNDS[1]),
                        rollouts=100, horizon=100, dt=0.1, dist_tol=1e-3,
                        seed=44)
    bad = []
    for k in range(50):
        raw = sample_raw_params(NET.n, 16, rng)
        pol = MonotonePolicy.from_raw(raw, BOUNDS, 1e-3)
        cert = certify_policy(X5, pol, cfg, policy_id=f"sample-{k}")
        if not cert.passed:
            bad.append((k, cert.summary()))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    line(4, "50 random policies certified on 100 rollouts each",
         ok, f"{len(bad)} failures, {elapsed:.1f}s")
    assert not bad, bad[0][1] if bad else ""
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. gradient oracle
# ---------------------------------------------------------------------------

def _rel_err(a, f):
    scale = max(abs(a), abs(f))
    if scale < 1e-8:
        return 0.0
    return abs(a - f) / scale


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(505)
    band = BOUNDS
    h = 1e-6
    worst = 0.0
    probes = 0

    # stacked-ReLU input gradients, probing away from ramp kinks
    raw = sample_raw_params(NET.n, 16, rng, gain_range=(2.0, 8.0))
    p = constrain(raw, band, 1e-3)
    kinks = [np.concatenate([-p.bplus[i, 1:], p.bminus[i, 1:]])
             for i in range(NET.n)]
    while probes < 250:
        v = rng.uniform(0.6, 1.4, NET.n)
        if any(np.any(np.abs(kinks[i] - v[i]) < 2 * h) for i in range(NET.n)):
            continue
        from gridvolt.policy import policy_eval
        fd = (policy_eval(p, v + h) - policy_eval(p, v - h)) / (2 * h)
        ana = policy_input_grad(p, v)
        worst = max(worst, max(_rel_err(a, f) for a, f in zip(ana, fd)))
        probes += 1

    # parameter gradients through the constraint map
    names = ("slope_pos", "decr_pos", "slope_neg", "decr_neg")
    for _ in range(350):
        bus = int(rng.integers(0, NET.n))
        v = float(rng.uniform(0.7, 1.3))
        name = names[int(rng.integers(0, 4))]
        j = int(rng.integers(1, 16))
        grads = policy_param_grad(raw, band, 1e-3, np.full(NET.n, v))
        ana = grads[names.index(name)][bus, j]
        bump = raw.copy()
        getattr(bump, name)[bus, j] += h
        up = policy_eval_bus(constrain(bump, band, 1e-3), bus, v)[0]
        getattr(bump, name)[bus, j] -= 2 * h
        dn = policy_eval_bus(constrain(bump, band, 1e-3), bus, v)[0]
        worst = max(worst, _rel_err(ana, (up - dn) / (2 * h)))
        probes += 1

    # feedforward parameter and input gradients
    net = FeedForwardNet.create([2, 24, 24, 1], rng)
    x = rng.normal(size=(8, 2))
    upstream = rng.normal(size=(8, 1))
    grads, gin = net_backprop(net, x, upstream)

    def objective():
        return float((net_eval(net, x) * upstream).sum())

    for _ in range(300):
        k = int(rng.integers(0, len(net.weights)))
        which = int(rng.integers(0, 2))
        arr = net.weights[k] if which == 0 else net.biases[k]
        g = grads[k][which]
        j = int(rng.integers(0, arr.size))
        flat = arr.reshape(-1)
        old = flat[j]
        flat[j] = old + h
        up = objective()
        flat[j] = old - h
        dn = objective()
        flat[j] = old
        worst = max(worst, _rel_err(g.reshape(-1)[j], (up - dn) / (2 * h)))
        probes += 1
    for _ in range(100):
        i = int(rng.integers(0, x.shape[0]))
        j = int(rng.integers(0, x.shape[1]))
        old = x[i, j]
        x[i, j] = old + h
        up = objective()
        x[i, j] = old - h
        dn = objective()
        x[i, j] = old
        worst = max(worst, _rel_err(gin[i, j], (up - dn) / (2 * h)))
        probes += 1

    ok = probes >= 1000 and worst <= 1e-4
    line(5, "analytic gradients match central differences on 1000 probes",
         ok, f"{probes} probes, worst rel err {worst:.2e}")
    assert probes >= 1000
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# 6. feasibility of every training iterate
# ---------------------------------------------------------------------------

def test_criterion_6_training_feasibility(trained):
    audits = trained["audits"]
    ok = len(audits) == trained["cfg"].episodes and all(audits)
    line(6, "every actor iterate during training is certified monotone",
         ok, f"{sum(audits)}/{len(audits)} episodes clean")
    assert len(audits) == trained["cfg"].episodes
    assert all(audits)


def test_training_improvement_smoke(trained):
    """Training must not degrade the greedy policy on a held-out suite.

    At the shipped learning rates the constrained actor starts strong and
    refines slowly, so windowed episodic returns are dominated by scenario
    draws; the frozen calibrated check compares the discounted cost of the
    final greedy policy against the initial one on a fixed suite.
    """
    res = trained["result"]
    cfg = trained["cfg"]
    fixed = make_suite(NET.n, 40, seed=777)

    def total_cost(pol):
        return sum(discounted_stage_cost(rollout(pol, X5, v, q, T=30, dt=0.1))
                   for v, q, _ in fixed)

    before = total_cost(MonotonePolicy.from_raw(res.init_raw, BOUNDS, cfg.eps))
    after = total_cost(res.policy)
    ok = after < before
    line("smoke", "training improves the greedy policy on a fixed suite",
         ok, f"discounted cost {before:.2f} -> {after:.2f}")
    assert after < before


# ---------------------------------------------------------------------------
# 7. benchmark against the droop baseline
# ---------------------------------------------------------------------------

def test_criterion_7_benchmark_vs_linear(trained):
    t0 = time.perf_counter()
    suite = make_suite(NET.n, 200, seed=1234)
    linear = LinearDeadbandPolicy(*BOUNDS)
    report = evaluate([("stable_ddpg", trained["result"].policy),
                       ("linear", linear)],
                      X5, suite, BOUNDS, T=100, dt=0.1)
    eval_seconds = time.perf_counter() - t0

    stability = report.metric("stable_ddpg", "stability_rate")[0]
    cost_t = report.metric("stable_ddpg", "transient_cost")[0]
    cost_l = report.metric("linear", "transient_cost")[0]
    rec_t = report.metric("stable_ddpg", "recovery_steps")[0]
    rec_l = report.metric("linear", "recovery_steps")[0]
    ratio = cost_t / cost_l
    if ratio > 0.9:
        # narrow miss rule: median over five training seeds
        ratios = [ratio]
        for seed in range(1, 5):
            pol = train_policy_for_seed(seed)
            rep = evaluate([("s", pol), ("linear", linear)], X5, suite,
                           BOUNDS, T=100, dt=0.1)
            ratios.append(rep.metric("s", "transient_cost")[0]
                          / rep.metric("linear", "transient_cost")[0])
        ratio = float(np.median(ratios))

    budget = trained["train_seconds"] + eval_seconds
    ok = stability == 1.0 and ratio <= 0.9 and rec_t < rec_l \
        and budget < 1800.0
    line(7, "trained policy beats the droop baseline on the shared suite",
         ok, f"stability {stability:.3f}, cost ratio {ratio:.3f}, "
             f"recovery {rec_t:.1f} vs {rec_l:.1f} steps, "
             f"budget {budget:.0f}s")
    assert stability == 1.0
    assert ratio <= 0.9
    assert rec_t < rec_l
    assert budget < 1800.0


# ---------------------------------------------------------------------------
# 8. degenerate critic fixed point
# ---------------------------------------------------------------------------

def test_criterion_8_degenerate_critic_fixed_point():
    rng = np.random.default_rng(808)
    critic = FeedForwardNet.create([2, 100, 100, 1], rng)
    target = critic.copy()
    cfg = TrainConfig(gamma=0.0, critic_lr=0.1, batch_size=32)
    m = 32
    batch = (rng.uniform(0.9, 1.1, (m, 1)), rng.normal(scale=0.5, size=(m, 1)),
             np.full((m, 1), -2.0), rng.uniform(0.9, 1.1, (m, 1)))

    u_next = np.zeros((m, 1))

    loss = np.inf
    steps = 0
    for steps in range(1, 5001):
        loss = critic_update(critic, target, batch, u_next, cfg)
        if loss < 1e-4:
            break
    ok = loss < 1e-4 and steps <= 5000
    line(8, "constant-reward critic reaches its fixed point",
         ok, f"MSE {loss:.2e} after {steps} steps")
    assert loss < 1e-4
    assert steps <= 5000


# ---------------------------------------------------------------------------
# 9. determinism of training and evaluation
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    env = VoltEnv(X=X5, v_lower=BOUNDS[0], v_upper=BOUNDS[1], cp=CP)
    cfg = TrainConfig(seed=9, episodes=8, episode_len=12, batch_size=32,
                      updates_per_episode=4, critic_hidden=(32, 32),
                      actor_units=8)
    logs = []
    for run in range(2):
        res = train(env, cfg)
        path = tmp_path / f"log{run}.csv"
        write_training_log(res.log, path)
        logs.append(path.read_bytes())

    suite = make_suite(NET.n, 20, seed=99)
    reports = []
    for _ in range(2):
        pol = MonotonePolicy.from_raw(
            sample_raw_params(NET.n, 8, np.random.default_rng(5)),
            BOUNDS, 1e-3)
        rep = evaluate([("p", pol), ("linear", LinearDeadbandPolicy(*BOUNDS))],
                       X5, suite, BOUNDS, T=60, dt=0.1)
        reports.append(rep.to_csv())
    ok = logs[0] == logs[1] and reports[0] == reports[1]
    line(9, "training logs and evaluation reports are bit-identical",
         ok, f"log bytes {len(logs[0])}, report bytes {len(reports[0])}")
    assert logs[0] == logs[1]
    assert reports[0] == reports[1]

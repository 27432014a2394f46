import numpy as np
import pytest

from gridvolt.dynamics import (
    CostParams,
    Rollouts,
    ScenarioConfig,
    dist_to_band,
    load_scenarios,
    make_suite,
    recovery_time,
    rollout,
    rollout_batch,
    sample_scenario,
    save_scenarios,
    stage_cost,
    step,
)
from gridvolt.grid import build_sensitivity, five_bus_fixture

BOUNDS1 = (np.array([0.95]), np.array([1.05]))
BOUNDS2 = (np.array([0.95, 0.95]), np.array([1.05, 1.05]))
CP = CostParams()


def test_step_zero_action_is_identity():
    X = np.array([[0.1]])
    q, v_env = np.zeros(1), np.array([1.02])
    q2, v2 = step(q, np.zeros(1), 0.1, X, v_env)
    np.testing.assert_array_equal(q2, q)
    np.testing.assert_array_equal(v2, X @ q + v_env)


def test_step_hand_example():
    X = np.array([[0.1]])
    q2, v2 = step(np.zeros(1), np.array([-0.5]), 0.1, X, np.array([1.06]))
    assert q2[0] == pytest.approx(-0.05)
    assert v2[0] == pytest.approx(1.055)


def test_step_roundtrip_linearity():
    X = np.array([[0.1, 0.05], [0.05, 0.2]])
    rng = np.random.default_rng(0)
    v_env, q = rng.uniform(0.9, 1.1, 2), rng.normal(size=2)
    u = rng.normal(size=2)
    q_fwd, _ = step(q, u, 0.1, X, v_env)
    q_back, _ = step(q_fwd, -u, 0.1, X, v_env)
    np.testing.assert_array_equal(q_back, q)


def test_step_affine_in_action():
    X = np.array([[0.2, 0.1], [0.1, 0.3]])
    q, v_env = np.zeros(2), np.array([1.0, 1.0])
    u1, u2 = np.array([0.3, -0.2]), np.array([-0.1, 0.4])
    a, b = 0.7, -1.3
    q_mix, _ = step(q, a * u1 + b * u2, 0.1, X, v_env)
    expected = q + a * (step(q, u1, 0.1, X, v_env)[0] - q) \
        + b * (step(q, u2, 0.1, X, v_env)[0] - q)
    np.testing.assert_allclose(q_mix, expected, atol=1e-15)


def test_v_env_conserved_over_long_rollout():
    X = np.array([[0.1, 0.05], [0.05, 0.2]])
    rng = np.random.default_rng(1)
    q, v_env = np.zeros(2), np.array([1.07, 0.93])
    for _ in range(1000):
        q, v = step(q, rng.normal(scale=0.1, size=2), 0.1, X, v_env)
        np.testing.assert_allclose(v - X @ q, v_env, atol=1e-12)


def test_step_block_equals_row_by_row():
    # a dense matrix, so that a change in the order of the sums shows
    X = build_sensitivity(five_bus_fixture()).X
    rng = np.random.default_rng(4)
    q, u = rng.normal(scale=0.1, size=(2, 6, 4))
    v_env = rng.uniform(0.9, 1.1, size=(6, 4))
    q_next, v_next = step(q, u, 0.1, X, v_env)
    for s in range(6):
        q_row, v_row = step(q[s], u[s], 0.1, X, v_env[s])
        np.testing.assert_array_equal(q_next[s], q_row)
        np.testing.assert_array_equal(v_next[s], v_row)


# ---------------------------------------------------------------------------
# costs and distances
# ---------------------------------------------------------------------------

def test_stage_cost_zero_in_band():
    assert stage_cost(np.array([1.0]), np.zeros(1), BOUNDS1, CP) == 0.0


def test_stage_cost_deviation_term():
    c = stage_cost(np.array([1.06]), np.zeros(1), BOUNDS1, CP)
    assert c == pytest.approx(100 * 0.01 ** 2)


def test_stage_cost_action_term():
    c = stage_cost(np.array([1.0]), np.array([0.2]), BOUNDS1, CP)
    assert c == pytest.approx(50 * 0.04)


def test_stage_cost_nonnegative_and_zero_iff():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.uniform(0.85, 1.15, 2)
        u = rng.normal(scale=0.5, size=2)
        c = stage_cost(v, u, BOUNDS2, CP)
        assert c >= 0.0
        if c == 0.0:
            assert dist_to_band(v, BOUNDS2) == 0.0
            assert np.all(u == 0.0)


def test_stage_cost_block_equals_row_by_row():
    rng = np.random.default_rng(5)
    v = rng.uniform(0.85, 1.15, size=(7, 2))
    u = rng.normal(scale=0.5, size=(7, 2))
    costs = stage_cost(v, u, BOUNDS2, CP)
    assert costs.shape == (7,)
    for s in range(7):
        single = stage_cost(v[s], u[s], BOUNDS2, CP)
        assert isinstance(single, float) and costs[s] == single


def test_dist_to_band_examples():
    assert dist_to_band(np.array([1.0, 1.02]), BOUNDS2) == 0.0
    assert dist_to_band(np.array([1.06, 1.00]), BOUNDS2) == pytest.approx(0.01)
    got = dist_to_band(np.array([1.07, 0.93]), BOUNDS2)
    assert got == pytest.approx(np.hypot(0.02, 0.02))


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(eta1=0.0, eta2=0.0)
    with pytest.raises(ValueError):
        CostParams(gamma=0.0)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_high_scenario_violates_upper():
    cfg = ScenarioConfig(kind="high", n=4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v_env, q0 = sample_scenario(cfg, rng)
        assert np.any(v_env > 1.05)
        np.testing.assert_array_equal(q0, 0.0)


def test_low_scenario_violates_lower():
    cfg = ScenarioConfig(kind="low", n=4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        v_env, _ = sample_scenario(cfg, rng)
        assert np.any(v_env < 0.95)


def test_scenario_deterministic_under_seed():
    cfg = ScenarioConfig(kind="mixed", n=5)
    a, _ = sample_scenario(cfg, np.random.default_rng(9))
    b, _ = sample_scenario(cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_mixed_scenarios_cover_both_sides():
    cfg = ScenarioConfig(kind="mixed", n=4)
    rng = np.random.default_rng(5)
    over = under = 0
    for _ in range(1000):
        v_env, _ = sample_scenario(cfg, rng)
        over += int(np.any(v_env > 1.05))
        under += int(np.any(v_env < 0.95))
    assert over == 1000
    assert under == 1000


def test_scenario_json_roundtrip(tmp_path):
    suite = make_suite(n=4, count=6, seed=0)
    path = tmp_path / "suite.json"
    save_scenarios(suite, path)
    loaded = load_scenarios(path)
    assert len(loaded) == 6
    for (v1, q1, l1), (v2, q2, l2) in zip(suite, loaded):
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(q1, q2)
        assert l1 == l2


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def zero_policy(v):
    return np.zeros_like(v)


def test_rollout_zero_policy_constant_voltage():
    X = np.array([[0.1, 0.05], [0.05, 0.2]])
    v_env = np.array([1.07, 1.01])
    runs = rollout(zero_policy, X, v_env, np.zeros(2), T=20, dt=0.1,
                   cp=CP, bounds=BOUNDS2)
    assert runs.steps[0] == 20
    for v in runs.v[:, 0]:
        np.testing.assert_array_equal(v, v_env)


def test_rollout_in_band_start_zero_cost():
    X = np.array([[0.1]])

    def deadband(v):
        return -np.maximum(v - 1.05, 0) + np.maximum(0.95 - v, 0)

    runs = rollout(deadband, X, np.array([1.0]), np.zeros(1), T=30, dt=0.1,
                   cp=CP, bounds=BOUNDS1)
    assert runs.discounted_cost[0] == 0.0
    np.testing.assert_array_equal(runs.u[:, 0], 0.0)


def test_rollout_matches_scalar_recursion():
    # single bus, linear deadband: gap contracts by (1 - dt*X) while above band
    X = np.array([[0.1]])
    dt = 0.1

    def deadband(v):
        return -np.maximum(v - 1.05, 0) + np.maximum(0.95 - v, 0)

    runs = rollout(deadband, X, np.array([1.09]), np.zeros(1), T=50, dt=dt,
                   cp=CP, bounds=BOUNDS1)
    gap = 0.04
    for t in range(51):
        assert runs.v[t, 0, 0] - 1.05 == pytest.approx(gap, abs=1e-9)
        gap *= (1 - dt * 0.1)


def test_rollout_diverges_and_flags():
    X = np.array([[0.1]])

    def runaway(v):
        return 100.0 * (v - 1.0)  # positive feedback

    runs = rollout(runaway, X, np.array([1.06]), np.zeros(1), T=500, dt=0.1,
                   cp=CP, bounds=BOUNDS1)
    assert runs.diverged[0]
    assert runs.steps[0] < 500
    assert recovery_time(runs, BOUNDS1)[0] is None


def test_rollout_discount_accumulation():
    X = np.array([[0.1]])
    runs = rollout(zero_policy, X, np.array([1.06]), np.zeros(1), T=3, dt=0.1,
                   cp=CP, bounds=BOUNDS1)
    c = 100 * 0.01 ** 2
    expect = c * (1 + 0.99 + 0.99 ** 2)
    assert runs.discounted_cost[0] == pytest.approx(expect)


# ---------------------------------------------------------------------------
# recovery time
# ---------------------------------------------------------------------------

def synth_runs(v_values):
    """One-scenario, one-bus record of the given voltages, never cut."""
    v = np.asarray(v_values, dtype=float).reshape(-1, 1, 1)
    T = len(v) - 1
    return Rollouts(v=v, q=np.zeros_like(v), u=np.zeros((T, 1, 1)),
                    stage_costs=np.zeros((T, 1)), dt=0.1,
                    discounted_cost=np.zeros(1), steps=np.array([T]))


def test_recovery_in_band_from_start():
    runs = synth_runs([1.0] * 10)
    assert recovery_time(runs, BOUNDS1)[0] == 0


def test_recovery_never():
    runs = synth_runs([1.2] * 10)
    assert recovery_time(runs, BOUNDS1)[0] is None


def test_recovery_enters_at_seven():
    vals = [1.08] * 7 + [1.0] * 5
    runs = synth_runs(vals)
    assert recovery_time(runs, BOUNDS1)[0] == 7


def test_recovery_requires_persistence():
    vals = [1.08] * 3 + [1.0] * 3 + [1.08] * 2 + [1.0] * 4
    runs = synth_runs(vals)
    assert recovery_time(runs, BOUNDS1)[0] == 8


def test_recovery_tolerance():
    vals = [1.08] * 4 + [1.0505] * 6  # within 1e-3 of the band edge
    runs = synth_runs(vals)
    assert recovery_time(runs, BOUNDS1, tol=1e-3)[0] == 4
    assert recovery_time(runs, BOUNDS1, tol=1e-4)[0] is None


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------

def test_rollout_trace_follows_disturbance(tmp_path):
    X = np.array([[0.1, 0.05], [0.05, 0.2]])
    series = np.array([[1.06, 1.0], [1.0, 1.0], [1.0, 0.93]])
    runs = rollout_batch(zero_policy, X, series[:, None, :], np.zeros((1, 2)),
                         T=None, dt=0.1, cp=CP, bounds=BOUNDS2)
    np.testing.assert_array_equal(runs.v[:runs.steps[0] + 1, 0], series)


# ---------------------------------------------------------------------------
# batched engine against the per-scenario loop
# ---------------------------------------------------------------------------

def reference_rollout(policy, X, v_env_series, q0, dt, cp, bounds,
                      blowup=10.0):
    """Per-scenario closed loop in plain numpy, one step at a time."""
    lo, hi = bounds
    T = len(v_env_series) - 1
    q = np.asarray(q0, dtype=float)
    v = X @ q + v_env_series[0]
    vs, qs, us, costs = [v], [q], [], []
    total, diverged = 0.0, False
    for t in range(T):
        if np.max(np.abs(v)) > blowup:
            diverged = True
            break
        u = np.asarray(policy(v), dtype=float)
        if not np.all(np.isfinite(u)):
            diverged = True
            break
        dev = np.maximum(v - hi, 0.0) + np.minimum(v - lo, 0.0)
        c = float(cp.eta1 * dev @ dev + cp.eta2 * (u @ u))
        q = q + dt * u
        v = X @ q + v_env_series[t + 1]
        us.append(u)
        costs.append(c)
        total += (cp.gamma ** t) * c
        vs.append(v)
        qs.append(q)
    n = len(q0)
    return (np.array(vs), np.array(qs), np.array(us).reshape(len(us), n),
            np.array(costs), total, diverged)


def mixed_policy(v):
    """Deadband near the band, runaway above 1.5, NaN once v is below 0.3."""
    u = -np.maximum(v - 1.05, 0.0) + np.maximum(0.95 - v, 0.0)
    u = np.where(v > 1.5, 100.0 * (v - 1.0), u)
    return np.where(v < 0.5, np.where(v < 0.3, np.nan, -1.0), u)


# a dense sensitivity matrix and a nonzero start, so that any change in the
# order of the engine's floating-point sums shows in the last bits
FIXTURE = five_bus_fixture()
MIXED_X = build_sensitivity(FIXTURE).X
MIXED_BOUNDS = FIXTURE.bounds()
# settling, runaway, heading to a non-finite action, calm (series only)
MIXED_ENV = np.array([[1.08, 0.92, 1.01, 1.063], [2.0, 2.1, 1.9, 2.0],
                      [0.45, 0.47, 0.46, 0.45], [1.0, 1.0, 1.0, 1.0]])
MIXED_Q0 = np.random.default_rng(3).normal(scale=0.02, size=(4, 4))


def assert_rows_match_reference(runs, series, q0, dt):
    for s in range(series.shape[1]):
        v, q, u, costs, total, diverged = reference_rollout(
            mixed_policy, MIXED_X, series[:, s], q0[s], dt, CP, MIXED_BOUNDS)
        k = runs.steps[s]
        np.testing.assert_array_equal(runs.v[:k + 1, s], v)
        np.testing.assert_array_equal(runs.q[:k + 1, s], q)
        np.testing.assert_array_equal(runs.u[:k, s], u)
        np.testing.assert_array_equal(runs.stage_costs[:k, s], costs)
        assert runs.discounted_cost[s] == total
        assert runs.diverged[s] == diverged
        assert k == len(u)


def test_engine_matches_reference_loop_per_row():
    T, dt = 40, 0.1
    env, q0 = MIXED_ENV[:3], MIXED_Q0[:3]
    seen = []

    def policy(v):
        seen.append(len(v))
        return mixed_policy(v)

    runs = rollout_batch(policy, MIXED_X, env, q0, T=T, dt=dt, cp=CP,
                         bounds=MIXED_BOUNDS)
    assert_rows_match_reference(runs, np.tile(env, (T + 1, 1, 1)), q0, dt)
    assert not runs.diverged[0] and runs.steps[0] == T
    for s in (1, 2):
        assert runs.diverged[s] and 0 < runs.steps[s] < T
    # cut rows are frozen and dropped from later policy calls
    np.testing.assert_array_equal(runs.v[-1, 1], runs.v[runs.steps[1], 1])
    assert seen[0] == 3 and seen[-1] == 1 and len(seen) == T


def test_engine_replays_a_per_step_series():
    T, dt = 40, 0.1
    series = np.tile(MIXED_ENV, (T + 1, 1, 1))
    series[:, 3, 0] = 1.0 + 0.08 * np.sin(0.3 * np.arange(T + 1))
    runs = rollout_batch(mixed_policy, MIXED_X, series, MIXED_Q0, T=None,
                         dt=dt, cp=CP, bounds=MIXED_BOUNDS)
    assert_rows_match_reference(runs, series, MIXED_Q0, dt)
    assert runs.steps[3] == T
    with pytest.raises(ValueError, match="series"):
        rollout_batch(mixed_policy, MIXED_X, series, MIXED_Q0, T=T - 1,
                      dt=dt, cp=CP, bounds=MIXED_BOUNDS)


def test_single_rollout_is_one_engine_row():
    one = rollout(mixed_policy, MIXED_X, MIXED_ENV[0], MIXED_Q0[0], T=30,
                  dt=0.1, cp=CP, bounds=MIXED_BOUNDS)
    runs = rollout_batch(mixed_policy, MIXED_X, MIXED_ENV, MIXED_Q0, T=30,
                         dt=0.1, cp=CP, bounds=MIXED_BOUNDS)
    np.testing.assert_array_equal(one.v[:, 0], runs.v[:, 0])
    np.testing.assert_array_equal(one.u[:, 0], runs.u[:, 0])


# ---------------------------------------------------------------------------
# the engine steps on slices until the first cut, then on index arrays
# ---------------------------------------------------------------------------

def counting(calls):
    def policy(v):
        calls.append(len(v))
        return mixed_policy(v)
    return policy


def test_engine_first_cut_after_all_rows_ran_live():
    # all rows live for 5 steps; row 1 blows up at step 5 (the switch to
    # index arrays), row 2's action turns NaN at step 9 (a later cut)
    T, dt = 30, 0.1
    series = np.tile(MIXED_ENV[[0, 3, 3]], (T + 1, 1, 1))
    series[5:, 1] = 11.0
    series[9:, 2] = 0.2
    q0 = MIXED_Q0[:3]
    calls = []
    runs = rollout_batch(counting(calls), MIXED_X, series, q0, T=None,
                         dt=dt, cp=CP, bounds=MIXED_BOUNDS)
    assert_rows_match_reference(runs, series, q0, dt)
    np.testing.assert_array_equal(runs.steps, [T, 5, 9])
    assert calls == [3] * 5 + [2] * 5 + [1] * (T - 10)


@pytest.mark.parametrize("env, calls_made", [
    (np.full((3, 4), 11.0), []),                          # all blown up
    (np.full((3, 4), -11.0), []),                         # ... below -blowup
    (np.full((3, 4), 0.2), [3]),                          # all actions NaN
    (np.array([[11.0] * 4, [0.2] * 4, [-12.0] * 4]), [1]),  # both kinds
])
def test_engine_cuts_every_row_at_step_zero(env, calls_made):
    T, dt = 10, 0.1
    q0 = MIXED_Q0[:3]
    calls = []
    runs = rollout_batch(counting(calls), MIXED_X, env, q0, T=T, dt=dt,
                         cp=CP, bounds=MIXED_BOUNDS)
    assert_rows_match_reference(runs, np.tile(env, (T + 1, 1, 1)), q0, dt)
    np.testing.assert_array_equal(runs.steps, 0)
    assert runs.diverged.all()
    np.testing.assert_array_equal(runs.v, np.broadcast_to(runs.v[0],
                                                          runs.v.shape))
    np.testing.assert_array_equal(runs.u, 0.0)
    # blown-up rows are cut before the policy sees them
    assert calls == calls_made


def test_engine_blowup_and_nonfinite_cut_in_one_step():
    # rows 0 and 1 run live until step 6, where row 0's disturbance blows
    # past the bound and row 1's drives its action to NaN; row 2 runs on
    T, dt, k = 30, 0.1, 6
    series = np.tile(MIXED_ENV[[0, 0, 3]], (T + 1, 1, 1))
    series[k:, 0] = 11.0
    series[k:, 1] = 0.2
    q0 = MIXED_Q0[:3]
    calls = []
    runs = rollout_batch(counting(calls), MIXED_X, series, q0, T=None,
                         dt=dt, cp=CP, bounds=MIXED_BOUNDS)
    assert_rows_match_reference(runs, series, q0, dt)
    np.testing.assert_array_equal(runs.steps, [k, k, T])
    assert calls == [3] * k + [2] + [1] * (T - k - 1)

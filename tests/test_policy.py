import math

import numpy as np
import pytest

from gridvolt.policy import (
    CheckpointError,
    LinearDeadbandPolicy,
    MonotonePolicy,
    RawPolicyParams,
    StackedReluParams,
    constrain,
    linear_deadband,
    load_checkpoint,
    policy_eval,
    policy_eval_bus,
    policy_input_grad,
    policy_param_grad,
    sample_raw_params,
    save_checkpoint,
    verify_monotone,
)

N, D = 3, 8
BAND = (np.full(N, 0.95), np.full(N, 1.05))
EPS = 1e-3


def random_raw(rng, scale=1.0):
    return RawPolicyParams(
        slope_pos=rng.normal(scale=scale, size=(N, D)),
        decr_pos=rng.normal(scale=scale, size=(N, D)),
        slope_neg=rng.normal(scale=scale, size=(N, D)),
        decr_neg=rng.normal(scale=scale, size=(N, D)),
    )


def check_invariants(p):
    """Direct re-statement of the constrained-parameter contract."""
    pos_prefix = np.cumsum(p.wplus, axis=1)
    neg_prefix = np.cumsum(p.wminus, axis=1)
    assert np.all(p.wplus[:, 0] == 0.0)
    assert np.all(p.wminus[:, 0] == 0.0)
    assert np.all(pos_prefix[:, 1:] >= p.eps)
    assert np.all(neg_prefix[:, 1:] <= -p.eps)
    assert np.all(p.bplus[:, 0] == 0.0)
    assert np.all(p.bminus[:, 0] == 0.0)
    np.testing.assert_array_equal(p.bplus[:, 1], -p.v_upper)
    np.testing.assert_array_equal(p.bminus[:, 1], p.v_lower)
    assert np.all(np.diff(p.bplus[:, 1:], axis=1) <= 0.0)
    assert np.all(np.diff(p.bminus[:, 1:], axis=1) <= 0.0)


# ---------------------------------------------------------------------------
# constraint map
# ---------------------------------------------------------------------------

def test_constrain_floor_is_exact():
    raw = RawPolicyParams(*(np.full((N, D), -900.0) for _ in range(4)))
    p = constrain(raw, BAND, EPS)
    pos_prefix = np.cumsum(p.wplus, axis=1)
    np.testing.assert_array_equal(pos_prefix[:, 1:], EPS)
    np.testing.assert_array_equal(np.cumsum(p.wminus, axis=1)[:, 1:], -EPS)


def test_constrain_invariants_hold_for_random_raw():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = constrain(random_raw(rng, scale=3.0), BAND, EPS)
        check_invariants(p)


def test_constrain_rejects_nonfinite():
    raw = random_raw(np.random.default_rng(1))
    raw.slope_pos[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        constrain(raw, BAND, EPS)


def test_constrain_zero_raw_golden():
    raw = RawPolicyParams(*(np.zeros((N, D)) for _ in range(4)))
    p = constrain(raw, BAND, EPS)
    slope = EPS + math.log(2.0)
    # single active segment of slope eps+log2; later weights telescope to 0
    assert p.wplus[0, 1] == pytest.approx(slope, rel=1e-15)
    np.testing.assert_allclose(p.wplus[:, 2:], 0.0, atol=1e-16)
    u = policy_eval(p, np.array([1.06, 1.0, 0.93]))
    assert u[0] == pytest.approx(-slope * 0.01, rel=1e-12)
    assert u[1] == 0.0
    assert u[2] == pytest.approx(slope * 0.02, rel=1e-12)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def hand_params():
    """Single bus, two units: slope 0.5 above 1.05, slope -0.5 below 0.95."""
    return StackedReluParams(
        wplus=np.array([[0.0, 0.5]]),
        bplus=np.array([[0.0, -1.05]]),
        wminus=np.array([[0.0, -0.5]]),
        bminus=np.array([[0.0, 0.95]]),
        v_lower=np.array([0.95]),
        v_upper=np.array([1.05]),
        eps=1e-3,
    )


def test_eval_hand_example():
    p = hand_params()
    assert policy_eval(p, np.array([1.15]))[0] == pytest.approx(-0.05)
    assert policy_eval(p, np.array([0.85]))[0] == pytest.approx(0.05)


def test_eval_zero_at_band_center_and_edges():
    p = hand_params()
    for v in (1.0, 0.95, 1.05, 0.97):
        assert policy_eval(p, np.array([v]))[0] == 0.0


def test_eval_continuous_at_upper_edge():
    p = hand_params()
    us = [policy_eval(p, np.array([1.05 + h]))[0] for h in (1e-6, 1e-9, 1e-12)]
    for h, u in zip((1e-6, 1e-9, 1e-12), us):
        assert u == pytest.approx(-0.5 * h, rel=1e-6)


def test_eval_batched_matches_loop():
    rng = np.random.default_rng(2)
    p = constrain(random_raw(rng), BAND, EPS)
    vv = rng.uniform(0.85, 1.15, size=(20, N))
    batch = policy_eval(p, vv)
    for i, v in enumerate(vv):
        np.testing.assert_array_equal(batch[i], policy_eval(p, v))
    for bus in range(N):
        np.testing.assert_array_equal(batch[:, bus],
                                      policy_eval_bus(p, bus, vv[:, bus]))


def test_sign_opposes_violation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = constrain(random_raw(rng), BAND, EPS)
        v = rng.uniform(0.8, 1.2, size=N)
        u = policy_eval(p, v)
        above, below = v > BAND[1], v < BAND[0]
        assert np.all(u[above] < 0)
        assert np.all(u[below] > 0)
        assert np.all(u[~(above | below)] == 0.0)


def test_global_nonincreasing_pairs():
    rng = np.random.default_rng(4)
    for trial in range(5):
        p = constrain(random_raw(rng, scale=1 + trial), BAND, EPS)
        for bus in range(N):
            pairs = np.sort(rng.uniform(0.5, 1.5, size=(10_000, 2)), axis=1)
            u_lo = policy_eval_bus(p, bus, pairs[:, 0])
            u_hi = policy_eval_bus(p, bus, pairs[:, 1])
            assert np.all(u_lo >= u_hi)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_input_grad_hand_example():
    p = hand_params()
    assert policy_input_grad(p, np.array([1.15]))[0] == pytest.approx(-0.5)
    assert policy_input_grad(p, np.array([1.0]))[0] == 0.0
    assert policy_input_grad(p, np.array([0.85]))[0] == pytest.approx(-0.5)


def near_kink(p, v, h):
    """True per bus when v sits within h of any ramp kink of that bus."""
    kink_pos = -p.bplus  # ascending-stack kinks
    kink_neg = p.bminus
    close = np.zeros(len(v), dtype=bool)
    for bus in range(len(v)):
        kinks = np.concatenate([kink_pos[bus, 1:], kink_neg[bus, 1:]])
        close[bus] = np.any(np.abs(kinks - v[bus]) <= h)
    return close


def test_input_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = constrain(random_raw(rng), BAND, EPS)
    h = 1e-6
    checked = 0
    while checked < 100:
        v = rng.uniform(0.6, 1.4, size=N)
        if np.any(near_kink(p, v, 2 * h)):
            continue
        fd = (policy_eval(p, v + h) - policy_eval(p, v - h)) / (2 * h)
        ana = policy_input_grad(p, v)
        np.testing.assert_allclose(fd, ana, rtol=1e-6, atol=1e-6)
        checked += 1


def test_input_grad_nonpositive_and_strict_outside():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = constrain(random_raw(rng), BAND, EPS)
        v = rng.uniform(0.5, 1.5, size=N)
        g = policy_input_grad(p, v)
        assert np.all(g <= 0.0)
        outside = (v > BAND[1]) | (v < BAND[0])
        assert np.all(g[outside] <= -EPS * (1 - 1e-9))


def fd_param_grad(raw, bus, v, h=1e-6):
    """Central-difference oracle over every raw coordinate of one bus."""
    grads = []
    for name in ("slope_pos", "decr_pos", "slope_neg", "decr_neg"):
        arr = getattr(raw, name)
        g = np.zeros(arr.shape[1])
        for j in range(arr.shape[1]):
            for sign in (+1, -1):
                bump = raw.copy()
                getattr(bump, name)[bus, j] += sign * h
                u = policy_eval_bus(constrain(bump, BAND, EPS), bus, v)[0]
                g[j] += sign * u
        grads.append(g / (2 * h))
    return tuple(grads)


def bus_param_grad(raw, band, bus, v):
    """One bus's parameter gradients with every bus at voltage v."""
    grads = policy_param_grad(raw, band, EPS, np.full(raw.n, v))
    return tuple(g[bus] for g in grads)


def test_param_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    raw = random_raw(rng)
    for trial in range(20):
        bus = int(rng.integers(0, N))
        v = float(rng.uniform(0.7, 1.3))
        ana = bus_param_grad(raw, BAND, bus, v)
        num = fd_param_grad(raw, bus, v)
        for a, f in zip(ana, num):
            np.testing.assert_allclose(a, f, rtol=1e-4, atol=1e-9)


def test_param_grad_zero_in_deadband():
    rng = np.random.default_rng(8)
    raw = random_raw(rng)
    grads = bus_param_grad(raw, BAND, 0, 1.0)
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)


def test_param_grad_zero_beyond_active_units():
    # kinks far from the probe leave their spacing parameters inert
    raw = RawPolicyParams(*(np.zeros((1, 4)) for _ in range(4)))
    band1 = (np.array([0.95]), np.array([1.05]))
    grads = bus_param_grad(raw, band1, 0, 1.06)
    # first ladder kink is at 1.05 + log(2) > 1.06: spacing grads all zero
    np.testing.assert_array_equal(grads[1], 0.0)
    assert grads[0][1] != 0.0


def test_param_grad_batch_shape():
    rng = np.random.default_rng(9)
    raw = random_raw(rng)
    vs = rng.uniform(0.8, 1.2, size=17)
    block = np.tile(vs[:, None], (1, N))
    grads = [g[:, 1] for g in policy_param_grad(raw, BAND, EPS, block)]
    for g in grads:
        assert g.shape == (17, D)


def test_param_grad_block_equals_rows():
    rng = np.random.default_rng(10)
    raw = random_raw(rng)
    block = rng.uniform(0.8, 1.2, size=(23, N))
    grads = policy_param_grad(raw, BAND, EPS, block)
    for g in grads:
        assert g.shape == (23, N, D)
    for k, v in enumerate(block):
        for g, row in zip(grads, policy_param_grad(raw, BAND, EPS, v)):
            assert row.shape == (N, D)
            np.testing.assert_array_equal(g[k], row)


# ---------------------------------------------------------------------------
# linear deadband
# ---------------------------------------------------------------------------

def test_linear_deadband_values():
    assert linear_deadband(1.07, 0.95, 1.05) == pytest.approx(-0.02)
    assert linear_deadband(0.93, 0.95, 1.05) == pytest.approx(0.02)
    assert linear_deadband(1.01, 0.95, 1.05) == 0.0


def test_linear_policy_wrapper():
    pol = LinearDeadbandPolicy(*BAND)
    v = np.array([1.07, 0.93, 1.0])
    np.testing.assert_allclose(pol(v), [-0.02, 0.02, 0.0])
    np.testing.assert_allclose(pol.input_grad(v), [-1.0, -1.0, 0.0])


# ---------------------------------------------------------------------------
# monotonicity verification
# ---------------------------------------------------------------------------

def test_verify_accepts_constrained_policies():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = constrain(random_raw(rng, scale=2.0), BAND, EPS)
        report = verify_monotone(p)
        assert report.passed, report.summary()


def test_verify_accepts_steep_sampler():
    rng = np.random.default_rng(11)
    for _ in range(10):
        raw = sample_raw_params(N, D, rng)
        p = constrain(raw, BAND, EPS)
        assert verify_monotone(p).passed


def test_verify_accepts_linear_deadband_as_stack():
    p = StackedReluParams(
        wplus=np.array([[0.0, 1.0]]), bplus=np.array([[0.0, -1.05]]),
        wminus=np.array([[0.0, -1.0]]), bminus=np.array([[0.0, 0.95]]),
        v_lower=np.array([0.95]), v_upper=np.array([1.05]), eps=1e-3)
    report = verify_monotone(p)
    assert report.passed


def test_verify_rejects_broken_prefix_sum():
    # second unit flips the slope positive beyond its kink
    p = StackedReluParams(
        wplus=np.array([[0.0, 0.5, -0.8]]),
        bplus=np.array([[0.0, -1.05, -1.10]]),
        wminus=np.array([[0.0, -0.5, 0.0]]),
        bminus=np.array([[0.0, 0.95, 0.90]]),
        v_lower=np.array([0.95]), v_upper=np.array([1.05]), eps=1e-3)
    report = verify_monotone(p)
    assert not report.passed
    ok, witnesses = report.clauses["nonincreasing"]
    assert not ok
    # the violation is located just beyond the second kink at 1.10, on the
    # first controllable bus (network id 1; bus 0 is the substation)
    assert any("1.1" in w for w in witnesses)
    assert any("bus 1" in w for w in witnesses)


def test_verify_rejects_slope_flip_far_outside_band():
    # the slope turns positive past a kink at v = 1.70, far from the band
    p = StackedReluParams(
        wplus=np.array([[0.0, 0.5, -0.8]]),
        bplus=np.array([[0.0, -1.05, -1.70]]),
        wminus=np.array([[0.0, -0.5, 0.0]]),
        bminus=np.array([[0.0, 0.95, 0.90]]),
        v_lower=np.array([0.95]), v_upper=np.array([1.05]), eps=1e-3)
    report = verify_monotone(p)
    ok, witnesses = report.clauses["nonincreasing"]
    assert not ok
    assert any("1.7" in w for w in witnesses)


def test_verify_rejects_flat_tail():
    # the outer ramp cancels the slope beyond 1.10: bounded, not strict
    p = StackedReluParams(
        wplus=np.array([[0.0, 0.5, -0.5]]),
        bplus=np.array([[0.0, -1.05, -1.10]]),
        wminus=np.array([[0.0, -0.5, 0.0]]),
        bminus=np.array([[0.0, 0.95, 0.90]]),
        v_lower=np.array([0.95]), v_upper=np.array([1.05]), eps=1e-3)
    report = verify_monotone(p)
    assert report.clauses["nonincreasing"][0]
    assert not report.clauses["strict_slope_outside"][0]
    ok, witnesses = report.clauses["unbounded_tails"]
    assert not ok
    assert any("inf]" in w for w in witnesses)


def test_verify_rejects_inverted_sign():
    good = constrain(random_raw(np.random.default_rng(12)), BAND, EPS)
    flipped = StackedReluParams(
        wplus=-good.wplus, bplus=good.bplus, wminus=-good.wminus,
        bminus=good.bminus, v_lower=good.v_lower, v_upper=good.v_upper,
        eps=good.eps)
    report = verify_monotone(flipped)
    assert not report.passed


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    raw = sample_raw_params(N, D, rng)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, raw, BAND, EPS, meta={"note": "test"})
    raw2, band2, eps2 = load_checkpoint(path)
    np.testing.assert_array_equal(raw.slope_pos, raw2.slope_pos)
    np.testing.assert_array_equal(raw.decr_neg, raw2.decr_neg)
    np.testing.assert_array_equal(band2[0], BAND[0])
    assert eps2 == EPS
    u1 = MonotonePolicy.from_raw(raw, BAND, EPS)(np.array([1.07, 0.9, 1.0]))
    u2 = MonotonePolicy.from_raw(raw2, band2, eps2)(np.array([1.07, 0.9, 1.0]))
    np.testing.assert_array_equal(u1, u2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_checkpoint_with_overflowed_kinks_loads(tmp_path):
    # spacings of 1e308 push later kinks to +inf: ramps that never activate
    raw = sample_raw_params(N, D, np.random.default_rng(14))
    raw.decr_pos[:, 2:4] = 1e308
    assert np.isinf(constrain(raw, BAND, EPS).bplus).any()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, raw, BAND, EPS)
    raw2, band2, eps2 = load_checkpoint(path)
    assert verify_monotone(constrain(raw2, band2, eps2)).passed


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "eps": 0.001, '
                    '"band": {"v_lower": [0.95], "v_upper": [1.05]}, '
                    '"buses": [{"d": 4}]}')
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gridvolt.dynamics import rollout_batch
from gridvolt.policy import (
    CheckpointError,
    MonotonePolicy,
    RawPolicyParams,
    StackedReluParams,
    constrain,
    droop,
    load_checkpoint,
    policy_eval,
    policy_eval_bus,
    policy_input_grad,
    policy_param_grad,
    sample_raw_params,
    save_checkpoint,
    sigmoid,
    softplus,
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


@pytest.mark.parametrize("eps, d, message", [
    (float("nan"), D, "eps must be finite and positive"),
    (float("inf"), D, "eps must be finite and positive"),
    (0.0, D, "eps must be finite and positive"),
    (-1e-3, D, "eps must be finite and positive"),
    (EPS, 1, "at least 2 ramp units per side, got 1"),
    (EPS, 0, "at least 2 ramp units per side, got 0"),
])
def test_constrain_rejects_inputs_it_cannot_map(eps, d, message):
    raw = RawPolicyParams(*(np.zeros((N, d)) for _ in range(4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            constrain(raw, BAND, eps)


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
# frozen reference: both stacks written out by hand
# ---------------------------------------------------------------------------

def ref_constrain(raw, band, eps):
    v_lower, v_upper = (np.asarray(band[0], dtype=float),
                        np.asarray(band[1], dtype=float))
    n, d = raw.n, raw.d
    prefix_pos = eps + softplus(raw.slope_pos)
    wplus = np.empty((n, d))
    wplus[:, 0] = 0.0
    wplus[:, 1] = prefix_pos[:, 1]
    wplus[:, 2:] = prefix_pos[:, 2:] - prefix_pos[:, 1:-1]
    bplus = np.zeros((n, d))
    bplus[:, 1] = -v_upper
    if d > 2:
        with np.errstate(over="ignore"):
            bplus[:, 2:] = -v_upper[:, None] - np.cumsum(
                softplus(raw.decr_pos[:, 2:]), axis=1)
    prefix_neg = -(eps + softplus(raw.slope_neg))
    wminus = np.empty((n, d))
    wminus[:, 0] = 0.0
    wminus[:, 1] = prefix_neg[:, 1]
    wminus[:, 2:] = prefix_neg[:, 2:] - prefix_neg[:, 1:-1]
    bminus = np.zeros((n, d))
    bminus[:, 1] = v_lower
    if d > 2:
        with np.errstate(over="ignore"):
            bminus[:, 2:] = v_lower[:, None] - np.cumsum(
                softplus(raw.decr_neg[:, 2:]), axis=1)
    return StackedReluParams(wplus=wplus, bplus=bplus, wminus=wminus,
                             bminus=bminus, v_lower=v_lower, v_upper=v_upper,
                             eps=eps)


def ref_eval_bus(p, bus, v_values):
    v = np.atleast_1d(np.asarray(v_values, dtype=float))
    xi_pos = np.maximum(v[:, None] + p.bplus[bus][None, :], 0.0) @ p.wplus[bus]
    xi_neg = (np.maximum(-v[:, None] + p.bminus[bus][None, :], 0.0)
              @ p.wminus[bus])
    return -(xi_pos + xi_neg)


def ref_eval(p, v):
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    xi_pos = np.einsum("nd,mnd->mn", p.wplus,
                       np.maximum(vv[:, :, None] + p.bplus[None], 0.0))
    xi_neg = np.einsum("nd,mnd->mn", p.wminus,
                       np.maximum(-vv[:, :, None] + p.bminus[None], 0.0))
    u = -(xi_pos + xi_neg)
    return u if batch else u[0]


def ref_input_grad(p, v):
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    act_pos = (vv[:, :, None] + p.bplus[None]) >= 0.0
    act_neg = (-vv[:, :, None] + p.bminus[None]) > 0.0
    dxi_pos = np.einsum("nd,mnd->mn", p.wplus, act_pos.astype(float))
    dxi_neg = -np.einsum("nd,mnd->mn", p.wminus, act_neg.astype(float))
    g = -(dxi_pos + dxi_neg)
    return g if batch else g[0]


def ref_param_grad(raw, band, eps, v):
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    vv = np.atleast_2d(v)[:, :, None]
    p = ref_constrain(raw, band, eps)
    shape = vv.shape[:2] + (raw.d,)
    r_pos = np.maximum(vv + p.bplus, 0.0)
    r_neg = np.maximum(-vv + p.bminus, 0.0)
    act_pos = (vv + p.bplus) >= 0.0
    act_neg = (-vv + p.bminus) > 0.0
    diff_pos = r_pos.copy()
    diff_pos[..., :-1] -= r_pos[..., 1:]
    diff_neg = r_neg.copy()
    diff_neg[..., :-1] -= r_neg[..., 1:]
    g_slope_pos = np.zeros(shape)
    g_slope_pos[..., 1:] = -diff_pos[..., 1:] * sigmoid(raw.slope_pos[:, 1:])
    g_slope_neg = np.zeros(shape)
    g_slope_neg[..., 1:] = -diff_neg[..., 1:] * -sigmoid(raw.slope_neg[:, 1:])
    wa_pos = p.wplus * act_pos
    tail_pos = np.cumsum(wa_pos[..., ::-1], axis=-1)[..., ::-1]
    g_decr_pos = np.zeros(shape)
    g_decr_pos[..., 2:] = tail_pos[..., 2:] * sigmoid(raw.decr_pos[:, 2:])
    wa_neg = p.wminus * act_neg
    tail_neg = np.cumsum(wa_neg[..., ::-1], axis=-1)[..., ::-1]
    g_decr_neg = np.zeros(shape)
    g_decr_neg[..., 2:] = tail_neg[..., 2:] * sigmoid(raw.decr_neg[:, 2:])
    grads = (g_slope_pos, g_decr_pos, g_slope_neg, g_decr_neg)
    if single:
        return tuple(g[0] for g in grads)
    return grads


def assert_same_bits(got, want):
    """Equal float64 bit patterns: tells -0.0 from 0.0 and NaN payloads."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# a stack of two units has no spacing parameter that could overflow
@pytest.mark.parametrize("d, overflow", [
    (2, False), (3, False), (16, False), (3, True), (16, True)])
def test_stacks_match_frozen_reference_bit_for_bit(d, overflow):
    rng = np.random.default_rng(100 + d)
    n = 5
    band = (rng.uniform(0.9, 0.97, size=n), rng.uniform(1.03, 1.1, size=n))
    for trial in range(10):
        raw = RawPolicyParams(*(rng.normal(scale=3.0, size=(n, d))
                                for _ in range(4)))
        if overflow:
            # spacings near the float limit push the outer kinks to -+inf
            raw.decr_pos[:, 2:] = rng.uniform(1e307, 1.7e308, size=(n, d - 2))
            raw.decr_neg[:, -1] = 1.7e308
        p, want_p = constrain(raw, band, EPS), ref_constrain(raw, band, EPS)
        for name in ("wplus", "bplus", "wminus", "bminus"):
            assert_same_bits(getattr(p, name), getattr(want_p, name))
        # every kink and band edge, where the right-hand slope rule decides,
        # then a spread of voltages on both sides of the band
        kinks = np.concatenate([-p.bplus, p.bminus, np.stack(band, axis=1)],
                               axis=1).T
        spread = rng.uniform(0.75, 1.25, size=(20, n))
        vv = np.vstack([kinks[np.isfinite(kinks).all(axis=1)], spread])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(policy_eval(p, vv), ref_eval(p, vv))
            assert_same_bits(policy_input_grad(p, vv), ref_input_grad(p, vv))
            for grad, want in zip(policy_param_grad(raw, band, EPS, vv),
                                  ref_param_grad(raw, band, EPS, vv)):
                assert_same_bits(grad, want)
            for v in vv[::7]:
                assert_same_bits(policy_eval(p, v), ref_eval(p, v))
                assert_same_bits(policy_input_grad(p, v),
                                 ref_input_grad(p, v))
                for grad, want in zip(policy_param_grad(raw, band, EPS, v),
                                      ref_param_grad(raw, band, EPS, v)):
                    assert_same_bits(grad, want)
            for bus in range(n):
                assert_same_bits(policy_eval_bus(p, bus, vv[:, bus]),
                                 ref_eval_bus(p, bus, vv[:, bus]))
                assert_same_bits(policy_eval_bus(p, bus, vv[0, bus]),
                                 ref_eval_bus(p, bus, vv[0, bus]))


# ---------------------------------------------------------------------------
# piece-table evaluation (MonotonePolicy.__call__)
# ---------------------------------------------------------------------------

def table_cases(d, overflow, count=10):
    """Random controllers on 5 buses, as in the frozen-reference test."""
    rng = np.random.default_rng(200 + d + 50 * overflow)
    n = 5
    for _ in range(count):
        band = (rng.uniform(0.9, 0.97, size=n), rng.uniform(1.03, 1.1, size=n))
        raw = RawPolicyParams(*(rng.normal(scale=3.0, size=(n, d))
                                for _ in range(4)))
        if overflow:
            raw.decr_pos[:, 2:] = rng.uniform(1e307, 1.7e308, size=(n, d - 2))
            raw.decr_neg[:, -1] = 1.7e308
        yield constrain(raw, band, EPS), band, rng


def table_breakpoints(p, band):
    """Every bus's kinks and band edges, one row each; a zero-weight or
    overflowed kink bends nothing and is replaced by the upper edge."""
    kinks = np.concatenate([-p.bplus, p.bminus], axis=1).T
    weights = np.concatenate([p.wplus, p.wminus], axis=1).T
    kinks = np.where(np.isfinite(kinks) & (weights != 0.0), kinks, band[1])
    return np.vstack([kinks, *band])


def exact_eval(p, bus, v):
    """One bus's controller output in exact rational arithmetic, rounded."""
    total = Fraction(0)
    for x, w, b in ((v, p.wplus, p.bplus), (-v, p.wminus, p.bminus)):
        for w_l, b_l in zip(w[bus], b[bus]):
            if np.isfinite(b_l) and x + b_l > 0:
                total += Fraction(w_l) * (Fraction(x) + Fraction(b_l))
    return float(-total)


TABLE_CASES = [(2, False), (3, False), (16, False), (3, True), (16, True)]


@pytest.mark.parametrize("d, overflow", TABLE_CASES)
def test_piece_table_matches_policy_eval(d, overflow):
    for p, band, rng in table_cases(d, overflow):
        pol = MonotonePolicy(p)
        breaks = table_breakpoints(p, band)
        # far kinks near 1e308 may evaluate to +-inf or NaN: same bits
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(pol(breaks), policy_eval(p, breaks))
        # the closed band, edges included: zero with policy_eval's sign
        band_v = np.linspace(band[0], band[1], 41)
        assert np.all(pol(band_v) == 0.0)
        assert_same_bits(pol(band_v), policy_eval(p, band_v))
        # elsewhere: within rounding of policy_eval across the band
        v = np.vstack([rng.uniform(0.5, 1.5, size=(200, p.n)),
                       np.nextafter(band[0], -np.inf),
                       np.nextafter(band[1], np.inf)])
        np.testing.assert_allclose(pol(v), policy_eval(p, v), rtol=1e-13,
                                   atol=0.0)
        # far out, where the ramp sum itself loses digits to cancellation,
        # within rounding of the exact rational value
        far = rng.uniform(-3.0, 5.0, size=(4, p.n))
        want = [[exact_eval(p, bus, x) for bus, x in enumerate(row)]
                for row in far]
        np.testing.assert_allclose(pol(far), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d, overflow", TABLE_CASES)
def test_piece_table_is_nonincreasing_and_row_consistent(d, overflow):
    for p, band, rng in table_cases(d, overflow, count=4):
        pol = MonotonePolicy(p)
        breaks = table_breakpoints(p, band)
        near = breaks[np.abs(breaks).max(axis=1) < 10.0]
        v = np.sort(np.vstack([near, np.nextafter(near, -np.inf),
                               np.nextafter(near, np.inf),
                               rng.uniform(0.0, 2.0, size=(300, p.n))]),
                    axis=0)
        u = pol(v)
        assert np.all(np.isfinite(u))
        assert np.all(np.diff(u, axis=0) <= 0.0)
        for row, u_row in zip(v[::25], u[::25]):
            assert_same_bits(pol(row), u_row)


def test_piece_table_passes_nan_and_inf_on_to_the_rollout_cut():
    p, band, _ = next(table_cases(16, False))
    pol = MonotonePolicy(p)
    v = np.ones((3, p.n))
    v[0, 1], v[1, 2], v[2, 3] = np.nan, np.inf, -np.inf
    u = pol(v)
    assert np.isnan(u[0, 1])
    assert u[1, 2] == -np.inf and u[2, 3] == np.inf
    assert np.isfinite(np.delete(u.ravel(), [1, 7, 13])).all()
    assert np.isnan(pol(v[0])[1])
    # a NaN voltage reaches the policy (the blow-up test cannot see it),
    # and its non-finite action cuts that scenario at once
    v_env = np.tile(np.linspace(0.9, 1.1, p.n), (3, 1))
    v_env[1, 2] = np.nan
    runs = rollout_batch(pol, 0.05 * np.eye(p.n) + 0.01, v_env,
                         np.zeros((3, p.n)), T=6, dt=0.1)
    np.testing.assert_array_equal(runs.steps, [6, 0, 6])


# ---------------------------------------------------------------------------
# droop: the linear deadband baseline as a two-ramp stack
# ---------------------------------------------------------------------------

def test_linear_deadband_values():
    pol = MonotonePolicy(droop(([0.95], [1.05]), 1.0))
    assert pol(np.array([1.07]))[0] == pytest.approx(-0.02)
    assert pol(np.array([0.93]))[0] == pytest.approx(0.02)
    assert pol(np.array([1.01]))[0] == 0.0


def test_linear_policy_wrapper():
    pol = MonotonePolicy(droop(BAND, 1.0))
    v = np.array([1.07, 0.93, 1.0])
    np.testing.assert_allclose(pol(v), [-0.02, 0.02, 0.0])
    np.testing.assert_allclose(pol.input_grad(v), [-1.0, -1.0, 0.0])


def frozen_droop(v, v_lower, v_upper, gain):
    """The droop formula the stack replaced, kept as the reference."""
    return gain * (-np.maximum(v - v_upper, 0.0)
                   + np.maximum(v_lower - v, 0.0))


def droop_cases(count=200):
    """Random droops (1-19 buses, per-bus bands, gains 1e-3 to 50) with
    voltages in [-3, 5] plus every band edge and its float neighbours."""
    rng = np.random.default_rng(77)
    for _ in range(count):
        n = int(rng.integers(1, 20))
        lo = rng.uniform(0.85, 0.99, size=n)
        hi = rng.uniform(1.01, 1.15, size=n)
        gain = float(10.0 ** rng.uniform(-3.0, np.log10(50.0)))
        edges = np.concatenate([lo, hi])
        extra = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf)])
        v = np.vstack([rng.uniform(-3.0, 5.0, size=(40, n)),
                       np.tile(extra[:, None], (1, n))])
        yield (lo, hi), gain, v


def test_droop_matches_frozen_formula():
    for (lo, hi), gain, v in droop_cases():
        p = droop((lo, hi), gain)
        pol = MonotonePolicy(p)
        u = pol(v)
        want = frozen_droop(v, lo, hi, gain)
        on_band = (v >= lo) & (v <= hi)
        # bit-equal off the band, a zero of either sign on it
        np.testing.assert_array_equal(u[~on_band], want[~on_band])
        assert np.all(u[on_band] == 0.0)
        # right-hand slopes: the upper edge already has the outside slope,
        # the lower edge the band's
        outside = (v >= hi) | (v < lo)
        np.testing.assert_array_equal(pol.input_grad(v),
                                      np.where(outside, -gain, 0.0))
        assert pol.max_gain() == gain == p.eps
        assert verify_monotone(p).passed
        for k in range(0, len(v), 17):
            assert_same_bits(pol(v[k]), u[k])


@pytest.mark.parametrize("gain", [0.0, -1.0, np.nan, np.inf])
def test_droop_rejects_gain_that_is_not_finite_and_positive(gain):
    with pytest.raises(ValueError, match="finite and positive"):
        droop(BAND, gain)


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


def test_verify_left_tail_is_one_piece_up_to_the_first_lower_kink():
    # slopes of about 1e-4 fail a check at eps 1e-3 on every outside piece;
    # the zero-weight column-0 ramps bend nothing, so no piece ends at 0
    rng = np.random.default_rng(14)
    raw = RawPolicyParams(*(rng.normal(mu, 0.5, size=(N, D))
                            for mu in (-12.0, -3.0, -12.0, -3.0)))
    p = constrain(raw, BAND, eps=1e-4)
    report = verify_monotone(p, eps=1e-3)
    assert {name: ok for name, (ok, _) in report.clauses.items()} == {
        "zero_in_band": True, "nonincreasing": True,
        "strict_slope_outside": False, "unbounded_tails": False}
    witnesses = [w for _, wit in report.clauses.values() for w in wit]
    ends = [re.search(r"on \[(\S+), (\S+)\]$", w).groups() for w in witnesses]
    assert all(float(right) != 0.0 for _, right in ends)
    tails = report.clauses["unbounded_tails"][1]
    for bus in range(N):
        left = [w for w in tails
                if w.startswith(f"bus {bus + 1}:") and "[-inf, " in w]
        first_kink = p.bminus[bus, 1:].min()
        assert len(left) == 1
        assert left[0].endswith(f"[-inf, {first_kink:.6f}]")


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


def test_checkpoint_with_overflowed_kinks_loads(tmp_path):
    # spacings of 1e308 push later kinks to +inf: ramps that never activate;
    # the overflow is expected, so no numpy warning may leak from it
    raw = sample_raw_params(N, D, np.random.default_rng(14))
    raw.decr_pos[:, 2:4] = 1e308
    raw.decr_neg[:, 2:4] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = constrain(raw, BAND, EPS)
        assert np.isinf(p.bplus).any() and np.isinf(p.bminus).any()
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

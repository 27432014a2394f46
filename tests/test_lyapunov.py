import re

import numpy as np
import pytest

from gridvolt.dynamics import dist_to_band, make_suite, rollout_batch
from gridvolt.grid import build_sensitivity, five_bus_fixture
from gridvolt.lyapunov import (
    CertifyConfig,
    certify_policy,
    decrease_violations,
    equilibrium_check,
    krasovskii_value,
    lyapunov_time_derivative,
)
from gridvolt.policy import (
    MonotonePolicy,
    RawPolicyParams,
    StackedReluParams,
    ZeroPolicy,
    droop,
    sample_raw_params,
)
from gridvolt.util import config_hash

NET = five_bus_fixture()
X5 = build_sensitivity(NET).X
BOUNDS = NET.bounds()


def make_policy(seed, **kwargs):
    rng = np.random.default_rng(seed)
    raw = sample_raw_params(NET.n, 8, rng, **kwargs)
    return MonotonePolicy.from_raw(raw, BOUNDS, eps=1e-3)


def cert_config(**overrides):
    base = dict(v_lower=tuple(BOUNDS[0]), v_upper=tuple(BOUNDS[1]),
                grid_points=60, joint_samples=300, rollouts=12,
                horizon=100, dt=0.1, dist_tol=1e-3, seed=0)
    base.update(overrides)
    return CertifyConfig(**base)


# ---------------------------------------------------------------------------
# energy function
# ---------------------------------------------------------------------------

def test_energy_zero_in_band():
    pol = make_policy(0)
    v = np.full(NET.n, 1.0)
    assert krasovskii_value(X5, pol, v) == 0.0


def test_energy_scalar_example():
    X = np.array([[0.1]])

    class Fixed:
        def __call__(self, v):
            return np.array([-0.2])

        def input_grad(self, v):
            return np.array([-0.5])

    pol = Fixed()
    assert krasovskii_value(X, pol, np.array([1.1])) == pytest.approx(0.002)
    got = lyapunov_time_derivative(X, pol, np.array([1.1]))
    assert got == pytest.approx(-2e-4)


def test_energy_forms_agree():
    # direct form 0.5 g'Xg vs inverse form 0.5 f'X^-1 f with f = Xg
    rng = np.random.default_rng(21)
    Xinv = np.linalg.inv(X5)
    for seed in range(10):
        pol = make_policy(40 + seed)
        for _ in range(30):
            v = rng.uniform(0.5, 1.5, NET.n)
            g = pol(v)
            direct = krasovskii_value(X5, pol, v)  # cross-checks internally
            f = X5 @ g
            inverse = 0.5 * float(f @ Xinv @ f)
            assert abs(direct - inverse) <= 1e-9 * max(1.0, abs(direct))


def test_energy_nonnegative_random():
    rng = np.random.default_rng(1)
    for seed in range(20):
        pol = make_policy(seed)
        for _ in range(50):
            v = rng.uniform(0.5, 1.5, NET.n)
            assert krasovskii_value(X5, pol, v) >= 0.0


def test_energy_cross_check_requires_pd():
    pol = make_policy(2)
    bad = np.array([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0],
                    [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        krasovskii_value(bad, pol, np.full(NET.n, 1.2))


def test_derivative_nonpositive_everywhere():
    rng = np.random.default_rng(3)
    for seed in range(10):
        pol = make_policy(seed)
        for _ in range(100):
            v = rng.uniform(0.4, 1.6, NET.n)
            assert lyapunov_time_derivative(X5, pol, v) <= 0.0


def test_derivative_matches_finite_difference_along_flow():
    pol = make_policy(4)
    rng = np.random.default_rng(5)
    dt = 1e-4
    checked = 0
    while checked < 20:
        v = rng.uniform(0.9, 1.12, NET.n)
        g = pol(v)
        v_next = v + dt * (X5 @ g)
        # the derivative is only classical while no ramp kink is crossed
        if np.any(pol.input_grad(v) != pol.input_grad(v_next)):
            continue
        fd = (krasovskii_value(X5, pol, v_next, cross_check=False)
              - krasovskii_value(X5, pol, v, cross_check=False)) / dt
        ana = lyapunov_time_derivative(X5, pol, v)
        assert fd == pytest.approx(ana, abs=2e-2 * max(1.0, abs(ana)))
        checked += 1


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_equilibrium_in_band():
    pol = make_policy(6)
    assert equilibrium_check(pol, np.full(NET.n, 1.0))


def test_equilibrium_fails_out_of_band():
    pol = make_policy(7)
    v = np.full(NET.n, 1.0)
    v[2] = 1.08
    assert not equilibrium_check(pol, v)
    v2 = np.array([1.0, 0.9, 1.0, 1.07])
    assert not equilibrium_check(pol, v2)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_passes_for_sampled_policies():
    for seed in range(5):
        pol = make_policy(100 + seed)
        cert = certify_policy(X5, pol, cert_config(seed=seed))
        assert cert.passed, cert.summary()
        assert all(ok for ok, _ in cert.clauses.values())


def test_certificate_fails_for_inverted_policy():
    good = make_policy(8)
    p = good.params
    flipped = MonotonePolicy(StackedReluParams(
        wplus=-p.wplus, bplus=p.bplus, wminus=-p.wminus, bminus=p.bminus,
        v_lower=p.v_lower, v_upper=p.v_upper, eps=p.eps))
    cert = certify_policy(X5, flipped, cert_config(rollouts=4))
    assert not cert.passed
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok and witnesses


def test_certificate_zero_policy():
    cert = certify_policy(X5, ZeroPolicy(), cert_config(rollouts=6))
    assert cert.clauses["jacobian_nonpositive"][0]
    assert cert.clauses["lyapunov_decrease"][0]
    assert not cert.clauses["jacobian_strict_outside"][0]
    ok, witnesses = cert.clauses["convergence_to_band"]
    assert not ok and witnesses
    assert not cert.passed


def test_certificate_linear_deadband_converges_with_long_horizon():
    pol = MonotonePolicy(droop(BOUNDS, 1.0))
    cert = certify_policy(X5, pol, cert_config(rollouts=6, horizon=4000))
    assert cert.passed, cert.summary()


def test_certificate_forgives_violation_that_vanishes_at_fine_step():
    # a gain-35 droop rings at dt = 0.1 on the fixture; a max_gain that
    # understates it keeps the slack small, so one scenario gets flagged and
    # the dt/10 rerun clears it
    class Understated(Sampled):
        def max_gain(self):
            return 1.0

    pol = Understated(MonotonePolicy(droop(BOUNDS, 35.0)))
    cert = certify_policy(X5, pol, cert_config())
    assert cert.passed, cert.summary()
    vanished = [note for note in cert.notes if "vanished at dt/10" in note]
    assert len(vanished) == 1


def test_certificate_keeps_violation_that_survives_fine_step():
    class Rising(Sampled):
        # droop at gain -1: it pushes voltages away from the band
        def __call__(self, v):
            return -self.pol(v)

        def input_grad(self, v):
            return -self.pol.input_grad(v)

    cert = certify_policy(X5, Rising(MonotonePolicy(droop(BOUNDS, 1.0))),
                          cert_config())
    ok, witnesses = cert.clauses["lyapunov_decrease"]
    assert not ok
    assert witnesses and all("dt=0.01" in w for w in witnesses)


def test_certificate_json_and_summary(tmp_path):
    pol = make_policy(9)
    cert = certify_policy(X5, pol, cert_config(rollouts=4), policy_id="demo")
    text = cert.to_json(tmp_path / "cert.json")
    import json
    data = json.loads(text)
    assert data["policy_id"] == "demo"
    assert data["passed"] == cert.passed
    assert set(data["clauses"]) == set(cert.clauses)
    assert "PASS" in cert.summary()


def test_certificate_deterministic():
    pol = make_policy(10)
    c1 = certify_policy(X5, pol, cert_config(rollouts=4))
    c2 = certify_policy(X5, pol, cert_config(rollouts=4))
    assert c1.to_json() == c2.to_json()


def test_certified_rollouts_settle_in_band():
    # the convergence clause itself: spot-check dist at horizon by hand
    from gridvolt.dynamics import rollout
    pol = make_policy(11)
    for v_env, q0, _ in make_suite(NET.n, 10, seed=3):
        runs = rollout(pol, X5, v_env, q0, T=100, dt=0.1)
        assert dist_to_band(runs.v[-1, 0], BOUNDS) <= 1e-3


def reference_violations(X, pol, runs, s, kappa):
    """Energy rises along scenario s, one krasovskii_value call a step."""
    bad = []
    v, u = runs.v[:, s], runs.u[:, s]
    v_prev = krasovskii_value(X, pol, v[0], cross_check=False)
    for t in range(runs.steps[s]):
        v_next = krasovskii_value(X, pol, v[t + 1], cross_check=False)
        slack = kappa * runs.dt * runs.dt * float(u[t] @ u[t])
        if v_next > v_prev + slack + 1e-12 * max(1.0, v_prev):
            bad.append((t, v_prev, v_next, slack))
        v_prev = v_next
    return bad


def test_decrease_violations_match_per_step_energy():
    suite = make_suite(NET.n, 12, seed=1)
    v_env = np.array([v for v, _, _ in suite])
    q0 = np.array([q for _, q, _ in suite])
    # steep enough to ring, then steep enough to diverge (cut rows)
    for gain_range in ((40.0, 50.0), (80.0, 90.0)):
        pol = make_policy(3, gain_range=gain_range)
        runs = rollout_batch(pol, X5, v_env, q0, T=100, dt=0.1)
        got = decrease_violations(X5, pol, runs, kappa=1.0)
        want = [reference_violations(X5, pol, runs, s, 1.0)
                for s in range(len(suite))]
        assert any(got)
        assert got == want


def test_monotone_energy_rise_is_at_most_half_the_slack():
    # slopes in [-L, 0] give v+ - v = dt X g and g(v+) - g(v) = dt D X g with
    # D diagonal in [-L, 0], so V(v+) - V(v) = dt (Xg)'D(Xg)
    # + dt^2/2 (DXg)'X(DXg) <= dt^2/2 L^2 lmax^3 |g|^2: half of certify's
    # slack, even on runs that diverge
    suite = make_suite(NET.n, 30, seed=5)
    v_env = np.array([v for v, _, _ in suite])
    q0 = np.array([q for _, q, _ in suite])
    lmax = np.linalg.eigvalsh(X5).max()
    diverged = 0
    for seed in range(4):
        pol = make_policy(seed, gain_range=(80.0, 90.0))
        kappa = max(pol.max_gain(), 1.0) ** 2 * lmax ** 3
        runs = rollout_batch(pol, X5, v_env, q0, T=100, dt=0.1)
        diverged += int(runs.diverged.sum())
        assert any(decrease_violations(X5, pol, runs, kappa=0.0))
        assert not any(decrease_violations(X5, pol, runs, kappa=kappa / 2))
    assert diverged > 0


# ---------------------------------------------------------------------------
# slope clauses: exact at the kinks of a monotone controller, sampled otherwise
# ---------------------------------------------------------------------------

class Sampled:
    """A monotone controller seen only through its calls: no kink structure,
    so certify_policy samples its slopes."""

    def __init__(self, pol):
        self.pol = pol

    def __call__(self, v):
        return self.pol(v)

    def input_grad(self, v):
        return self.pol.input_grad(v)

    def max_gain(self):
        return self.pol.max_gain()


def flip_far_outside_policy():
    # gain-20 ramps on every bus; bus 2's slope turns positive past a kink
    # at v = 1.70, outside the sampled window [0.45, 1.55]
    n = NET.n
    wplus = np.tile([0.0, 20.0, 0.0], (n, 1))
    wplus[1, 2] = -20.5
    return MonotonePolicy(StackedReluParams(
        wplus=wplus, bplus=np.tile([0.0, -1.05, -1.70], (n, 1)),
        wminus=np.tile([0.0, -20.0, 0.0], (n, 1)),
        bminus=np.tile([0.0, 0.95, 0.90], (n, 1)),
        v_lower=BOUNDS[0], v_upper=BOUNDS[1], eps=1e-3))


def test_certificate_rejects_slope_flip_outside_sampled_window():
    pol = flip_far_outside_policy()
    cert = certify_policy(X5, pol, cert_config(rollouts=6))
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok and witnesses
    assert all(w.startswith("bus 2: ") for w in witnesses)
    assert any("[1.700000, inf]" in w for w in witnesses)
    assert not cert.clauses["jacobian_strict_outside"][0]
    assert cert.clauses["convergence_to_band"][0]
    assert not cert.passed
    # the sampled window never reaches the flip
    sampled = certify_policy(X5, Sampled(pol), cert_config(rollouts=6))
    assert sampled.passed, sampled.summary()


def flat_policy(eps, raw_slope):
    n, d = NET.n, 8
    slope = np.full((n, d), raw_slope)
    spacing = np.full((n, d), -3.0)
    raw = RawPolicyParams(slope_pos=slope, decr_pos=spacing,
                          slope_neg=slope, decr_neg=spacing)
    return MonotonePolicy.from_raw(raw, BOUNDS, eps=eps)


@pytest.mark.parametrize("policy_eps, cfg_eps, raw_slope", [
    (1e-4, 1e-3, -50.0),    # slopes near 1e-4: below the certificate's floor
    (1e-2, 1e-3, -50.0),    # slopes near 1e-2: above it
    (1e-4, 1e-3, 3.0),      # steep despite a small checkpoint eps
    (1e-3, 5.0, 3.0),       # a floor steeper than the controller
])
def test_strict_slope_floor_comes_from_the_config(policy_eps, cfg_eps,
                                                  raw_slope):
    pol = flat_policy(policy_eps, raw_slope)
    cfg = cert_config(rollouts=2, eps=cfg_eps)
    exact = certify_policy(X5, pol, cfg)
    sampled = certify_policy(X5, Sampled(pol), cfg)
    for clause in ("jacobian_nonpositive", "jacobian_strict_outside"):
        assert exact.clauses[clause][0] == sampled.clauses[clause][0]
    assert exact.tolerances == sampled.tolerances


def test_certificate_judges_slopes_against_its_own_band():
    # a controller quiet on [0.95, 1.05] certified against [0.97, 1.03]:
    # slope 0 between the two edges is outside the certified band
    pol = make_policy(12)
    narrow = cert_config(rollouts=2, v_lower=(0.97,) * NET.n,
                         v_upper=(1.03,) * NET.n)
    cert = certify_policy(X5, pol, narrow)
    ok, witnesses = cert.clauses["jacobian_strict_outside"]
    assert not ok
    assert any("[1.030000, 1.050000]" in w for w in witnesses)
    assert not certify_policy(X5, Sampled(pol), narrow).clauses[
        "jacobian_strict_outside"][0]


def test_policy_without_kinks_keeps_sampled_slope_witnesses():
    class Bumpy(Sampled):
        # claims a positive slope on (1.20, 1.30), inside the sampled window
        def input_grad(self, v):
            v = np.asarray(v, dtype=float)
            bump = (v > 1.20) & (v < 1.30)
            return np.where(bump, 0.1, super().input_grad(v))

    pol = Bumpy(MonotonePolicy(droop(BOUNDS, 20.0)))
    cert = certify_policy(X5, pol, cert_config())
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok and witnesses
    for w in witnesses:
        assert re.fullmatch(r"bus [1-4]: slope 1\.000e-01 > 0 at v=1\.2\d{5}",
                            w), w


def test_monotone_certificate_keeps_config_and_hash():
    pol = make_policy(13)
    cfg = cert_config(rollouts=3)
    cert = certify_policy(X5, pol, cfg)
    assert cert.config == cfg.to_dict()
    assert cert.config_hash == config_hash(cfg.to_dict())
    assert list(cert.clauses) == ["jacobian_nonpositive",
                                  "jacobian_strict_outside",
                                  "lyapunov_decrease", "convergence_to_band"]

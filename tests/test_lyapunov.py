import json
import re

import numpy as np
import pytest

from gridvolt.dynamics import dist_to_band, make_suite, rollout_batch
from gridvolt.grid import build_sensitivity, five_bus_fixture, \
    generate_random_feeder
from gridvolt.lyapunov import (
    CertifyConfig,
    certify_policy,
    krasovskii_value,
)
from gridvolt.policy import (
    MonotonePolicy,
    PieceTable,
    RawPolicyParams,
    StackedReluParams,
    droop,
    sample_raw_params,
    zero_policy,
)
from gridvolt.rl import FeedForwardNet, TrainConfig, _NetPolicy, \
    load_net_policy, save_net_policy
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
                rollouts=12, horizon=100, dt=0.1, dist_tol=1e-3, seed=0)
    base.update(overrides)
    return CertifyConfig(**base)


# ---------------------------------------------------------------------------
# energy function
# ---------------------------------------------------------------------------

def test_energy_zero_in_band():
    pol = make_policy(0)
    v = np.full(NET.n, 1.0)
    assert krasovskii_value(X5, pol(v)) == 0.0


def test_energy_scalar_example():
    X = np.array([[0.1]])
    assert krasovskii_value(X, np.array([-0.2])) == pytest.approx(0.002)


def test_energy_nonnegative_random():
    rng = np.random.default_rng(1)
    for seed in range(20):
        pol = make_policy(seed)
        for _ in range(50):
            v = rng.uniform(0.5, 1.5, NET.n)
            assert krasovskii_value(X5, pol(v)) >= 0.0


def test_energy_of_a_stack_is_the_row_by_row_energy():
    # a (T, S, n) block, as a Rollouts record's states give it, gives each
    # row's 0.5 g'Xg bit for bit
    pol = make_policy(14)
    v = np.random.default_rng(2).uniform(0.8, 1.2, (7, 5, NET.n))
    g = pol(v)
    got = krasovskii_value(X5, g)
    assert got.shape == (7, 5)
    for t in range(7):
        for s in range(5):
            assert got[t, s] == 0.5 * float(g[t, s] @ X5 @ g[t, s])


def test_certify_refuses_indefinite_matrix():
    bad = np.array([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0],
                    [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        certify_policy(bad, make_policy(2), cert_config(rollouts=2))


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
    cert = certify_policy(X5, zero_policy(BOUNDS), cert_config(rollouts=6))
    assert cert.clauses["jacobian_nonpositive"][0]
    assert cert.clauses["lyapunov_decrease"][0]
    assert not cert.clauses["jacobian_strict_outside"][0]
    assert not cert.clauses["unbounded_tails"][0]
    ok, witnesses = cert.clauses["convergence_to_band"]
    assert not ok and witnesses
    assert not cert.passed


def test_certificate_linear_deadband_converges_with_long_horizon():
    pol = MonotonePolicy(droop(BOUNDS, 1.0))
    cert = certify_policy(X5, pol, cert_config(rollouts=6, horizon=4000))
    assert cert.passed, cert.summary()


class Relisted:
    """A monotone controller whose calls go through ``scale * pol`` and
    whose listed pieces scale its slopes by ``slope_scale``."""

    def __init__(self, pol, scale=1.0, slope_scale=1.0):
        self.pol, self.scale, self.slope_scale = pol, scale, slope_scale

    def __call__(self, v):
        return self.scale * self.pol(v)

    def breakpoints(self, edges):
        pts, u, du = self.pol.breakpoints(edges)
        return pts, self.scale * u, self.slope_scale * du


def test_certificate_fails_understated_slopes_at_its_own_step(monkeypatch):
    # the certificate's contract: a policy acts as the pieces it lists.
    # Droops whose listed pieces understate their slopes (gain 1) pass
    # every piece clause, so only the rollouts at the rolled dt, the one
    # place the policy is called, judge them: at gain 35 they ring at
    # dt = 0.1 on the fixture but settle, and at gain 70 they diverge
    import gridvolt.lyapunov as lyapunov
    calls, inside = [], [False]

    def counted(*args, **kwargs):
        calls.append(kwargs["dt"])
        inside[0] = True
        runs = rollout_batch(*args, **kwargs)
        inside[0] = False
        return runs

    class Checked(Relisted):
        def __call__(self, v):
            assert inside[0], "policy called outside rollout_batch"
            return super().__call__(v)

    monkeypatch.setattr(lyapunov, "rollout_batch", counted)
    for gain, failing in ((35.0, []), (70.0, ["convergence_to_band"])):
        calls.clear()
        pol = Checked(MonotonePolicy(droop(BOUNDS, gain)),
                      slope_scale=1 / gain)
        cert = certify_policy(X5, pol, cert_config())
        assert calls == [0.1]
        assert [name for name, (ok, _) in cert.clauses.items()
                if not ok] == failing
        assert cert.passed == (not failing) and cert.notes == []


def test_certificate_keeps_violation_that_survives_fine_step():
    # droop at gain -1 pushes voltages away from the band: its rising
    # pieces fail the energy clause with the slope clause's witnesses,
    # whatever the step
    rising = Relisted(MonotonePolicy(droop(BOUNDS, 1.0)), scale=-1.0,
                      slope_scale=-1.0)
    cert = certify_policy(X5, rising, cert_config())
    ok, witnesses = cert.clauses["lyapunov_decrease"]
    assert not ok and witnesses and not cert.passed
    assert (ok, witnesses) == cert.clauses["jacobian_nonpositive"]


def test_certificate_json_and_summary(tmp_path):
    pol = make_policy(9)
    cert = certify_policy(X5, pol, cert_config(rollouts=4), policy_id="demo")
    text = cert.to_json(tmp_path / "cert.json")
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


def random_piece_table(seed, kinks=6, gain=90.0, rising=None):
    """A ``PieceTable`` built from a random piece list, as the MLP line walk
    lists one: the band's edges among its breakpoints and any slope in
    [-gain, 0] on each piece. With ``rising=None`` it is nonincreasing and
    need not be zero on the band. With a bus index, every bus is zero on
    its band and that bus's piece from its upper edge rises at ``gain``."""
    rng = np.random.default_rng(seed)
    pts = np.sort(np.vstack([rng.uniform(0.8, 1.2, (kinks, NET.n)),
                             *BOUNDS]), axis=0)
    pts = np.vstack([np.nextafter(pts[0], -np.inf), pts])
    du = -rng.uniform(0.0, gain, pts.shape)
    u = np.empty_like(pts)
    u[1] = rng.uniform(1.0, 4.0, NET.n)
    top = np.argmax(pts == BOUNDS[1], axis=0)       # each upper edge's row
    if rising is not None:
        du[(pts >= BOUNDS[0]) & (pts < BOUNDS[1])] = 0.0
        du[top[rising], rising] = gain
    for j in range(1, len(pts) - 1):
        u[j + 1] = u[j] + du[j] * (pts[j + 1] - pts[j])
    u[0] = u[1] - du[0] * (pts[1] - pts[0])
    if rising is not None:
        u -= u[top, np.arange(NET.n)]   # constant on the band, now zero
    return PieceTable(pts, u, du, BOUNDS)


def energy_rise(X, pol, runs):
    """V(v_t+1) - V(v_t) for each step t < steps of a Rollouts record, from
    ``krasovskii_value`` of the policy at the recorded states; 0 past a
    cut."""
    energy = krasovskii_value(X, pol(runs.v))
    rise = energy[1:] - energy[:-1]
    return np.where(np.arange(len(rise))[:, None] < runs.steps, rise, 0.0)


def test_monotone_energy_rise_is_at_most_half_the_slack():
    # slopes in [-L, 0] give v+ - v = dt X g and g(v+) - g(v) = dt D X g with
    # D diagonal in [-L, 0], so V(v+) - V(v) = dt (Xg)'D(Xg)
    # + dt^2/2 (DXg)'X(DXg) <= 0.5 kappa dt^2 |g|^2 for kappa =
    # L^2 lmax^3, even on runs that diverge, for ramp stacks and for tables
    # built from a piece list alike; V does rise, so the bound is not slack
    suite = make_suite(NET.n, 30, seed=5)
    v_env = np.array([v for v, _, _ in suite])
    q0 = np.array([q for _, q, _ in suite])
    lmax = np.linalg.eigvalsh(X5).max()
    policies = [make_policy(seed, gain_range=(80.0, 90.0))
                for seed in range(4)] + [random_piece_table(0)]
    diverged = 0
    for pol in policies:
        kappa = np.abs(pol.breakpoints(BOUNDS)[2]).max() ** 2 * lmax ** 3
        runs = rollout_batch(pol, X5, v_env, q0, T=100, dt=0.1)
        diverged += int(runs.diverged.sum())
        rise = energy_rise(X5, pol, runs)
        bound = 0.5 * kappa * runs.dt ** 2 * (runs.u ** 2).sum(axis=-1)
        # V(v_t) = 0.5 u_t' X u_t sets the rounding floor
        floor = 1e-12 * np.maximum(krasovskii_value(X5, runs.u), 1.0)
        assert (rise > floor).any()
        assert (rise <= bound + floor).all()
    assert diverged > 0


def test_a_rising_piece_raises_the_energy():
    # the converse: with one bus on a rising piece and every other bus
    # inside its band, where the table is zero, one small step raises V
    for bus in range(NET.n):
        pol = random_piece_table(bus, rising=bus)
        cert = certify_policy(X5, pol, cert_config(rollouts=2))
        ok, witnesses = cert.clauses["lyapunov_decrease"]
        assert cert.clauses["zero_in_band"] == (True, [])
        assert not ok and len(witnesses) == 1
        assert witnesses[0].startswith(f"bus {bus + 1}: ")
        # the middle of the rising piece, or 0.01 into it if it is the tail
        ends = np.append(pol.pieces[0][:, bus], np.inf)
        k = np.flatnonzero(ends == BOUNDS[1][bus])[0]
        v = (BOUNDS[0] + BOUNDS[1]) / 2
        v[bus] = min((ends[k] + ends[k + 1]) / 2, ends[k] + 0.01)
        runs = rollout_batch(pol, X5, v[None], np.zeros((1, NET.n)), T=1,
                             dt=1e-3)
        assert np.count_nonzero(runs.u[0, 0]) == 1
        assert energy_rise(X5, pol, runs)[0, 0] > 0.0


# ---------------------------------------------------------------------------
# slope clauses: exact on the pieces each policy lists
# ---------------------------------------------------------------------------

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


def test_certificate_rejects_mlp_slope_flip_outside_sampled_window():
    # per-bus 1 -> 3 -> 1 nets: gain-20 droop ramps, and on bus 2 a third
    # unit whose slope +20.5 past v = 2.0 turns the net's slope positive,
    # outside the [0.45, 1.55] window that slopes were once sampled on
    n = NET.n
    w_out = np.tile([[-20.0], [20.0], [0.0]], (n, 1, 1))
    w_out[1, 2] = 20.5
    pol = _NetPolicy(FeedForwardNet(
        [np.tile([[1.0, -1.0, 1.0]], (n, 1, 1)), w_out],
        [np.tile([[-1.05, 0.95, -2.0]], (n, 1, 1)), np.zeros((n, 1, 1))]))
    cert = certify_policy(X5, pol, cert_config(rollouts=6))
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok
    assert len(witnesses) == 1
    assert re.fullmatch(r"bus 2: u\(2\.000000\) = -1\.900e\+01, slope "
                        r"5\.000e-01 on \[2\.000000, inf\]", witnesses[0])
    assert cert.clauses["convergence_to_band"][0]
    assert not cert.passed


def flat_policy(eps, raw_slope):
    n, d = NET.n, 8
    slope = np.full((n, d), raw_slope)
    spacing = np.full((n, d), -3.0)
    raw = RawPolicyParams(slope_pos=slope, decr_pos=spacing,
                          slope_neg=slope, decr_neg=spacing)
    return MonotonePolicy.from_raw(raw, BOUNDS, eps=eps)


@pytest.mark.parametrize("policy_eps, cfg_eps, raw_slope, strict", [
    # slopes near 1e-4: below the certificate's floor
    pytest.param(1e-4, 1e-3, -50.0, False, id="0.0001-0.001--50.0"),
    # slopes near 1e-2: above it
    pytest.param(1e-2, 1e-3, -50.0, True, id="0.01-0.001--50.0"),
    # steep despite a small checkpoint eps
    pytest.param(1e-4, 1e-3, 3.0, True, id="0.0001-0.001-3.0"),
    # a floor steeper than the controller
    pytest.param(1e-3, 5.0, 3.0, False, id="0.001-5.0-3.0"),
])
def test_strict_slope_floor_comes_from_the_config(policy_eps, cfg_eps,
                                                  raw_slope, strict):
    pol = flat_policy(policy_eps, raw_slope)
    cert = certify_policy(X5, pol, cert_config(rollouts=2, eps=cfg_eps))
    assert cert.clauses["jacobian_nonpositive"] == (True, [])
    # the tail clause reads the same floor
    assert cert.clauses["jacobian_strict_outside"][0] == strict
    assert cert.clauses["unbounded_tails"][0] == strict
    assert cert.clauses["zero_in_band"] == (True, [])
    assert cert.config["eps"] == cfg_eps


def test_certificate_judges_slopes_against_its_own_band():
    # a controller quiet on [0.95, 1.05] certified against [0.97, 1.03]:
    # slope 0 between the two edges is outside the certified band, on two
    # pieces of every bus
    pol = make_policy(12)
    narrow = cert_config(rollouts=2, v_lower=(0.97,) * NET.n,
                         v_upper=(1.03,) * NET.n)
    cert = certify_policy(X5, pol, narrow)
    ok, witnesses = cert.clauses["jacobian_strict_outside"]
    assert not ok
    assert len(witnesses) == NET.n
    assert all(w.endswith("on [0.950000, 0.970000] (first of 2 failing "
                          "pieces)") for w in witnesses)


def test_slope_witnesses_name_each_failing_piece_once():
    class Bumpy(Relisted):
        # lists a rising piece on [1.20, 1.30] on every bus
        def breakpoints(self, edges):
            bump = [np.full(NET.n, 1.20), np.full(NET.n, 1.30)]
            pts, u, du = self.pol.breakpoints([*edges, *bump])
            return pts, u, np.where((pts >= 1.20) & (pts < 1.30), 0.1, du)

    cert = certify_policy(X5, Bumpy(MonotonePolicy(droop(BOUNDS, 20.0))),
                          cert_config())
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok
    assert len(witnesses) == NET.n
    for bus, w in enumerate(witnesses, start=1):
        assert re.fullmatch(rf"bus {bus}: u\(1\.200000\) = -3\.000e\+00, "
                            r"slope 1\.000e-01 on \[1\.200000, 1\.300000\]",
                            w), w


def test_mlp_witnesses_name_each_failing_bus_once(tmp_path):
    # a loaded 16-bus MLP rises on many pieces of many buses; each failing
    # bus gets one witness, its first failing piece and their count
    net = generate_random_feeder(16, 1)
    rng = np.random.default_rng(1)
    nets = [FeedForwardNet.create([1, *TrainConfig.actor_hidden, 1], rng)
            for _ in range(net.n)]
    path = tmp_path / "mlp.json"
    save_net_policy(str(path), FeedForwardNet.stack(nets), net.bounds())
    pol, band = load_net_policy(str(path))
    cfg = cert_config(rollouts=2, v_lower=tuple(band[0]),
                      v_upper=tuple(band[1]))
    cert = certify_policy(build_sensitivity(net).X, pol, cfg)
    ok, witnesses = cert.clauses["jacobian_nonpositive"]
    assert not ok
    buses = [int(re.match(r"bus (\d+): ", w).group(1)) for w in witnesses]
    assert 1 < len(buses) == len(set(buses)) <= 10
    assert buses == sorted(buses)
    assert any(re.search(r" \(first of \d+ failing pieces\)$", w)
               for w in witnesses)


def test_certify_refuses_a_policy_without_breakpoints():
    with pytest.raises(ValueError, match=r"breakpoints\(edges\)"):
        certify_policy(X5, lambda v: -np.asarray(v), cert_config(rollouts=2))


def test_monotone_certificate_keeps_config_and_hash():
    pol = make_policy(13)
    cfg = cert_config(rollouts=3)
    cert = certify_policy(X5, pol, cfg)
    assert cert.config == cfg.to_dict()
    assert cert.config_hash == config_hash(cfg.to_dict())
    # the slope floor and the convergence tolerance live in the config only
    assert (cert.config["eps"], cert.config["dist_tol"]) == (1e-3, 1e-3)
    assert set(json.loads(cert.to_json())) == {
        "policy_id", "passed", "clauses", "config", "config_hash", "notes"}
    assert list(cert.clauses) == ["jacobian_nonpositive",
                                  "jacobian_strict_outside", "zero_in_band",
                                  "unbounded_tails", "lyapunov_decrease",
                                  "convergence_to_band"]

import json

import numpy as np
import pytest

from gridvolt.grid import (
    Bus,
    Line,
    NetworkValidationError,
    RadialNetwork,
    build_sensitivity,
    check_positive_definite,
    five_bus_fixture,
    generate_random_feeder,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    solve_distflow,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def enumerate_path(network, bus):
    """Line list on the substation-to-bus path, found by explicit search."""
    parent = {ln.child: ln.parent for ln in network.lines}
    path = []
    while bus != 0:
        path.append((parent[bus], bus))
        bus = parent[bus]
    return path


def brute_force_sensitivity(network):
    """Double path enumeration: intersect the two paths pair by pair."""
    imp = {(ln.parent, ln.child): (ln.r, ln.x) for ln in network.lines}
    n = network.n
    X = np.zeros((n, n))
    R = np.zeros((n, n))
    for i in range(1, n + 1):
        pi = set(enumerate_path(network, i))
        for j in range(1, n + 1):
            pj = set(enumerate_path(network, j))
            shared = pi & pj
            X[i - 1, j - 1] = 2.0 * sum(imp[e][1] for e in shared)
            R[i - 1, j - 1] = 2.0 * sum(imp[e][0] for e in shared)
    return X, R


# ---------------------------------------------------------------------------
# network validation
# ---------------------------------------------------------------------------

def test_valid_fixture():
    net = five_bus_fixture()
    assert net.n == 4
    lo, hi = net.bounds()
    assert np.all(lo == 0.95) and np.all(hi == 1.05)


def test_duplicate_parent_rejected():
    buses = (Bus(0), Bus(1), Bus(2))
    lines = (Line(0, 1, 0.02, 0.05), Line(0, 1, 0.03, 0.04))
    with pytest.raises(NetworkValidationError, match="bus 1"):
        RadialNetwork(buses=buses, lines=lines)


def test_disconnected_rejected():
    buses = (Bus(0), Bus(1), Bus(2), Bus(3))
    lines = (Line(0, 1, 0.02, 0.05), Line(2, 3, 0.02, 0.05),
             Line(3, 2, 0.02, 0.05))
    with pytest.raises(NetworkValidationError):
        RadialNetwork(buses=buses, lines=lines)


def test_nonpositive_impedance_rejected():
    buses = (Bus(0), Bus(1))
    with pytest.raises(NetworkValidationError, match="positive"):
        RadialNetwork(buses=buses, lines=(Line(0, 1, 0.0, 0.05),))


@pytest.mark.parametrize("r, x", [(0.02, float("nan")), (float("inf"), 0.05),
                                  (float("nan"), float("nan"))])
def test_nonfinite_impedance_rejected(r, x):
    buses = (Bus(0), Bus(1))
    with pytest.raises(NetworkValidationError, match="finite"):
        RadialNetwork(buses=buses, lines=(Line(0, 1, r, x),))


def test_wrong_line_count_rejected():
    buses = (Bus(0), Bus(1), Bus(2))
    with pytest.raises(NetworkValidationError, match="exactly 2"):
        RadialNetwork(buses=buses, lines=(Line(0, 1, 0.02, 0.05),))


def test_bad_band_rejected():
    for v_lower, v_upper in ((1.01, 1.05), (0.95, float("inf")),
                             (-float("inf"), 1.05)):
        buses = (Bus(0), Bus(1, v_lower=v_lower, v_upper=v_upper))
        with pytest.raises(NetworkValidationError, match="bus 1"):
            RadialNetwork(buses=buses, lines=(Line(0, 1, 0.02, 0.05),))


# ---------------------------------------------------------------------------
# sensitivity matrices
# ---------------------------------------------------------------------------

def test_single_line_sensitivity():
    net = RadialNetwork(buses=(Bus(0), Bus(1)),
                        lines=(Line(0, 1, 0.02, 0.05),))
    sens = build_sensitivity(net)
    np.testing.assert_allclose(sens.X, [[0.10]], atol=1e-15)
    np.testing.assert_allclose(sens.R, [[0.04]], atol=1e-15)


def test_fixture_matches_brute_force():
    net = five_bus_fixture()
    sens = build_sensitivity(net)
    Xb, Rb = brute_force_sensitivity(net)
    np.testing.assert_array_equal(sens.X, Xb)
    np.testing.assert_array_equal(sens.R, Rb)
    # shared depth of buses 3 and 4 is the two-line chain 0-1-2
    assert sens.X[2, 3] == pytest.approx(0.20)


def test_random_feeders_match_brute_force():
    for seed in range(20):
        net = generate_random_feeder(n=int(3 + seed), rng_seed=seed)
        sens = build_sensitivity(net)
        Xb, Rb = brute_force_sensitivity(net)
        np.testing.assert_allclose(sens.X, Xb, atol=1e-12)
        np.testing.assert_allclose(sens.R, Rb, atol=1e-12)
        assert np.array_equal(sens.X, sens.X.T)
        assert np.all(np.diag(sens.X) > 0)


def test_sensitivity_positive_definite_for_random_feeders():
    for seed in range(30):
        net = generate_random_feeder(n=int(2 + 2 * seed) % 56 + 1,
                                     rng_seed=100 + seed)
        sens = build_sensitivity(net)
        assert check_positive_definite(sens.X) > 0
        assert check_positive_definite(sens.R) > 0


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_identity_min_eigenvalue():
    assert check_positive_definite(np.eye(3)) == pytest.approx(1.0)


def test_indefinite_closed_form():
    # eigenvalues of [[1,2],[2,1]] are 1 +/- 2
    assert check_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]])) == \
        pytest.approx(-1.0)


def test_nonsymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        check_positive_definite(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_nonsquare_rejected():
    with pytest.raises(ValueError, match="square"):
        check_positive_definite(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# linear power flow
# ---------------------------------------------------------------------------

def test_zero_injections_flat_profile():
    net = five_bus_fixture()
    flows, v = solve_distflow(net, np.zeros(4), np.zeros(4))
    np.testing.assert_array_equal(flows.P, 0.0)
    np.testing.assert_array_equal(flows.Q, 0.0)
    np.testing.assert_array_equal(v, net.v0)


def test_single_line_voltage_rise():
    net = RadialNetwork(buses=(Bus(0), Bus(1)),
                        lines=(Line(0, 1, 0.02, 0.05),))
    _, v = solve_distflow(net, np.zeros(1), np.array([0.1]))
    # one line: v1 = v0 + 2*x*q1
    assert v[0] == pytest.approx(1.0 + 2 * 0.05 * 0.1, abs=1e-14)


def test_distflow_matches_linear_form():
    rng = np.random.default_rng(3)
    for seed in range(15):
        net = generate_random_feeder(n=8, rng_seed=seed)
        sens = build_sensitivity(net)
        p = rng.normal(scale=0.1, size=8)
        q = rng.normal(scale=0.1, size=8)
        _, v = solve_distflow(net, p, q)
        v_lin = sens.R @ p + sens.X @ q + net.v0
        np.testing.assert_allclose(v, v_lin, atol=1e-10)


def test_flow_conservation():
    net = five_bus_fixture()
    rng = np.random.default_rng(11)
    p = rng.normal(scale=0.2, size=4)
    q = rng.normal(scale=0.2, size=4)
    flows, _ = solve_distflow(net, p, q)
    by_child = {ln.child: k for k, ln in enumerate(net.lines)}
    for j in range(1, 5):
        inflow = flows.P[by_child[j]]
        out = sum(flows.P[k] for k, ln in enumerate(net.lines)
                  if ln.parent == j)
        assert -p[j - 1] == pytest.approx(inflow - out, abs=1e-12)


def test_dimension_mismatch():
    net = five_bus_fixture()
    with pytest.raises(ValueError, match="length 4"):
        solve_distflow(net, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# random feeders
# ---------------------------------------------------------------------------

def test_single_bus_feeder():
    net = generate_random_feeder(n=1, rng_seed=0)
    assert net.n == 1
    assert len(net.lines) == 1


def test_feeder_deterministic_under_seed():
    a = generate_random_feeder(n=12, rng_seed=42)
    b = generate_random_feeder(n=12, rng_seed=42)
    assert a == b


def test_large_feeder_valid_and_pd():
    net = generate_random_feeder(n=55, rng_seed=5)
    sens = build_sensitivity(net)
    assert check_positive_definite(sens.X) > 0


def test_empty_impedance_range_rejected():
    with pytest.raises(ValueError, match="range"):
        generate_random_feeder(n=3, rng_seed=0, impedance_range=(0.05, 0.05))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_network_json_roundtrip(tmp_path):
    net = generate_random_feeder(n=9, rng_seed=8)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded, warn = load_network(path)
    assert warn == []
    assert loaded == net


def test_loader_flags_unknown_keys(tmp_path):
    net = five_bus_fixture()
    data = json.loads(json.dumps({
        "base_kv": net.base_kv, "v0": net.v0, "mystery": 1,
        "buses": [{"id": b.id, "v_lower": b.v_lower, "v_upper": b.v_upper,
                   "color": "red"} for b in net.buses],
        "lines": [{"from": ln.parent, "to": ln.child, "r": ln.r, "x": ln.x}
                  for ln in net.lines],
    }))
    with pytest.warns(UserWarning, match="unknown"):
        loaded, warn = network_from_dict(data)
    assert loaded == net
    assert any("mystery" in w for w in warn)
    assert any("color" in w for w in warn)


@pytest.mark.parametrize("section, key, value", [
    ("buses", "id", 3.7), ("buses", "id", True), ("buses", "id", "3"),
    ("lines", "to", 3.2), ("lines", "from", False), ("lines", "from", "2"),
])
def test_loader_refuses_ids_that_are_not_integers(section, key, value):
    # int() would truncate 3.7 to 3 and read a boolean as bus 0 or 1
    data = network_to_dict(five_bus_fixture())
    data[section][3 if section == "buses" else 2][key] = value
    with pytest.raises(NetworkValidationError, match="must be integers"):
        network_from_dict(data)

import json

import numpy as np
import pytest

from gridvolt.cli import cli_main
from gridvolt.dynamics import make_suite, save_scenarios
from gridvolt.grid import (
    five_bus_fixture,
    generate_random_feeder,
    save_network,
)
from gridvolt.policy import (
    StackedReluParams,
    sample_raw_params,
    save_checkpoint,
)
from gridvolt.rl import FeedForwardNet, save_net_policy
from gridvolt.util import config_hash, fmt


@pytest.fixture
def net_path(tmp_path):
    path = tmp_path / "net.json"
    save_network(five_bus_fixture(), path)
    return str(path)


@pytest.fixture
def ckpt_path(tmp_path):
    net = five_bus_fixture()
    raw = sample_raw_params(net.n, 8, np.random.default_rng(0))
    path = tmp_path / "steep.json"
    save_checkpoint(str(path), raw, net.bounds(), 1e-3)
    return str(path)


def test_generate_network(tmp_path, capsys):
    out = tmp_path / "random.json"
    code = cli_main(["generate-network", "--buses", "12", "--seed", "3",
                     "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["lines"]) == 12
    assert "min sensitivity eigenvalue" in capsys.readouterr().out


def test_generate_network_bad_flags():
    assert cli_main(["generate-network", "--buses", "nope", "--out", "x"]) == 2


def test_generate_network_needs_size_or_fixture(tmp_path, capsys):
    code = cli_main(["generate-network", "--out", str(tmp_path / "n.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_network_fixture(tmp_path):
    out = tmp_path / "fixture.json"
    assert cli_main(["generate-network", "--fixture", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["buses"]) == 5
    assert all(line["r"] == 0.02 and line["x"] == 0.05
               for line in data["lines"])


def test_simulate(net_path, ckpt_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli_main(["simulate", "--network", net_path, "--policy", ckpt_path,
                     "--scenarios", "5", "--index", "1", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "policy,scenario,t,bus,v,q,u,cost"
    assert "recovered" in capsys.readouterr().out


def test_simulate_linear_policy(net_path, tmp_path):
    out = tmp_path / "traj.csv"
    code = cli_main(["simulate", "--network", net_path, "--policy", "linear",
                     "--scenarios", "3", "--out", str(out)])
    assert code == 0


def test_simulate_missing_network(tmp_path):
    code = cli_main(["simulate", "--network", str(tmp_path / "none.json"),
                     "--policy", "linear", "--out", str(tmp_path / "t.csv")])
    assert code == 2


def _r_not_a_number(data):
    data["lines"][0]["r"] = "abc"
    return data


def _with(key, value):
    def edit(data):
        data[key] = value
        return data
    return edit


def _with_line(key, value):
    def edit(data):
        data["lines"][0][key] = value
        return data
    return edit


def _with_band(key, value):
    def edit(data):
        next(b for b in data["buses"] if b["id"] == 1)[key] = value
        return data
    return edit


# scenario files, written by the test under these names
EMPTY_SUITE = "empty-suite.json"
NAN_SUITE = "nan-suite.json"
INF_SUITE = "inf-suite.json"


def _suite_with(field, index, value):
    suite = make_suite(4, 2, seed=0)
    suite[1][field][index] = value
    return suite


@pytest.mark.parametrize("edit, argv", [
    (lambda data: [data], ["simulate", "--policy", "linear"]),
    (_r_not_a_number, ["simulate", "--policy", "linear"]),
    (_with("buses", 5), ["simulate", "--policy", "linear"]),
    (None, ["simulate", "--policy", "linear", "--horizon", "0"]),
    (None, ["simulate", "--policy", "linear", "--dt", "inf"]),
    (None, ["train", "--episodes", "1", "--dt", "0"]),
    (None, ["certify", "--checkpoint", "linear", "--rollouts", "0"]),
    (None, ["evaluate", "--policies", "linear", "--scenarios", "2",
            "--horizon", "0"]),
    (None, ["simulate", "--policy", "linear", "--recovery-tol", "nan"]),
    (None, ["simulate", "--policy", "linear", "--recovery-tol", "-1"]),
    (None, ["evaluate", "--policies", "linear", "--scenarios", "2",
            "--recovery-tol", "nan"]),
    (None, ["evaluate", "--policies", "linear", "--scenarios", "2",
            "--recovery-tol", "-1"]),
    (None, ["certify", "--checkpoint", "linear", "--tol", "-1"]),
    (None, ["simulate", "--policy", "linear", "--seed", "-1"]),
    (None, ["train", "--episodes", "1", "--seed", "-1"]),
    (None, ["certify", "--checkpoint", "linear", "--seed", "-1"]),
    (None, ["evaluate", "--policies", "linear", "--scenarios", "2",
            "--seed", "-1"]),
    (None, ["generate-network", "--buses", "4", "--seed", "-1"]),
    (None, ["generate-network", "--buses", "0"]),
    (None, ["generate-network", "--buses", "4", "--impedance-lo", "0.08",
            "--impedance-hi", "0.08"]),
    (None, ["generate-network", "--buses", "4", "--impedance-hi", "inf"]),
    (None, ["train", "--episodes", "-3"]),
    (None, ["evaluate", "--policies", "linear", "--scenario-file",
            EMPTY_SUITE]),
    (_with_line("x", float("nan")), ["simulate", "--policy", "linear"]),
    (_with_line("x", float("inf")), ["certify", "--checkpoint", "linear"]),
    (None, ["evaluate", "--policies", "linear", "--scenario-file",
            NAN_SUITE]),
    (None, ["simulate", "--policy", "linear", "--scenario-file",
            INF_SUITE, "--index", "1"]),
    *[(_with_band(key, value), argv)
      for key, value in (("v_upper", float("inf")),
                         ("v_lower", -float("inf")))
      for argv in (["certify", "--checkpoint", "linear"],
                   ["simulate", "--policy", "linear"],
                   ["evaluate", "--policies", "linear", "--scenarios", "3"],
                   ["train", "--episodes", "1"])],
], ids=["network-list", "network-r-not-a-number", "network-buses-not-a-list",
        "simulate-horizon-0", "simulate-dt-inf", "train-dt-0",
        "certify-rollouts-0", "evaluate-horizon-0",
        "simulate-recovery-tol-nan", "simulate-recovery-tol-negative",
        "evaluate-recovery-tol-nan", "evaluate-recovery-tol-negative",
        "certify-tol-negative", "simulate-seed-negative",
        "train-seed-negative", "certify-seed-negative",
        "evaluate-seed-negative", "generate-network-seed-negative",
        "generate-network-buses-0", "generate-network-impedance-empty",
        "generate-network-impedance-inf",
        "train-episodes-negative", "evaluate-empty-scenario-file",
        "network-x-nan", "network-x-inf", "evaluate-scenario-v-env-nan",
        "simulate-scenario-q0-inf",
        *[f"network-{edge}-{command}"
          for edge in ("v-upper-inf", "v-lower-inf")
          for command in ("certify", "simulate", "evaluate", "train")]])
def test_bad_input_exits_2(net_path, tmp_path, capsys, edit, argv):
    if edit is not None:
        with open(net_path) as fh:
            data = edit(json.load(fh))
        with open(net_path, "w") as fh:
            json.dump(data, fh)
    suites = {EMPTY_SUITE: [], NAN_SUITE: _suite_with(0, 2, float("nan")),
              INF_SUITE: _suite_with(1, 0, float("inf"))}
    for name, suite in suites.items():
        save_scenarios(suite, tmp_path / name)
    command, *flags = argv
    flags = [str(tmp_path / f) if f in suites else f for f in flags]
    if command != "generate-network":
        flags = ["--network", net_path, *flags]
    out = tmp_path / "out"
    code = cli_main([command, *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "unrecognized arguments" not in err
    assert not out.exists()


def test_train_and_certify_roundtrip(net_path, tmp_path, capsys):
    ckpt = tmp_path / "trained.json"
    log = tmp_path / "log.csv"
    code = cli_main(["train", "--network", net_path, "--episodes", "2",
                     "--seed", "1", "--out", str(ckpt), "--log", str(log)])
    # two episodes never fill the replay buffer, so no update runs and the
    # run fails, though it still writes its checkpoint and log
    assert code == 1
    assert log.read_text().startswith(
        "episode,return,td_loss_mean,grad_norms,wall_ms")
    assert "warning: training made 0 updates" in capsys.readouterr().err
    cert_out = tmp_path / "cert.json"
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", str(ckpt), "--rollouts", "6",
                     "--out", str(cert_out)])
    assert code == 0
    cert = json.loads(cert_out.read_text())
    assert cert["passed"] is True
    assert "PASS" in capsys.readouterr().out


def test_one_bus_feeder_runs_every_subcommand(tmp_path, capsys):
    # a one-bus feeder cannot draw 'mixed' scenarios, so every suite and
    # training episode uses the 'high' and 'low' kinds only
    net = str(tmp_path / "one.json")
    ckpt = str(tmp_path / "one-trained.json")
    assert cli_main(["generate-network", "--buses", "1", "--out", net]) == 0
    assert cli_main(["train", "--network", net, "--episodes", "10",
                     "--out", ckpt]) == 0
    assert cli_main(["simulate", "--network", net, "--policy", ckpt,
                     "--out", str(tmp_path / "traj.csv")]) == 0
    assert cli_main(["evaluate", "--network", net, "--policies", "linear",
                     ckpt, "--scenarios", "3",
                     "--out", str(tmp_path / "report.csv")]) == 0
    assert cli_main(["certify", "--network", net, "--checkpoint", ckpt,
                     "--rollouts", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "mixed" not in out


def _inf_slope(data):
    data["buses"][0]["raw_slopes"][0][2] = float("inf")
    return data


def _one_unit(data):
    for bus in data["buses"]:
        for key in ("raw_slopes", "raw_bias_decrements"):
            bus[key] = [side[:1] for side in bus[key]]
    return data


def _drop_net(data):
    del data["nets"][-1]
    return data


def _weight(value):
    def edit(data):
        data["nets"][0]["weights"][0][0][0] = value
        return data
    return edit


def _wrong_d(data):
    data["buses"][0]["d"] = 3
    return data


def _without(key):
    def edit(data):
        del data[key]
        return data
    return edit


@pytest.mark.parametrize("actor, edit, buses, message", [
    ("stable", _inf_slope, 4, "bad checkpoint"),
    ("stable", _without("band"), 4, "malformed"),
    ("stable", _without("eps"), 4, "malformed"),
    ("stable", _without("buses"), 4, "malformed"),
    ("stable", _one_unit, 4, "at least 2 ramp units per side, got 1"),
    ("stable", lambda data: [data], 4, "not a JSON object"),
    ("mlp", _without("nets"), 4, "bad checkpoint"),
    ("mlp", _drop_net, 4, "local checkpoint has 3 nets for 4 buses"),
    ("stable", None, 16, "has 4 buses, the network has 16"),
    ("mlp", None, 16, "has 4 buses, the network has 16"),
    ("mlp", _weight(float("nan")), 4, "net 0 has a non-finite weight"),
    ("mlp", _weight("a"), 4, "could not convert string to float"),
    ("stable", _wrong_d, 4, "bus 1 declares d = 3 but has 8 ramp units"),
], ids=["inf-slope", "no-band", "no-eps", "no-buses", "one-unit",
        "not-object", "mlp-no-nets", "mlp-net-missing", "stable-on-16-buses",
        "mlp-on-16-buses", "mlp-nan-weight", "mlp-text-weight",
        "stable-wrong-d"])
def test_certify_rejects_corrupt_checkpoint(net_path, tmp_path, capsys,
                                            actor, edit, buses, message):
    # a checkpoint that is malformed, cannot rebuild a valid controller, or
    # was trained for another feeder is refused at load time with exit 2,
    # well before any rollout
    net = five_bus_fixture()
    path = tmp_path / "bad.json"
    if actor == "stable":
        raw = sample_raw_params(net.n, 8, np.random.default_rng(1))
        save_checkpoint(str(path), raw, net.bounds(), 1e-3)
    else:
        nets = [FeedForwardNet.create([1, 8, 1], np.random.default_rng(k))
                for k in range(net.n)]
        save_net_policy(str(path), nets, False, net.bounds())
    if edit is not None:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    if buses != net.n:
        net_path = str(tmp_path / "big.json")
        save_network(generate_random_feeder(n=buses, rng_seed=1), net_path)
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", str(path), "--rollouts", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert message in err


def test_certify_flags_unstable_policy(net_path, tmp_path, capsys):
    # zero policy loads fine but cannot stabilize anything
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", "zero", "--rollouts", "4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("joint", [False, True])
def test_certify_mlp_checkpoint(net_path, tmp_path, capsys, joint):
    net = five_bus_fixture()
    rng = np.random.default_rng(3)
    sizes = [net.n, 8, 8, net.n] if joint else [1, 8, 1]
    nets = [FeedForwardNet.create(sizes, rng)
            for _ in range(1 if joint else net.n)]
    ckpt = tmp_path / "mlp.json"
    save_net_policy(str(ckpt), nets, joint, net.bounds())
    cert_out = tmp_path / "cert.json"
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", str(ckpt), "--rollouts", "4",
                     "--out", str(cert_out)])
    assert code in (0, 1)
    assert "error:" not in capsys.readouterr().err
    cert = json.loads(cert_out.read_text())
    assert cert["config_hash"] == config_hash(cert["config"])


def test_evaluate(net_path, ckpt_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    hist = tmp_path / "hist.csv"
    traces = tmp_path / "traces"
    code = cli_main(["evaluate", "--network", net_path,
                     "--policies", "linear", ckpt_path, "zero",
                     "--scenarios", "6", "--horizon", "60",
                     "--out", str(out), "--histograms", str(hist),
                     "--traces-dir", str(traces)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("policy,metric,mean,std,n")
    assert "steep" in text and "linear" in text and "zero" in text
    assert hist.exists()
    assert len(list(traces.glob("*.csv"))) == 3 * 6


def test_trace_csv_is_the_same_from_simulate_and_evaluate(net_path, tmp_path,
                                                         capsys):
    # steep enough that scenarios 0, 4 and 5 of the seed-0 suite diverge
    net = five_bus_fixture()
    raw = sample_raw_params(net.n, 16, np.random.default_rng(0),
                            gain_range=(80, 90))
    ckpt = tmp_path / "steep.json"
    save_checkpoint(str(ckpt), raw, net.bounds(), 1e-3)
    traces = tmp_path / "traces"
    assert cli_main(["evaluate", "--network", net_path, "--policies",
                     str(ckpt), "--scenarios", "6", "--out",
                     str(tmp_path / "report.csv"), "--traces-dir",
                     str(traces)]) == 0
    capsys.readouterr()
    diverged = []
    for k in range(6):
        out = tmp_path / f"sim-{k}.csv"
        assert cli_main(["simulate", "--network", net_path, "--policy",
                         str(ckpt), "--scenarios", "6", "--index", str(k),
                         "--out", str(out)]) == 0
        if "diverged" in capsys.readouterr().out:
            diverged.append(k)
        text = out.read_text()
        assert (traces / f"steep-{k}.csv").read_text() == text
        rows = [line.split(",") for line in text.splitlines()[1:]]
        states = [rows[i:i + net.n] for i in range(0, len(rows), net.n)]
        assert len(states) * net.n == len(rows)
        for t, state in enumerate(states):
            assert [r[2] for r in state] == [fmt(t * 0.1)] * net.n
            assert [r[3] for r in state] == [str(i + 1) for i in range(net.n)]
            last = t == len(states) - 1
            assert all((r[6] == "") == last for r in state)
            assert all((r[7] == "") == (last or i > 0)
                       for i, r in enumerate(state))
        # a diverged run holds its steps + 1 states, a full one T + 1
        assert (len(states) < 101) == (k in diverged)
    assert diverged == [0, 4, 5]


def test_evaluate_mlp_checkpoint(net_path, tmp_path, capsys):
    net = five_bus_fixture()
    rng = np.random.default_rng(2)
    nets = [FeedForwardNet.create([1, 8, 1], rng) for _ in range(net.n)]
    ckpt = tmp_path / "mlp.json"
    save_net_policy(str(ckpt), nets, False, net.bounds())
    out = tmp_path / "report.csv"
    code = cli_main(["evaluate", "--network", net_path,
                     "--policies", str(ckpt), "linear",
                     "--scenarios", "5", "--horizon", "30",
                     "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert sum(r.startswith("mlp,") for r in rows) == 6
    assert "mlp: stability" in capsys.readouterr().out


def test_evaluate_scenario_file(net_path, tmp_path):
    suite_path = tmp_path / "suite.json"
    save_scenarios(make_suite(4, 4, seed=9), suite_path)
    out = tmp_path / "report.csv"
    code = cli_main(["evaluate", "--network", net_path,
                     "--policies", "linear", "--scenario-file",
                     str(suite_path), "--horizon", "30", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("text, message", [
    (json.dumps([{"v_env": [1.0] * 16, "q0": [0.0] * 16}]),
     "16 v_env and 16 q0 entries, the network has 4 buses"),
    ("not json", "bad scenario file"),
    (json.dumps([{"q0": [0.0] * 4}]), "bad scenario file"),
    (json.dumps({"v_env": [1.0] * 4}), "bad scenario file"),
], ids=["16-buses", "not-json", "no-v_env", "not-a-list"])
def test_evaluate_rejects_bad_scenario_file(net_path, tmp_path, capsys,
                                            text, message):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(text)
    code = cli_main(["evaluate", "--network", net_path,
                     "--policies", "linear", "--scenario-file",
                     str(suite_path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_evaluate_zero_scenarios_usage_error(net_path, tmp_path, capsys):
    code = cli_main(["evaluate", "--network", net_path,
                     "--policies", "linear",
                     "--scenarios", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_deterministic(net_path, ckpt_path, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["evaluate", "--network", net_path, "--policies", ckpt_path,
            "--scenarios", "5", "--horizon", "40", "--seed", "7"]
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridvolt
from gridvolt import rl
from gridvolt.bench import write_trajectory_csv
from gridvolt.cli import cli_main
from gridvolt.dynamics import make_suite, rollout, save_scenarios
from gridvolt.grid import (
    build_sensitivity,
    five_bus_fixture,
    generate_random_feeder,
    save_network,
)
from gridvolt.policy import (
    MonotonePolicy,
    StackedReluParams,
    droop,
    parse_checkpoint,
    sample_raw_params,
    save_checkpoint,
    zero_policy,
)
from gridvolt.rl import FeedForwardNet, load_net_policy, save_net_policy
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


def test_evaluate_missing_network(tmp_path, capsys):
    code = cli_main(["evaluate", "--network", str(tmp_path / "none.json"),
                     "--policies", "linear", "--scenarios", "2",
                     "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error: network file not found" in capsys.readouterr().err


def test_simulate_is_not_a_subcommand(net_path, tmp_path, capsys):
    # evaluate --traces-dir writes the per-step trace of every scenario
    code = cli_main(["simulate", "--network", net_path, "--policy", "linear",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "invalid choice: 'simulate'" in capsys.readouterr().err


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


def _with_entry(field, index, value):
    def edit(data):
        data[field][index] = value
        return data
    return edit


def _with_ids(edits):
    """Set (field, entry index, key) to a value for each listed edit."""
    def edit(data):
        for (field, index, key), value in edits.items():
            data[field][index][key] = value
        return data
    return edit


# scenario files, written by the test under these names
EMPTY_SUITE = "empty-suite.json"
NAN_SUITE = "nan-suite.json"
INF_SUITE = "inf-suite.json"
BOOL_SUITE = "bool-suite.json"
TEXT_SUITE = "text-suite.json"


def _suite_with(field, index, value):
    """A saved two-scenario suite with one entry of scenario 1 replaced."""
    data = [{"v_env": v_env.tolist(), "q0": q0.tolist(), "label": label}
            for v_env, q0, label in make_suite(4, 2, seed=0)]
    data[1][field][index] = value
    return data


EVALUATE = ["evaluate", "--policies", "linear", "--scenarios", "2"]
# the subcommands that read a feeder, each on its own bad file
READERS = (["certify", "--checkpoint", "linear"],
           ["evaluate", "--policies", "linear", "--scenarios", "3"],
           ["train", "--episodes", "1"])
NO_BUS = "the network has no controllable bus"


def _only_buses(buses):
    """A feeder file listing ``buses`` and no lines."""
    return lambda data: {"buses": buses, "lines": []}


# where: a part of the one-line error, naming the defect and its place
@pytest.mark.parametrize("edit, argv, where", [
    (lambda data: [data], EVALUATE, None),
    (_r_not_a_number, EVALUATE, "line 0-1 r: could not convert"),
    (_with("buses", 5), EVALUATE, None),
    (None, ["certify", "--checkpoint", "linear", "--horizon", "0"], None),
    (None, [*EVALUATE, "--dt", "inf"], None),
    (None, ["train", "--episodes", "1", "--dt", "0"], None),
    (None, ["certify", "--checkpoint", "linear", "--rollouts", "0"], None),
    (None, [*EVALUATE, "--horizon", "0"], None),
    (None, [*EVALUATE, "--recovery-tol", "nan"], None),
    (None, [*EVALUATE, "--recovery-tol", "-1"], None),
    (None, ["certify", "--checkpoint", "linear", "--tol", "-1"], None),
    (None, ["train", "--episodes", "1", "--seed", "-1"], None),
    (None, ["certify", "--checkpoint", "linear", "--seed", "-1"], None),
    (None, [*EVALUATE, "--seed", "-1"], None),
    (None, ["generate-network", "--buses", "4", "--seed", "-1"], None),
    (None, ["generate-network", "--buses", "0"], None),
    (None, ["generate-network", "--buses", "4", "--impedance-lo", "0.08",
            "--impedance-hi", "0.08"], None),
    (None, ["generate-network", "--buses", "4", "--impedance-hi", "inf"],
     None),
    (None, ["train", "--episodes", "-3"], None),
    (None, ["evaluate", "--policies", "linear", "--scenario-file",
            EMPTY_SUITE], None),
    (_with_line("x", float("nan")), EVALUATE, None),
    (_with_line("x", float("inf")), ["certify", "--checkpoint", "linear"],
     None),
    *[(None, ["evaluate", "--policies", "linear", "--scenario-file", suite],
       where)
      for suite, where in (
          (NAN_SUITE, None), (INF_SUITE, None),
          (BOOL_SUITE, "scenario 1 (low-1) v_env: expected JSON numbers, "
                       "got bool"),
          (TEXT_SUITE, "scenario 1 (low-1) q0: expected JSON numbers, "
                       "got str"))],
    *[(_with_band(key, value), argv, None)
      for key, value in (("v_upper", float("inf")),
                         ("v_lower", -float("inf")))
      for argv in READERS],
    *[(_with_ids(edits), EVALUATE, None)
      for edits in ({("buses", 3, "id"): 3.7, ("lines", 2, "to"): 3.2},
                    {("lines", 3, "to"): 4.5},
                    {("lines", 0, "from"): False},
                    {("buses", 1, "id"): True},
                    {("buses", 2, "id"): "2"},
                    {("lines", 1, "from"): "1"})],
    # numpy and float() read these as numbers; each would load silently
    (_with_line("x", True), ["certify", "--checkpoint", "linear"],
     "line 0-1 x: expected JSON numbers, got bool"),
    (_with_line("x", "0.05"), EVALUATE,
     "line 0-1 x: expected JSON numbers, got str"),
    (_with_band("v_upper", "1.05"), ["certify", "--checkpoint", "linear"],
     "bus 1 v_upper: expected JSON numbers, got str"),
    (_with("v0", True), EVALUATE, ": v0: expected JSON numbers, got bool"),
    (_with("base_kv", "12"), ["train", "--episodes", "1"],
     ": base_kv: expected JSON numbers, got str"),
    *[(_only_buses(buses), argv, NO_BUS)
      for buses in ([{"id": 0}], []) for argv in READERS],
    # a list where an object or a number belongs, refused by its place
    (_with_entry("buses", 2, [2]), ["certify", "--checkpoint", "linear"],
     "buses[2] is not a JSON object"),
    (_with_entry("lines", 1, ["x"]), ["certify", "--checkpoint", "linear"],
     "lines[1] is not a JSON object"),
    (_with_line("x", [0.05]), ["certify", "--checkpoint", "linear"],
     "line 0-1 x: expected a JSON number, got a list"),
], ids=["network-list", "network-r-not-a-number", "network-buses-not-a-list",
        "certify-horizon-0", "evaluate-dt-inf", "train-dt-0",
        "certify-rollouts-0", "evaluate-horizon-0",
        "evaluate-recovery-tol-nan", "evaluate-recovery-tol-negative",
        "certify-tol-negative", "train-seed-negative",
        "certify-seed-negative", "evaluate-seed-negative",
        "generate-network-seed-negative", "generate-network-buses-0",
        "generate-network-impedance-empty", "generate-network-impedance-inf",
        "train-episodes-negative", "evaluate-empty-scenario-file",
        "network-x-nan", "network-x-inf", "evaluate-scenario-v-env-nan",
        "evaluate-scenario-q0-inf", "evaluate-scenario-v-env-boolean",
        "evaluate-scenario-q0-string",
        *[f"network-{edge}-{command}"
          for edge in ("v-upper-inf", "v-lower-inf")
          for command in ("certify", "evaluate", "train")],
        "network-bus-id-fractional", "network-line-to-fractional",
        "network-line-from-boolean", "network-bus-id-boolean",
        "network-bus-id-string", "network-line-from-string",
        "network-x-boolean", "network-x-string", "network-v-upper-string",
        "network-v0-boolean", "network-base-kv-string",
        *[f"network-{buses}-{command}"
          for buses in ("substation-only", "no-buses")
          for command in ("certify", "evaluate", "train")],
        "network-bus-entry-list", "network-line-entry-list",
        "network-x-list"])
def test_bad_input_exits_2(net_path, tmp_path, capsys, edit, argv, where):
    if edit is not None:
        with open(net_path) as fh:
            data = edit(json.load(fh))
        with open(net_path, "w") as fh:
            json.dump(data, fh)
    suites = {EMPTY_SUITE: [], NAN_SUITE: _suite_with("v_env", 2, float("nan")),
              INF_SUITE: _suite_with("q0", 0, float("inf")),
              BOOL_SUITE: _suite_with("v_env", 1, True),
              TEXT_SUITE: _suite_with("q0", 3, "0.0")}
    for name, suite in suites.items():
        (tmp_path / name).write_text(json.dumps(suite))
    command, *flags = argv
    flags = [str(tmp_path / f) if f in suites else f for f in flags]
    if command != "generate-network":
        flags = ["--network", net_path, *flags]
    out = tmp_path / "out"
    code = cli_main([command, *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "unrecognized arguments" not in err
    assert where is None or where in err
    assert not out.exists()


def test_trained_checkpoints_record_blas_and_keep_bytes_across_threads(
        net_path, tmp_path):
    # the meta names the BLAS library and the thread count training ran at,
    # which is one at any OPENBLAS_NUM_THREADS, so the bytes stay the same
    src = str(Path(gridvolt.__file__).parents[1])
    for actor in ("stable", "unconstrained"):
        ckpts = []
        for threads in ("1", "2"):
            out = tmp_path / f"{actor}-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "gridvolt.cli", "train", "--network",
                 net_path, "--actor", actor, "--episodes", "10", "--out",
                 str(out)], check=True, capture_output=True, timeout=600,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": src})
            ckpts.append(out.read_bytes())
        assert ckpts[0] == ckpts[1]
        meta = json.loads(ckpts[0])["meta"]
        assert meta == {"actor": actor, "seed": 0, **rl.blas_meta()}
        assert meta["blas"] == "{name} {version}".format(
            **np.__config__.CONFIG["Build Dependencies"]["blas"])
        assert meta["blas_threads"] == (1 if rl._openblas_threads() else None)


def test_train_and_certify_roundtrip(net_path, tmp_path, capsys):
    ckpt = tmp_path / "trained.json"
    log = tmp_path / "log.csv"
    code = cli_main(["train", "--network", net_path, "--episodes", "2",
                     "--seed", "1", "--out", str(ckpt), "--log", str(log)])
    # two episodes never fill the replay buffer, so no update runs and the
    # run fails, though it still writes its checkpoint and log
    assert code == 1
    assert log.read_text().startswith(
        "episode,return,td_loss_mean,grad_norms\n")
    assert "warning: training made 0 updates" in capsys.readouterr().err
    cert_out = tmp_path / "cert.json"
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", str(ckpt), "--rollouts", "6",
                     "--out", str(cert_out)])
    assert code == 0
    cert = json.loads(cert_out.read_text())
    assert cert["passed"] is True
    assert "PASS" in capsys.readouterr().out


def test_train_refuses_the_joint_mlp_before_reading_the_feeder(tmp_path,
                                                               capsys):
    # --scope joint picks the monotone actor's critic; the MLP actor is one
    # local net per bus, so the pair is refused before any file is read
    out = tmp_path / "mlp.json"
    code = cli_main(["train", "--network", str(tmp_path / "missing.json"),
                     "--actor", "unconstrained", "--scope", "joint",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --scope joint" in err and "not found" not in err
    assert not out.exists()


def test_one_bus_feeder_runs_every_subcommand(tmp_path, capsys):
    # a one-bus feeder cannot draw 'mixed' scenarios, so every suite and
    # training episode uses the 'high' and 'low' kinds only
    net = str(tmp_path / "one.json")
    ckpt = str(tmp_path / "one-trained.json")
    assert cli_main(["generate-network", "--buses", "1", "--out", net]) == 0
    assert cli_main(["train", "--network", net, "--episodes", "10",
                     "--out", ckpt]) == 0
    assert cli_main(["evaluate", "--network", net, "--policies", "linear",
                     ckpt, "--scenarios", "3", "--traces-dir",
                     str(tmp_path / "traces"),
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


def _put(value, *path):
    """An edit that stores ``value`` at ``path`` in the checkpoint."""
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
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


def _edited_checkpoint(tmp_path, actor, edit):
    """A fixture checkpoint of either kind, passed through ``edit``."""
    net = five_bus_fixture()
    path = tmp_path / "bad.json"
    if actor == "stable":
        raw = sample_raw_params(net.n, 8, np.random.default_rng(1))
        save_checkpoint(str(path), raw, net.bounds(), 1e-3)
    else:
        nets = [FeedForwardNet.create([1, 8, 1], np.random.default_rng(k))
                for k in range(net.n)]
        save_net_policy(str(path), FeedForwardNet.stack(nets), net.bounds())
    if edit is not None:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return path


@pytest.mark.parametrize("actor, edit, buses, message", [
    ("stable", _inf_slope, 4, "bad checkpoint"),
    ("stable", _without("band"), 4, "malformed"),
    ("stable", _without("eps"), 4, "malformed"),
    ("stable", _without("buses"), 4, "malformed"),
    ("stable", _one_unit, 4, "at least 2 ramp units per side, got 1"),
    ("stable", lambda data: [data], 4, "not a JSON object"),
    ("mlp", _without("nets"), 4, "bad checkpoint"),
    ("mlp", _drop_net, 4, "checkpoint has 3 nets for 4 buses"),
    ("stable", None, 16, "has 4 buses, the network has 16"),
    ("mlp", None, 16, "has 4 buses, the network has 16"),
    ("mlp", _weight(float("nan")), 4, "net 0 has a non-finite weight"),
    ("mlp", _weight("a"), 4, "could not convert string to float"),
    ("stable", _wrong_d, 4, "bus 1 declares d = 3 but has 8 ramp units"),
    # numpy and float() read these as numbers; each would load silently
    ("stable", _put(True, "eps"), 4, "expected JSON numbers, got bool"),
    ("stable", _put("0.001", "eps"), 4, "expected JSON numbers, got str"),
    ("stable", _put("0.95", "band", "v_lower", 0), 4, "got str"),
    ("stable", _put(True, "buses", 0, "raw_slopes", 0, 0), 4, "got bool"),
    ("mlp", _weight(True), 4, "expected JSON numbers, got bool"),
    ("mlp", _put("0.5", "nets", 1, "biases", 0, 0), 4, "got str"),
    ("mlp", _put("1.05", "band", "v_upper", 3), 4, "got str"),
    # and == reads these as the integers the loaders expect
    ("stable", _put(True, "format_version"), 4,
     "unsupported checkpoint version True"),
    ("stable", _put(1.0, "format_version"), 4,
     "unsupported checkpoint version 1.0"),
    ("mlp", _put(True, "format_version"), 4, "not an mlp policy checkpoint"),
    ("mlp", _put(1.0, "format_version"), 4, "not an mlp policy checkpoint"),
    ("stable", _put(8.0, "buses", 0, "d"), 4,
     "bus 1 declares d = 8.0 but has 8 ramp units"),
], ids=["inf-slope", "no-band", "no-eps", "no-buses", "one-unit",
        "not-object", "mlp-no-nets", "mlp-net-missing", "stable-on-16-buses",
        "mlp-on-16-buses", "mlp-nan-weight", "mlp-text-weight",
        "stable-wrong-d", "bool-eps", "text-eps", "text-band-edge",
        "bool-raw-slope", "mlp-bool-weight", "mlp-text-bias",
        "mlp-text-band-edge", "bool-version", "float-version",
        "mlp-bool-version", "mlp-float-version", "float-d"])
def test_certify_rejects_corrupt_checkpoint(net_path, tmp_path, capsys,
                                            actor, edit, buses, message):
    # a checkpoint that is malformed, cannot rebuild a valid controller, or
    # was trained for another feeder is refused at load time with exit 2,
    # well before any rollout
    net = five_bus_fixture()
    path = _edited_checkpoint(tmp_path, actor, edit)
    if buses != net.n:
        net_path = str(tmp_path / "big.json")
        save_network(generate_random_feeder(n=buses, rng_seed=1), net_path)
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", str(path), "--rollouts", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert message in err


def _inverted_band(data):
    data["band"]["v_lower"][0] = 1.2
    return data


def _short_v_upper(data):
    data["band"]["v_upper"].pop()
    return data


def _nan_v_upper(data):
    data["band"]["v_upper"][0] = float("nan")
    return data


def _joint_era(data):
    # the retired joint MLP's layout: one n -> n net and "joint": true
    net = FeedForwardNet.create([4, 8, 4], np.random.default_rng(0))
    data["nets"] = [{"weights": [w.tolist() for w in net.weights],
                     "biases": [b.tolist() for b in net.biases]}]
    data["joint"] = True
    return data


def _ragged_nets(data):
    # bus 2's net has 4 hidden units, the other buses' nets 8
    net = FeedForwardNet.create([1, 4, 1], np.random.default_rng(0))
    data["nets"][1] = {"weights": [w.tolist() for w in net.weights],
                       "biases": [b.tolist() for b in net.biases]}
    return data


def _no_buses(data):
    data["band"] = {"v_lower": [], "v_upper": []}
    data["buses" if "buses" in data else "nets"] = []
    return data


def _kind(kind):
    def edit(data):
        data["kind"] = kind
        return data
    return edit


@pytest.mark.parametrize("command", ["certify", "evaluate"])
@pytest.mark.parametrize("actor, edit, message", [
    ("stable", _inverted_band,
     "bus 1 has v_lower = 1.2 not below v_upper = 1.05"),
    ("mlp", _joint_era, "checkpoint has 1 nets for 4 buses"),
    ("mlp", _inverted_band,
     "bus 1 has v_lower = 1.2 not below v_upper = 1.05"),
    ("mlp", _short_v_upper, "band has 4 v_lower and 3 v_upper entries"),
    ("mlp", _nan_v_upper, "bus 1 has a non-finite band edge"),
    ("mlp", _ragged_nets, "net 1 has other layer sizes than net 0"),
    ("stable", _kind("banana"), "unknown checkpoint kind 'banana'"),
    ("stable", lambda data: [data], "checkpoint is not a JSON object"),
    ("stable", _no_buses, "band has no buses"),
    ("mlp", _no_buses, "band has no buses"),
], ids=["inverted-band", "joint-era", "mlp-inverted-band",
        "mlp-short-v-upper", "mlp-nan-v-upper", "ragged-nets", "kind-banana",
        "not-object", "no-buses", "mlp-no-buses"])
def test_certify_and_evaluate_reject_bad_checkpoint_fields(
        net_path, tmp_path, capsys, command, actor, edit, message):
    path = str(_edited_checkpoint(tmp_path, actor, edit))
    out = str(tmp_path / "out")
    argv = {"certify": ["certify", "--checkpoint", path, "--rollouts", "2"],
            "evaluate": ["evaluate", "--policies", path, "--scenarios", "2",
                         "--out", out]}[command]
    assert cli_main([*argv, "--network", net_path]) == 2
    err = capsys.readouterr().err
    assert "error: bad checkpoint" in err
    assert message in err


def test_certify_flags_unstable_policy(net_path, tmp_path, capsys):
    # zero policy loads fine but cannot stabilize anything
    code = cli_main(["certify", "--network", net_path,
                     "--checkpoint", "zero", "--rollouts", "4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_certify_mlp_checkpoint(net_path, tmp_path, capsys):
    net = five_bus_fixture()
    rng = np.random.default_rng(3)
    nets = [FeedForwardNet.create([1, 8, 1], rng) for _ in range(net.n)]
    ckpt = tmp_path / "mlp.json"
    save_net_policy(str(ckpt), FeedForwardNet.stack(nets), net.bounds())
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


def _assert_traces_are_rollouts(net_path, tmp_path, policies, args):
    # runs evaluate --traces-dir on 6 scenarios and checks that each trace
    # is byte for byte the CSV of that policy's one-scenario rollout;
    # returns the diverged scenarios of each policy
    net = five_bus_fixture()
    traces = tmp_path / "traces"
    assert cli_main(["evaluate", "--network", net_path, "--policies", *args,
                     "--scenarios", "6", "--out", str(tmp_path / "report.csv"),
                     "--traces-dir", str(traces)]) == 0
    X = build_sensitivity(net).X
    diverged = {}
    for name, pol in policies.items():
        diverged[name] = []
        for k, (v_env, q0, label) in enumerate(make_suite(net.n, 6, seed=0)):
            runs = rollout(pol, X, v_env, q0, T=100, dt=0.1)
            out = tmp_path / f"{name}-{k}.csv"
            write_trajectory_csv(runs, 0, out, net.bounds(), policy=name,
                                 scenario=label)
            assert (traces / f"{name}-{k}.csv").read_bytes() == \
                out.read_bytes()
            if runs.diverged[0]:
                diverged[name].append(k)
    return diverged


def test_simulate(net_path, ckpt_path, tmp_path):
    # the per-step trace of a stable and an MLP checkpoint, which the
    # simulate subcommand wrote, is evaluate --traces-dir's
    net = five_bus_fixture()
    mlp = tmp_path / "mlp.json"
    nets = [FeedForwardNet.create([1, 8, 1], np.random.default_rng(k))
            for k in range(net.n)]
    save_net_policy(str(mlp), FeedForwardNet.stack(nets), net.bounds())
    policies = {
        "steep": parse_checkpoint(json.loads(Path(ckpt_path).read_text()))[3],
        "mlp": load_net_policy(str(mlp))[0]}
    _assert_traces_are_rollouts(net_path, tmp_path, policies,
                                [ckpt_path, str(mlp)])


def test_simulate_linear_policy(net_path, tmp_path):
    band = five_bus_fixture().bounds()
    policies = {"linear": MonotonePolicy(droop(band, 1.0)),
                "zero": zero_policy(band)}
    _assert_traces_are_rollouts(net_path, tmp_path, policies,
                                ["linear", "zero"])


def test_trace_csv_is_the_same_from_simulate_and_evaluate(net_path, tmp_path):
    # a diverged run's trace stops at its cut, as simulate's did
    net = five_bus_fixture()
    # steep enough that scenarios 0, 4 and 5 of the seed-0 suite diverge
    raw = sample_raw_params(net.n, 16, np.random.default_rng(0),
                            gain_range=(80, 90))
    steep = tmp_path / "steep.json"
    save_checkpoint(str(steep), raw, net.bounds(), 1e-3)
    policies = {"steep": parse_checkpoint(json.loads(steep.read_text()))[3]}
    diverged = _assert_traces_are_rollouts(net_path, tmp_path, policies,
                                           [str(steep)])["steep"]
    assert diverged == [0, 4, 5]
    traces = tmp_path / "traces"
    for k in range(6):
        lines = (traces / f"steep-{k}.csv").read_text().splitlines()
        assert lines[0] == "policy,scenario,t,bus,v,q,u,cost"
        rows = [line.split(",") for line in lines[1:]]
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


def test_evaluate_csvs_quote_fields_that_hold_commas(net_path, ckpt_path,
                                                    tmp_path):
    # a checkpoint name and a scenario label with a comma stay one field
    ckpt = tmp_path / "a,b.json"
    shutil.copy(ckpt_path, ckpt)
    suite_path = tmp_path / "suite.json"
    save_scenarios([(v, q, "spike, bus 1")
                    for v, q, _ in make_suite(4, 2, seed=9)], suite_path)
    paths = {name: tmp_path / name for name in ("report.csv", "hist.csv")}
    assert cli_main(["evaluate", "--network", net_path, "--policies",
                     str(ckpt), "linear", "--scenario-file", str(suite_path),
                     "--horizon", "30", "--out", str(paths["report.csv"]),
                     "--histograms", str(paths["hist.csv"]), "--traces-dir",
                     str(tmp_path / "traces")]) == 0
    paths["trace.csv"] = tmp_path / "traces" / "a,b-1.csv"
    rows = {}
    for name, path in paths.items():
        with open(path, newline="") as fh:
            rows[name] = list(csv.reader(fh))
    for name, width in (("report.csv", 5), ("hist.csv", 5), ("trace.csv", 8)):
        assert {len(row) for row in rows[name]} == {width}, name
        assert {row[0] for row in rows[name][1:]} >= {"a,b"}, name
    assert {row[1] for row in rows["trace.csv"][1:]} == {"spike, bus 1"}
    assert paths["report.csv"].read_text().splitlines()[1].startswith(
        '"a,b",')


def test_evaluate_mlp_checkpoint(net_path, tmp_path, capsys):
    net = five_bus_fixture()
    rng = np.random.default_rng(2)
    nets = [FeedForwardNet.create([1, 8, 1], rng) for _ in range(net.n)]
    ckpt = tmp_path / "mlp.json"
    save_net_policy(str(ckpt), FeedForwardNet.stack(nets), net.bounds())
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

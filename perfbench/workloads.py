"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each workload drives gridvolt only through its public modules and
``gridvolt.cli.cli_main``, in one thread, as a closed loop: every operation
starts when the previous one returns. Module attributes are looked up at
call time (``rl.train``, not a local alias) so the tracer's wrappers are seen.
"""

import contextlib
import io
import json
import math
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from gridvolt import bench, cli, dynamics, grid, policy, rl, util

HOLDOUT_SEED_OFFSET = 10_000
MIN_PASSES = 2  # same-seed repeat for the determinism check


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``FULL`` is what the benchmark measures."""

    episodes: int = 20          # per train call; 8 fill the buffer, 12 update
    batch_size: int = 256       # TrainConfig default
    stable_updates: int = 30    # TrainConfig default updates per episode
    mlp_updates: int = 5        # see NOTES.md: enough episodes for a tail
    holdout: int = 30           # scenarios scoring the trained policy
    checkpoints: int = 6        # certified and evaluated per assess pass
    scenarios: int = 60         # evaluate suite size
    certify_args: tuple = ()    # extra certify flags; FULL uses CLI defaults
    setup_reps: int = 15        # set-up runs whose median is setup_s
    min_samples: int = 11       # timed operations needed for a tail


FULL = Scale()
TINY = Scale(episodes=3, batch_size=32, stable_updates=2, mlp_updates=2,
             holdout=3, checkpoints=2, scenarios=3,
             certify_args=("--rollouts", "2"),
             setup_reps=1, min_samples=1)


class Record:
    """Operations of a run: (kind, start, end) per op plus check failures."""

    def __init__(self):
        self.ops = []            # (kind, start, end)
        self.primary = []        # durations of the workload's main operation
        self.work = 0            # updates or rollouts completed
        self.work_s = 0.0        # wall time of the calls doing that work
        self.failures = []       # one message per failed operation or check
        self.raised = 0          # operations that raised before they were timed
        self.counts = Counter()  # certify verdicts and retries
        self.info = {}

    def op(self, kind, start, end, primary=False):
        self.ops.append((kind, start, end))
        if primary:
            self.primary.append(end - start)

    def fail(self, message):
        self.failures.append(message)

    def op_raised(self, message):
        self.raised += 1
        self.fail(message)

    @property
    def attempted(self):
        return len(self.ops) + self.raised

    def check(self, ok, message):
        if not ok:
            self.fail(message)
        return ok


def call_cli(argv):
    """Run one CLI command; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_main(argv)
    return code, out.getvalue()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _feeder(path, network):
    """Write the feeder, read it back, and build its sensitivity matrix."""
    grid.save_network(network, path)
    net, _warnings = grid.load_network(path)
    sens = grid.build_sensitivity(net)
    min_eig = grid.check_positive_definite(sens.X)
    if not min_eig > 0.0:
        raise ValueError(f"sensitivity matrix not positive definite "
                         f"(min eigenvalue {min_eig})")
    return net, sens


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """Repeated same-seed ``rl.train`` calls; the operation is an episode."""

    def __init__(self, buses, actor):
        self.buses = buses
        self.actor = actor

    def setup(self, seed, workdir, scale):
        if self.buses == 4:
            network = grid.five_bus_fixture()
        else:
            network = grid.generate_random_feeder(self.buses, rng_seed=seed)
        net, sens = _feeder(os.path.join(workdir, "feeder.json"), network)
        holdout = dynamics.make_suite(net.n, scale.holdout,
                                      seed=seed + HOLDOUT_SEED_OFFSET)
        band = net.bounds()
        updates = (scale.stable_updates if self.actor == "stable"
                   else scale.mlp_updates)
        return {
            "workdir": workdir, "net": net, "X": sens.X, "band": band,
            "holdout": holdout,
            "env": rl.VoltEnv(X=sens.X, v_lower=band[0], v_upper=band[1],
                              cp=dynamics.CostParams()),
            "cfg": rl.TrainConfig(episodes=scale.episodes, seed=seed,
                                  batch_size=scale.batch_size,
                                  updates_per_episode=updates),
            "first": None,
        }

    def one_pass(self, ctx, rec):
        cfg = ctx["cfg"]
        stamps = [time.perf_counter()]
        try:
            result = rl.train(ctx["env"], cfg, actor_kind=self.actor,
                              episode_callback=lambda *_: stamps.append(
                                  time.perf_counter()))
        except Exception as exc:  # noqa: BLE001 - a failed op is data here
            traceback.print_exc()
            rec.op_raised(f"train raised {type(exc).__name__}: {exc}")
            return
        rec.work_s += stamps[-1] - stamps[0]
        updating = [row["td_loss_mean"] != 0.0 for row in result.log]
        for k, upd in enumerate(updating):
            rec.op("episode", stamps[k], stamps[k + 1], primary=upd)
        updates = sum(updating) * cfg.updates_per_episode
        rec.work += updates

        rec.check(len(result.log) == cfg.episodes,
                  f"train logged {len(result.log)} of {cfg.episodes} episodes")
        for _ in range(result.diverged_episodes):
            rec.fail("training episode diverged")
        rec.check(updates > 0, "train made no updates")
        if self.actor == "stable":
            report = policy.verify_monotone(result.policy.params)
            rec.check(report.passed,
                      "trained policy is not monotone:\n" + report.summary())
        evaluation = bench.evaluate([("final", result.policy)], ctx["X"],
                                    ctx["holdout"], ctx["band"],
                                    v0=ctx["net"].v0)
        cost, _ = evaluation.metric("final", "transient_cost")
        rec.check(math.isfinite(cost), f"train_policy_cost {cost} not finite")
        log_path = os.path.join(ctx["workdir"], "train-log.csv")
        rl.write_training_log(result.log, log_path)
        outputs = (_read_bytes(log_path), cost)
        if ctx["first"] is None:
            ctx["first"] = outputs
            rec.info.update(train_policy_cost=cost, updates_per_train=updates)
        else:
            rec.check(outputs[0] == ctx["first"][0],
                      "same-seed training logs differ")
            rec.check(outputs[1] == ctx["first"][1],
                      "same-seed train_policy_cost differs")


# ---------------------------------------------------------------------------
# certify + evaluate workload
# ---------------------------------------------------------------------------

class AssessWorkload:
    """Certify K sampled checkpoints, then evaluate them with two baselines."""

    def setup(self, seed, workdir, scale):
        net, sens = _feeder(os.path.join(workdir, "feeder.json"),
                            grid.five_bus_fixture())
        band = net.bounds()
        rng = np.random.default_rng(seed)
        checkpoints = []
        for k in range(scale.checkpoints):
            raw = policy.sample_raw_params(net.n, rl.TrainConfig.actor_units,
                                           rng)
            path = os.path.join(workdir, f"ck{k}.json")
            policy.save_checkpoint(path, raw, band, rl.TrainConfig.eps,
                                   meta={"seed": seed, "index": k})
            checkpoints.append(path)
        suite = dynamics.make_suite(net.n, scale.scenarios, seed=seed)
        suite_path = os.path.join(workdir, "suite.json")
        dynamics.save_scenarios(suite, suite_path)
        return {"workdir": workdir, "network": os.path.join(workdir,
                                                            "feeder.json"),
                "checkpoints": checkpoints, "suite_path": suite_path,
                "suite_hash": bench.evaluate([], sens.X, suite,
                                             band).scenario_hash,
                "scenarios": len(suite),
                "certify_args": list(scale.certify_args), "first": None}

    def _certify(self, ctx, rec, k, checkpoint):
        out = os.path.join(ctx["workdir"], f"cert{k}.json")
        t0 = time.perf_counter()
        code, _ = call_cli(["certify", "--network", ctx["network"],
                            "--checkpoint", checkpoint, "--out", out,
                            *ctx["certify_args"]])
        t1 = time.perf_counter()
        rec.op("certify", t0, t1, primary=True)
        # Sampled gains stay below 2/(dt * lambda_max) on the fixture, so a
        # correct certifier passes every checkpoint (exit 0, not 1).
        rec.counts["certified"] += 1
        if not rec.check(code == 0, f"certify of checkpoint {k} exited {code}"):
            return None
        rec.counts["passed"] += 1
        text = _read_bytes(out)
        cert = json.loads(text)
        rec.check(cert["passed"] and
                  cert["config_hash"] == util.config_hash(cert["config"]),
                  f"certificate {k}: verdict or config_hash is wrong")
        decrease = cert["clauses"]["lyapunov_decrease"]["witnesses"]
        rec.counts["retries"] += len(cert["notes"]) + len(decrease)
        return text

    def one_pass(self, ctx, rec):
        certs = [self._certify(ctx, rec, k, ck)
                 for k, ck in enumerate(ctx["checkpoints"])]
        report_path = os.path.join(ctx["workdir"], "report.csv")
        policies = [*ctx["checkpoints"], "linear", "zero"]
        t0 = time.perf_counter()
        code, stdout = call_cli(["evaluate", "--network", ctx["network"],
                                 "--policies", *policies,
                                 "--scenario-file", ctx["suite_path"],
                                 "--out", report_path])
        t1 = time.perf_counter()
        rec.op("evaluate", t0, t1)
        if not rec.check(code == 0, f"evaluate exited {code}"):
            return
        rec.work += len(policies) * ctx["scenarios"]
        rec.work_s += t1 - t0
        rec.check(f"(hash {ctx['suite_hash']})" in stdout,
                  "evaluate scenario_hash differs from the suite's")
        report = _read_bytes(report_path)
        rows = [line.split(",")[0]
                for line in report.decode().splitlines()[1:]]
        names = [os.path.splitext(os.path.basename(p))[0] for p in policies]
        rec.check(sorted(rows) == sorted(names * 6),
                  "evaluate report does not hold 6 rows per policy")
        outputs = (certs, report)
        if ctx["first"] is None:
            ctx["first"] = outputs
        else:
            rec.check(outputs[0] == ctx["first"][0],
                      "same-seed certificates differ")
            rec.check(outputs[1] == ctx["first"][1],
                      "same-seed evaluate reports differ")


WORKLOADS = {
    "train-stable-4bus": TrainWorkload(4, "stable"),
    "train-mlp-16bus": TrainWorkload(16, "unconstrained"),
    "assess-4bus": AssessWorkload(),
}

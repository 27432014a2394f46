"""Time the closed loop's layers and the certificate on seeded 4-, 16- and
64-bus feeders, and training's update rounds.

    python tools/layer_timings.py [OUT.json]

For each feeder (``generate_random_feeder(n, rng_seed=0)``) it measures, in
this process with OpenBLAS held at one thread:

* ``step_us``: one ``rollout_batch`` step at S = 60 and S = 100 scenarios
  (the median over repeats of a T = 100 rollout's wall time over T), with
  unit droop acting, which no feeder cuts, so every step runs on slices;
* ``piece_table_us``: one call of a sampled monotone controller's table
  (``sample_raw_params`` at the training default of 16 ramp units per
  side) on a (60, n) block of voltages;
* ``certify_ms``: one ``certify_policy`` call of that controller under the
  default ``CertifyConfig`` on the feeder's band (100 rollouts of 100
  steps), in milliseconds;
* ``certify_faults`` and ``evaluate_faults``: the minor page faults of one
  in-process CLI call, ``certify`` of that controller's checkpoint and
  ``evaluate`` of it, ``linear`` and ``zero`` on 60 scenarios, after one
  warm-up call of each.

``update_round_ms`` is one training update round of each actor kind on the
bundled 5-bus feeder (``fixture``, 4 agents) and on
``generate_random_feeder(16, rng_seed=1)`` (``16bus``): the median wall time
of a ``TRAIN_EPISODES``-episode run's updating episodes (the episodes whose
log has a TD loss, timed between ``episode_callback`` calls) over
``updates_per_episode``, under the default ``TrainConfig``.

Timings are medians in the unit their name ends in, faults medians in
counts. The JSON goes to stdout, and also to OUT.json when given. The
gridvolt it times is this checkout's ``src/``.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gridvolt import cli, dynamics, grid, lyapunov, policy, rl  # noqa: E402
from gridvolt.rl import _one_blas_thread  # noqa: E402

SIZES = (4, 16, 64)
HORIZON = 100
REPEATS = 15
UNITS = 16
TRAIN_EPISODES = 16     # the first 8 fill a batch of 256, the last 8 update


def median_us(fn, repeats, per=1):
    """Median wall time of ``fn()`` over ``repeats`` calls, in µs per
    ``per`` units of work."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e6 * statistics.median(times) / per, 2)


def median_faults(argv, repeats):
    """Median minor page faults of one in-process ``cli_main(argv)`` call,
    after one warm-up call."""
    counts = []
    for k in range(repeats + 1):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"gridvolt {' '.join(argv)} exited {code}")
        if k:
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
    return statistics.median(counts)


def feeder_timings(n, workdir):
    net = grid.generate_random_feeder(n, rng_seed=0)
    X = grid.build_sensitivity(net).X
    band = net.bounds()
    droop = policy.MonotonePolicy(policy.droop(band, 1.0))
    raw = policy.sample_raw_params(n, UNITS, np.random.default_rng(0))
    table = policy.MonotonePolicy.from_raw(raw, band)
    out = {"buses": n, "distinct_breakpoints": len(table.grid) // 2,
           "step_us": {}}
    for scenarios in (60, 100):
        suite = dynamics.make_suite(n, scenarios, seed=0)
        v_env = np.array([sc[0] for sc in suite])
        q0 = np.array([sc[1] for sc in suite])
        out["step_us"][f"S={scenarios}"] = median_us(
            lambda: dynamics.rollout_batch(droop, X, v_env, q0, HORIZON, 0.1),
            REPEATS, per=HORIZON)
    v = np.random.default_rng(1).uniform(0.9, 1.1, size=(60, n))
    out["piece_table_us"] = median_us(lambda: table(v), 200)
    cfg = lyapunov.CertifyConfig(v_lower=tuple(band[0]),
                                 v_upper=tuple(band[1]))
    out["certify_ms"] = round(median_us(
        lambda: lyapunov.certify_policy(X, table, cfg), REPEATS) / 1e3, 2)

    net_path = os.path.join(workdir, f"net{n}.json")
    ckpt = os.path.join(workdir, f"ck{n}.json")
    grid.save_network(net, net_path)
    policy.save_checkpoint(ckpt, raw, band, 1e-3)
    out["certify_faults"] = median_faults(
        ["certify", "--network", net_path, "--checkpoint", ckpt], 5)
    out["evaluate_faults"] = median_faults(
        ["evaluate", "--network", net_path, "--policies", ckpt, "linear",
         "zero", "--scenarios", "60", "--out",
         os.path.join(workdir, "report.csv")], 5)
    return out


def update_round_ms(net):
    """Median ms of one update round per actor kind on feeder ``net``."""
    band = net.bounds()
    env = rl.VoltEnv(X=grid.build_sensitivity(net).X, v_lower=band[0],
                     v_upper=band[1], cp=dynamics.CostParams())
    cfg = rl.TrainConfig(episodes=TRAIN_EPISODES, seed=0)
    out = {}
    for actor in ("stable", "unconstrained"):
        stamps = [time.perf_counter()]
        res = rl.train(env, cfg, actor_kind=actor,
                       episode_callback=lambda *_: stamps.append(
                           time.perf_counter()))
        walls = [b - a for a, b, row in zip(stamps, stamps[1:], res.log)
                 if row["td_loss_mean"]]
        out[actor] = round(1e3 * statistics.median(walls)
                           / cfg.updates_per_episode, 2)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="also write the JSON here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir, _one_blas_thread():
        results = [feeder_timings(n, workdir) for n in SIZES]
        rounds = {name: update_round_ms(net) for name, net in (
            ("fixture", grid.five_bus_fixture()),
            ("16bus", grid.generate_random_feeder(16, rng_seed=1)))}
    text = json.dumps({"feeders": results, "update_round_ms": rounds},
                      indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

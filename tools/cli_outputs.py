"""Write a fixed set of gridvolt CLI outputs into a directory, for diffing.

    python tools/cli_outputs.py OUTDIR [--repo CHECKOUT]

Runs, one process at a time with OpenBLAS held at one thread, the command
lines whose outputs a behaviour-preserving change must leave untouched:

* ``train --episodes 14 --seed 3`` for the stable actor in local and joint
  scope and the unconstrained actor in local scope (the three supported
  pairs), on the bundled 5-bus feeder and on
  ``generate-network --buses 16 --seed 1`` (checkpoint and log kept);
* ``certify --out`` for every trained checkpoint and for ``linear`` and
  ``zero``, and ``certify --dt 0.3`` and ``--dt 0.2`` of the bundled
  feeder's stable local checkpoint, steps at which dt * L * lambda_max(X)
  exceeds 2 (dt 0.2 passes every clause, so a step clause shows there
  first);
* ``evaluate --scenarios 30`` of all of them with ``--histograms`` and
  ``--traces-dir``, whose trace CSVs are each policy's per-step record of
  every scenario, and the same ``evaluate`` of the bundled feeder's
  policies at ``--dt 0.3``, where some rows of a block of policies stepped
  together are cut and frozen next to rows that never are (its report
  shows a stability rate below 1).

Every command runs inside OUTDIR on relative paths, and its stdout, stderr
and exit code are kept next to its files, so two runs can be compared with
``diff -r``. ``--repo`` points at another checkout (say, the parent commit)
whose ``src/`` is run instead of this one's. Each command's wall time is
printed on this script's stdout, never written into OUTDIR.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

FEEDERS = {"fixture": ["--fixture"], "16bus": ["--buses", "16", "--seed", "1"]}
ACTORS = [("stable", "local"), ("stable", "joint"), ("unconstrained", "local")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--repo", default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args()
    out = Path(args.outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(args.repo).resolve() / "src"))
    status = []

    def gridvolt(name, *argv):
        began = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gridvolt.cli", *argv],
                              cwd=out, env=env, capture_output=True,
                              text=True)
        (out / f"{name}.stdout").write_text(proc.stdout)
        (out / f"{name}.stderr").write_text(proc.stderr)
        status.append(f"{proc.returncode} gridvolt {' '.join(argv)}\n")
        print(f"{time.perf_counter() - began:7.3f} s  {name}", flush=True)

    start = time.perf_counter()
    for feeder, flags in FEEDERS.items():
        (out / feeder).mkdir(exist_ok=True)
        net = f"{feeder}/net.json"
        gridvolt(f"{feeder}/generate", "generate-network", *flags, "--out", net)
        policies = ["linear", "zero"]
        for actor, scope in ACTORS:
            ckpt = f"{feeder}/{actor}-{scope}"
            gridvolt(f"{ckpt}.train", "train", "--network", net, "--actor",
                     actor, "--scope", scope, "--episodes", "14", "--seed",
                     "3", "--out", f"{ckpt}.json", "--log", f"{ckpt}.log.csv")
            policies.append(f"{ckpt}.json")
        if feeder == "fixture":
            fixture_policies = policies
        for spec in policies:
            name = f"{feeder}/{Path(spec).stem}"
            gridvolt(f"{name}.certify", "certify", "--network", net,
                     "--checkpoint", spec, "--out", f"{name}.cert.json")
        gridvolt(f"{feeder}/evaluate", "evaluate", "--network", net,
                 "--policies", *policies, "--scenarios", "30", "--out",
                 f"{feeder}/report.csv", "--histograms",
                 f"{feeder}/histograms.csv", "--traces-dir", f"{feeder}/traces")
    for dt in ("0.3", "0.2"):
        name = f"fixture/stable-local-dt{dt}"
        gridvolt(f"{name}.certify", "certify", "--network", "fixture/net.json",
                 "--checkpoint", "fixture/stable-local.json", "--dt", dt,
                 "--out", f"{name}.cert.json")
    gridvolt("fixture/evaluate-dt0.3", "evaluate", "--network",
             "fixture/net.json", "--policies", *fixture_policies,
             "--scenarios", "30", "--dt", "0.3", "--out",
             "fixture/report-dt0.3.csv", "--traces-dir",
             "fixture/traces-dt0.3")
    (out / "status.txt").write_text("".join(status))
    print(f"wrote {len(status)} command outputs to {out} in "
          f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

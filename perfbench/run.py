"""gridvolt benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-stable-4bus --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload's pass for ``--seconds`` (at least twice,
and until a tail percentile exists) and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass of fixed size and
reports call counts and self time per layer. The last line of standard
output is one JSON object; the lines before it name every metric with its
unit. See NOTES.md for what each workload and metric means.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
TAIL_BEYOND = 10
SETUPS_PER_PASS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def import_gridvolt():
    """Import gridvolt from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gridvolt", "__init__.py")):
        raise BenchError(f"no gridvolt sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import gridvolt
    if not os.path.abspath(gridvolt.__file__).startswith(SRC + os.sep):
        raise BenchError(f"gridvolt imported from {gridvolt.__file__}, "
                         f"not from {SRC}")


def _git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "gridvolt")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_sha": _git_sha(), "src_sha256": _src_sha256()}


def setup_time(name, seed, scale, workdir, rep):
    """Wall time of a fresh process that imports gridvolt and sets up."""
    spec = {"workload": name, "seed": seed,
            "dir": os.path.join(workdir, f"setup{rep}"),
            "scale": dataclasses.asdict(scale)}
    os.makedirs(spec["dir"])
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--setup-json", json.dumps(spec)], check=True)
    return time.perf_counter() - t0


def _setup_child(spec_text):
    import workloads
    spec = json.loads(spec_text)
    scale = spec["scale"]
    scale["certify_args"] = tuple(scale["certify_args"])
    workloads.WORKLOADS[spec["workload"]].setup(
        spec["seed"], spec["dir"], workloads.Scale(**scale))


def measure(workload, ctx, seconds, scale, between_passes):
    """Closed loop of passes until time, repeats and tail samples suffice.

    ``between_passes`` runs after each pass; its time is not counted in
    ``seconds``.
    """
    import workloads
    rec = workloads.Record()
    t_end = time.perf_counter() + seconds
    passes = 0
    while not rec.failures and (passes < workloads.MIN_PASSES
                                or len(rec.primary) < scale.min_samples
                                or time.perf_counter() < t_end):
        workload.one_pass(ctx, rec)
        passes += 1
        t0 = time.perf_counter()
        between_passes()
        t_end += time.perf_counter() - t0
    rec.info["passes"] = passes
    return rec


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, count); with too few samples, the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rec, setup):
    # The tail is reported but not bounded: over ten runs it spreads more
    # than any bound the benchmark may set (see NOTES.md).
    value, pct, count = tail(rec.primary)
    rec.info.update(op_tail_s=value, op_tail_percentile=round(pct, 1),
                    op_samples=count, setup_samples=len(setup))
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(rec.primary),
        "work_per_s": rec.work / rec.work_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}


def per_layer(tracer, rec, untraced_s, traced_s):
    metrics = {}
    for target, (calls, self_ms) in tracer.layer_stats().items():
        metrics[f"{target}.calls"] = _metric(calls, "count")
        metrics[f"{target}.self_ms"] = _metric(self_ms, "ms")
    metrics["lyapunov.certify_policy.retries"] = _metric(
        rec.counts["retries"], "count")
    shares = tracer.coverage([(s, e) for _, s, e in rec.ops]) or [0.0]
    rec.info["coverage_by_kind"] = {
        kind: statistics.mean(c for (k, _, _), c in zip(rec.ops, shares)
                              if k == kind)
        for kind in sorted({k for k, _, _ in rec.ops})}
    metrics["trace.coverage_mean"] = _metric(statistics.mean(shares), "share")
    metrics["trace.coverage_min"] = _metric(min(shares), "share")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    rec.info.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s,
                    spans=len(tracer.ids))
    return metrics


def traced_run(workload, seed, run_dir, scale):
    """Traced set-up, then untraced, traced and untraced passes.

    The passes are fixed in size, so call counts repeat exactly for a seed.
    The overhead compares the traced pass with the mean of the passes
    around it. Returns (record of the traced pass, metrics, attempted).
    """
    import workloads
    from tracer import Tracer
    tracer = Tracer()
    with tracer.active():
        ctx = workload.setup(seed, run_dir, scale)
    untraced, rec = workloads.Record(), workloads.Record()
    untraced_s, usage = [], []
    for traced in (False, True, False):
        usage.append(resource.getrusage(resource.RUSAGE_SELF))
        t0 = time.perf_counter()
        if traced:
            with tracer.active():
                workload.one_pass(ctx, rec)
            traced_s = time.perf_counter() - t0
        else:
            workload.one_pass(ctx, untraced)
            untraced_s.append(time.perf_counter() - t0)
    rec.failures[:0] = untraced.failures
    metrics = per_layer(tracer, rec, statistics.mean(untraced_s), traced_s)
    # Kernel work of the first untraced pass: page faults from numpy
    # temporaries, and the time the kernel spent on them.
    metrics["os.minor_faults"] = _metric(
        usage[1].ru_minflt - usage[0].ru_minflt, "count")
    metrics["os.sys_ms"] = _metric(
        (usage[1].ru_stime - usage[0].ru_stime) * 1e3, "ms")
    return rec, metrics, untraced.attempted + rec.attempted


def run_workload(name, seed, seconds, trace, scale=None, workdir=None):
    """Run one workload; return (result, info) for the final JSON line."""
    import workloads
    scale = scale or workloads.FULL
    workload = workloads.WORKLOADS[name]
    own_dir = workdir is None
    if own_dir:
        workdir = os.path.join(ROOT, ".bench_work",
                               f"{name}-{seed}-{os.getpid()}")
    run_dir = os.path.join(workdir, "run")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if trace:
            rec, metrics, attempted = traced_run(workload, seed, run_dir,
                                                 scale)
        else:
            ctx = workload.setup(seed, run_dir, scale)
            # Set-up runs between the passes, so that its samples are
            # spread over the run like the passes' samples are.
            setup = []

            def set_up(count):
                for _ in range(min(count, scale.setup_reps - len(setup))):
                    setup.append(setup_time(name, seed, scale, workdir,
                                            len(setup)))

            rec = measure(workload, ctx, seconds, scale,
                          lambda: set_up(SETUPS_PER_PASS))
            set_up(scale.setup_reps)
            metrics = end_to_end(rec, setup) if rec.primary else {}
            attempted = rec.attempted
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
    if rec.counts["certified"]:
        rec.info["certify_pass_rate"] = (rec.counts["passed"]
                                         / rec.counts["certified"])
    attempted = max(attempted, 1)
    failed = min(len(rec.failures), attempted)
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "failed_share": failed / attempted,
            "failures": rec.failures[:10], **rec.info}
    result = {"correct": not rec.failures and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def print_result(result, info, env):
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True, default=str))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-json", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the benchmark is one thread,
    # and OpenBLAS would otherwise start a thread per core. Set-up children
    # inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_gridvolt()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_json:
        _setup_child(args.setup_json)
        return 0
    import workloads
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    print_result(result, info, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())

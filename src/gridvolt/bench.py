"""Evaluation harness: shared scenario suites, recovery metrics, reports.

Every policy in a report is rolled out noise-free on the identical scenario
list; the transient cost of a run is the accumulated reactive magnitude
before the voltages settle back into the band (the full-horizon sum when
they never do). Aggregation uses exact summation so reports are bit-stable
under a fixed seed.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (CostParams, Rollouts, recovery_time, rollout_batch,
                       row_dot, stage_cost)
from .policy import PieceTable, TableStack
from .util import config_hash, fmt

DEFAULT_RECOVERY_TOL = 1e-3
# voltages per step (P S n) up to which P piece tables roll as one stacked
# pass: there a pass costs mostly its per-call overhead (four sampled tables
# on 60 scenarios of the 4-bus fixture, 960, take 0.8 of their time alone),
# past it the work grows with the voltages and the merged search costs the
# rows of small tables more (16 buses, a sampled table with linear and zero,
# 2,880: 1.2 times). It also bounds a block's record: 2.5 MB at T = 100.
STACK_VOLTAGES = 1024

# terminal voltage ratio histogram: 20 regular bins to 10% plus an overflow
HIST_EDGES = [0.005 * k for k in range(21)] + [float("inf")]


def transient_cost(runs, recovery):
    """Reactive magnitude accumulated before recovery: sum_t sum_i |q_i(t)|.

    One float per scenario of a Rollouts, given the record's
    ``recovery_time``. Truncating recovery earlier can only drop nonnegative
    terms, so this is monotone in the recovery step; unrecovered runs pay
    every step they ran.
    """
    abs_q = np.abs(runs.q)
    return [math.fsum(abs_q[:runs.steps[s] if r is None else r, s]
                      .ravel().tolist()) for s, r in enumerate(recovery)]


def control_energy(runs):
    """Alternative effort metric: sum_t |u(t)|^2 over the whole horizon.

    One float per scenario of a Rollouts.
    """
    uu = row_dot(runs.u, runs.u)        # (T, S); zero past a cut
    return [math.fsum(col) for col in uu.T.tolist()]


def _mean_std(values):
    m = math.fsum(values) / len(values)
    var = math.fsum((x - m) ** 2 for x in values) / len(values)
    return m, math.sqrt(var)


@dataclass
class PolicyStats:
    """Raw per-scenario outcomes for one policy."""

    transient: list
    energy: list
    over_ratio: np.ndarray    # (scenarios, buses)
    under_ratio: np.ndarray


@dataclass
class EvalReport:
    """Aggregated comparison of policies over one shared scenario suite."""

    rows: list                # (policy, metric, mean, std, n)
    stats: dict               # name -> PolicyStats
    scenario_hash: str
    rollouts: dict = None     # name -> Rollouts, with keep_trajectories

    def metric(self, policy, metric):
        for name, met, mean, std, n in self.rows:
            if name == policy and met == metric:
                return mean, std
        raise KeyError((policy, metric))

    def to_csv(self, path=None):
        return _csv([("policy", "metric", "mean", "std", "n"),
                     *((name, met, fmt(mean), fmt(std), n)
                       for name, met, mean, std, n in self.rows)], path)


def _csv(rows, path=None):
    """CSV text of ``rows``, also written to ``path`` if given. A field with
    a comma, quote or line break is quoted; any other keeps its bytes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    return buf.getvalue()


def _rollouts(policies, X, v_env, q0, T, dt):
    """Each policy's (name, Rollouts) over the suite. Consecutive piece
    tables roll as one engine pass on a (P, S, n) broadcast of the suite
    (``TableStack``) while the block holds at most STACK_VOLTAGES voltages
    per step, and yield views of its record; any other policy rolls alone."""
    blocks = []
    for item in policies:
        joined = [*blocks[-1], item] if blocks else []
        if (joined and all(isinstance(pol, PieceTable) for _, pol in joined)
                and len(joined) * q0.size <= STACK_VOLTAGES):
            blocks[-1].append(item)
        else:
            blocks.append([item])
    for block in blocks:
        if len(block) == 1:
            (name, policy), = block
            yield name, rollout_batch(policy, X, v_env, q0, T=T, dt=dt)
            continue
        runs = rollout_batch(TableStack([pol for _, pol in block]), X, v_env,
                             np.broadcast_to(q0, (len(block), *q0.shape)),
                             T=T, dt=dt)
        for p, (name, _) in enumerate(block):
            yield name, Rollouts(runs.v[:, p], runs.q[:, p], runs.u[:, p],
                                 dt, runs.steps[p])
        del runs        # freed before the next pass


def evaluate(policies, X, suite, bounds, v0=1.0, T=100, dt=0.1,
             recovery_tol=DEFAULT_RECOVERY_TOL, keep_trajectories=False):
    """Roll every policy over every scenario and aggregate the comparison.

    ``policies`` is a list of (name, callable) pairs. Consecutive
    ``PieceTable`` policies roll as one engine pass while the block holds
    at most STACK_VOLTAGES voltages per step (``_rollouts``), each with the
    bits of its own pass; any other policy rolls alone. Each policy's
    metrics come from views of its block's record, which is freed before
    the next pass. Unrecovered
    scenarios enter the mean recovery time at the full horizon T and count
    against the stability rate. Returns an EvalReport; with
    ``keep_trajectories`` its ``rollouts`` holds each policy's closed-loop
    record.
    """
    if len(suite) < 1:
        raise ValueError("scenario suite is empty")
    v_env = np.array([v for v, _, _ in suite])
    q0 = np.array([q for _, q, _ in suite])
    rows = []
    stats = {}
    rollouts = {} if keep_trajectories else None
    for name, runs in _rollouts(policies, X, v_env, q0, T, dt):
        recs = recovery_time(runs, bounds, tol=recovery_tol)
        over = np.maximum(runs.v[-1] - v0, 0.0) / v0
        under = np.maximum(v0 - runs.v[-1], 0.0) / v0
        st = PolicyStats(transient=transient_cost(runs, recs),
                         energy=control_energy(runs), over_ratio=over,
                         under_ratio=under)
        stats[name] = st
        if keep_trajectories:
            rollouts[name] = runs
        del runs        # a view of its block's record, freed before the next

        N = len(suite)
        rec_filled = [T if r is None else r for r in recs]
        stability = sum(r is not None for r in recs) / N
        for metric, values in (("recovery_steps", rec_filled),
                               ("transient_cost", st.transient),
                               ("control_energy_u2", st.energy),
                               ("overvoltage_ratio", over.ravel().tolist()),
                               ("undervoltage_ratio", under.ravel().tolist())):
            mean, std = _mean_std(values)
            rows.append((name, metric, mean, std, len(values)))
        rows.append((name, "stability_rate", stability, 0.0, N))

    suite_payload = [{"v_env": list(map(float, v)), "q0": list(map(float, q)),
                      "label": lab} for v, q, lab in suite]
    return EvalReport(rows=rows, stats=stats,
                      scenario_hash=config_hash(suite_payload),
                      rollouts=rollouts)


def histogram_counts(values):
    """Counts per half-open HIST_EDGES bin [lo, hi); values that land in no
    bin (negative, inf, NaN) are dropped."""
    b = np.searchsorted(HIST_EDGES, np.asarray(values, dtype=float),
                        side="right") - 1
    b = b[(b >= 0) & (b < len(HIST_EDGES) - 1)]
    return np.bincount(b, minlength=len(HIST_EDGES) - 1).tolist()


def write_histograms_csv(report, path):
    """Terminal over-/under-voltage ratio histograms, one row per bin."""
    rows = [("policy", "metric", "bin_lo", "bin_hi", "count")]
    for name, st in report.stats.items():
        for metric, arr in (("overvoltage_ratio", st.over_ratio),
                            ("undervoltage_ratio", st.under_ratio)):
            counts = histogram_counts(arr.ravel())
            for b, c in enumerate(counts):
                hi = HIST_EDGES[b + 1]
                hi_txt = "inf" if math.isinf(hi) else fmt(hi)
                rows.append((name, metric, fmt(HIST_EDGES[b]), hi_txt, c))
    _csv(rows, path)


def write_trajectory_csv(runs, s, path, bounds, policy="policy",
                         scenario="scenario"):
    """Per-step plot data of scenario ``s`` of a Rollouts, up to its cut:
    t = step * dt, bus, v, q, u, and the stage cost of (v, u) priced with
    ``bounds`` and the default ``CostParams`` (u and cost blank on the last
    row)."""
    rows = [("policy", "scenario", "t", "bus", "v", "q", "u", "cost")]
    steps = int(runs.steps[s])
    v, q, u = runs.v[:, s], runs.q[:, s], runs.u[:, s]
    cost = stage_cost(v[:steps], u[:steps], bounds, CostParams())
    for t in range(steps + 1):
        for i in range(v.shape[1]):
            u_txt = fmt(u[t, i]) if t < steps else ""
            c_txt = fmt(cost[t]) if t < steps and i == 0 else ""
            rows.append((policy, scenario, fmt(t * runs.dt), i + 1,
                         fmt(v[t, i]), fmt(q[t, i]), u_txt, c_txt))
    _csv(rows, path)

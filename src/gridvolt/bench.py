"""Evaluation harness: shared scenario suites, recovery metrics, reports.

Every policy in a report is rolled out noise-free on the identical scenario
list; the transient cost of a run is the accumulated reactive magnitude
before the voltages settle back into the band (the full-horizon sum when
they never do). Aggregation uses exact summation so reports are bit-stable
under a fixed seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Rollouts, recovery_time, rollout_batch, row_dot
from .util import config_hash, fmt

DEFAULT_RECOVERY_TOL = 1e-3

# terminal voltage ratio histogram: 20 regular bins to 10% plus an overflow
HIST_EDGES = [0.005 * k for k in range(21)] + [float("inf")]


def transient_cost(traj, bounds, tol=DEFAULT_RECOVERY_TOL):
    """Reactive magnitude accumulated before recovery: sum_t sum_i |q_i(t)|.

    Truncating recovery earlier can only drop nonnegative terms, so this is
    monotone in the recovery step; unrecovered runs pay the whole horizon.
    A Rollouts batch gives one float per scenario.
    """
    rec = recovery_time(traj, bounds, tol=tol)
    if isinstance(traj, Rollouts):
        return [math.fsum(np.abs(traj.q[:traj.steps[s] if r is None else r, s])
                          .ravel().tolist()) for s, r in enumerate(rec)]
    upto = traj.horizon if rec is None else rec
    return float(math.fsum(np.abs(traj.q[:upto]).ravel().tolist()))


def control_energy(traj):
    """Alternative effort metric: sum_t |u(t)|^2 over the whole horizon.

    A Rollouts batch gives one float per scenario.
    """
    uu = row_dot(traj.u, traj.u)        # (T,) or (T, S); zero past a cut
    if isinstance(traj, Rollouts):
        return [math.fsum(col) for col in uu.T.tolist()]
    return float(math.fsum(uu.tolist()))


def _mean_std(values):
    m = math.fsum(values) / len(values)
    var = math.fsum((x - m) ** 2 for x in values) / len(values)
    return m, math.sqrt(var)


@dataclass
class PolicyStats:
    """Raw per-scenario outcomes for one policy."""

    name: str
    recovery: list            # per scenario, None when never recovered
    transient: list
    energy: list
    over_ratio: np.ndarray    # (scenarios, buses)
    under_ratio: np.ndarray
    diverged: int


@dataclass
class EvalReport:
    """Aggregated comparison of policies over one shared scenario suite."""

    rows: list                # (policy, metric, mean, std, n)
    stats: dict               # name -> PolicyStats
    scenario_count: int
    horizon: int
    scenario_hash: str
    config_hash: str

    def metric(self, policy, metric):
        for name, met, mean, std, n in self.rows:
            if name == policy and met == metric:
                return mean, std
        raise KeyError((policy, metric))

    def to_csv(self, path=None):
        lines = ["policy,metric,mean,std,n"]
        for name, met, mean, std, n in self.rows:
            lines.append(f"{name},{met},{fmt(mean)},{fmt(std)},{n}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def evaluate(policies, X, suite, bounds, v0=1.0, T=100, dt=0.1, cp=None,
             recovery_tol=DEFAULT_RECOVERY_TOL, keep_trajectories=False):
    """Roll every policy over every scenario and aggregate the comparison.

    ``policies`` is a list of (name, callable) pairs. Unrecovered scenarios
    enter the mean recovery time at the full horizon T and count against the
    stability rate. Returns an EvalReport (with trajectories attached per
    policy when ``keep_trajectories``).
    """
    if cp is None:
        from .dynamics import CostParams
        cp = CostParams()
    if len(suite) < 1:
        raise ValueError("scenario suite is empty")
    v_env = np.array([v for v, _, _ in suite])
    q0 = np.array([q for _, q, _ in suite])
    rows = []
    stats = {}
    trajectories = {}
    for name, policy in policies:
        runs = rollout_batch(policy, X, v_env, q0, T=T, dt=dt, cp=cp,
                             bounds=bounds)
        recs = recovery_time(runs, bounds, tol=recovery_tol)
        v_T = runs.v[-1]
        over = np.maximum(v_T - v0, 0.0) / v0
        under = np.maximum(v0 - v_T, 0.0) / v0
        st = PolicyStats(name=name, recovery=recs,
                         transient=transient_cost(runs, bounds,
                                                  tol=recovery_tol),
                         energy=control_energy(runs), over_ratio=over,
                         under_ratio=under, diverged=int(runs.diverged.sum()))
        stats[name] = st
        if keep_trajectories:
            trajectories[name] = [runs.trajectory(k)
                                  for k in range(len(suite))]

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
    cfg = {"T": T, "dt": dt, "recovery_tol": recovery_tol, "v0": v0,
           "eta1": cp.eta1, "eta2": cp.eta2, "gamma": cp.gamma}
    report = EvalReport(rows=rows, stats=stats, scenario_count=len(suite),
                        horizon=T, scenario_hash=config_hash(suite_payload),
                        config_hash=config_hash(cfg))
    if keep_trajectories:
        report.trajectories = trajectories
    return report


def histogram_counts(values):
    """Counts per half-open HIST_EDGES bin [lo, hi); values that land in no
    bin (negative, inf, NaN) are dropped."""
    b = np.searchsorted(HIST_EDGES, np.asarray(values, dtype=float),
                        side="right") - 1
    b = b[(b >= 0) & (b < len(HIST_EDGES) - 1)]
    return np.bincount(b, minlength=len(HIST_EDGES) - 1).tolist()


def write_histograms_csv(report, path):
    """Terminal over-/under-voltage ratio histograms, one row per bin."""
    lines = ["policy,metric,bin_lo,bin_hi,count"]
    for name, st in report.stats.items():
        for metric, arr in (("overvoltage_ratio", st.over_ratio),
                            ("undervoltage_ratio", st.under_ratio)):
            counts = histogram_counts(arr.ravel())
            for b, c in enumerate(counts):
                hi = HIST_EDGES[b + 1]
                hi_txt = "inf" if math.isinf(hi) else fmt(hi)
                lines.append(f"{name},{metric},{fmt(HIST_EDGES[b])},"
                             f"{hi_txt},{c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj, path, policy="policy", scenario="scenario"):
    """Per-step plot data: t, bus, v, q, u, cost (u and cost blank at t=T)."""
    lines = ["policy,scenario,t,bus,v,q,u,cost"]
    steps = traj.horizon
    n = traj.v.shape[1]
    for t in range(steps + 1):
        for i in range(n):
            u_txt = fmt(traj.u[t, i]) if t < steps else ""
            c_txt = fmt(traj.stage_costs[t]) if t < steps and i == 0 else ""
            lines.append(f"{policy},{scenario},{fmt(traj.t[t])},{i + 1},"
                         f"{fmt(traj.v[t, i])},{fmt(traj.q[t, i])},"
                         f"{u_txt},{c_txt}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

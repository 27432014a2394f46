import numpy as np
import pytest

from gridvolt.bench import (
    HIST_EDGES,
    control_energy,
    evaluate,
    histogram_counts,
    transient_cost,
    write_histograms_csv,
)
from gridvolt.dynamics import (Rollouts, make_suite, recovery_time,
                               rollout_batch)
from gridvolt.grid import build_sensitivity, five_bus_fixture
from gridvolt.policy import MonotonePolicy, droop, sample_raw_params, \
    zero_policy

NET = five_bus_fixture()
X5 = build_sensitivity(NET).X
BOUNDS = NET.bounds()
BOUNDS1 = (np.array([0.95]), np.array([1.05]))


def synth_runs(v_rows, q_rows, u_rows=None):
    """One-scenario record of T+1 given states that ran the whole horizon."""
    v = np.asarray(v_rows, dtype=float)
    q = np.asarray(q_rows, dtype=float)
    T = len(v) - 1
    u = np.zeros((T, v.shape[1])) if u_rows is None else np.asarray(u_rows)
    return Rollouts(v=v[:, None, :], q=q[:, None, :], u=u[:, None, :],
                    dt=0.1, steps=np.array([T]))


# ---------------------------------------------------------------------------
# transient cost
# ---------------------------------------------------------------------------

def transient(runs):
    """Transient cost of a one-bus record at BOUNDS1's default tolerance."""
    return transient_cost(runs, recovery_time(runs, BOUNDS1))


def test_transient_cost_zero_when_in_band_from_start():
    runs = synth_runs([[1.0]] * 5, [[0.3]] * 5)
    assert transient(runs)[0] == 0.0


def test_transient_cost_hand_sum():
    # recovers at step 3: |q| over steps 0,1,2
    v = [[1.08], [1.07], [1.06], [1.0], [1.0]]
    q = [[0.0], [-0.1], [-0.25], [-0.3], [-0.3]]
    runs = synth_runs(v, q)
    assert transient(runs)[0] == pytest.approx(0.0 + 0.1 + 0.25)


def test_transient_cost_full_horizon_when_unrecovered():
    v = [[1.08]] * 5
    q = [[-0.1]] * 5
    runs = synth_runs(v, q)
    assert transient(runs)[0] == pytest.approx(0.4)


def test_transient_cost_monotone_in_recovery():
    v = [[1.08], [1.06], [1.0], [1.0], [1.0]]
    q = [[0.2], [0.2], [0.2], [0.2], [0.2]]
    early, = transient(synth_runs(v, q))
    late, = transient(synth_runs([[1.08]] * 4 + [[1.0]], q))
    assert early <= late


def test_control_energy():
    runs = synth_runs([[1.0]] * 3, [[0.0]] * 3, [[0.5], [-0.5]])
    assert control_energy(runs)[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------

def steep_policy(seed=0):
    rng = np.random.default_rng(seed)
    return MonotonePolicy.from_raw(sample_raw_params(NET.n, 8, rng),
                                   BOUNDS, eps=1e-3)


def test_zero_policy_never_stabilizes():
    suite = make_suite(NET.n, 9, seed=1)
    report = evaluate([("zero", zero_policy(BOUNDS))], X5, suite, BOUNDS, T=50)
    rate, _ = report.metric("zero", "stability_rate")
    cost, _ = report.metric("zero", "control_energy_u2")
    assert rate == 0.0
    assert cost == 0.0
    rec, _ = report.metric("zero", "recovery_steps")
    assert rec == 50.0  # unrecovered scenarios fill in the horizon


def test_linear_recovery_matches_scalar_formula():
    # single bus feeder: gap contracts by (1 - dt*X) per step; recovery is
    # the first step where gap <= tol
    from gridvolt.grid import Bus, Line, RadialNetwork
    net1 = RadialNetwork(buses=(Bus(0), Bus(1)),
                         lines=(Line(0, 1, 0.02, 0.05),))
    X1 = build_sensitivity(net1).X
    gap0, dt, tol = 0.04, 0.5, 1e-3
    suite = [(np.array([1.05 + gap0]), np.zeros(1), "case")]
    linear = MonotonePolicy(droop(net1.bounds(), 1.0))
    report = evaluate([("linear", linear)],
                      X1, suite, net1.bounds(), T=400, dt=dt,
                      recovery_tol=tol)
    factor = 1 - dt * X1[0, 0]
    t_pred = int(np.ceil(np.log(tol / gap0) / np.log(factor)))
    rec, _ = report.metric("linear", "recovery_steps")
    assert rec == t_pred


def test_trained_style_policy_beats_linear_here():
    suite = make_suite(NET.n, 30, seed=2)
    report = evaluate([("steep", steep_policy()),
                       ("linear", MonotonePolicy(droop(BOUNDS, 1.0)))],
                      X5, suite, BOUNDS, T=100)
    assert report.metric("steep", "stability_rate")[0] == 1.0
    assert report.metric("steep", "transient_cost")[0] < \
        report.metric("linear", "transient_cost")[0]
    assert report.metric("steep", "recovery_steps")[0] < \
        report.metric("linear", "recovery_steps")[0]


def test_evaluate_computes_recovery_once_per_policy(monkeypatch):
    import gridvolt.bench as bench
    calls = []

    def counted(runs, bounds, tol):
        calls.append(len(runs.steps))
        return recovery_time(runs, bounds, tol)

    monkeypatch.setattr(bench, "recovery_time", counted)
    suite = make_suite(NET.n, 5, seed=4)
    pols = [("steep", steep_policy()),
            ("linear", MonotonePolicy(droop(BOUNDS, 1.0))),
            ("zero", zero_policy(BOUNDS))]
    evaluate(pols, X5, suite, BOUNDS, T=40)
    assert calls == [5, 5, 5]


def test_report_csv_deterministic(tmp_path):
    suite = make_suite(NET.n, 6, seed=3)
    pols = [("steep", steep_policy()), ("zero", zero_policy(BOUNDS))]
    r1 = evaluate(pols, X5, suite, BOUNDS, T=40)
    r2 = evaluate(pols, X5, suite, BOUNDS, T=40)
    assert r1.to_csv() == r2.to_csv()
    assert r1.scenario_hash == r2.scenario_hash
    path = tmp_path / "report.csv"
    r1.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "policy,metric,mean,std,n"
    # 6 metrics per policy
    assert len(lines) == 1 + 6 * 2


def test_same_suite_applied_to_every_policy():
    suite = make_suite(NET.n, 5, seed=4)
    report = evaluate([("a", zero_policy(BOUNDS)), ("b", zero_policy(BOUNDS))],
                      X5, suite, BOUNDS, T=20)
    a = report.stats["a"]
    b = report.stats["b"]
    np.testing.assert_array_equal(a.over_ratio, b.over_ratio)


def test_policy_blocks_write_the_csvs_of_one_policy_calls(tmp_path,
                                                          monkeypatch):
    # at dt 0.3 rows of the sampled controllers are cut inside a block of
    # five, next to linear and zero rows that never are; a callable that is
    # no piece table rolls alone and splits the tables around it, leaving
    # steep0 a block of one
    import gridvolt.bench as bench
    passes = []

    def counted(policy, X, v_env, q0, **kw):
        passes.append(np.shape(q0))
        return rollout_batch(policy, X, v_env, q0, **kw)

    suite = make_suite(NET.n, 30, seed=2)
    linear = MonotonePolicy(droop(BOUNDS, 1.0))
    pols = [("steep0", steep_policy(0)), ("callable", lambda v: linear(v)),
            ("steep1", steep_policy(1)), ("linear", linear),
            ("zero", zero_policy(BOUNDS)), ("steep2", steep_policy(2)),
            ("steep3", steep_policy(3))]
    args = (X5, suite, BOUNDS)
    kw = {"T": 60, "dt": 0.3, "keep_trajectories": True}
    alone = [evaluate([pol], *args, **kw) for pol in pols]
    monkeypatch.setattr(bench, "rollout_batch", counted)
    report = evaluate(pols, *args, **kw)
    assert passes == [(30, 4), (30, 4), (5, 30, 4)]
    header, body = "policy,metric,mean,std,n\n", []
    for one in alone:
        text = one.to_csv()
        assert text.startswith(header)
        body.append(text[len(header):])
    assert report.to_csv() == header + "".join(body)
    runs = report.rollouts
    assert runs["steep1"].diverged.any() and runs["steep2"].diverged.any()
    assert not runs["linear"].diverged.any()
    assert report.metric("steep1", "stability_rate")[0] < 1.0
    for (name, _), one in zip(pols, alone):
        for field in ("v", "q", "u", "steps"):
            np.testing.assert_array_equal(getattr(runs[name], field),
                                          getattr(one.rollouts[name], field))
    hists = []
    for k, one in enumerate([report, *alone]):
        write_histograms_csv(one, tmp_path / f"hist-{k}.csv")
        hists.append((tmp_path / f"hist-{k}.csv").read_text())
    header = hists[0].split("\n", 1)[0] + "\n"
    assert hists[0] == header + "".join(h[len(header):] for h in hists[1:])


def test_blocks_hold_at_most_the_voltage_budget(monkeypatch):
    # 60 scenarios of 4 buses are 240 voltages per table and step, so four
    # tables fill a block of STACK_VOLTAGES = 1024 and the fifth and sixth
    # start the next; the CSV is that of one-policy calls
    import gridvolt.bench as bench
    passes = []

    def counted(policy, X, v_env, q0, **kw):
        passes.append(np.shape(q0))
        return rollout_batch(policy, X, v_env, q0, **kw)

    suite = make_suite(NET.n, 60, seed=4)
    pols = [(f"steep{k}", steep_policy(k)) for k in range(4)]
    pols += [("linear", MonotonePolicy(droop(BOUNDS, 1.0))),
             ("zero", zero_policy(BOUNDS))]
    assert 4 * 60 * NET.n <= bench.STACK_VOLTAGES < 5 * 60 * NET.n
    alone = "".join(evaluate([pol], X5, suite, BOUNDS, T=40).to_csv()
                    .split("\n", 1)[1] for pol in pols)
    monkeypatch.setattr(bench, "rollout_batch", counted)
    text = evaluate(pols, X5, suite, BOUNDS, T=40).to_csv()
    assert passes == [(4, 60, 4), (2, 60, 4)]
    assert text.split("\n", 1)[1] == alone


def test_empty_suite_rejected():
    with pytest.raises(ValueError, match="empty"):
        evaluate([("zero", zero_policy(BOUNDS))], X5, [], BOUNDS)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def loop_histogram_counts(values):
    """Bin-by-bin scan: each value joins the first bin [lo, hi) holding it."""
    counts = [0] * (len(HIST_EDGES) - 1)
    for x in values:
        for b in range(len(counts)):
            if HIST_EDGES[b] <= x < HIST_EDGES[b + 1]:
                counts[b] += 1
                break
    return counts


def test_histogram_bins_total():
    rng = np.random.default_rng(5)
    values = np.abs(rng.normal(scale=0.05, size=500))
    counts = histogram_counts(values)
    assert sum(counts) == 500
    # bin edges, the overflow bin and values in no bin at all
    edged = np.concatenate([values, [0.0, 0.005, 0.1, np.inf, np.nan, -0.01]])
    counts = histogram_counts(edged)
    assert counts == loop_histogram_counts(edged)
    assert sum(counts) == 503


def test_histogram_csv_totals(tmp_path):
    suite = make_suite(NET.n, 7, seed=6)
    report = evaluate([("zero", zero_policy(BOUNDS))], X5, suite, BOUNDS, T=20)
    path = tmp_path / "hist.csv"
    write_histograms_csv(report, path)
    rows = path.read_text().strip().splitlines()[1:]
    total = sum(int(r.rsplit(",", 1)[1]) for r in rows if "overvoltage" in r)
    assert total == 7 * NET.n
    assert len(HIST_EDGES) - 1 == 21

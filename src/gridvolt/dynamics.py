"""Closed-loop voltage dynamics: integrator, costs, scenarios, rollouts."""

import json
from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 0.1
BLOWUP_BOUND = 10.0
SCENARIO_KINDS = ("high", "low", "mixed")


@dataclass(frozen=True)
class CostParams:
    """Stage-cost weights: deviation weight, action weight, per-step discount."""

    eta1: float = 100.0
    eta2: float = 50.0
    gamma: float = 0.99

    def __post_init__(self):
        if self.eta1 < 0 or self.eta2 < 0 or (self.eta1 == 0 and self.eta2 == 0):
            raise ValueError("eta1, eta2 must be nonnegative and not both zero")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")


def band_violation(v, bounds):
    """Signed per-bus violation: positive above the band, negative below."""
    lo, hi = bounds
    return np.maximum(v - hi, 0.0) + np.minimum(v - lo, 0.0)


def dist_to_band(v, bounds):
    """Euclidean distance from v to the box of acceptable voltages.

    A float for one (n,) voltage vector; an array over the leading axes for
    a stack of them, bit-equal to the per-vector distances.
    """
    dev = band_violation(np.asarray(v, dtype=float), bounds)
    if dev.ndim == 1:
        return float(np.linalg.norm(dev))
    return np.sqrt(row_dot(dev, dev))


def stage_cost(v, u, bounds, cp):
    """Quadratic cost on band violation plus quadratic cost on the action.

    A float for one (n,) state and action; an (S,) array for (S, n) blocks,
    bit-equal to the per-row costs.
    """
    dev = band_violation(v, bounds)
    c = row_dot(cp.eta1 * dev, dev) + cp.eta2 * row_dot(u, u)
    return float(c) if dev.ndim == 1 else c


@dataclass(frozen=True)
class ScenarioConfig:
    """Disturbance sampler settings for one scenario kind.

    ``kind`` is 'high', 'low' or 'mixed'. Violating buses are a uniformly
    chosen nonempty subset; for 'mixed' at least one bus is pushed over and
    one under the band. Remaining buses stay near nominal. ``seed`` is used
    when no generator is passed to ``sample_scenario``.
    """

    kind: str
    n: int
    high_range: tuple = (1.05, 1.10)
    low_range: tuple = (0.90, 0.95)
    ambient_range: tuple = (0.98, 1.02)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "mixed" and self.n < 2:
            raise ValueError("mixed scenarios need at least two buses")


def sample_scenario(cfg, rng=None):
    """Draw (v_env, q0) for one disturbance scenario. q0 defaults to zero."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    v_env = rng.uniform(*cfg.ambient_range, size=n)
    k = int(rng.integers(1, n + 1))
    chosen = rng.choice(n, size=k, replace=False)
    if cfg.kind == "high":
        v_env[chosen] = rng.uniform(*cfg.high_range, size=k)
    elif cfg.kind == "low":
        v_env[chosen] = rng.uniform(*cfg.low_range, size=k)
    else:
        if k == 1:
            extra = rng.choice(np.setdiff1d(np.arange(n), chosen), size=1)
            chosen = np.concatenate([chosen, extra])
            k = 2
        high = np.zeros(k, dtype=bool)
        high[rng.random(k) < 0.5] = True
        high[0] = True
        high[-1] = False
        v_env[chosen[high]] = rng.uniform(*cfg.high_range, size=int(high.sum()))
        v_env[chosen[~high]] = rng.uniform(*cfg.low_range, size=int((~high).sum()))
    return v_env, np.zeros(n)


def make_suite(n, count, seed, kinds=SCENARIO_KINDS):
    """Seeded list of (v_env, q0, label) disturbance scenarios, kinds cycled."""
    rng = np.random.default_rng(seed)
    suite = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        cfg = ScenarioConfig(kind=kind, n=n)
        v_env, q0 = sample_scenario(cfg, rng)
        suite.append((v_env, q0, f"{kind}-{i}"))
    return suite


def save_scenarios(suite, path):
    data = [{"v_env": list(map(float, v_env)), "q0": list(map(float, q0)),
             "label": label} for v_env, q0, label in suite]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def load_scenarios(path):
    with open(path) as fh:
        data = json.load(fh)
    return [(np.array(d["v_env"], dtype=float), np.array(d["q0"], dtype=float),
             d.get("label", f"scenario-{i}")) for i, d in enumerate(data)]


@dataclass
class Rollouts:
    """Closed-loop record of S scenarios stepped together, time axis first.

    v, q are (T+1, S, n); u is (T, S, n); stage_costs is (T, S). Scenario s
    ran ``steps[s]`` steps; past its cut, v and q hold the last state and u
    and the stage cost are zero.
    """

    v: np.ndarray
    q: np.ndarray
    u: np.ndarray
    stage_costs: np.ndarray
    dt: float
    discounted_cost: np.ndarray
    steps: np.ndarray

    @property
    def diverged(self):
        """Per scenario: True when it was cut before the horizon."""
        return self.steps < len(self.u)


def row_dot(a, b):
    """Dot product of matching rows over the last axis.

    Each row goes through its own vector-vector product, so the result is
    bit-equal to ``a[i] @ b[i]`` row by row.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _row_matvec(X, q):
    # one matrix-vector product per row: bit-equal to X @ q[i]
    return np.matmul(X, q[..., None])[..., 0]


def step(q, u, dt, X, v_env):
    """One forward-Euler step: the action is the rate of change of q.

    Returns (q_next, v_next) with v_next = X q_next + v_env, for one (n,)
    state or row by row for an (S, n) block.
    """
    q_next = q + dt * u
    return q_next, _row_matvec(X, q_next) + v_env


def rollout_batch(policy, X, v_env, q0, T, dt, cp, bounds,
                  blowup=BLOWUP_BOUND):
    """Roll S closed loops forward together with u(t) = policy(v(t)).

    Each step moves the whole (S, n) block through ``step`` and prices it
    with ``stage_cost``: q <- q + dt u, v <- X q + v_env.
    ``v_env`` is either a constant (S, n) block or a per-step (T+1, S, n)
    series replayed row by row (then T may be None). ``policy`` maps an
    (S, n) block of voltages to an (S, n) block of actions row-wise, and an
    (n,) vector to an (n,) action; custom callables must do both, and must
    not write to the voltages they are given (a view of the record).

    A scenario whose voltage magnitude exceeds ``blowup``, or whose action
    is not finite, is cut at that step, flagged as diverged and frozen; the
    policy is called only on the scenarios still live.
    """
    v_env = np.asarray(v_env, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    series = v_env.ndim == 3
    if series:
        if T is None:
            T = len(v_env) - 1
        elif len(v_env) != T + 1:
            raise ValueError(f"v_env series has {len(v_env)} steps, "
                             f"need T+1 = {T + 1}")
    if T < 1:
        raise ValueError("horizon must be at least 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    S, n = q0.shape
    v = np.empty((T + 1, S, n))
    q = np.empty((T + 1, S, n))
    u = np.zeros((T, S, n))
    costs = np.zeros((T, S))
    total = np.zeros(S)
    steps = np.full(S, T)
    q[0] = q0
    v[0] = _row_matvec(X, q0) + (v_env[0] if series else v_env)
    # every row live: step on basic slices (views); index arrays only from
    # the first cut on. Each cut test is one whole-block reduction, and the
    # per-row mask is built only when it fires.
    live = slice(None)
    for t in range(T):
        v_t = v[t, live]
        if len(v_t) and np.abs(v_t).max() > blowup:
            cut = np.abs(v_t).max(axis=1) > blowup
            live = np.arange(S)[live]
            steps[live[cut]] = t
            live, v_t = live[~cut], v_t[~cut]
        if len(v_t) == 0:
            break
        u_t = np.asarray(policy(v_t), dtype=float)
        if u_t.shape != v_t.shape:
            raise ValueError(f"action shape {u_t.shape} does not match state "
                             f"{v_t.shape}")
        if not np.isfinite(u_t).all():
            cut = ~np.isfinite(u_t).all(axis=1)
            live = np.arange(S)[live]
            steps[live[cut]] = t
            live, v_t, u_t = live[~cut], v_t[~cut], u_t[~cut]
            if len(v_t) == 0:
                break
        c = stage_cost(v_t, u_t, bounds, cp)
        env = v_env[t + 1, live] if series else v_env[live]
        q[t + 1, live], v[t + 1, live] = step(q[t, live], u_t, dt, X, env)
        u[t, live] = u_t
        costs[t, live] = c
        total[live] += (cp.gamma ** t) * c
    for s in np.flatnonzero(steps < T):
        v[steps[s] + 1:, s] = v[steps[s], s]
        q[steps[s] + 1:, s] = q[steps[s], s]
    return Rollouts(v=v, q=q, u=u, stage_costs=costs, dt=dt,
                    discounted_cost=total, steps=steps)


def rollout(policy, X, v_env, q0, T, dt, cp, bounds, blowup=BLOWUP_BOUND):
    """Roll one closed loop forward: ``rollout_batch`` with S = 1.

    ``v_env`` is an (n,) disturbance or a (T+1, n) series replayed one row
    per step, and ``q0`` is (n,). Returns the one-scenario Rollouts, so
    scenario 0 of every field is the run.
    """
    v_env = np.asarray(v_env, dtype=float)
    return rollout_batch(policy, X, v_env[..., None, :],
                         np.asarray(q0, dtype=float)[None], T, dt, cp,
                         bounds, blowup=blowup)


def recovery_time(runs, bounds, tol=1e-3):
    """Per scenario of a Rollouts, the first step after which every later
    voltage stays within ``tol`` of the band; None when the run never
    settles (including diverged runs that were cut short).
    """
    inside = dist_to_band(runs.v, bounds) <= tol                 # (T+1, S)
    # the final in-band run starts one step after the last out-of-band step
    last_out = len(inside) - 1 - np.argmax(~inside[::-1], axis=0)
    start = np.where(inside.all(axis=0), 0, last_out + 1)
    settled = inside[-1] & ~runs.diverged
    return [int(k) if ok else None for k, ok in zip(start, settled)]

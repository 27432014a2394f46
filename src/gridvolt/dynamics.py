"""Closed-loop voltage dynamics: integrator, costs, scenarios, rollouts."""

import json
from dataclasses import dataclass

import numpy as np

from .util import json_floats_at

DEFAULT_DT = 0.1
BLOWUP_BOUND = 10.0
SCENARIO_KINDS = ("high", "low", "mixed")
HIGH_RANGE = (1.05, 1.10)       # voltages of buses pushed over the band
LOW_RANGE = (0.90, 0.95)        # voltages of buses pushed under it
AMBIENT_RANGE = (0.98, 1.02)    # every other bus


@dataclass(frozen=True)
class CostParams:
    """Stage-cost weights: deviation weight and action weight."""

    eta1: float = 100.0
    eta2: float = 50.0

    def __post_init__(self):
        if self.eta1 < 0 or self.eta2 < 0 or (self.eta1 == 0 and self.eta2 == 0):
            raise ValueError("eta1, eta2 must be nonnegative and not both zero")


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


def scenario_kinds(n):
    """The scenario kinds an n-bus feeder can draw: 'mixed' needs two buses."""
    return SCENARIO_KINDS if n >= 2 else SCENARIO_KINDS[:2]


def sample_scenario(kind, n, rng):
    """Draw (v_env, q0) for one n-bus disturbance scenario; q0 is zero.

    ``kind`` is 'high', 'low' or 'mixed'. Violating buses are a uniformly
    chosen nonempty subset; for 'mixed' at least one bus is pushed over and
    one under the band. Remaining buses stay near nominal.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    if kind == "mixed" and n < 2:
        raise ValueError("mixed scenarios need at least two buses")
    v_env = rng.uniform(*AMBIENT_RANGE, size=n)
    k = int(rng.integers(1, n + 1))
    chosen = rng.choice(n, size=k, replace=False)
    if kind == "high":
        v_env[chosen] = rng.uniform(*HIGH_RANGE, size=k)
    elif kind == "low":
        v_env[chosen] = rng.uniform(*LOW_RANGE, size=k)
    else:
        if k == 1:
            # a draw from the other n - 1 buses in ascending order: the
            # same random stream as choosing from that list directly
            extra = rng.choice(n - 1, size=1)
            chosen = np.concatenate([chosen, extra + (extra >= chosen)])
            k = 2
        high = np.zeros(k, dtype=bool)
        high[rng.random(k) < 0.5] = True
        high[0] = True
        high[-1] = False
        v_env[chosen[high]] = rng.uniform(*HIGH_RANGE, size=int(high.sum()))
        v_env[chosen[~high]] = rng.uniform(*LOW_RANGE, size=int((~high).sum()))
    return v_env, np.zeros(n)


def make_suite(n, count, seed):
    """Seeded list of (v_env, q0, label) disturbance scenarios, cycling
    through the kinds ``scenario_kinds(n)`` allows."""
    rng = np.random.default_rng(seed)
    kinds = scenario_kinds(n)
    suite = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        v_env, q0 = sample_scenario(kind, n, rng)
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
    suite = []
    for i, d in enumerate(data):
        v_env, q0, label = d["v_env"], d["q0"], d.get("label", f"scenario-{i}")
        where = f"scenario {i} ({label})"
        suite.append((json_floats_at(v_env, f"{where} v_env"),
                      json_floats_at(q0, f"{where} q0"), label))
    return suite


@dataclass
class Rollouts:
    """Closed-loop record of S scenarios stepped together, time axis first.

    v, q are (T+1, S, n); u is (T, S, n). Scenario s ran ``steps[s]`` steps
    of size ``dt``; past its cut, v and q hold the last state and u is zero.
    """

    v: np.ndarray
    q: np.ndarray
    u: np.ndarray
    dt: float
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


def step(q, u, dt, X, v_env, out=None):
    """One forward-Euler step: the action is the rate of change of q.

    Returns (q_next, v_next) with v_next = X q_next + v_env, for one (n,)
    state or row by row for an (S, n) block, written into the pair of
    arrays ``out`` when given (which must not overlap q, u or v_env).
    """
    q_next, v_next = out or (np.empty(np.shape(u)), np.empty(np.shape(u)))
    np.multiply(u, dt, out=q_next)      # dt u + q has the bits of q + dt u
    q_next += q
    # one matrix-vector product per row: bit-equal to X @ q_next[i]
    np.matmul(X, q_next[..., None], out=v_next[..., None])
    v_next += v_env
    return q_next, v_next


def rollout_batch(policy, X, v_env, q0, T, dt, blowup=BLOWUP_BOUND):
    """Roll a block of closed loops forward together with u(t) = policy(v(t)).

    ``q0`` is a (*rows, n) block, such as (S, n) scenarios or (P, S, n) for
    P policies on one suite; each step moves all of it through ``step``:
    q <- q + dt u, v <- X q + v_env. ``v_env`` broadcasts to ``q0`` or is a
    (T+1, ...) series of such, one axis more than ``q0`` (then T may be
    None). ``policy`` maps a block of voltages row-wise to actions and must
    not write to them (they can be a view of the record).

    A row whose voltage magnitude exceeds ``blowup``, or whose action is
    not finite, is cut at that step and frozen: action 0, q and v carried
    over bit for bit. A cut row stays in the block, the policy still seeing
    it (past the bound or not) and its actions dropped, until at most half
    the block is live; then the live rows roll on as a fresh (K, n) block,
    for which a policy with a ``rows(keep)`` method (``policy.TableStack``)
    is narrowed to the rows that the boolean mask ``keep`` keeps.
    """
    v_env = np.asarray(v_env, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    series = v_env.ndim == q0.ndim + 1
    if series:
        if T is None:
            T = len(v_env) - 1
        elif len(v_env) != T + 1:
            raise ValueError(f"v_env series has {len(v_env)} steps, "
                             f"need T+1 = {T + 1}")
    elif T is None:
        raise ValueError("T is needed for a constant v_env")
    if T < 1:
        raise ValueError(f"horizon T must be at least 1, got {T}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    for name, arr in (("v_env", v_env), ("q0", q0)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has a non-finite entry")
    v = np.empty((T + 1, *q0.shape))
    q = np.empty((T + 1, *q0.shape))
    u = np.zeros((T, *q0.shape))
    steps = np.full(q0.shape[:-1], T)
    q[0] = q0
    np.matmul(X, q0[..., None], out=v[0, ..., None])      # as in step
    v[0] += v_env[0] if series else v_env
    # each cut test is one reduction over the live rows: True, or from the
    # first cut on a (*rows, 1) mask; the per-row test runs only on a cut
    live = True
    for t in range(T):
        v_t = v[t]
        if np.abs(v_t).max(initial=0.0, where=live) > blowup:
            cut = live & (np.abs(v_t).max(axis=-1, keepdims=True) > blowup)
            steps[cut[..., 0]], live = t, live & ~cut
        if live is not True and 2 * np.count_nonzero(live) <= live.size:
            keep = live[..., 0]         # the rest stay frozen to the end
            v[t + 1:, ~keep], q[t + 1:, ~keep] = v_t[~keep], q[t][~keep]
            if keep.any():
                env = np.broadcast_to(v_env, v_env.shape[:series] + q0.shape)
                sub = rollout_batch(
                    policy.rows(keep) if hasattr(policy, "rows") else policy,
                    X, env[t:, keep] if series else env[keep], q[t][keep],
                    T - t, dt, blowup)
                v[t:, keep], q[t:, keep], u[t:, keep] = sub.v, sub.q, sub.u
                steps[keep] = t + sub.steps
            break
        u_t = np.asarray(policy(v_t), dtype=float)
        if u_t.shape != v_t.shape:
            raise ValueError(f"action shape {u_t.shape} does not match state "
                             f"{v_t.shape}")
        np.copyto(u[t], u_t, where=live)        # a cut row's stays 0
        if not np.isfinite(u[t]).all():
            cut = ~np.isfinite(u[t]).all(axis=-1, keepdims=True)
            steps[cut[..., 0]], live = t, live & ~cut
            np.copyto(u[t], 0.0, where=cut)
        step(q[t], u[t], dt, X, v_env[t + 1] if series else v_env,
             out=(q[t + 1], v[t + 1]))
        if live is not True:                    # cut rows carry over
            frozen = ~live
            np.copyto(q[t + 1], q[t], where=frozen)
            np.copyto(v[t + 1], v_t, where=frozen)
    return Rollouts(v=v, q=q, u=u, dt=dt, steps=steps)


def rollout(policy, X, v_env, q0, T, dt):
    """Roll one closed loop forward: ``rollout_batch`` with S = 1.

    ``v_env`` is an (n,) disturbance or a (T+1, n) series replayed one row
    per step, and ``q0`` is (n,). Returns the one-scenario Rollouts, so
    scenario 0 of every field is the run.
    """
    v_env = np.asarray(v_env, dtype=float)
    return rollout_batch(policy, X, v_env[..., None, :],
                         np.asarray(q0, dtype=float)[None], T, dt)


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

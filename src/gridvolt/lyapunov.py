"""Numerical stability certification for deadband voltage controllers.

The candidate energy function is the Krasovskii quadratic form built from
the closed-loop vector field: with voltage dynamics driven through the
sensitivity matrix, V(v) = 0.5 * g(v)' X g(v) where g is the controller.
For any controller that is zero on the band, strictly decreasing outside
it, and unbounded in the tails, V decreases along trajectories and the
voltages converge to the band. This module checks the slope conditions
exactly at the kinks of a monotone ramp controller (droop included) and on
sampled grids for any other policy, runs seeded rollouts, and emits a
machine-readable certificate with witnesses for every violated clause.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import dist_to_band, make_suite, rollout_batch, row_dot
from .policy import MonotonePolicy, verify_monotone
from .util import clause_lines, config_hash

_CROSS_CHECK_TOL = 1e-9


def _require_pd(X):
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sensitivity matrix must be positive definite") from exc


def krasovskii_value(X, policy, v, cross_check=True):
    """Energy 0.5 * g' X g of the closed-loop field at voltage v.

    With ``cross_check`` the equivalent inverse-form 0.5 * f' X^-1 f
    (f = X g) is recomputed and compared, guarding against an indefinite or
    badly conditioned X sneaking through.
    """
    g = np.asarray(policy(v), dtype=float)
    val = 0.5 * float(g @ X @ g)
    if cross_check:
        _require_pd(X)
        f = X @ g
        alt = 0.5 * float(f @ np.linalg.solve(X, f))
        if abs(val - alt) > _CROSS_CHECK_TOL * max(1.0, abs(val)):
            raise ArithmeticError(
                f"energy forms disagree: {val!r} vs {alt!r}")
    return val


def lyapunov_time_derivative(X, policy, v):
    """Instantaneous change of the energy along the closed loop.

    Equals (X g)' diag(dg/dv) (X g); nonpositive whenever every bus
    controller is nonincreasing.
    """
    g = np.asarray(policy(v), dtype=float)
    slopes = np.asarray(policy.input_grad(v), dtype=float)
    f = X @ g
    return float(f @ (slopes * f))


def equilibrium_check(policy, v):
    """True iff the controller is quiet at v, i.e. every bus is in its band."""
    return bool(np.all(np.asarray(policy(v)) == 0.0))


@dataclass(frozen=True)
class CertifyConfig:
    """Sampling plan for a stability certificate.

    ``grid_points``, ``joint_samples`` and ``margin`` set the sampled slope
    window [v_lower - margin, v_upper + margin]; only policies without ramp
    kinks (MLP, zero, custom) use it, a ``MonotonePolicy`` (droop included)
    is checked exactly on the whole real line. All fields stay in the
    config hash.
    """

    v_lower: tuple
    v_upper: tuple
    grid_points: int = 200
    joint_samples: int = 10_000
    rollouts: int = 100
    horizon: int = 100
    dt: float = 0.1
    dist_tol: float = 1e-3
    margin: float = 0.5
    eps: float = 1e-3
    seed: int = 0
    blowup: float = 10.0

    def to_dict(self):
        return {**asdict(self), "v_lower": list(map(float, self.v_lower)),
                "v_upper": list(map(float, self.v_upper))}


@dataclass
class StabilityCertificate:
    """Clause-by-clause result of the sampled stability conditions."""

    policy_id: str
    passed: bool
    clauses: dict
    tolerances: dict
    config: dict
    config_hash: str
    notes: list = field(default_factory=list)

    def to_json(self, path=None):
        data = {**asdict(self),
                "clauses": {k: {"ok": ok, "witnesses": wit}
                            for k, (ok, wit) in self.clauses.items()}}
        text = json.dumps(data, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def summary(self):
        lines = [f"stability certificate [{self.policy_id}]: "
                 f"{'PASS' if self.passed else 'FAIL'}  "
                 f"(config {self.config_hash})", *clause_lines(self.clauses)]
        lines += [f"  note: {note}" for note in self.notes]
        return "\n".join(lines)


def _policy_max_gain(policy, grids):
    if hasattr(policy, "max_gain"):
        return policy.max_gain()
    worst = 0.0
    for vv in grids:
        worst = max(worst, float(np.max(np.abs(policy.input_grad(vv)))))
    return worst


def decrease_violations(X, policy, runs, kappa):
    """Steps where the energy rose along each scenario of a Rollouts batch.

    V(v_t) = 0.5 u_t' X u_t reuses the stored actions u_t = g(v_t); only the
    energy of each scenario's last state takes one more (batched) policy
    call. A rise counts when it beats the integrator slack
    kappa * dt^2 * |u_t|^2 plus a relative 1e-12. Returns one list of
    (t, V(v_t), V(v_t+1), slack) per scenario.
    """
    S = len(runs.steps)
    last = runs.v[runs.steps, np.arange(S)]
    g = np.concatenate([runs.u, np.asarray(policy(last), dtype=float)[None]])
    energy = 0.5 * row_dot(np.matmul(g[..., None, :], X)[..., 0, :], g)
    # the final policy call's energy belongs right after each cut
    energy[runs.steps, np.arange(S)] = energy[-1]
    slack = kappa * runs.dt * runs.dt * row_dot(runs.u, runs.u)
    v_prev, v_next = energy[:-1], energy[1:]
    floor = 1e-12 * np.where(v_prev > 1.0, v_prev, 1.0)
    rose = v_next > v_prev + slack + floor
    rose &= np.arange(len(rose))[:, None] < runs.steps[None, :]
    out = [[] for _ in range(S)]
    for t, s in zip(*np.nonzero(rose)):
        out[s].append((int(t), float(v_prev[t, s]), float(v_next[t, s]),
                       float(slack[t, s])))
    return out


def certify_policy(X, policy, cfg, policy_id="policy"):
    """Run the stability conditions and collect a certificate.

    Clauses:
      * jacobian_nonpositive      every bus slope <= 0;
      * jacobian_strict_outside   slope <= -cfg.eps outside the band;
                                  for a MonotonePolicy (trained or droop)
                                  both slope clauses are exact on the whole
                                  real line (``verify_monotone`` at the ramp
                                  kinks, stricter than sampling); for MLP,
                                  zero and custom policies they are checked
                                  on per-bus sweeps and joint random
                                  samples of the window;
      * lyapunov_decrease         energy nonincreasing along seeded rollouts,
                                  up to an integrator slack of
                                  kappa * dt^2 * |u|^2 per step (kappa from
                                  the matrix norm and the policy gain);
                                  violations are retried at dt/10 and only
                                  persistent ones fail the clause. For a
                                  MonotonePolicy (exact max_gain L, slopes
                                  in [-L, 0]) a step raises V by at most
                                  dt^2/2 L^2 lmax(X)^3 |g|^2, half the
                                  slack, so the clause is evidence only
                                  for MLP, zero and custom policies;
      * convergence_to_band       every rollout ends within dist_tol of the
                                  band by the horizon.

    Failures are recorded as data with witnesses, never raised.
    """
    _require_pd(X)
    lo = np.asarray(cfg.v_lower, dtype=float)
    hi = np.asarray(cfg.v_upper, dtype=float)
    n = len(lo)
    bounds = (lo, hi)

    clauses = {"jacobian_nonpositive": (True, []),
               "jacobian_strict_outside": (True, []),
               "lyapunov_decrease": (True, []),
               "convergence_to_band": (True, [])}
    notes = []

    def fail(clause, witness, cap=10):
        ok, wit = clauses[clause]
        if len(wit) < cap:
            wit.append(witness)
        clauses[clause] = (False, wit)

    # -- pointwise slope conditions
    if isinstance(policy, MonotonePolicy):
        # exact on the whole real line: the controller is linear between
        # its ramp kinks and band edges
        exact = verify_monotone(policy.params, eps=cfg.eps, band=bounds)
        for clause, source in (("jacobian_nonpositive", "nonincreasing"),
                               ("jacobian_strict_outside",
                                "strict_slope_outside")):
            for witness in exact.clauses[source][1]:
                fail(clause, witness)
        gain = policy.max_gain()
    else:
        # per-bus sweeps plus joint random probes over the sampled window
        sweeps = np.stack([np.linspace(lo[i] - cfg.margin,
                                       hi[i] + cfg.margin, cfg.grid_points)
                           for i in range(n)], axis=1)
        joint = np.random.default_rng(cfg.seed).uniform(
            lo - cfg.margin, hi + cfg.margin, size=(cfg.joint_samples, n))
        strict_floor = -cfg.eps * (1.0 - 1e-9)
        for block in (sweeps, joint):
            slopes = np.asarray(policy.input_grad(block), dtype=float)
            over = slopes > 0.0
            for k, b in list(zip(*np.nonzero(over)))[:10]:
                fail("jacobian_nonpositive",
                     f"bus {b + 1}: slope {slopes[k, b]:.3e} > 0 "
                     f"at v={block[k, b]:.6f}")
            outside = (block > hi) | (block < lo)
            loose = outside & (slopes > strict_floor)
            for k, b in list(zip(*np.nonzero(loose)))[:10]:
                fail("jacobian_strict_outside",
                     f"bus {b + 1}: slope {slopes[k, b]:.3e} > -eps "
                     f"at v={block[k, b]:.6f}")
        gain = _policy_max_gain(policy, sweeps[::50])

    # -- trajectory conditions
    eigs = np.linalg.eigvalsh(X)
    x_norm = float(np.max(np.abs(eigs)))
    gain = max(gain, 1.0)
    kappa = gain ** 2 * x_norm ** 3
    suite = make_suite(n, cfg.rollouts, seed=cfg.seed + 1)

    v_env = np.array([sc[0] for sc in suite])
    q0 = np.array([sc[1] for sc in suite])

    def roll(rows, dt, horizon):
        runs = rollout_batch(policy, X, v_env[rows], q0[rows], T=horizon,
                             dt=dt, blowup=cfg.blowup)
        return runs, decrease_violations(X, policy, runs, kappa)

    runs, bad = roll(slice(None), cfg.dt, cfg.horizon)
    # refine: a genuine increase survives a tenfold finer step
    flagged = [k for k, b in enumerate(bad) if b]
    bad_fine = {}
    if flagged:
        _, fine = roll(flagged, cfg.dt / 10.0, cfg.horizon * 10)
        bad_fine = dict(zip(flagged, fine))
    dist_T = dist_to_band(runs.v[-1], bounds)
    for k, (_, _, label) in enumerate(suite):
        if k in bad_fine:
            if bad_fine[k]:
                t, v0, v1, slack = bad_fine[k][0]
                fail("lyapunov_decrease",
                     f"{label}: V rose {v0:.6e} -> {v1:.6e} at step {t} "
                     f"(slack {slack:.2e}, dt={cfg.dt / 10})")
            else:
                notes.append(f"{label}: decrease violation at dt={cfg.dt} "
                             "vanished at dt/10 (integrator artifact)")
        if runs.diverged[k]:
            fail("convergence_to_band",
                 f"{label}: trajectory diverged at step {runs.steps[k]}")
        elif dist_T[k] > cfg.dist_tol:
            fail("convergence_to_band",
                 f"{label}: dist_to_band(v_T) = {dist_T[k]:.3e} > "
                 f"{cfg.dist_tol}")

    passed = all(ok for ok, _ in clauses.values())
    cfg_dict = cfg.to_dict()
    return StabilityCertificate(
        policy_id=policy_id,
        passed=passed,
        clauses=clauses,
        tolerances={"strict_slope": cfg.eps, "dist_tol": cfg.dist_tol,
                    "decrease_slack_kappa": kappa},
        config=cfg_dict,
        config_hash=config_hash(cfg_dict),
        notes=notes,
    )

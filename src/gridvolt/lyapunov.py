"""Stability certificates for per-bus voltage controllers.

The energy is the Krasovskii form V(v) = 0.5 * g(v)' X g(v) of the
controller g and the sensitivity matrix X. For a g that is zero on the
band, nonincreasing, strictly decreasing outside it and unbounded in the
tails, V decreases along the continuous-time loop dq/dt = g(v). The
forward-Euler loop that rollouts integrate also needs dt * L * lambda_max(X)
< 2 for the largest slope magnitude L, which no clause checks. This module
checks the slopes exactly on the pieces each policy lists, samples the
rest on seeded rollouts, and emits a certificate with witnesses.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import dist_to_band, make_suite, rollout_batch, row_dot
from .policy import check_pieces
from .util import clause_lines, config_hash


def krasovskii_value(X, g):
    """Energy 0.5 * g' X g of the closed-loop field g = policy(v), over the
    last axis: a float for an (n,) vector, an array for (..., n) stacks.

    Each row goes through numpy's per-row vector-matrix and dot paths, so a
    stack gives row-by-row calls' bits.
    """
    return 0.5 * row_dot(np.matmul(g[..., None, :], X)[..., 0, :], g)


@dataclass(frozen=True)
class CertifyConfig:
    """Band, rollout plan and slope floor of a stability certificate; every
    field is in the config hash."""

    v_lower: tuple
    v_upper: tuple
    rollouts: int = 100
    horizon: int = 100
    dt: float = 0.1
    dist_tol: float = 1e-3
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
    energy = krasovskii_value(X, g)
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

    The policy lists its pieces: ``policy.breakpoints(edges)`` returns the
    per-bus (pts, u, du) of ``policy._breakpoints``; a policy without it
    is refused with a ValueError. Clauses:
      * jacobian_nonpositive      every bus slope <= 0;
      * jacobian_strict_outside   slope <= -cfg.eps outside the band; both
                                  exact on the pieces (``check_pieces``);
      * lyapunov_decrease         energy nonincreasing along seeded rollouts,
                                  up to a slack of kappa * dt^2 * |u|^2 per
                                  step, kappa = L^2 lmax(X)^3 for the
                                  largest piece slope L, sampled at cfg.dt
                                  only. With per-bus slopes in [-L, 0] a
                                  step raises V by at most half the slack,
                                  so it cannot fail once the slope clauses
                                  pass;
      * convergence_to_band       every rollout ends within dist_tol of the
                                  band by the horizon.

    None checks the discrete step condition dt * L * lmax(X) < 2.
    Failures are recorded as data with witnesses, never raised.
    """
    eigs = np.linalg.eigvalsh(X)
    if not eigs[0] > 0.0:
        raise ValueError("sensitivity matrix must be positive definite")
    if not callable(getattr(policy, "breakpoints", None)):
        raise ValueError("certify_policy needs a policy with a "
                         "breakpoints(edges) method that lists its pieces")
    lo = np.asarray(cfg.v_lower, dtype=float)
    hi = np.asarray(cfg.v_upper, dtype=float)
    n = len(lo)
    bounds = (lo, hi)

    # -- slope conditions, exact on the policy's pieces
    pts, u, du = policy.breakpoints(bounds)
    pieces = check_pieces(pts, u, du, cfg.eps, bounds)
    clauses = {"jacobian_nonpositive": pieces["nonincreasing"],
               "jacobian_strict_outside": pieces["strict_slope_outside"],
               "lyapunov_decrease": (True, []),
               "convergence_to_band": (True, [])}

    def fail(clause, witness, cap=10):
        ok, wit = clauses[clause]
        if len(wit) < cap:
            wit.append(witness)
        clauses[clause] = (False, wit)

    # -- trajectory conditions
    gain = max(float(np.abs(du).max()), 1.0)
    kappa = gain ** 2 * float(eigs[-1]) ** 3
    suite = make_suite(n, cfg.rollouts, seed=cfg.seed + 1)

    runs = rollout_batch(policy, X, np.array([sc[0] for sc in suite]),
                         np.array([sc[1] for sc in suite]), T=cfg.horizon,
                         dt=cfg.dt, blowup=cfg.blowup)
    bad = decrease_violations(X, policy, runs, kappa)
    dist_T = dist_to_band(runs.v[-1], bounds)
    diverged = runs.diverged
    for k, (_, _, label) in enumerate(suite):
        if bad[k]:
            t, v0, v1, slack = bad[k][0]
            fail("lyapunov_decrease",
                 f"{label}: V rose {v0:.6e} -> {v1:.6e} at step {t} "
                 f"(slack {slack:.2e}, dt={cfg.dt})")
        if diverged[k]:
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
    )

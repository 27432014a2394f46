"""Stability certificates for per-bus voltage controllers.

The energy is the Krasovskii form V(v) = 0.5 * g(v)' X g(v) of the
controller g and the sensitivity matrix X. What a certificate proves:

* The piece clauses are exact: every per-bus slope is read off the pieces
  the policy lists (zero on the band, no piece rising, slope <= -eps
  outside the band, tails at least eps steep), on the whole real line.
* Energy decrease follows from them. Along dq/dt = g(v), dV/dt =
  (Xg)' G (Xg) with G = diag(g'), so V never rises when no piece rises,
  and V rises with one bus on a rising piece and every other bus inside
  its band. One forward-Euler step of size dt raises V by at most
  0.5 * L^2 * lambda_max(X)^3 * dt^2 * |u|^2 for the largest slope
  magnitude L.
* Convergence to the band within the horizon is sampled on seeded
  rollouts.
* The step condition dt * L * lambda_max(X) < 2 of the simulated loop is
  not checked.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import dist_to_band, make_suite, rollout_batch
from .policy import check_pieces
from .util import clause_lines, config_hash


def krasovskii_value(X, g):
    """Energy 0.5 * g' X g of the closed-loop field g = policy(v), over the
    last axis: a float for an (n,) vector, an array for (..., n) stacks.

    Each row goes through numpy's per-row vector-matrix and dot paths, so a
    stack gives row-by-row calls' bits.
    """
    return 0.5 * np.matmul(np.matmul(g[..., None, :], X),
                           g[..., :, None])[..., 0, 0]


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
    """Clause-by-clause result of the stability conditions, {clause: (ok,
    witnesses)}: the piece clauses are exact on the pieces the policy
    lists, ``lyapunov_decrease`` follows from them, ``convergence_to_band``
    is sampled, and the step condition is not checked. ``config`` holds
    every setting, the slope floor ``eps`` and ``dist_tol`` among them."""

    policy_id: str
    passed: bool
    clauses: dict
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


def certify_policy(X, policy, cfg, policy_id="policy"):
    """Run the stability conditions and collect a certificate.

    The policy lists its pieces: ``policy.breakpoints(edges)`` returns the
    per-bus (pts, u, du) of ``policy._breakpoints``; a policy without it
    is refused with a ValueError. Clauses:
      * jacobian_nonpositive      every bus slope <= 0;
      * jacobian_strict_outside   slope <= -cfg.eps outside the band;
      * zero_in_band              u = 0 on the whole band;
      * unbounded_tails           both tail slopes at least cfg.eps steep;
                                  all four exact on the pieces
                                  (``check_pieces``);
      * lyapunov_decrease         V never rises along dq/dt = g(v): exactly
                                  jacobian_nonpositive, witnesses included,
                                  since V rises with a bus on a rising piece
                                  and every other bus inside its band;
      * convergence_to_band       every seeded rollout ends within dist_tol
                                  of the band by the horizon.

    None checks the discrete step condition dt * L * lmax(X) < 2.
    Failures are recorded as data with witnesses, never raised.
    """
    if not np.linalg.eigvalsh(X)[0] > 0.0:
        raise ValueError("sensitivity matrix must be positive definite")
    if not callable(getattr(policy, "breakpoints", None)):
        raise ValueError("certify_policy needs a policy with a "
                         "breakpoints(edges) method that lists its pieces")
    lo = np.asarray(cfg.v_lower, dtype=float)
    hi = np.asarray(cfg.v_upper, dtype=float)
    bounds = (lo, hi)

    # -- piece conditions, exact on the policy's pieces
    pieces = check_pieces(*policy.breakpoints(bounds), cfg.eps, bounds)
    clauses = {"jacobian_nonpositive": pieces["nonincreasing"],
               "jacobian_strict_outside": pieces["strict_slope_outside"],
               "zero_in_band": pieces["zero_in_band"],
               "unbounded_tails": pieces["unbounded_tails"],
               "lyapunov_decrease": pieces["nonincreasing"]}

    # -- convergence, sampled on seeded rollouts
    suite = make_suite(len(lo), cfg.rollouts, seed=cfg.seed + 1)
    runs = rollout_batch(policy, X, np.array([sc[0] for sc in suite]),
                         np.array([sc[1] for sc in suite]), T=cfg.horizon,
                         dt=cfg.dt, blowup=cfg.blowup)
    dist_T = dist_to_band(runs.v[-1], bounds)
    witnesses = []
    for (_, _, label), cut, t, dist in zip(suite, runs.diverged, runs.steps,
                                           dist_T):
        if cut:
            witnesses.append(f"{label}: trajectory diverged at step {t}")
        elif dist > cfg.dist_tol:
            witnesses.append(f"{label}: dist_to_band(v_T) = {dist:.3e} > "
                             f"{cfg.dist_tol}")
    clauses["convergence_to_band"] = (not witnesses, witnesses[:10])

    cfg_dict = cfg.to_dict()
    return StabilityCertificate(
        policy_id=policy_id,
        passed=all(ok for ok, _ in clauses.values()),
        clauses=clauses,
        config=cfg_dict,
        config_hash=config_hash(cfg_dict),
    )

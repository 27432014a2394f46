"""Monotone deadband policies built from stacked ReLU ramps.

Each bus gets a scalar controller u_i = g_i(v_i) that is exactly zero inside
the acceptable voltage band, strictly decreasing outside it, and unbounded as
the voltage runs away. The controller is the negated sum of two one-sided
ramp stacks: an ascending stack whose first kink sits on the upper band edge
and a descending stack whose first kink sits on the lower band edge. The
defining constraints (nonnegative prefix sums of the ramp weights, ordered
kink positions, pinned first kinks) are enforced by reparameterization, so
every point of the unconstrained parameter space maps to a valid controller.
"""

import json
from dataclasses import dataclass

import numpy as np


class CheckpointError(RuntimeError):
    """Raised when a stored policy fails validation on load."""


def softplus(x):
    """log(1 + exp(x)), exact zero for very negative inputs."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class RawPolicyParams:
    """Unconstrained controller parameters, one row per bus.

    ``slope_*`` map (through eps + softplus) to prefix-sum slopes of the two
    ramp stacks; ``decr_*`` map to kink spacings. Column 0 of the slope
    arrays and columns 0-1 of the spacing arrays are inert: the first unit
    carries zero weight and the first active kink is pinned to the band edge.
    """

    slope_pos: np.ndarray
    decr_pos: np.ndarray
    slope_neg: np.ndarray
    decr_neg: np.ndarray

    def __post_init__(self):
        for name in ("slope_pos", "decr_pos", "slope_neg", "decr_neg"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.slope_pos.shape:
                raise ValueError("raw parameter arrays must share one shape")

    @property
    def n(self):
        return self.slope_pos.shape[0]

    @property
    def d(self):
        return self.slope_pos.shape[1]

    def copy(self):
        return RawPolicyParams(self.slope_pos.copy(), self.decr_pos.copy(),
                               self.slope_neg.copy(), self.decr_neg.copy())


@dataclass(frozen=True)
class StackedReluParams:
    """Constrained per-bus ramp stacks; arrays are (n, d).

    Invariants (all guaranteed by ``constrain``):
      * wplus column 0 is zero; prefix sums of wplus are >= eps from column 1;
      * bplus column 0 is zero, column 1 equals -v_upper, later columns
        decrease (kinks march upward from the upper band edge);
      * mirrored for the lower side: prefix sums of wminus <= -eps, bminus
        column 1 equals v_lower, later columns decrease (kinks march down);
      * the resulting controller is zero on the band and has slope <= -eps
        outside it.
    """

    wplus: np.ndarray
    bplus: np.ndarray
    wminus: np.ndarray
    bminus: np.ndarray
    v_lower: np.ndarray
    v_upper: np.ndarray
    eps: float

    @property
    def n(self):
        return self.wplus.shape[0]

    @property
    def d(self):
        return self.wplus.shape[1]


def constrain(raw, band, eps=1e-3):
    """Map unconstrained parameters onto a valid monotone deadband controller.

    Prefix-sum slopes become eps + softplus(raw slope), so they are floored
    at eps no matter how negative the raw values go; kink positions start on
    the band edges and step outward by softplus(raw spacing).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_lower, v_upper = (np.asarray(band[0], dtype=float),
                        np.asarray(band[1], dtype=float))
    for name in ("slope_pos", "decr_pos", "slope_neg", "decr_neg"):
        if not np.all(np.isfinite(getattr(raw, name))):
            raise ValueError(f"non-finite raw parameter in {name}")
    n, d = raw.n, raw.d
    if v_lower.shape != (n,) or v_upper.shape != (n,):
        raise ValueError("band arrays must have one entry per bus")

    prefix_pos = eps + softplus(raw.slope_pos)       # (n, d), used from col 1
    wplus = np.empty((n, d))
    wplus[:, 0] = 0.0
    wplus[:, 1] = prefix_pos[:, 1]
    wplus[:, 2:] = prefix_pos[:, 2:] - prefix_pos[:, 1:-1]

    bplus = np.zeros((n, d))
    bplus[:, 1] = -v_upper
    if d > 2:
        bplus[:, 2:] = -v_upper[:, None] - np.cumsum(
            softplus(raw.decr_pos[:, 2:]), axis=1)

    prefix_neg = -(eps + softplus(raw.slope_neg))
    wminus = np.empty((n, d))
    wminus[:, 0] = 0.0
    wminus[:, 1] = prefix_neg[:, 1]
    wminus[:, 2:] = prefix_neg[:, 2:] - prefix_neg[:, 1:-1]

    bminus = np.zeros((n, d))
    bminus[:, 1] = v_lower
    if d > 2:
        bminus[:, 2:] = v_lower[:, None] - np.cumsum(
            softplus(raw.decr_neg[:, 2:]), axis=1)

    return StackedReluParams(wplus=wplus, bplus=bplus, wminus=wminus,
                             bminus=bminus, v_lower=v_lower, v_upper=v_upper,
                             eps=eps)


def policy_eval_bus(p, bus, v_values):
    """Controller output of a single bus over a 1-d batch of voltages."""
    v = np.atleast_1d(np.asarray(v_values, dtype=float))
    xi_pos = np.maximum(v[:, None] + p.bplus[bus][None, :], 0.0) @ p.wplus[bus]
    xi_neg = np.maximum(-v[:, None] + p.bminus[bus][None, :], 0.0) @ p.wminus[bus]
    return -(xi_pos + xi_neg)


def policy_eval(p, v):
    """Evaluate the controller: u = -(ascending stack + descending stack).

    Accepts v of shape (n,) or a batch (m, n); inside the band the output is
    exactly 0.0 because every active ramp term vanishes there.
    """
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    xi_pos = np.einsum("nd,mnd->mn", p.wplus,
                       np.maximum(vv[:, :, None] + p.bplus[None], 0.0))
    xi_neg = np.einsum("nd,mnd->mn", p.wminus,
                       np.maximum(-vv[:, :, None] + p.bminus[None], 0.0))
    u = -(xi_pos + xi_neg)
    return u if batch else u[0]


def policy_input_grad(p, v):
    """Slope du/dv per bus (right-hand derivative at kinks).

    Zero inside the band, at most -eps outside; the upper-edge kink itself
    reports the outside slope because the right-hand limit is used.
    """
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    act_pos = (vv[:, :, None] + p.bplus[None]) >= 0.0
    act_neg = (-vv[:, :, None] + p.bminus[None]) > 0.0
    dxi_pos = np.einsum("nd,mnd->mn", p.wplus, act_pos.astype(float))
    dxi_neg = -np.einsum("nd,mnd->mn", p.wminus, act_neg.astype(float))
    g = -(dxi_pos + dxi_neg)
    return g if batch else g[0]


def policy_param_grad(raw, band, eps, v):
    """Gradient of each bus's u_i with respect to that bus's raw parameters.

    ``v`` is one voltage vector (n,) or a batch (m, n); returns four arrays
    shaped (n, d) or (m, n, d), aligned with the raw fields. The chain rule
    runs through the reparameterization, so inert columns get zeros.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    vv = np.atleast_2d(v)[:, :, None]                            # (m, n, 1)
    p = constrain(raw, band, eps)
    shape = vv.shape[:2] + (raw.d,)

    r_pos = np.maximum(vv + p.bplus, 0.0)                        # (m, n, d)
    r_neg = np.maximum(-vv + p.bminus, 0.0)
    act_pos = (vv + p.bplus) >= 0.0
    act_neg = (-vv + p.bminus) > 0.0

    # d xi / d prefix-sum_l telescopes to r_l - r_{l+1}
    diff_pos = r_pos.copy()
    diff_pos[..., :-1] -= r_pos[..., 1:]
    diff_neg = r_neg.copy()
    diff_neg[..., :-1] -= r_neg[..., 1:]

    g_slope_pos = np.zeros(shape)
    g_slope_pos[..., 1:] = -diff_pos[..., 1:] * sigmoid(raw.slope_pos[:, 1:])
    g_slope_neg = np.zeros(shape)
    g_slope_neg[..., 1:] = -diff_neg[..., 1:] * -sigmoid(raw.slope_neg[:, 1:])

    # a spacing parameter shifts every later kink by -softplus'(raw)
    wa_pos = p.wplus * act_pos                                   # (m, n, d)
    tail_pos = np.cumsum(wa_pos[..., ::-1], axis=-1)[..., ::-1]
    g_decr_pos = np.zeros(shape)
    g_decr_pos[..., 2:] = tail_pos[..., 2:] * sigmoid(raw.decr_pos[:, 2:])

    wa_neg = p.wminus * act_neg
    tail_neg = np.cumsum(wa_neg[..., ::-1], axis=-1)[..., ::-1]
    g_decr_neg = np.zeros(shape)
    g_decr_neg[..., 2:] = tail_neg[..., 2:] * sigmoid(raw.decr_neg[:, 2:])

    grads = (g_slope_pos, g_decr_pos, g_slope_neg, g_decr_neg)
    if single:
        return tuple(g[0] for g in grads)
    return grads


def linear_deadband(v, v_lower, v_upper):
    """Classic droop rule: unit slope outside the band, zero inside."""
    v = np.asarray(v, dtype=float)
    return -np.maximum(v - v_upper, 0.0) + np.maximum(v_lower - v, 0.0)


# ---------------------------------------------------------------------------
# policy wrappers
# ---------------------------------------------------------------------------

class MonotonePolicy:
    """Callable bundle of constrained parameters for a whole feeder."""

    def __init__(self, params):
        self.params = params

    @classmethod
    def from_raw(cls, raw, band, eps=1e-3):
        return cls(constrain(raw, band, eps))

    def __call__(self, v):
        return policy_eval(self.params, v)

    def input_grad(self, v):
        return policy_input_grad(self.params, v)

    def max_gain(self):
        """Largest slope magnitude anywhere (outermost prefix sum)."""
        pos = np.cumsum(self.params.wplus, axis=1).max()
        neg = np.abs(np.cumsum(self.params.wminus, axis=1)).max()
        return float(max(pos, neg))


class LinearDeadbandPolicy:
    """Unit-gain droop baseline over the same band."""

    def __init__(self, v_lower, v_upper, gain=1.0):
        self.v_lower = np.asarray(v_lower, dtype=float)
        self.v_upper = np.asarray(v_upper, dtype=float)
        self.gain = gain

    def __call__(self, v):
        return self.gain * linear_deadband(v, self.v_lower, self.v_upper)

    def input_grad(self, v):
        v = np.asarray(v, dtype=float)
        outside = (v >= self.v_upper) | (v < self.v_lower)
        return np.where(outside, -self.gain, 0.0)


class ZeroPolicy:
    def __call__(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def input_grad(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# monotonicity verification
# ---------------------------------------------------------------------------

@dataclass
class MonotoneReport:
    """Outcome of the exact monotonicity certificate for one policy."""

    passed: bool
    clauses: dict
    eps: float

    def summary(self):
        lines = [f"monotone certificate: {'PASS' if self.passed else 'FAIL'}"]
        for name, (ok, witnesses) in self.clauses.items():
            mark = "ok " if ok else "FAIL"
            lines.append(f"  [{mark}] {name}")
            for w in witnesses[:5]:
                lines.append(f"        witness: {w}")
        return "\n".join(lines)


# slopes are compared against eps with a relative float-roundoff allowance
_SLOPE_RTOL = 1e-9


def verify_monotone(p):
    """Exact check of the deadband-controller contract for every bus.

    Each controller is linear between its sorted ramp kinks and band edges,
    so the values there and each piece's right-hand slope decide, on the
    whole real line: (a) exact zero on the band, (b) no piece rises, (c)
    slope <= -eps outside the band, (d) tail slopes >= eps in magnitude.
    Witnesses name buses by network id (bus 0 is the substation).
    """
    kinks = np.concatenate([-p.bplus, p.bminus], axis=1).T       # (2d, n)
    # a kink that overflowed to +-inf belongs to a ramp that never activates
    kinks = np.where(np.isfinite(kinks), kinks, p.v_upper)
    pts = np.sort(np.vstack([kinks, p.v_lower, p.v_upper]), axis=0)
    pts = np.vstack([np.nextafter(pts[0], -np.inf), pts])        # (2d+3, n)
    # values at far kinks may overflow; only in-band values and slopes count
    with np.errstate(over="ignore", invalid="ignore"):
        u = policy_eval(p, pts)
        du = policy_input_grad(p, pts)
    # piece k runs from lefts[k] to rights[k] with slope du[k]
    lefts = np.vstack([np.full(p.n, -np.inf), pts[1:]])
    rights = np.vstack([pts[1:], np.full(p.n, np.inf)])
    real = rights > lefts
    outside = (lefts < p.v_lower) | (lefts >= p.v_upper)
    tails = np.isinf(lefts) | np.isinf(rights)
    floor = p.eps * (1.0 - _SLOPE_RTOL)
    failing = {
        "zero_in_band": (pts >= p.v_lower) & (pts <= p.v_upper) & (u != 0.0),
        "nonincreasing": real & (du > 0.0),
        "strict_slope_outside": real & outside & (du > -floor),
        "unbounded_tails": tails & (np.abs(du) < floor),
    }
    clauses = {}
    for name, mask in failing.items():
        wit = [f"bus {b + 1}: u({pts[k, b]:.6f}) = {u[k, b]:.3e}, slope "
               f"{du[k, b]:.3e} on [{lefts[k, b]:.6f}, {rights[k, b]:.6f}]"
               for b, k in list(zip(*np.nonzero(mask.T)))[:10]]
        clauses[name] = (not wit, wit)
    passed = all(ok for ok, _ in clauses.values())
    return MonotoneReport(passed=passed, clauses=clauses, eps=p.eps)


# ---------------------------------------------------------------------------
# samplers and persistence
# ---------------------------------------------------------------------------

def sample_raw_params(n, d, rng, gain_range=(22.0, 26.0),
                      spacing_range=(0.004, 0.02), steepen=1.05, eps=1e-3):
    """Random controller family used for certification suites and training
    starts: droop-like gain near the band drawn from ``gain_range``,
    kinks packed just outside the band, modest steepening further out.

    Gains well below ~4 cannot pull the bundled feeder back inside a
    0.1-wide band within a 100-step horizon, and gains above ~27 make the
    0.1-step integrator ring divergently, so the default range brackets
    practical fast-recovery droop curves for this feeder scale.
    """
    def side():
        base = rng.uniform(*gain_range, size=(n, 1))
        growth = np.linspace(1.0, steepen, d)[None, :]
        target = base * growth
        slope_raw = np.log(np.expm1(np.maximum(target - eps, 1e-6)))
        spacing = rng.uniform(*spacing_range, size=(n, d))
        decr_raw = np.log(np.expm1(spacing))
        return slope_raw, decr_raw

    sp, dp = side()
    sn, dn = side()
    return RawPolicyParams(slope_pos=sp, decr_pos=dp, slope_neg=sn, decr_neg=dn)


CHECKPOINT_VERSION = 1


def save_checkpoint(path, raw, band, eps, meta=None):
    data = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "monotone",
        "eps": eps,
        "band": {"v_lower": list(map(float, band[0])),
                 "v_upper": list(map(float, band[1]))},
        "buses": [
            {
                "d": raw.d,
                "raw_slopes": [raw.slope_pos[i].tolist(),
                               raw.slope_neg[i].tolist()],
                "raw_bias_decrements": [raw.decr_pos[i].tolist(),
                                        raw.decr_neg[i].tolist()],
            }
            for i in range(raw.n)
        ],
    }
    if meta:
        data["meta"] = meta
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def load_checkpoint(path):
    """Load raw policy parameters, rebuild the constrained form, and refuse
    the file if the rebuilt controller fails its monotonicity certificate.
    """
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {data.get('format_version')!r}")
    try:
        buses = data["buses"]
        slope_pos = np.array([b["raw_slopes"][0] for b in buses], dtype=float)
        slope_neg = np.array([b["raw_slopes"][1] for b in buses], dtype=float)
        decr_pos = np.array([b["raw_bias_decrements"][0] for b in buses],
                            dtype=float)
        decr_neg = np.array([b["raw_bias_decrements"][1] for b in buses],
                            dtype=float)
        band = (np.array(data["band"]["v_lower"], dtype=float),
                np.array(data["band"]["v_upper"], dtype=float))
        eps = float(data["eps"])
        raw = RawPolicyParams(slope_pos=slope_pos, decr_pos=decr_pos,
                              slope_neg=slope_neg, decr_neg=decr_neg)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    try:
        params = constrain(raw, band, eps)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint parameters rejected: {exc}") from exc
    report = verify_monotone(params)
    if not report.passed:
        raise CheckpointError("checkpoint failed the monotonicity "
                              f"certificate:\n{report.summary()}")
    return raw, band, eps

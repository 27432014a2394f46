"""Monotone deadband policies built from stacked ReLU ramps.

Each bus gets a scalar controller u_i = g_i(v_i) that is exactly zero inside
the acceptable voltage band, strictly decreasing outside it, and unbounded as
the voltage runs away. The controller is the negated sum of two one-sided
ramp stacks: an ascending stack whose first kink sits on the upper band edge,
and its mirror image below the band. The lower stack is the upper stack's
construction read at -v, so one code path builds, evaluates and
differentiates both. The defining constraints (prefix sums of the ramp
weights bounded away from zero, ordered kink positions, pinned first kinks)
are enforced by reparameterization, so every point of the unconstrained
parameter space maps to a valid controller.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .util import clause_lines, json_floats


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
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=float)
            object.__setattr__(self, f.name, arr)
            if arr.shape != self.slope_pos.shape:
                raise ValueError("raw parameter arrays must share one shape")

    @property
    def n(self):
        return self.slope_pos.shape[0]

    @property
    def d(self):
        return self.slope_pos.shape[1]

    def arrays(self):
        """The four arrays in field order, which is also the order of
        ``policy_param_grad``'s gradients."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def copy(self):
        return RawPolicyParams(*(a.copy() for a in self.arrays()))


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


def _stack(raw_slope, raw_decr, edge, sign, eps):
    """Weights and biases of one stack of ramps w_l * max(x + b_l, 0): the
    upper one (x = v, sign +1, edge -v_upper) or the lower (x = -v, sign -1,
    edge v_lower). Its prefix sums carry ``sign``; its kinks step outward."""
    prefix = sign * (eps + softplus(raw_slope))      # used from column 1
    w = np.zeros(raw_slope.shape)
    w[:, 1] = prefix[:, 1]
    w[:, 2:] = prefix[:, 2:] - prefix[:, 1:-1]
    b = np.zeros(raw_slope.shape)
    b[:, 1] = edge
    # spacings near the float limit overflow, moving kinks to +-inf: ramps
    # that never activate, which verify_monotone allows for
    with np.errstate(over="ignore"):
        b[:, 2:] = edge[:, None] - np.cumsum(softplus(raw_decr[:, 2:]), axis=1)
    return w, b


def _stacks(p, v):
    """(x, weights, biases, sign) of the upper stack, then the lower one."""
    return ((v, p.wplus, p.bplus, 1.0), (-v, p.wminus, p.bminus, -1.0))


def _active(z, sign):
    """Ramps that count towards the right-hand slope at pre-activation z: an
    upper ramp from its kink on, a lower one (read at -v) only left of it."""
    return z >= 0.0 if sign > 0 else z > 0.0


def constrain(raw, band, eps=1e-3):
    """Map unconstrained parameters onto a valid monotone deadband controller.

    Prefix-sum slopes become eps + softplus(raw slope), so they are floored
    at eps no matter how negative the raw values go; kink positions start on
    the band edges and step outward by softplus(raw spacing).
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    v_lower, v_upper = (np.asarray(band[0], dtype=float),
                        np.asarray(band[1], dtype=float))
    for f in fields(raw):
        if not np.all(np.isfinite(getattr(raw, f.name))):
            raise ValueError(f"non-finite raw parameter in {f.name}")
    if raw.d < 2:
        raise ValueError(f"need at least 2 ramp units per side, got {raw.d}")
    if v_lower.shape != (raw.n,) or v_upper.shape != (raw.n,):
        raise ValueError("band arrays must have one entry per bus")
    wplus, bplus = _stack(raw.slope_pos, raw.decr_pos, -v_upper, 1.0, eps)
    wminus, bminus = _stack(raw.slope_neg, raw.decr_neg, v_lower, -1.0, eps)
    return StackedReluParams(wplus=wplus, bplus=bplus, wminus=wminus,
                             bminus=bminus, v_lower=v_lower, v_upper=v_upper,
                             eps=eps)


def policy_eval_bus(p, bus, v_values):
    """Controller output of a single bus over a 1-d batch of voltages."""
    v = np.atleast_1d(np.asarray(v_values, dtype=float))
    xi = [np.maximum(x[:, None] + b[bus][None, :], 0.0) @ w[bus]
          for x, w, b, _ in _stacks(p, v)]
    return -(xi[0] + xi[1])


def policy_eval(p, v):
    """Evaluate the controller: u = -(ascending stack + descending stack).

    Accepts v of shape (n,) or a batch (m, n); inside the band the output is
    exactly 0.0 because every active ramp term vanishes there.
    """
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    xi = [_ramp_sum(w, np.maximum(x[:, :, None] + b[None], 0.0))
          for x, w, b, _ in _stacks(p, vv)]
    u = -(xi[0] + xi[1])
    return u if batch else u[0]


def _ramp_sum(w, r):
    """One stack's weighted sum of its (m, n, d) ramp outputs r."""
    return np.einsum("nd,mnd->mn", w, r)


def policy_input_grad(p, v):
    """Slope du/dv per bus (right-hand derivative at kinks).

    Zero inside the band, at most -eps outside; the upper-edge kink itself
    reports the outside slope because the right-hand limit is used.
    """
    v = np.asarray(v, dtype=float)
    batch = v.ndim == 2
    vv = v if batch else v[None, :]
    dxi = [_ramp_sum(w, _active(x[:, :, None] + b[None], sign).astype(float))
           for x, w, b, sign in _stacks(p, vv)]
    g = -(dxi[0] - dxi[1])       # the lower stack's dx/dv is -1
    return g if batch else g[0]


def policy_param_grad(raw, band, eps, v):
    """Gradient of each bus's u_i with respect to that bus's raw parameters.

    ``v`` is one voltage vector (n,) or a batch (m, n); returns four arrays
    shaped (n, d) or (m, n, d), aligned with the raw fields. The chain rule
    runs through the reparameterization, so inert columns get zeros.
    """
    v = np.asarray(v, dtype=float)
    _, ramps = _ramp_pass(constrain(raw, band, eps), np.atleast_2d(v))
    grads = _ramp_grads(raw, ramps)
    return tuple(g[0] for g in grads) if v.ndim == 1 else grads


def _ramp_pass(p, v):
    """One pass of the controller ``p`` over an (m, n) block: the (m, n)
    actions, bit for bit ``policy_eval(p, v)``, and per stack the (m, n, d)
    ramp outputs and slopes of the active ramps that ``_ramp_grads`` maps."""
    xi, ramps = [], []
    for x, w, b, sign in _stacks(p, v[:, :, None]):
        z = x + b                                                # (m, n, d)
        r = np.maximum(z, 0.0)
        xi.append(_ramp_sum(w, r))
        ramps.append((r, w * _active(z, sign)))
    return -(xi[0] + xi[1]), ramps


def _ramp_grads(raw, ramps):
    """The four raw-parameter gradients from each stack's ``_ramp_pass``
    arrays, over any leading axes. The map is linear in those arrays, so
    their dQ/du-weighted batch means give the mean gradient."""
    raws = ((raw.slope_pos, raw.decr_pos), (raw.slope_neg, raw.decr_neg))
    grads = []
    for (raw_slope, raw_decr), sign, (r, wa) in zip(raws, (1.0, -1.0), ramps):
        # d xi / d prefix-sum_l telescopes to r_l - r_{l+1}; a prefix sum
        # moves with its raw slope times the stack's sign
        diff = r.copy()
        diff[..., :-1] -= r[..., 1:]
        g_slope = np.zeros(r.shape)
        g_slope[..., 1:] = -diff[..., 1:] * (sign * sigmoid(raw_slope[:, 1:]))
        # a spacing parameter shifts every later kink by -softplus'(raw)
        tail = np.cumsum(wa[..., ::-1], axis=-1)[..., ::-1]
        g_decr = np.zeros(r.shape)
        g_decr[..., 2:] = tail[..., 2:] * sigmoid(raw_decr[:, 2:])
        grads += [g_slope, g_decr]
    return tuple(grads)


def droop(band, gain):
    """The droop baseline as a two-ramp stack per bus: slope -gain outside
    the band, zero on it, so it is monotone with ``eps = gain``."""
    if not (np.isfinite(gain) and gain > 0):
        raise ValueError(f"droop gain must be finite and positive, got {gain}")
    v_lower, v_upper = (np.asarray(band[0], dtype=float),
                        np.asarray(band[1], dtype=float))
    zero = np.zeros_like(v_upper)
    return StackedReluParams(
        wplus=np.column_stack([zero, zero + gain]),
        bplus=np.column_stack([zero, -v_upper]),
        wminus=np.column_stack([zero, zero - gain]),
        bminus=np.column_stack([zero, v_lower]),
        v_lower=v_lower, v_upper=v_upper, eps=float(gain))


# ---------------------------------------------------------------------------
# policy wrappers
# ---------------------------------------------------------------------------

def _breakpoints(p, edges):
    """Every bus's sorted breakpoints with the controller's value and
    right-hand slope at each: (pts, u, du), each (2d + 1 + len(edges), n).

    The breakpoints are the ramp kinks and the ``edges`` (arrays of one
    voltage per bus). Row 0 sits one float left of the first breakpoint, so
    du[0] is the left tail's slope. Values at far kinks may overflow.
    """
    kinks = np.concatenate([-p.bplus, p.bminus], axis=1).T       # (2d, n)
    weights = np.concatenate([p.wplus, p.wminus], axis=1).T
    # a ramp of zero weight (column 0), or whose kink overflowed to +-inf,
    # never bends the controller: park its kink on the band edge
    kinks = np.where(np.isfinite(kinks) & (weights != 0.0), kinks, p.v_upper)
    pts = _sorted_rows([kinks, *edges])
    with np.errstate(over="ignore", invalid="ignore"):
        return pts, policy_eval(p, pts), policy_input_grad(p, pts)


def _sorted_rows(rows):
    """Per-bus sorted breakpoints under a row one float left of the first."""
    pts = np.sort(np.vstack(rows), axis=0)
    return np.vstack([np.nextafter(pts[0], -np.inf), pts])


class PieceTable:
    """The per-bus piecewise-linear policy of a piece list (pts, u, du)
    with the contract of ``_breakpoints`` and the ``band``'s edges among its
    breakpoints. On piece j, u = value[j] + slope[j] (v - at[j]), anchored
    at the end nearer the band, where a deadband controller's |u| is
    smaller, so the multiply-add never cancels. A breakpoint selects the
    piece anchored on it, so there u has the listed bits, and u is clipped
    between the piece's end values, so rounding never breaks monotonicity.
    A voltage finds its piece by one search, its rank among every bus's
    distinct breakpoints and their float successors (which tells v == p
    from v > p), then one read of its bus's dense map from rank to piece.
    Memory is O(n G) for G distinct breakpoints over all buses."""

    def __init__(self, pts, u, du, band):
        self.pieces = pts, u, du
        kinks, u = pts[1:], u[1:]                                # (K, n)
        n = kinks.shape[1]
        distinct = np.unique(kinks)
        # g < g+ <= next g, and v > g exactly when v >= g+, so a voltage's
        # rank counts the distinct breakpoints <= v plus those < v
        self.grid = np.column_stack(
            [distinct, np.nextafter(distinct, np.inf)]).ravel()
        # piece j runs from breakpoint j - 1 to breakpoint j (the tails to
        # -+inf) and starts once j breakpoints are passed: one at or below
        # the lower edge once v is beyond it, any other once v reaches it
        below = kinks <= band[0]
        passed = 1 + 2 * np.searchsorted(distinct, kinks) + below
        # the dense map: at bus i's rank r, the last piece that starts at a
        # rank <= r, as a row of the flat per-bus tables below
        self.offsets = np.arange(n) * (len(self.grid) + 1)
        starts = np.vstack([np.zeros(n, dtype=int), passed]) + self.offsets
        self.index = starts.T.ravel().searchsorted(
            np.arange(n * (len(self.grid) + 1)), side="right") - 1
        # a piece whose right end is at or below the lower edge is anchored
        # there, any other piece on its left end; rows -1 and K of the ends
        # are the tails' infinite ends
        right = np.vstack([below, np.zeros(n, dtype=bool)])       # (K+1, n)
        rows = np.arange(len(right))[:, None]
        anchor, far = rows - 1 + right, rows - right
        nan = np.full((1, n), np.nan)
        ends = [np.take_along_axis(np.vstack([nan, u, nan]), e + 1, axis=0)
                for e in (anchor, far)]
        # no clip at an infinite end or a far kink's NaN value
        free = np.isnan(ends[0]) | np.isnan(ends[1])
        tables = (np.take_along_axis(kinks, anchor, axis=0), ends[0], du,
                  np.where(free, -np.inf, np.fmin(*ends)),
                  np.where(free, np.inf, np.fmax(*ends)))
        (self.at, self.value, self.slope, self.lo,
         self.hi) = (t.T.ravel() for t in tables)

    def _piece(self, v):
        # each voltage's piece as a flat table row; NaN ranks after every
        # breakpoint and lands on the right tail
        return self.index[self.grid.searchsorted(v, "right") + self.offsets]

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        j = self._piece(v)
        u = self.value[j] + self.slope[j] * (v - self.at[j])
        np.maximum(u, self.lo[j], out=u)
        np.minimum(u, self.hi[j], out=u)
        return u

    def breakpoints(self, edges):
        """The table's pieces with the ``edges`` joined and valued by the
        table; edges that are breakpoints of every bus join nothing."""
        pts = self.pieces[0]
        edges = [e for e in edges if not (pts[1:] == e).any(axis=0).all()]
        if not edges:
            return self.pieces
        pts = _sorted_rows([pts[1:], *edges])
        # ranked as its float successor, a row finds the piece right of it
        rank = self.grid.searchsorted(pts, side="right")
        j = self.index[rank + rank % 2 + self.offsets]
        return pts, self(pts), self.slope[j]


class MonotonePolicy(PieceTable):
    """Constrained parameters acting as the table of their ``_breakpoints``
    with the band's edges: the function ``verify_monotone`` checks."""

    def __init__(self, params):
        self.params = p = params
        band = (p.v_lower, p.v_upper)
        super().__init__(*_breakpoints(p, band), band)

    @classmethod
    def from_raw(cls, raw, band, eps=1e-3):
        return cls(constrain(raw, band, eps))


def zero_policy(band):
    """No control: zero values and slopes on the band's edges (u = +0.0)."""
    pts = _sorted_rows(band)
    return PieceTable(pts, np.zeros_like(pts), np.zeros_like(pts), band)


# ---------------------------------------------------------------------------
# monotonicity verification
# ---------------------------------------------------------------------------

@dataclass
class MonotoneReport:
    """Outcome of the exact monotonicity certificate for one policy."""

    clauses: dict

    @property
    def passed(self):
        return all(ok for ok, _ in self.clauses.values())

    def summary(self):
        return "\n".join([f"monotone certificate: "
                          f"{'PASS' if self.passed else 'FAIL'}",
                          *clause_lines(self.clauses)])


# slopes are compared against eps with a relative float-roundoff allowance
_SLOPE_RTOL = 1e-9


def verify_monotone(p, eps=None):
    """Exact check of the deadband-controller contract for every bus.

    Each controller is linear between its sorted ramp kinks and band edges,
    so ``check_pieces`` decides its clauses on the whole real line, on the
    pieces its ``MonotonePolicy`` acts with, against the controller's own
    band. ``eps`` defaults to the controller's own.
    """
    eps = p.eps if eps is None else eps
    band = (p.v_lower, p.v_upper)
    pieces = MonotonePolicy(p).breakpoints(band)
    return MonotoneReport(check_pieces(*pieces, eps, band))


def check_pieces(pts, u, du, eps, band):
    """The deadband clauses of a piece table (pts, u, du) with the contract
    of ``_breakpoints``, on the whole real line: (a) exact zero on the
    ``band``, (b) no piece rises, (c) slope <= -eps outside the band, (d)
    tail slopes >= eps in magnitude. Returns {clause: (ok, witnesses)}: for
    at most 10 failing buses, by network id (bus 0 is the substation), the
    bus's first failing piece and how many fail."""
    v_lower, v_upper = band
    n = pts.shape[1]
    # only in-band values and slopes count; far values may have overflowed
    # piece k runs from lefts[k] to rights[k] with slope du[k]
    lefts = np.vstack([np.full(n, -np.inf), pts[1:]])
    rights = np.vstack([pts[1:], np.full(n, np.inf)])
    real = rights > lefts
    outside = (lefts < v_lower) | (lefts >= v_upper)
    tails = np.isinf(lefts) | np.isinf(rights)
    floor = eps * (1.0 - _SLOPE_RTOL)
    failing = {
        "zero_in_band": (pts >= v_lower) & (pts <= v_upper) & (u != 0.0),
        "nonincreasing": real & (du > 0.0),
        "strict_slope_outside": real & outside & (du > -floor),
        "unbounded_tails": tails & (np.abs(du) < floor),
    }
    clauses = {}
    for name, mask in failing.items():
        counts = mask.sum(axis=0)
        bad = np.flatnonzero(counts)[:10]
        wit = [f"bus {b + 1}: u({pts[k, b]:.6f}) = {u[k, b]:.3e}, slope "
               f"{du[k, b]:.3e} on [{lefts[k, b]:.6f}, {rights[k, b]:.6f}]"
               + (f" (first of {c} failing pieces)" if c > 1 else "")
               for b, k, c in zip(bad, mask.argmax(axis=0)[bad], counts[bad])]
        clauses[name] = (not wit, wit)
    return clauses


# ---------------------------------------------------------------------------
# samplers and persistence
# ---------------------------------------------------------------------------

def sample_raw_params(n, d, rng, gain_range=(22.0, 26.0), eps=1e-3):
    """Random controller family used for certification suites and training
    starts: droop-like gain near the band drawn from ``gain_range``,
    kinks packed 0.004-0.02 apart just outside the band, 5% steeper at
    the last ramp.

    Gains well below ~4 cannot pull the bundled feeder back inside a
    0.1-wide band within a 100-step horizon, and gains above ~27 make the
    0.1-step integrator ring divergently, so the default range brackets
    practical fast-recovery droop curves for this feeder scale.
    """
    def side():
        base = rng.uniform(*gain_range, size=(n, 1))
        growth = np.linspace(1.0, 1.05, d)[None, :]
        target = base * growth
        slope_raw = np.log(np.expm1(np.maximum(target - eps, 1e-6)))
        spacing = rng.uniform(0.004, 0.02, size=(n, d))
        decr_raw = np.log(np.expm1(spacing))
        return slope_raw, decr_raw

    sp, dp = side()
    sn, dn = side()
    return RawPolicyParams(slope_pos=sp, decr_pos=dp, slope_neg=sn, decr_neg=dn)


CHECKPOINT_VERSION = 1


def band_record(band):
    """The band as both checkpoint kinds store it: one list per edge."""
    return {"v_lower": list(map(float, band[0])),
            "v_upper": list(map(float, band[1]))}


def parse_band(record):
    """(v_lower, v_upper) arrays from a ``band_record``, refused unless they
    hold one finite pair of JSON numbers per bus, for at least one bus, with
    v_lower below v_upper."""
    lo, hi = json_floats(record["v_lower"]), json_floats(record["v_upper"])
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise CheckpointError(f"band has {lo.size} v_lower and {hi.size} "
                              "v_upper entries")
    if not lo.size:
        raise CheckpointError("band has no buses")
    for i in np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi))):
        raise CheckpointError(f"bus {i + 1} has a non-finite band edge")
    for i in np.flatnonzero(~(lo < hi)):
        raise CheckpointError(f"bus {i + 1} has v_lower = {lo[i]:g} "
                              f"not below v_upper = {hi[i]:g}")
    return lo, hi


def save_checkpoint(path, raw, band, eps, meta=None):
    data = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "monotone",
        "eps": eps,
        "band": band_record(band),
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
    raw, band, eps, _ = parse_checkpoint(data)
    return raw, band, eps


def parse_checkpoint(data):
    """``load_checkpoint`` on an already parsed file: returns (raw, band,
    eps, policy), where policy is the ``MonotonePolicy`` whose table passed
    the monotonicity certificate. A file without ``kind`` is monotone."""
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if data.get("kind", "monotone") != "monotone":
        raise CheckpointError(f"unknown checkpoint kind {data['kind']!r}")
    version = data.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    try:
        buses = data["buses"]
        # field order: each side's slopes, then its spacings
        raw = RawPolicyParams(*(
            json_floats([b[key][side] for b in buses])
            for side in (0, 1)
            for key in ("raw_slopes", "raw_bias_decrements")))
        band = parse_band(data["band"])
        eps = float(json_floats(data["eps"]))
        declared = [b["d"] for b in buses]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    try:
        params = constrain(raw, band, eps)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint parameters rejected: {exc}") from exc
    for i, d in enumerate(declared):
        if type(d) is not int or d != raw.d:     # a bool or 16.0 is no count
            raise CheckpointError(f"bus {i + 1} declares d = {d!r} but has "
                                  f"{raw.d} ramp units per side")
    pol = MonotonePolicy(params)
    report = MonotoneReport(check_pieces(*pol.breakpoints(band), eps, band))
    if not report.passed:
        raise CheckpointError("checkpoint failed the monotonicity "
                              f"certificate:\n{report.summary()}")
    return raw, band, eps, pol

"""Radial feeder model, voltage sensitivity matrices, and linear power flow."""

import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .util import json_float_at


class NetworkValidationError(ValueError):
    """Raised when a feeder description is not a valid rooted radial network."""


@dataclass(frozen=True)
class Bus:
    id: int
    v_lower: float = 0.95
    v_upper: float = 1.05


@dataclass(frozen=True)
class Line:
    parent: int
    child: int
    r: float
    x: float


@dataclass(frozen=True)
class RadialNetwork:
    """Tree-structured feeder rooted at the substation (bus 0).

    All impedances and voltages are per-unit; ``base_kv`` is only used when
    converting for display. Instances are immutable and safe to share across
    workers.
    """

    buses: tuple
    lines: tuple
    v0: float = 1.0
    base_kv: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        self._validate()

    @property
    def n(self):
        """Number of controllable buses (excludes the substation)."""
        return len(self.buses) - 1

    def _validate(self):
        ids = [b.id for b in self.buses]
        for i in ids + [e for ln in self.lines for e in (ln.parent, ln.child)]:
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise NetworkValidationError(
                    f"bus ids and line ends must be integers, got {i!r}")
        if len(ids) < 2:
            raise NetworkValidationError(
                "the network has no controllable bus (a bus other than 0)")
        if sorted(ids) != list(range(len(ids))):
            raise NetworkValidationError(
                f"bus ids must be 0..n without gaps, got {sorted(ids)}")
        if len(self.lines) != self.n:
            raise NetworkValidationError(
                f"a radial network with {self.n} buses needs exactly {self.n} "
                f"lines, got {len(self.lines)}")
        parent_of = {}
        for ln in self.lines:
            if not (0 < ln.r < np.inf and 0 < ln.x < np.inf):
                raise NetworkValidationError(
                    f"line {ln.parent}-{ln.child}: impedances must be positive "
                    f"and finite (r={ln.r}, x={ln.x})")
            if ln.child in parent_of:
                raise NetworkValidationError(
                    f"bus {ln.child} has more than one parent")
            if ln.child == 0:
                raise NetworkValidationError("substation bus 0 cannot be a child")
            parent_of[ln.child] = ln.parent
        # Walking parent pointers must reach bus 0 from every bus; a repeat
        # visit means the parent chain loops back on itself.
        for b in self.buses:
            if b.id == 0:
                continue
            seen, cur = set(), b.id
            while cur != 0:
                if cur in seen:
                    raise NetworkValidationError(f"cycle detected at bus {cur}")
                seen.add(cur)
                if cur not in parent_of:
                    raise NetworkValidationError(
                        f"bus {cur} is not connected to the substation")
                cur = parent_of[cur]
        for b in self.buses:
            if b.id == 0:
                continue
            if not (b.v_lower < self.v0 < b.v_upper
                    and np.isfinite([b.v_lower, b.v_upper]).all()):
                raise NetworkValidationError(
                    f"bus {b.id}: need finite v_lower < v0 < v_upper, got "
                    f"[{b.v_lower}, {b.v_upper}] around v0={self.v0}")

    def bounds(self):
        """Per-bus voltage band as two arrays indexed by bus id - 1."""
        order = sorted((b for b in self.buses if b.id != 0), key=lambda b: b.id)
        lo = np.array([b.v_lower for b in order])
        hi = np.array([b.v_upper for b in order])
        return lo, hi


@dataclass(frozen=True)
class SensitivityMatrices:
    """Voltage sensitivities to reactive (X) and active (R) injections."""

    X: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class BranchFlows:
    """Per-line active/reactive flows, aligned with ``network.lines``."""

    P: np.ndarray
    Q: np.ndarray


def _path_masks(network):
    """(n_lines, n) boolean array: entry (k, j) says line k lies on the
    substation-to-bus-(j+1) path. Equivalently, row k marks line k's subtree.
    """
    above = {ln.child: (k, ln.parent) for k, ln in enumerate(network.lines)}
    masks = np.zeros((len(network.lines), network.n), dtype=bool)
    for bus in range(1, network.n + 1):
        cur = bus
        while cur != 0:
            k, cur = above[cur]
            masks[k, bus - 1] = True
    return masks


def build_sensitivity(network):
    """Build the n-by-n voltage sensitivity matrices of a radial feeder.

    Entry (i, j) is twice the summed impedance of the lines shared by the
    substation-to-i and substation-to-j paths. Computed line by line: a line
    contributes to every bus pair whose buses both sit in its subtree.
    """
    masks = _path_masks(network).astype(float)
    x = np.array([ln.x for ln in network.lines])
    r = np.array([ln.r for ln in network.lines])
    X = 2.0 * masks.T @ (x[:, None] * masks)
    R = 2.0 * masks.T @ (r[:, None] * masks)
    return SensitivityMatrices(X=X, R=R)


def solve_distflow(network, p, q):
    """Solve the linearized branch-flow equations of a radial feeder.

    Accumulates line flows leaf-to-root (flow on the line above bus j carries
    the negated injection sum of j's subtree), then applies voltage drops
    root-to-leaf. Returns (BranchFlows, v) with v indexed by bus id - 1.
    """
    n = network.n
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"expected injection vectors of length {n}, "
                         f"got {p.shape} and {q.shape}")
    masks = _path_masks(network)
    P = -(masks @ p)
    Q = -(masks @ q)
    children = {}
    for k, ln in enumerate(network.lines):
        children.setdefault(ln.parent, []).append((k, ln))
    v = np.full(n, network.v0)
    frontier = [(0, network.v0)]
    while frontier:
        bus, v_bus = frontier.pop()
        for k, ln in children.get(bus, ()):
            v_child = v_bus - 2.0 * (ln.r * P[k] + ln.x * Q[k])
            v[ln.child - 1] = v_child
            frontier.append((ln.child, v_child))
    return BranchFlows(P=P, Q=Q), v


def check_positive_definite(m):
    """Return the minimum eigenvalue of a symmetric matrix.

    A positive return value certifies positive definiteness. Raises if the
    input is not square or deviates from symmetry by more than 1e-9.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise ValueError("matrix is not symmetric within tolerance 1e-09")
    sym = 0.5 * (m + m.T)
    return float(np.linalg.eigvalsh(sym)[0])


def generate_random_feeder(n, rng_seed=0, impedance_range=(0.01, 0.08)):
    """Random radial feeder with n controllable buses.

    Each new bus attaches to a uniformly chosen existing bus; r and x are
    drawn independently from ``impedance_range``. Deterministic per seed.
    """
    if n < 1:
        raise ValueError("need at least one bus")
    lo, hi = impedance_range
    if not (0.0 < lo < hi):
        raise ValueError(f"impedance range must satisfy 0 < lo < hi, "
                         f"got ({lo}, {hi})")
    rng = np.random.default_rng(rng_seed)
    buses = [Bus(id=0)]
    lines = []
    for child in range(1, n + 1):
        parent = int(rng.integers(0, child))
        r = float(rng.uniform(lo, hi))
        x = float(rng.uniform(lo, hi))
        buses.append(Bus(id=child))
        lines.append(Line(parent=parent, child=child, r=r, x=x))
    return RadialNetwork(buses=tuple(buses), lines=tuple(lines))


def five_bus_fixture():
    """Bundled 5-bus feeder: chain 0-1-2 with branches 2-3 and 2-4.

    Synthetic impedances r=0.02, x=0.05 p.u. on every line.
    """
    buses = tuple(Bus(id=i) for i in range(5))
    lines = (
        Line(0, 1, 0.02, 0.05),
        Line(1, 2, 0.02, 0.05),
        Line(2, 3, 0.02, 0.05),
        Line(2, 4, 0.02, 0.05),
    )
    return RadialNetwork(buses=buses, lines=lines)


_NETWORK_KEYS = {"base_kv", "v0", "buses", "lines"}
_BUS_KEYS = {"id", "v_lower", "v_upper"}
_LINE_KEYS = {"from", "to", "r", "x"}


def network_to_dict(network):
    return {
        "base_kv": network.base_kv,
        "v0": network.v0,
        "buses": [{"id": b.id, "v_lower": b.v_lower, "v_upper": b.v_upper}
                  for b in network.buses],
        "lines": [{"from": ln.parent, "to": ln.child, "r": ln.r, "x": ln.x}
                  for ln in network.lines],
    }


def _objects(data, field):
    """The list ``data[field]``, refused at its first entry that is not a
    JSON object."""
    for i, entry in enumerate(data[field]):
        if not isinstance(entry, dict):
            raise TypeError(f"{field}[{i}] is not a JSON object")
    return data[field]


def network_from_dict(data):
    """Build a RadialNetwork from its JSON form.

    Unknown keys are tolerated for forward compatibility but reported in the
    returned warning list (and emitted via ``warnings.warn``).
    """
    warn = []
    for key in data:
        if key not in _NETWORK_KEYS:
            warn.append(f"unknown network key {key!r}")
    buses = []
    for entry in _objects(data, "buses"):
        for key in entry:
            if key not in _BUS_KEYS:
                warn.append(f"unknown bus key {key!r} (bus {entry.get('id')})")
        where = f"bus {entry.get('id')}"
        band = {key: json_float_at(entry[key], f"{where} {key}")
                for key in ("v_lower", "v_upper") if key in entry}
        buses.append(Bus(id=entry["id"], **band))
    lines = []
    for entry in _objects(data, "lines"):
        for key in entry:
            if key not in _LINE_KEYS:
                warn.append(f"unknown line key {key!r} "
                            f"(line {entry.get('from')}-{entry.get('to')})")
        where = f"line {entry.get('from')}-{entry.get('to')}"
        r, x = (json_float_at(entry[key], f"{where} {key}")
                for key in ("r", "x"))
        lines.append(Line(parent=entry["from"], child=entry["to"], r=r, x=x))
    top = {key: json_float_at(data[key], key)
           for key in ("v0", "base_kv") if key in data}
    net = RadialNetwork(buses=tuple(buses), lines=tuple(lines), **top)
    for msg in warn:
        warnings.warn(msg, stacklevel=2)
    return net, warn


def save_network(network, path):
    with open(path, "w") as fh:
        json.dump(network_to_dict(network), fh, indent=2)


def load_network(path):
    with open(path) as fh:
        data = json.load(fh)
    return network_from_dict(data)

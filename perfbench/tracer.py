"""In-memory span tracer for calls into gridvolt's public functions.

The tracer replaces each target function with a wrapper at every gridvolt
module that holds a reference to it (``gridvolt.policy.constrain`` and
``gridvolt.rl.constrain`` alike), so calls between modules are seen too.
Methods such as ``rl.ReplayBuffer.sample`` are wrapped on their class.
Each call appends one span: target id, start, end and the index of the
enclosing span (-1 at the top). Nothing is written until the run ends.
"""

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Every function the per-layer metrics time, as "<module>.<name>".
TARGETS = (
    "rl.net_backprop", "rl.net_eval", "rl.q_action_grad", "rl.critic_update",
    "rl.stable_actor_update", "rl.net_actor_update", "rl.soft_update",
    "rl.ReplayBuffer.sample", "rl.ReplayBuffer.push", "rl.train",
    "policy.constrain", "policy.policy_param_grad", "policy.policy_eval_bus",
    "policy.policy_eval", "policy.verify_monotone", "policy.load_checkpoint",
    "dynamics.rollout", "dynamics.step", "dynamics.stage_cost",
    "dynamics.recovery_time", "dynamics.make_suite",
    "lyapunov.certify_policy", "lyapunov.krasovskii_value",
    "bench.evaluate", "bench.transient_cost", "bench.control_energy",
    "cli.cli_main",
    "grid.build_sensitivity", "grid.check_positive_definite",
    "grid.load_network",
)


def _gridvolt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gridvolt"
                                  or name.startswith("gridvolt."))]


class Tracer:
    """Records spans for ``TARGETS`` while ``active()`` is entered."""

    def __init__(self):
        self.targets = TARGETS
        self.ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = []
        self._patches = []

    def _wrap(self, idx, fn):
        ids, starts, ends, parents = (self.ids, self.starts, self.ends,
                                      self.parents)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ids)
            ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self):
        modules = _gridvolt_modules()
        for idx, target in enumerate(self.targets):
            mod_name, attr = target.split(".", 1)
            module = importlib.import_module(f"gridvolt.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(idx, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(idx, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

    def _uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def active(self):
        """Wrap the targets for the duration of the block, then restore."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _arrays(self):
        ids = np.frombuffer(self.ids, dtype=np.int32).copy()
        starts = np.frombuffer(self.starts, dtype=float).copy()
        ends = np.frombuffer(self.ends, dtype=float).copy()
        parents = np.frombuffer(self.parents, dtype=np.int64).copy()
        return ids, starts, ends, parents

    def layer_stats(self):
        """{target: (calls, self_ms)}; self time excludes child spans."""
        ids, starts, ends, parents = self._arrays()
        dur = ends - starts
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(ids, minlength=len(self.targets))
        self_tot = np.bincount(ids, weights=self_s,
                               minlength=len(self.targets))
        return {t: (int(calls[i]), float(self_tot[i]) * 1e3)
                for i, t in enumerate(self.targets)}

    def coverage(self, ops):
        """Share of each (start, end) operation covered by spans inside it.

        A span counts when it lies wholly inside the operation; spans that
        enclose the operation (``rl.train`` around an episode) do not.
        ``ops`` must be sorted and disjoint.
        """
        if not ops:
            return []
        op_start = np.array([s for s, _ in ops])
        op_end = np.array([e for _, e in ops])
        _, starts, ends, parents = self._arrays()
        j = np.searchsorted(op_start, starts, side="right") - 1
        inside = (j >= 0) & (ends <= op_end[np.maximum(j, 0)])
        has_parent = parents >= 0
        parent_inside = np.zeros(len(starts), dtype=bool)
        p = parents[has_parent]
        parent_inside[has_parent] = inside[p] & (j[p] == j[has_parent])
        top = inside & ~parent_inside
        covered = np.bincount(j[top], weights=(ends - starts)[top],
                              minlength=len(ops))
        return (covered / (op_end - op_start)).tolist()

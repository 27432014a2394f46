"""Small shared helpers: canonical config hashing, JSON number reading,
float formatting, certificate clause lines and the heap setting."""

import contextlib
import ctypes
import hashlib
import itertools
import json

import numpy as np


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, arrays listed, floats via repr."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not serializable: {type(o)!r}")

    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=default)


def config_hash(obj):
    """Short content hash of a configuration mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def json_floats(value):
    """``value``, JSON numbers nested in lists, as a float array. A bool,
    string or null in it raises a TypeError: numpy reads them as numbers
    (null as NaN), so a file holding one would load as another feeder,
    scenario or controller than the one saved."""
    out, items = np.array(value, dtype=float), [value]
    for _ in range(out.ndim):
        items = itertools.chain.from_iterable(items)
    odd = set(map(type, items)) - {int, float}
    if odd:
        raise TypeError("expected JSON numbers, got "
                        + ", ".join(sorted(t.__name__ for t in odd)))
    return out


def json_floats_at(value, where):
    """``json_floats(value)``, its refusal prefixed with ``where``."""
    try:
        return json_floats(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def json_float_at(value, where):
    """One JSON number as a float; a list is refused, named by ``where``."""
    out = json_floats_at(value, where)
    if out.ndim:
        raise TypeError(f"{where}: expected a JSON number, got a list")
    return float(out)


def fmt(x):
    """Render a float with 12 significant digits (stable across runs)."""
    return format(float(x), ".12g")


def clause_lines(clauses):
    """Certificate lines: one ``[ok ]``/``[FAIL]`` line per clause, each
    followed by its first five witnesses."""
    lines = []
    for name, (ok, witnesses) in clauses.items():
        lines.append(f"  [{'ok ' if ok else 'FAIL'}] {name}")
        lines += [f"        witness: {w}" for w in witnesses[:5]]
    return lines


def keep_freed_memory():
    """Keep what numpy frees mapped for the next arrays, in every thread's
    malloc arena (a no-op without glibc): glibc returns each freed block
    over 128 KB to the kernel and page-faults it back in on reuse. Blocks
    under 4 MB now come from the heap, trimmed only past 32 MB free."""
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)   # M_TRIM_THRESHOLD

"""A fixed reference computation that reads the machine's current speed.

The benchmark runs on a few cores of a shared host, where the speed of a
core drifts by a factor of two or more over minutes as other tenants
come and go.  :func:`reference` does the same work on every call and
uses nothing from ``src/``: a pure-Python part shaped like the
formulation build (many small objects, linked and walked in a scrambled
order, indexed by tuple keys) and a NumPy part shaped like the batch
simulation (dense products, element-wise maths, a gather from a table
larger than a core's private caches).  The benchmark times it between requests,
and reports request time in units of it, so the figures follow the
program and not the host.  It runs with the garbage collector off: it
makes no reference cycles, and a collection would walk the program's
heap and make the reading depend on it.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

__all__ = ["CHECKSUM", "reference", "timed_reference"]

_RNG = np.random.default_rng(20210101)
_MATRIX = _RNG.random((160, 160)) / 160
#: 16 MiB: past a core's private caches, as the program's heap is.
_TABLE = _RNG.random(2_000_000)
_PICKS = _RNG.integers(0, len(_TABLE), 1_000_000, dtype=np.int32)
_NODES = 25_000
_ORDER = [int(i) for i in _RNG.permutation(_NODES)]

#: What :func:`reference` returns; a different value means it did other
#: work than the one it is meant to time.
CHECKSUM = 99_994_500_476


def _python_part() -> int:
    # Build some 25 000 small objects, link them in a scrambled order and
    # walk the chain into a tuple-keyed dict, as the formulation build
    # creates and indexes its variables and rows.
    nodes = [[i, None, (i % 13, str(i))] for i in range(_NODES)]
    for a, b in zip(_ORDER, _ORDER[1:]):
        nodes[a][1] = nodes[b]
    rows: dict[tuple[int, str], int] = {}
    node, total = nodes[_ORDER[0]], 0
    while node is not None:
        rows[node[2]] = total
        total += node[0] % 7
        node = node[1]
    return total + len(rows)


def _numpy_part() -> int:
    x = _MATRIX
    for _ in range(30):
        x = np.tanh(x @ _MATRIX + 0.5)
    picked = _TABLE[_PICKS]
    return int(picked.sum()) + int(x.sum() > 0)


def reference() -> int:
    """Do the fixed work; returns :data:`CHECKSUM`."""
    return _python_part() * 1_000_000 + _numpy_part()


def timed_reference() -> float:
    """Wall seconds of one :func:`reference` call (checked)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        value = reference()
        wall = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError(f"reference returned {value}, expected {CHECKSUM}")
    return wall

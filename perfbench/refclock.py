"""Reference clock: times measured on a shared host, scaled to a fixed
host speed.

On a shared 4-core host the speed of one vCPU drifts by up to 2x, within
seconds and over minutes, with the load of other tenants (no steal time is
accounted: thread CPU time drifts exactly as wall time does). Raw medians of
20-40 s runs spread by 10-27% of their median from run to run, so a
regression of that size could not be told apart from the host.

Every timed call of the local workloads is therefore bracketed by probes:
a fixed Bron-Kerbosch pivot recursion over a fixed random 72-vertex bitset
graph, written here so that it shares no code with the program, and
interpreter-bound like the engine (big-int bit operations, recursion, list
appends). A call's reference time is its measured time times
``REF_PROBE_S`` over the mean duration of the probes on either side of it:
the seconds it would take on a host where one probe takes ``REF_PROBE_S``.
The raw times stay in the run record beside the scaled ones.
"""
from __future__ import annotations

import random
from time import perf_counter

# Nominal duration of ``probe``, about a typical one on the shared 4-core
# host the benchmark was written on, so reference seconds read like its.
REF_PROBE_S = 0.012

_N = 72
_rng = random.Random(20240601)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.45:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
del _u, _v, _rng


def _bk(p: int, x: int) -> int:
    """Number of maximal cliques under (P, X), Tomita pivoting."""
    if not p:
        return 0 if x else 1
    px = p | x
    pivot, best = 0, -1
    while px:
        low = px & -px
        u = low.bit_length() - 1
        n = bin(_ADJ[u] & p).count("1")
        if n > best:
            pivot, best = u, n
        px ^= low
    found = 0
    cand = p & ~_ADJ[pivot]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        found += _bk(p & _ADJ[v], x & _ADJ[v])
        p ^= low
        x |= low
        cand ^= low
    return found


_CLIQUES = _bk((1 << _N) - 1, 0)


def probe() -> float:
    """Seconds one fixed probe takes now."""
    t0 = perf_counter()
    if _bk((1 << _N) - 1, 0) != _CLIQUES:
        raise RuntimeError("reference probe miscounted")
    return perf_counter() - t0


class RefClock:
    """Times calls between probes. ``readings`` are the probe times so far;
    the last one closed the previous call, so consecutive calls share the
    probe between them."""

    def __init__(self):
        self.readings = [probe()]

    def restart(self) -> None:
        """Probe afresh, after untimed work since the last call."""
        self.readings.append(probe())

    def time(self, fn, *args, **kwargs):
        """``(result, raw seconds, reference seconds)`` of ``fn(*args, **kwargs)``."""
        before = self.readings[-1]
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        raw = perf_counter() - t0
        self.readings.append(probe())
        return out, raw, raw * REF_PROBE_S / ((before + self.readings[-1]) / 2)

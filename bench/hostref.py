"""A fixed stdlib-only task that measures how fast the host runs right now.

On a shared host the same Python work runs up to a third slower for minutes
at a time, and faster in bursts, in step for every workload of this
benchmark.  Readings of this reference, taken all through a run between the
timed operations, tell a slow host from a slow program: each timed set-up
and operation is scaled by NOMINAL_MS over the readings around it, so it
reads as it would on a host that runs one reading in NOMINAL_MS.

The task is greedy coloring of a fixed random graph with sets and lists, the
kind of interpreter work the package does.  It allocates little, runs with
the garbage collector paused, and shares no objects with the package, so a
change to the package cannot change what a reading measures.
"""

from __future__ import annotations

import gc
import random
import time

# about the median reading on a 2-core x86 VM (Intel Xeon, Python 3.11)
NOMINAL_MS = 4.4
# seconds of timed work between readings
INTERVAL_S = 0.1

_N = 400


def _graph():
    rng = random.Random("bench/hostref/")
    adj = [set() for _ in range(_N)]
    for _ in range(5 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


_ADJ = _graph()


def _color():
    seen = [set() for _ in range(_N)]
    color = [0] * _N
    for v in range(_N):
        forbidden = set()
        for u in _ADJ[v]:
            if color[u]:
                forbidden.add(color[u])
            if len(seen[u]) < 3:
                forbidden |= seen[u]
        c = 1
        while c in forbidden:
            c += 1
        color[v] = c
        for u in _ADJ[v]:
            seen[u].add(c)
    return color


def reading_ms():
    """Milliseconds for one reading: the coloring, done four times."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _color()
        return (time.perf_counter() - start) * 1e3
    finally:
        if paused:
            gc.enable()

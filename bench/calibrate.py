"""Machine-speed calibration, so that timings do not move with the load
that other tenants put on a shared host.

A chunk is a fixed piece of pure-Python work of the same kinds as the
package's (set and dict look-ups on a small graph, greedy colouring,
parsing ``u v`` lines, and a recursive backtracking search like the
exact deciders').  It shares no code with the package, so a change
to the package does not change it.  The workloads run chunks between
jobs; a timing divided by the median time of the chunks run around it,
times REF_CHUNK_S, reads in reference seconds: the time the work would
take on a machine where one chunk takes REF_CHUNK_S.

On a shared 2-core host, neighbours slowed both the jobs and the chunks
by 20-70% for spells of seconds to minutes, often longer than a run.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

# about a chunk's median time on a 2.0 GHz Xeon core; it only sets the
# scale of the reported figures
REF_CHUNK_S = 6e-4

_rng = random.Random(12345)
_N = 80
_ADJ = [set() for _ in range(_N)]
for _ in range(240):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_TEXT = "".join(f"{_rng.randrange(1000)} {_rng.randrange(1000)}\n" for _ in range(120))
_ORDER = sorted(range(_N), key=lambda x: -len(_ADJ[x]))
_SEARCH_N = 14
_SEARCH_ADJ = [[] for _ in range(_SEARCH_N)]
for _ in range(22):
    _u, _v = _rng.randrange(_SEARCH_N), _rng.randrange(_SEARCH_N)
    if _u != _v:
        _SEARCH_ADJ[_u].append(_v)
        _SEARCH_ADJ[_v].append(_u)
_SEARCH_CAP = 20


def _work() -> int:
    colour = {}
    for v in _ORDER:
        used = {colour[u] for u in _ADJ[v] if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    seen = {}
    for line in _TEXT.splitlines():
        a, b = map(int, line.split())
        key = (a, b) if a < b else (b, a)
        seen[key] = seen.get(key, 0) + 1
    return max(colour.values()) * 10_000 + len(seen) + _search()


def _search() -> int:
    """Proper 3-colourings of a fixed 14-vertex graph, counted by
    backtracking up to _SEARCH_CAP."""
    colour = [-1] * _SEARCH_N
    found = [0]

    def extend(v):
        if found[0] >= _SEARCH_CAP:
            return
        if v == _SEARCH_N:
            found[0] += 1
            return
        for c in range(3):
            if all(colour[u] != c for u in _SEARCH_ADJ[v]):
                colour[v] = c
                extend(v + 1)
                colour[v] = -1

    extend(0)
    return found[0]


def chunk() -> float:
    """Run one chunk and return its wall time in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def chunks(count: int) -> List[float]:
    return [chunk() for _ in range(count)]


def scale(chunk_times: List[float]) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REF_CHUNK_S / statistics.median(chunk_times)


"""A host-speed probe, so that wall times from a shared host compare.

On a shared 2-core host the speed of the same work moves by 15-25 %
from one second to the next, as other tenants come and go: over 20 s of
back-to-back runs of a 10 ms probe, one-second medians ranged from 7.2
to 9.8 ms.  A fixed piece of benchmark-owned work, timed right after
every request, tracks that speed where the request ran; each request's
wall is scaled by the median of the probes around it.

The probe mirrors the simulator's host cost: a tuple-path DFS in pure
Python plus NumPy indexing, counting and sorting.  Each half alone
follows some mixes poorly.  Over ten passes of ``sparse-wt-k3``, whose
Pre-BFS is NumPy-bound, the DFS half alone left the spread of a pass's
median request wall at 0.12 (IQR over median, as unscaled), and the
probe as a whole cut it to 0.06; on ``multipe-se-k4``, the whole probe
cut 0.12 to 0.03.

The probe shares no code with the program, so a change to the program
moves the scaled times as it moves the raw ones.  Its arrays are 64 KB
and it is warmed up before it is timed, so it follows the host, not
what the program just did: run right after Python allocation, NumPy
allocation or a 160 MB NumPy sweep, it moved by 2 % or less, where a
warmed-up gather from an 8 MB array moved by 25-28 %.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

_VERTICES = 300
_DEGREE = 6
_HOPS = 3
#: DFS roots of the timed run, and of the untimed warm-up before it.
_ROOTS = range(0, _VERTICES, 20)
_WARM_ROOTS = range(0, _VERTICES, 100)
#: NumPy rounds of the timed run and of the warm-up, over 64 KB arrays.
_ROUNDS = 6
_WARM_ROUNDS = 1
_SIZE = 1 << 14
#: probes on each side of a request that its scaling median spans.
WINDOW = 2


def _graph() -> list[list[int]]:
    rng = random.Random(7)
    return [[rng.randrange(_VERTICES) for _ in range(_DEGREE)]
            for _ in range(_VERTICES)]


_ADJ = _graph()
_TABLE, _START = np.random.default_rng(7).integers(
    0, _SIZE, (2, _SIZE), dtype=np.int32)


def _dfs(roots) -> int:
    found = 0
    for source in roots:
        stack = [(source,)]
        while stack:
            path = stack.pop()
            if len(path) > _HOPS:
                found += 1
                continue
            for u in _ADJ[path[-1]]:
                if u not in path:
                    stack.append(path + (u,))
    return found


def _numpy(rounds: int) -> int:
    x, top = _START, 0
    for _ in range(rounds):
        x = _TABLE[x]
        top += int(np.bincount(x & 1023, minlength=1024).max())
        x = np.concatenate((np.sort(x[:4096]), _START[4096:]))
    return top


def probe_ns() -> int:
    """Wall nanoseconds of one fixed unit of work (about 1.2 ms).

    A short untimed warm-up runs first, so the timed run finds its code
    and data in cache whatever the program did just before."""
    _dfs(_WARM_ROOTS)
    _numpy(_WARM_ROUNDS)
    start = time.perf_counter_ns()
    found = _dfs(_ROOTS)
    top = _numpy(_ROUNDS)
    elapsed = time.perf_counter_ns() - start
    if found == 0 or top == 0:
        raise AssertionError("probe did no work")
    return elapsed


def local_medians(samples: list[int], window: int = WINDOW) -> list[float]:
    """Each sample replaced by the median of the samples at most
    ``window`` places from it: the host speed around one request, with
    one stray probe outvoted by its neighbours."""
    return [statistics.median(samples[max(0, i - window):i + window + 1])
            for i in range(len(samples))]

"""Host-speed probe: a fixed pure-Python sparse elimination.

The benchmark host shares its physical machine, and its speed drifts by
tens of percent over minutes.  A run times the probe before its first
pass and after every pass, and scales its end-to-end times by
``REFERENCE_S / median probe seconds``, so a slow spell of the host
divides out.  The probe does the same kind of
work as the program's hot loops (dicts of dicts, sets, a heap, small
integer arithmetic), and it is frozen here so that no change to the
program can change it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

# Seconds the probe takes on the reference host (2-vCPU Xeon VM, Python
# 3.11) in a quiet spell; scaled times are seconds on that host.
REFERENCE_S = 0.5
SIZE = 700
PER_COLUMN = 5
PRIME = 32003
EXPECTED_RANK = 693  # of the seeded matrix below; checks the probe did its work


def eliminate(n=SIZE, per_col=PER_COLUMN, seed=7) -> int:
    """Rank mod PRIME of a seeded sparse n x n matrix, sparsest column first."""
    rng = random.Random(seed)
    rows, cols = {}, {}
    for c in range(n):
        for r in rng.sample(range(n), per_col):
            rows.setdefault(r, {})[c] = rng.randrange(1, PRIME)
            cols.setdefault(c, set()).add(r)
    heap = [(len(rs), c) for c, rs in cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        _, c = heapq.heappop(heap)
        if not cols.get(c):
            continue
        r = min(cols[c], key=lambda i: len(rows[i]))
        prow = rows.pop(r)
        inv = pow(prow[c], PRIME - 2, PRIME)
        for j in prow:
            cols[j].discard(r)
        for i in list(cols[c]):
            ri = rows[i]
            f = ri[c] * inv % PRIME
            for j, v in prow.items():
                nv = (ri.get(j, 0) - f * v) % PRIME
                if nv:
                    if j not in ri:
                        cols.setdefault(j, set()).add(i)
                    ri[j] = nv
                elif j in ri:
                    del ri[j]
                    cols[j].discard(i)
        del cols[c]
        rank += 1
        for j in prow:
            if cols.get(j):
                heapq.heappush(heap, (len(cols[j]), j))
    return rank


def seconds() -> float:
    """Time one probe; raise if it did not do its fixed work."""
    start = perf_counter()
    rank = eliminate()
    elapsed = perf_counter() - start
    if rank != EXPECTED_RANK:
        raise RuntimeError(f"probe rank {rank}, expected {EXPECTED_RANK}")
    return elapsed

"""The shortest-dipath kernel over CSR arrays.

One lazy-deletion binary-heap Dijkstra in plain Python, using ``heapq`` on
``(distance, node)`` tuples. It reads the CSR arrays through memoryviews,
which wrap them without a copy and index to Python scalars, and keeps its
working state in dicts and a set holding only the nodes the search reaches.
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import inf

import numpy as np

# Kept only because ``perfbench/bench.py`` records both in its provenance.
HAS_NUMBA = False


def resolve_backend() -> str:
    """How the kernel runs here: always ``"python"``."""
    return "python"


def dijkstra_arrays(indptr, indices, weights, source, goal):
    """Single-source search that stops at the first node it settles whose
    ``goal`` bit is set.

    Returns ``(dist, pred, found)``: unreached nodes keep ``inf`` / -1, and
    ``found`` is the settled goal node, or -1 when no goal is reachable.
    Nodes settle in (distance, node index) order and a predecessor is only
    overwritten on a strict improvement, so among goals of equal cost the
    one with the smallest index is found.
    """
    n = len(indptr) - 1
    out_dist = np.full(n, np.inf)
    out_pred = np.full(n, -1, dtype=np.int64)
    indptr, indices, weights, goal = map(memoryview, (indptr, indices, weights, goal))
    source = int(source)
    dist = {source: 0.0}
    pred = {}
    done = set()
    heap = [(0.0, source)]
    found = -1
    while heap:
        d, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        if goal[v]:
            found = v
            break
        for k in range(indptr[v], indptr[v + 1]):
            w = indices[k]
            if w in done:
                continue
            nd = d + weights[k]
            if nd < dist.get(w, inf):
                dist[w] = nd
                pred[w] = v
                heappush(heap, (nd, w))
    out_dist[list(dist)] = list(dist.values())
    out_pred[list(pred)] = list(pred.values())
    return out_dist, out_pred, found

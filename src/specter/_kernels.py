"""The shortest-dipath kernel over CSR arrays.

One binary-heap Dijkstra. It is compiled with numba when numba imports and
runs as plain Python on the same numpy arrays when it does not, so both
configurations return the same arrays by construction.
"""
from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]) and not kwargs:
            return args[0]
        return wrap


def resolve_backend() -> str:
    """How the kernel runs here: ``"numba"`` (compiled) or ``"python"``."""
    return "numba" if HAS_NUMBA else "python"


@njit(cache=True, nogil=True)
def dijkstra_arrays(indptr, indices, weights, source, goal):
    """Single-source search that stops at the first node it settles whose
    ``goal`` bit is set.

    Returns ``(dist, pred, found)``: unreached nodes keep ``inf`` / -1, and
    ``found`` is the settled goal node, or -1 when no goal is reachable.
    Nodes settle in (distance, node index) order and a predecessor is only
    overwritten on a strict improvement, so among goals of equal cost the
    one with the smallest index is found.
    """
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=np.bool_)
    # Lazy-deletion binary heap on (distance, node), lexicographic.
    cap = indices.shape[0] + 2
    heap_d = np.empty(cap, dtype=np.float64)
    heap_v = np.empty(cap, dtype=np.int64)
    heap_d[0] = 0.0
    heap_v[0] = source
    size = 1
    dist[source] = 0.0
    found = -1
    while size > 0:
        d0 = heap_d[0]
        v0 = heap_v[0]
        size -= 1
        heap_d[0] = heap_d[size]
        heap_v[0] = heap_v[size]
        i = 0
        while True:
            left = 2 * i + 1
            right = left + 1
            smallest = i
            if left < size and (
                heap_d[left] < heap_d[smallest]
                or (heap_d[left] == heap_d[smallest] and heap_v[left] < heap_v[smallest])
            ):
                smallest = left
            if right < size and (
                heap_d[right] < heap_d[smallest]
                or (heap_d[right] == heap_d[smallest] and heap_v[right] < heap_v[smallest])
            ):
                smallest = right
            if smallest == i:
                break
            heap_d[i], heap_d[smallest] = heap_d[smallest], heap_d[i]
            heap_v[i], heap_v[smallest] = heap_v[smallest], heap_v[i]
            i = smallest
        if done[v0]:
            continue
        done[v0] = True
        if goal[v0]:
            found = v0
            break
        for k in range(indptr[v0], indptr[v0 + 1]):
            w = indices[k]
            if done[w]:
                continue
            nd = d0 + weights[k]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = v0
                j = size
                heap_d[j] = nd
                heap_v[j] = w
                size += 1
                while j > 0:
                    parent = (j - 1) // 2
                    if heap_d[parent] > heap_d[j] or (
                        heap_d[parent] == heap_d[j] and heap_v[parent] > heap_v[j]
                    ):
                        heap_d[j], heap_d[parent] = heap_d[parent], heap_d[j]
                        heap_v[j], heap_v[parent] = heap_v[parent], heap_v[j]
                        j = parent
                    else:
                        break
    return dist, pred, found

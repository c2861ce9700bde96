"""State-level shortest-dipath search over a :class:`WeightedGraph`."""
from __future__ import annotations

import numpy as np

from ._kernels import dijkstra_arrays
from .errors import NoPath, UnknownState
from .graph import WeightedGraph
from .automata import State, state_str


def _node(g: WeightedGraph, x: State) -> int:
    try:
        return g.node_index[tuple(x)]
    except KeyError:
        raise UnknownState(f"{state_str(tuple(x))} is not a node of the graph") from None


def reconstruct(pred, source: int, target: int) -> list:
    """Walk predecessor indices back from ``target`` to ``source``."""
    path = [target]
    while path[-1] != source:
        p = int(pred[path[-1]])
        if p < 0:
            raise NoPath(f"no predecessor chain from node {target} to node {source}")
        path.append(p)
    path.reverse()
    return path


def dijkstra_indices(g: WeightedGraph, source: int, target: int):
    """Index-level search: returns ``(node index path, cost)`` or raises
    :class:`NoPath`."""
    goal = np.zeros(g.n_nodes, dtype=np.bool_)
    goal[target] = True
    dist, pred, found = dijkstra_arrays(g.indptr, g.indices, g.weights, source, goal)
    if found < 0:
        raise NoPath(f"node {target} unreachable from node {source}")
    return reconstruct(pred, source, target), float(dist[target])


def dijkstra(g: WeightedGraph, source: State, target: State):
    """Minimum-cost directed path between two states.

    Returns ``(path, cost)`` where ``path`` is the state sequence including
    both endpoints; ``cost`` is the sum of edge weights along it. Ties on path
    cost resolve toward smaller node indices.
    """
    s, t = _node(g, source), _node(g, target)
    idx_path, cost = dijkstra_indices(g, s, t)
    return [g.states[i] for i in idx_path], cost

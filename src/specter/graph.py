"""Weighted-digraph view of an environment model.

Node order is the sorted state list, so identical models index identically
across runs and processes; for an :class:`~specter.composer.EnvironmentModel`
that is its own node order. Edges live in CSR arrays (the kernel's native
layout), built from the model's edge arrays with one sort; a dense matrix is
available for small graphs. Parallel events between one ordered state pair
collapse to the cheapest event, ties broken by event id order (namespace,
then name).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .automata import EventId
from .composer import EnvironmentModel, edge_arrays


@dataclass(frozen=True)
class WeightedGraph:
    states: tuple  # node i is states[i]
    node_index: Mapping  # {State: int}
    indptr: np.ndarray  # int64, n_nodes + 1
    indices: np.ndarray  # int64, n_edges
    weights: np.ndarray  # float64, n_edges
    edge_event: np.ndarray  # int64, n_edges: index into events
    events: tuple  # sorted EventIds

    @property
    def n_nodes(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0])

    def edge(self, i: int, j: int) -> int:
        """Position of edge i -> j in ``indices``, -1 when there is none."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + self.indices[lo:hi].searchsorted(j)
        return int(k) if k < hi and self.indices[k] == j else -1

    def weight(self, i: int, j: int) -> float:
        """Edge weight, 0.0 when no edge exists."""
        k = self.edge(i, j)
        return float(self.weights[k]) if k >= 0 else 0.0

    def event(self, i: int, j: int) -> EventId:
        """The event the edge i -> j stands for, None when no edge exists."""
        k = self.edge(i, j)
        return self.events[self.edge_event[k]] if k >= 0 else None

    def to_dense(self, max_nodes: int = 2048) -> np.ndarray:
        """Dense adjacency matrix with 0 meaning no edge; small graphs only."""
        n = self.n_nodes
        if n > max_nodes:
            raise ValueError(f"{n} nodes is too large for a dense matrix (cap {max_nodes})")
        dense = np.zeros((n, n))
        for i in range(n):
            for k in range(self.indptr[i], self.indptr[i + 1]):
                dense[i, self.indices[k]] = self.weights[k]
        return dense


def to_graph(source) -> WeightedGraph:
    """Build the weighted digraph of an environment model or bare automaton."""
    if isinstance(source, EnvironmentModel):
        states, index, events = source.states, source.node_index, source.events
        costs, src, dst, event = source.event_costs, source.src, source.dst, source.event
    else:  # a bare automaton
        states = tuple(sorted(source.states))
        index = dict(zip(states, range(len(states))))
        events = tuple(sorted(source.events))
        costs = np.array([source.costs[e] for e in events], dtype=np.float64)
        src, dst, event = edge_arrays(source, index, events)

    # Rank events by (cost, event): the first edge of each (src, dst) run,
    # sorted by (src, dst, rank), is the one to keep.
    preference = np.empty(len(events), dtype=np.int64)
    preference[np.lexsort((np.arange(len(events)), costs))] = np.arange(len(events))
    order = np.lexsort((preference[event], dst, src))
    src, dst, event = src[order], dst[order], event[order]
    first = np.ones(src.shape[0], dtype=np.bool_)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])

    n = len(states)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[first], minlength=n), out=indptr[1:])
    event = event[first]
    return WeightedGraph(states, index, indptr, dst[first], costs[event], event, events)

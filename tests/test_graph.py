from __future__ import annotations

import numpy as np
from hypothesis import given

from specter.automata import make_nfa
from specter.graph import to_graph

from .conftest import arity1_nfas, ev


def test_single_edge():
    e1 = ev("R1", "e1")
    nfa = make_nfa(("R1",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 10})
    g = to_graph(nfa)
    i, j = g.node_index[("A",)], g.node_index[("B",)]
    assert g.weight(i, j) == 10.0
    assert g.event(i, j) == e1
    assert g.weight(j, i) == 0.0
    assert g.event(j, i) is None


def test_parallel_events_keep_minimum_cost():
    # Oracle: the edge weight between a pair is min over connecting events.
    e5, e3 = ev("R1", "slow"), ev("R1", "fast")
    nfa = make_nfa(
        ("R1",),
        [("A",), ("B",)],
        [e5, e3],
        {(("A",), e5): ("B",), (("A",), e3): ("B",)},
        {e5: 5, e3: 3},
    )
    g = to_graph(nfa)
    i, j = g.node_index[("A",)], g.node_index[("B",)]
    assert g.weight(i, j) == min(5.0, 3.0)
    assert g.event(i, j) == e3


def test_equal_cost_tie_breaks_on_event_id():
    ea, eb = ev("R1", "aa"), ev("R1", "zz")
    nfa = make_nfa(
        ("R1",),
        [("A",), ("B",)],
        [ea, eb],
        {(("A",), ea): ("B",), (("A",), eb): ("B",)},
        {ea: 4, eb: 4},
    )
    g = to_graph(nfa)
    assert g.event(g.node_index[("A",)], g.node_index[("B",)]) == ea


def test_node_order_is_sorted_states():
    e1 = ev("R1", "e1")
    nfa = make_nfa(("R1",), [("Z",), ("A",), ("M",)], [e1], {(("Z",), e1): ("A",)}, {e1: 1})
    g = to_graph(nfa)
    assert g.states == (("A",), ("M",), ("Z",))


@given(arity1_nfas())
def test_edge_count_bounded_by_events_and_weights_coherent(nfa):
    g = to_graph(nfa)
    assert g.n_edges <= len(nfa.transitions)
    # edge_event and weights describe exactly the same edge set.
    for i in range(g.n_nodes):
        for j in g.indices[g.indptr[i]:g.indptr[i + 1]]:
            assert g.weight(i, j) == nfa.costs[g.event(i, j)]
    assert len(g.edge_event) == g.n_edges
    assert g.indptr[-1] == g.n_edges
    assert np.all(g.weights > 0)


@given(arity1_nfas())
def test_dense_matches_sparse(nfa):
    g = to_graph(nfa)
    dense = g.to_dense()
    for i in range(g.n_nodes):
        for j in range(g.n_nodes):
            assert dense[i, j] == g.weight(i, j)


def test_to_dense_cap():
    import pytest

    gs_nfa = make_nfa(("s",), [(f"s{i}",) for i in range(5)], [], {}, {})
    g = to_graph(gs_nfa)
    with pytest.raises(ValueError):
        g.to_dense(max_nodes=3)

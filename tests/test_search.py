from __future__ import annotations

import numpy as np
import pytest

import specter._kernels as kernels
from specter._kernels import dijkstra_arrays
from specter.automata import make_nfa
from specter.composer import build_environment
from specter.errors import NoPath, UnknownState
from specter.graph import to_graph
from specter.oracle import brute_force_shortest, random_scenario
from specter.search import dijkstra

from .conftest import ev


def _line_graph():
    e1, e2 = ev("x", "e1"), ev("x", "e2")
    nfa = make_nfa(
        ("x",),
        [("A",), ("B",), ("C",), ("D",)],
        [e1, e2],
        {(("A",), e1): ("B",), (("B",), e2): ("C",)},
        {e1: 2, e2: 3},
    )
    return to_graph(nfa)


class TestDijkstra:
    def test_source_equals_target(self):
        g = _line_graph()
        path, cost = dijkstra(g, ("A",), ("A",))
        assert path == [("A",)]
        assert cost == 0.0

    def test_two_hops(self):
        g = _line_graph()
        path, cost = dijkstra(g, ("A",), ("C",))
        assert path == [("A",), ("B",), ("C",)]
        assert cost == 5.0

    def test_disconnected_target(self):
        g = _line_graph()
        with pytest.raises(NoPath):
            dijkstra(g, ("A",), ("D",))

    def test_unknown_state(self):
        g = _line_graph()
        with pytest.raises(UnknownState):
            dijkstra(g, ("A",), ("Z",))

    def test_agrees_with_relaxation_oracle(self):
        # Cross-validate against the independent exhaustive oracle on seeded
        # random models (integer costs, so equality is exact).
        for seed in range(120):
            gs = random_scenario(seed + 3000)
            env = build_environment(gs.agents, gs.inter)
            g = to_graph(env)
            x0 = gs.initial
            target = sorted(env.automaton.states)[seed % len(env.automaton.states)]
            try:
                path, cost = dijkstra(g, x0, target)
            except NoPath:
                with pytest.raises(NoPath):
                    brute_force_shortest(env, x0, lambda s: s == target)
                continue
            _, oracle_cost = brute_force_shortest(env, x0, lambda s: s == target)
            assert cost == oracle_cost
            # The returned path must be a real walk with the right total.
            walked = 0.0
            for u, v in zip(path, path[1:]):
                walked += g.weight(g.node_index[u], g.node_index[v])
            assert walked == cost


class TestKernel:
    def test_stops_at_first_settled_goal(self):
        g = _line_graph()
        goal = np.zeros(g.n_nodes, dtype=np.bool_)
        goal[[g.node_index[("B",)], g.node_index[("C",)]]] = True
        dist, pred, found = dijkstra_arrays(g.indptr, g.indices, g.weights, 0, goal)
        assert found == g.node_index[("B",)]
        assert dist[found] == 2.0
        assert np.isinf(dist[g.node_index[("C",)]])

    def test_no_reachable_goal(self):
        g = _line_graph()
        goal = np.zeros(g.n_nodes, dtype=np.bool_)
        goal[g.node_index[("D",)]] = True
        dist, pred, found = dijkstra_arrays(g.indptr, g.indices, g.weights, 0, goal)
        assert found == -1
        # With no goal reachable the whole component settles.
        assert list(dist) == [0.0, 2.0, 5.0, np.inf]
        assert list(pred) == [-1, 0, 1, -1]


def test_resolve_backend_reports_how_the_kernel_runs():
    assert kernels.resolve_backend() == "python"
    assert kernels.HAS_NUMBA is False

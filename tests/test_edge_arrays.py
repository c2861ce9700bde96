"""The edge-array composite against the dict algebra that specifies it.

Each model here is built twice: by ``build_environment``, which writes the
composite straight into edge arrays, and by folding the same agents through
``concat_many``, ``union_compat`` and ``subtract_compat``. The two must give
the same automaton, the same graph, the same failure injections and the same
artifact bytes.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from specter.algebra import concat_many, subtract_compat, union_compat
from specter.artifacts import dump_model, parse_model
from specter.automata import EventId, make_nfa, state_str
from specter.composer import (
    AgentSpec,
    EnvironmentModel,
    FailureEvent,
    InterAgentSpec,
    build_agent_capabilities,
    build_agent_constraints,
    build_environment,
    inject_failure,
)
from specter.errors import CostConflict, EventCollision, Incompatible, SpecterError
from specter.graph import to_graph
from specter.oracle import random_scenario
from specter.scenario import agent_specs, expand_inter_templates, inter_spec, parse_scenario

from .test_acceptance import _stress_specs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def spec_automaton(agents, inter=None):
    """The composite as the algebra defines it."""
    caps = concat_many(build_agent_capabilities(a) for a in agents)
    cons = concat_many(build_agent_constraints(a) for a in agents)
    if inter is not None and inter.capabilities is not None:
        caps = union_compat(caps, inter.capabilities)
    if inter is not None and inter.constraints is not None:
        cons = union_compat(cons, inter.constraints)
    return subtract_compat(caps, cons)


def reference_graph(a):
    """Sorted states and {(i, j): (cost, event)}: the cheapest event per
    ordered state pair, ties to the smaller EventId."""
    states = sorted(a.states)
    index = {s: i for i, s in enumerate(states)}
    best = {}
    for (x, e), y in a.transitions.items():
        key, candidate = (index[x], index[y]), (a.costs[e], e)
        if key not in best or candidate < best[key]:
            best[key] = candidate
    return states, best


def reference_dump(a, agent_ids, alphabets):
    """Format v1 written from the dict automaton."""
    states = sorted(a.states)
    state_index = {s: i for i, s in enumerate(states)}
    events = sorted(a.events)
    event_index = {e: i for i, e in enumerate(events)}
    transitions = sorted(
        (state_index[x], event_index[e], state_index[y]) for (x, e), y in a.transitions.items()
    )
    doc = {
        "format": "specter-model",
        "version": 1,
        "agents": list(agent_ids),
        "alphabets": [sorted(alpha) for alpha in alphabets],
        "states": [state_str(s) for s in states],
        "marked": sorted(state_index[s] for s in a.marked),
        "events": [{"event": str(e), "cost": a.costs[e]} for e in events],
        "transitions": [list(t) for t in transitions],
    }
    return json.dumps(doc, indent=1) + "\n"


def graph_edges(g):
    """{(i, j): (weight, event)} read from the CSR arrays; ``g.weight`` and
    ``g.event`` must agree on an even spread of up to 2 000 edges."""
    rows = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr)).tolist()
    edges = {
        (i, j): (w, g.events[k])
        for i, j, w, k in zip(rows, g.indices.tolist(), g.weights.tolist(), g.edge_event.tolist())
    }
    for (i, j), (w, e) in list(edges.items())[:: max(1, len(edges) // 2000)]:
        assert (g.weight(i, j), g.event(i, j)) == (w, e)
    return edges


def failures_of(agents, inter):
    """One failure per agent move pair, with and without its event, plus
    every inter-agent event."""
    out = []
    for a in agents:
        for (x, e), y in sorted(build_agent_capabilities(a).transitions.items()):
            out.append(FailureEvent(a.id, x[0], y[0]))
            out.append(FailureEvent(a.id, x[0], y[0], e))
    if inter is not None and inter.capabilities is not None:
        out += [FailureEvent("inter", event=e) for e in sorted(inter.capabilities.events)]
    return out


def check_against_spec(agents, inter=None, failures=None):
    env = build_environment(agents, inter)
    spec = spec_automaton(agents, inter)
    assert env.automaton == spec
    assert EnvironmentModel(spec, env.agent_ids, env.per_agent_alphabets) == env

    g, from_spec = to_graph(env), to_graph(spec)
    states, best = reference_graph(spec)
    assert g.states == tuple(states) == from_spec.states
    for name in ("indptr", "indices", "weights", "edge_event"):
        assert (getattr(g, name) == getattr(from_spec, name)).all(), name
    assert graph_edges(g) == best

    text = dump_model(env)
    assert text == reference_dump(spec, env.agent_ids, env.per_agent_alphabets)
    assert parse_model(text) == env

    for f in failures_of(agents, inter) if failures is None else failures:
        kept = {
            (x, e): y
            for (x, e), y in spec.transitions.items()
            if not _doomed(f, env.slot_of(f.agent_id) if f.agent_id != "inter" else None, x, e, y)
        }
        injected = inject_failure(env, f)
        assert injected.automaton.transitions == kept, f
        assert injected.automaton.marked == spec.marked
        assert injected.automaton.events == spec.events
    return env


def _doomed(f, slot, x, e, y):
    if f.agent_id == "inter":
        return e == f.event
    return (
        e.namespace == f.agent_id
        and x[slot] == f.source
        and y[slot] == f.target
        and (f.event is None or e == f.event)
    )


def test_random_scenarios_match_spec():
    for seed in range(300):
        gs = random_scenario(seed)
        check_against_spec(gs.agents, gs.inter)


@pytest.mark.parametrize("name", ["factory_cell", "workflow_small"])
def test_bundled_scenarios_match_spec(name):
    sc = expand_inter_templates(parse_scenario((SCENARIOS / f"{name}.json").read_text()))
    agents, inter = agent_specs(sc), inter_spec(sc)
    # A few failures of each kind stand for the rest: each one checked costs
    # a dict filter of the whole model.
    failures = failures_of(agents, None)[:8] + [
        FailureEvent("inter", event=e) for e in sorted(inter.capabilities.events)[:2]
    ]
    check_against_spec(agents, inter, failures)


def test_c8b_stress_model_matches_spec():
    agents = _stress_specs(n_agents=5, n_states=10, n_extra=2, seed=424242)
    env = check_against_spec(agents, failures=failures_of(agents, None)[:2])
    assert env.theta == len(env.automaton.states) == 100_000


def _agent(agent_id, edges, states=None, marked=None):
    """Single-slot automaton over {name: (src, dst, cost)}."""
    transitions, costs = {}, {}
    labels = set(states or ())
    for name, (src, dst, cost) in edges.items():
        e = EventId(agent_id, name)
        transitions[((src,), e)] = (dst,)
        costs[e] = cost
        labels |= {src, dst}
    return make_nfa((agent_id,), [(s,) for s in sorted(labels)], costs, transitions, costs, marked=marked)


def test_parallel_edges_rank_events_by_event_id_not_text():
    # g:z and g1:a join the same two states at the same cost. EventId order
    # puts namespace "g" before "g1"; as text, "g1:a" sorts before "g:z".
    g = AgentSpec("g", (_agent("g", {"z": ("A", "B", 4)}),))
    g1 = AgentSpec("g1", (_agent("g1", {}, states=["X"]),))
    e = EventId("g1", "a")
    inter = InterAgentSpec(
        capabilities=make_nfa(("g", "g1"), {("A", "X"), ("B", "X")}, [e], {(("A", "X"), e): ("B", "X")}, {e: 4})
    )
    env = check_against_spec([g, g1], inter)
    for graph in (to_graph(env), to_graph(env.automaton)):
        i, j = graph.node_index[("A", "X")], graph.node_index[("B", "X")]
        assert graph.event(i, j) == EventId("g", "z")
        assert graph.n_edges == 1


def test_constraint_markings_and_inter_constraints_match_spec():
    # Constraint automata that mark states unmark them in the composite;
    # an inter-agent constraint removes its event and unmarks its states.
    a = AgentSpec(
        "a",
        (_agent("a", {"go": ("P", "Q", 2), "back": ("Q", "P", 3)}),),
        constraints=(_agent("a", {"back": ("Q", "P", 3)}, marked=[("Q",)]),),
    )
    b = AgentSpec(
        "b",
        (_agent("b", {"up": ("X", "Y", 1), "down": ("Y", "X", 1)}),),
        constraints=(_agent("b", {}, states=["Y"], marked=[("Y",)]),),
    )
    sync, block = EventId("inter", "sync"), EventId("inter", "block")
    inter = InterAgentSpec(
        capabilities=make_nfa(
            ("a", "b"), {("P", "X"), ("Q", "Y")}, [sync, block],
            {(("P", "X"), sync): ("Q", "Y"), (("Q", "Y"), block): ("P", "X")}, {sync: 5, block: 5},
        ),
        constraints=make_nfa(
            ("a", "b"), {("Q", "Y"), ("P", "X")}, [block], {(("Q", "Y"), block): ("P", "X")}, {block: 5},
            marked=[("P", "X")],
        ),
    )
    env = check_against_spec([a, b], inter)
    assert block not in env.events
    assert not env.automaton.marked & {("Q", "Y"), ("P", "X")}


def _raises_like_spec(agents, inter):
    with pytest.raises(SpecterError) as spec_error:
        spec_automaton(agents, inter)
    with pytest.raises(SpecterError) as array_error:
        build_environment(agents, inter)
    assert type(array_error.value) is type(spec_error.value)
    assert str(array_error.value) == str(spec_error.value)
    return array_error.value


def test_composition_errors_match_spec():
    a = AgentSpec("a", (_agent("a", {"go": ("P", "Q", 2)}),))
    # Two agents that share an event cannot be interleaved.
    go = EventId("a", "go")
    clash = AgentSpec("b", (make_nfa(("b",), [("X",), ("Y",)], [go], {(("X",), go): ("Y",)}, {go: 2}),))
    assert isinstance(_raises_like_spec([a, clash], None), EventCollision)

    # An inter constraint naming an agent constraint event at another cost.
    b = AgentSpec("b", (_agent("b", {"up": ("X", "Y", 1)}),), constraints=(_agent("b", {"up": ("X", "Y", 1)}),))
    up = EventId("b", "up")
    dear = make_nfa(("a", "b"), {("P", "X"), ("P", "Y")}, [up], {(("P", "X"), up): ("P", "Y")}, {up: 9})
    a_cons = AgentSpec("a", a.capabilities, constraints=(_agent("a", {"go": ("P", "Q", 2)}),))
    assert isinstance(_raises_like_spec([a_cons, b], InterAgentSpec(constraints=dear)), CostConflict)

    # A constraint that moves a capability event between other states.
    twisted = AgentSpec("a", a.capabilities, constraints=(_agent("a", {"go": ("Q", "P", 2)}),))
    assert isinstance(_raises_like_spec([twisted, b], None), Incompatible)


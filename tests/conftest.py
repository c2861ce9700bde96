from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from specter.automata import EventId, make_nfa


def ev(namespace: str, name: str) -> EventId:
    return EventId(namespace, name)


@pytest.fixture
def two_state_nfa():
    """Minimal single-slot machine: A --e1--> B."""
    e1 = ev("R1", "e1")
    return make_nfa(
        slot_names=("R1",),
        states=[("A",), ("B",)],
        events=[e1],
        transitions={(("A",), e1): ("B",)},
        costs={e1: 10},
        marked=[("A",), ("B",)],
    )


@st.composite
def arity1_nfas(st_draw, slot: str = "a0", min_states: int = 2, max_states: int = 5):
    """Random single-slot automaton with uniquely named events (so endpoint
    patterns can never collide)."""
    n = st_draw(st.integers(min_states, max_states))
    labels = [f"s{i}" for i in range(n)]
    pairs = st_draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    transitions = {}
    costs = {}
    for i, (u, v) in enumerate(pairs):
        e = EventId(slot, f"e{i}")
        transitions[((u,), e)] = (v,)
        costs[e] = st_draw(st.integers(1, 100))
    return make_nfa(
        (slot,),
        [(label,) for label in labels],
        costs.keys(),
        transitions,
        costs,
    )


def random_arity1_nfa(rng: random.Random, slot: str, n_states: int, n_edges: int, *, prefix: str = "e"):
    """Seeded single-slot automaton builder for non-hypothesis sweeps."""
    labels = [f"s{i}" for i in range(n_states)]
    pairs = set()
    while len(pairs) < min(n_edges, n_states * n_states):
        pairs.add((rng.choice(labels), rng.choice(labels)))
    transitions = {}
    costs = {}
    for i, (u, v) in enumerate(sorted(pairs)):
        e = EventId(slot, f"{prefix}{i}")
        transitions[((u,), e)] = (v,)
        costs[e] = rng.randint(1, 100)
    return make_nfa((slot,), [(label,) for label in labels], costs.keys(), transitions, costs)


def _set(path, value):
    """A model-document mutation: put ``value`` at the key/index ``path``."""

    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value

    return mutate


def _extra_label(doc):
    doc["alphabets"][0].append("Zeta")


def _swap_first_states(doc):
    doc["states"][0], doc["states"][1] = doc["states"][1], doc["states"][0]


def _repeat_first(key):
    """A model-document mutation: append ``doc[key][0]`` again."""

    def mutate(doc):
        doc[key].append(doc[key][0])

    return mutate


def _repeat_event_at_other_cost(doc):
    first = doc["events"][0]
    doc["events"].append({**first, "cost": first["cost"] + 1})


# Defects a model artifact can carry; each must load as an ArtifactError.
MODEL_DEFECTS = {
    "string cost": _set(("events", 0, "cost"), "fast"),
    "list cost": _set(("events", 0, "cost"), [1]),
    "infinite cost": _set(("events", 0, "cost"), float("inf")),
    "cost beyond the float range": _set(("events", 0, "cost"), 10**400),
    "integer state": _set(("states", 0), 7),
    "extra alphabet label": _extra_label,
    "states out of product order": _swap_first_states,
    "negative state index": _set(("transitions", 0, 0), -1),
    "event index out of range": _set(("transitions", 0, 1), 10_000),
    "repeated event, equal cost": _repeat_first("events"),
    "repeated event, conflicting cost": _repeat_event_at_other_cost,
    "repeated marked index": _repeat_first("marked"),
    "repeated transition row": _repeat_first("transitions"),
}

"""Union, subtraction and concatenation over compatible automata.

These are not the textbook language operations: union merges state sets
instead of building a product, subtraction removes events while keeping every
state, and concatenation interleaves disjoint event sets over the product
state space with no synchronization. All three are closed over
:class:`~specter.automata.Epsilon0Nfa`; every result is rebuilt through
:func:`~specter.automata.make_nfa` so construction invariants hold by
construction.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Mapping

from .automata import Epsilon0Nfa, compare_signatures, make_nfa
from .errors import ArityMismatch, CostConflict, EventCollision, Incompatible, SlotCollision


def _require_same_slots(a: Epsilon0Nfa, b: Epsilon0Nfa, op: str) -> None:
    if a.slot_names != b.slot_names:
        raise ArityMismatch(
            f"{op} needs identical slot layouts, got {a.slot_names} and {b.slot_names}"
        )


def require_compatible(left: Mapping, right: Mapping, op: str) -> None:
    """Raise :class:`Incompatible` when two endpoint-pattern maps disagree on
    a shared event."""
    report = compare_signatures(left, right)
    if not report.ok:
        raise Incompatible(f"{op} operands are incompatible: {report}")


def union_compat(a: Epsilon0Nfa, b: Epsilon0Nfa) -> Epsilon0Nfa:
    """Merge two compatible automata: states, events, transitions and marked
    sets are unions; shared events must agree on cost."""
    _require_same_slots(a, b, "union")
    require_compatible(a.signatures, b.signatures, "union")
    for e in sorted(a.events & b.events):
        if a.costs[e] != b.costs[e]:
            raise CostConflict(f"event {e} costs {a.costs[e]} in one operand, {b.costs[e]} in the other")

    transitions = dict(a.transitions)
    transitions.update(b.transitions)
    costs = dict(a.costs)
    costs.update(b.costs)
    return make_nfa(
        a.slot_names,
        a.states | b.states,
        a.events | b.events,
        transitions,
        costs,
        marked=a.marked | b.marked,
    )


def subtract_compat(a: Epsilon0Nfa, b: Epsilon0Nfa) -> Epsilon0Nfa:
    """Remove ``b``'s events (and marked states) from ``a``.

    No state is ever removed, so states left without transitions simply become
    isolated.
    """
    _require_same_slots(a, b, "subtraction")
    require_compatible(a.signatures, b.signatures, "subtraction")
    surviving = a.events - b.events
    transitions = {(x, e): y for (x, e), y in a.transitions.items() if e in surviving}
    return make_nfa(
        a.slot_names,
        a.states,
        surviving,
        transitions,
        a.costs,  # make_nfa restricts the domain to the surviving events
        marked=a.marked - b.marked,
    )


def concat_compat(a: Epsilon0Nfa, b: Epsilon0Nfa) -> Epsilon0Nfa:
    """Interleave two automata over the product state space.

    Events must be disjoint (so no synchronization can occur); every
    transition of the result moves exactly one operand while the other's
    component rides along unchanged.
    """
    shared_events = a.events & b.events
    if shared_events:
        raise EventCollision(f"concatenation operands share events: {sorted(shared_events)}")
    shared_slots = set(a.slot_names) & set(b.slot_names)
    if shared_slots:
        raise SlotCollision(f"concatenation operands share slots: {sorted(shared_slots)}")

    transitions = {}
    for (u, e), u2 in a.transitions.items():
        for v in b.states:
            transitions[(u + v, e)] = u2 + v
    for (v, e), v2 in b.transitions.items():
        for u in a.states:
            transitions[(u + v, e)] = u + v2

    costs = dict(a.costs)
    costs.update(b.costs)
    return make_nfa(
        a.slot_names + b.slot_names,
        {u + v for u in a.states for v in b.states},
        a.events | b.events,
        transitions,
        costs,
        marked={u + v for u in a.marked for v in b.marked},
    )


def concat_many(automata: Iterable) -> Epsilon0Nfa:
    """Left fold of :func:`concat_compat`; slot order follows argument order."""
    automata = list(automata)
    if not automata:
        raise ValueError("need at least one automaton")
    return reduce(concat_compat, automata)

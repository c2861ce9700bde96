"""Core automaton types and queries.

States are tuples of atomic labels, one per agent slot. An automaton keeps its
virtual initial state implicit: every state is reachable from it by an epsilon
hop, so pinning a concrete initial state later (:func:`delta`) shares all maps
instead of copying them.

Each event is required to have a consistent *endpoint pattern*: every
transition it labels must change the same slots from the same source labels to
the same target labels (context slots are carried through unchanged). For
single-slot automata this is exactly "one event, one source/target pair"; for
composed automata it is the shape concatenation produces, one transition per
context state. The pattern makes the inverse transition a function and makes
compatibility checks a per-event lookup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    DanglingEndpoint,
    DuplicateEventEndpoints,
    LengthMismatch,
    MissingCost,
    NonPositiveCost,
    NoSuchTransition,
    SlotCollision,
    UnknownState,
)

State = tuple  # tuple[str, ...]: one atomic label per slot

LABEL_SEPARATOR = "|"

INTER_NAMESPACE = "inter"
VIRTUAL_NAMESPACE = "virtual"
RESERVED_NAMESPACES = frozenset({INTER_NAMESPACE, VIRTUAL_NAMESPACE})


def state_str(x: State) -> str:
    """Render a composite state for display, components joined by '|'."""
    return LABEL_SEPARATOR.join(x)


def parse_state(text: str) -> State:
    return tuple(text.split(LABEL_SEPARATOR))


@dataclass(frozen=True, order=True)
class EventId:
    """Globally unique event identifier, namespaced by the owning agent.

    The namespace is an agent id, ``"inter"`` for inter-agent events, or
    ``"virtual"`` for the task module's synthetic event. The hash is computed
    once, at construction: events key every transition map.
    """

    namespace: str
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.namespace, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not EventId:
            return NotImplemented
        return self._hash == other._hash and self.namespace == other.namespace and self.name == other.name

    def __reduce__(self):
        # The cached hash is only valid in the process that computed it.
        return (EventId, (self.namespace, self.name))

    def __str__(self) -> str:
        return f"{self.namespace}:{self.name}"

    @property
    def is_virtual(self) -> bool:
        return self.namespace == VIRTUAL_NAMESPACE

    @classmethod
    def parse(cls, text: str) -> "EventId":
        namespace, sep, name = text.partition(":")
        if not sep or not namespace or not name:
            raise ValueError(f"not an event id: {text!r}")
        return cls(namespace, name)


# Endpoint pattern of one event: ((slot name, source label, target label), ...)
# for each slot the event changes, in slot order. Empty for pure self-loops.
Signature = tuple


def _signature(slot_names: tuple, x: State, y: State) -> Signature:
    return tuple(
        (slot_names[i], x[i], y[i]) for i in range(len(x)) if x[i] != y[i]
    )


@dataclass(frozen=True)
class Epsilon0Nfa:
    """Automaton with an implicit virtual initial state.

    All fields are treated as immutable after construction; build instances
    through :func:`make_nfa`, which validates the invariants.
    """

    slot_names: tuple
    states: frozenset
    events: frozenset
    transitions: Mapping  # {(State, EventId): State}
    marked: frozenset
    costs: Mapping  # {EventId: float}

    @property
    def arity(self) -> int:
        return len(self.slot_names)

    @cached_property
    def slot_index(self) -> dict:
        return {name: i for i, name in enumerate(self.slot_names)}

    @cached_property
    def signatures(self) -> dict:
        """Endpoint pattern of each event that labels at least one transition."""
        sigs: dict = {}
        for (x, e), y in self.transitions.items():
            sig = _signature(self.slot_names, x, y)
            prev = sigs.setdefault(e, sig)
            if prev != sig:
                raise DuplicateEventEndpoints(
                    f"event {e} labels transitions with two endpoint patterns: "
                    f"{prev} and {sig}"
                )
        return sigs

    @cached_property
    def by_source(self) -> dict:
        """Active events per state: {State: tuple[EventId, ...]}."""
        out: dict = {}
        for (x, e), _ in self.transitions.items():
            out.setdefault(x, []).append(e)
        return {x: tuple(es) for x, es in out.items()}


@dataclass(frozen=True)
class Dfa(Epsilon0Nfa):
    """An :class:`Epsilon0Nfa` with the virtual state discarded and a concrete
    initial state designated."""

    initial: State


def _check_label(label, what: str) -> None:
    if not isinstance(label, str) or not label:
        raise ValueError(f"{what} must be a non-empty string, got {label!r}")
    if LABEL_SEPARATOR in label:
        raise ValueError(f"{what} {label!r} contains reserved separator {LABEL_SEPARATOR!r}")


def make_nfa(
    slot_names: Iterable,
    states: Iterable,
    events: Iterable,
    transitions: Mapping,
    costs: Mapping,
    marked: Iterable = None,
) -> Epsilon0Nfa:
    """Validate and build an automaton.

    ``marked=None`` marks every state. Cost entries for events outside
    ``events`` are dropped so the cost domain always equals the event set.
    """
    slot_names = tuple(slot_names)
    if len(set(slot_names)) != len(slot_names):
        raise SlotCollision(f"duplicate slot names in {slot_names}")
    for name in slot_names:
        _check_label(name, "slot name")

    arity = len(slot_names)
    state_set = frozenset(tuple(s) for s in states)
    for s in state_set:
        if len(s) != arity:
            raise DanglingEndpoint(f"state {s} has {len(s)} components, expected {arity}")
        for label in s:
            _check_label(label, "state label")

    event_set = frozenset(events)
    for e in event_set:
        if ":" in e.namespace:
            raise DanglingEndpoint(f"event namespace {e.namespace!r} contains ':'")

    transition_map = {(tuple(x), e): tuple(y) for (x, e), y in transitions.items()}
    for (x, e), y in transition_map.items():
        if x not in state_set:
            raise DanglingEndpoint(f"transition source {x} not in state set")
        if y not in state_set:
            raise DanglingEndpoint(f"transition target {y} not in state set")
        if e not in event_set:
            raise DanglingEndpoint(f"transition event {e} not in event set")

    cost_map = {}
    for e in event_set:
        if e not in costs:
            raise MissingCost(f"no cost for event {e}")
        value = float(costs[e])
        if not (value > 0 and math.isfinite(value)):
            raise NonPositiveCost(f"cost of {e} is {value}, must be finite and > 0")
        cost_map[e] = value

    if marked is None:
        marked_set = state_set
    else:
        marked_set = frozenset(tuple(s) for s in marked)
        stray = marked_set - state_set
        if stray:
            raise DanglingEndpoint(f"marked states not in state set: {sorted(stray)}")

    nfa = Epsilon0Nfa(slot_names, state_set, event_set, transition_map, marked_set, cost_map)
    nfa.signatures  # force endpoint-pattern validation now
    return nfa


def empty_nfa(slot_names: Iterable) -> Epsilon0Nfa:
    """The empty automaton: no states, no events. Identity for union and
    subtraction; absorbing for the state set under concatenation."""
    return make_nfa(slot_names, (), (), {}, {}, marked=())


def delta(nfa: Epsilon0Nfa, x0: State) -> Dfa:
    """Drop the virtual initial state and designate ``x0`` as initial.

    The result shares every map with ``nfa``; only the initial state is new.
    """
    x0 = tuple(x0)
    if x0 not in nfa.states:
        raise UnknownState(f"{state_str(x0)} is not a state of the automaton")
    dfa = Dfa(nfa.slot_names, nfa.states, nfa.events, nfa.transitions, nfa.marked, nfa.costs, x0)
    # Hand over lazily built indexes so delta stays O(1).
    for key in ("signatures", "by_source", "slot_index"):
        if key in nfa.__dict__:
            dfa.__dict__[key] = nfa.__dict__[key]
    return dfa


@dataclass(frozen=True)
class Projector:
    """Fixed-length bit vector selecting agent slots of a composite state."""

    bits: tuple  # tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_string(cls, text: str) -> "Projector":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"projector must be a non-empty 0/1 string, got {text!r}")
        return cls(tuple(c == "1" for c in text))

    @classmethod
    def from_slots(cls, slot_names: Iterable, selected: Iterable) -> "Projector":
        slot_names = tuple(slot_names)
        chosen = set(selected)
        unknown = chosen - set(slot_names)
        if unknown:
            raise ValueError(f"unknown slots {sorted(unknown)}; have {slot_names}")
        return cls(tuple(name in chosen for name in slot_names))

    def negate(self) -> "Projector":
        return Projector(tuple(not b for b in self.bits))

    @property
    def popcount(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def proj(x: State, b: Projector) -> State:
    """The ordered sub-tuple of ``x`` at the slots ``b`` selects."""
    x = tuple(x)
    if len(x) != len(b.bits):
        raise LengthMismatch(f"state has {len(x)} components, projector has {len(b.bits)} bits")
    return tuple(c for c, keep in zip(x, b.bits) if keep)


def merge_on(x: State, b: Projector, replacement: State) -> State:
    """``x`` with the slots selected by ``b`` replaced, in order, by
    ``replacement``. Inverse companion of :func:`proj`."""
    x = tuple(x)
    if len(x) != len(b.bits):
        raise LengthMismatch(f"state has {len(x)} components, projector has {len(b.bits)} bits")
    if len(replacement) != b.popcount:
        raise LengthMismatch(
            f"replacement has {len(replacement)} components, projector selects {b.popcount}"
        )
    it = iter(replacement)
    return tuple(next(it) if keep else c for c, keep in zip(x, b.bits))


def inverse_transition(a: Epsilon0Nfa, y: State, e: EventId) -> State:
    """The unique source ``x`` with ``(x, e) -> y``."""
    y = tuple(y)
    sig = a.signatures.get(e)
    if sig is None:
        raise NoSuchTransition(f"event {e} labels no transition")
    x = list(y)
    for slot, src, dst in sig:
        i = a.slot_index[slot]
        if y[i] != dst:
            raise NoSuchTransition(f"no transition by {e} into {state_str(y)}")
        x[i] = src
    x = tuple(x)
    if a.transitions.get((x, e)) != y:
        raise NoSuchTransition(f"no transition by {e} into {state_str(y)}")
    return x


def active_events(a: Epsilon0Nfa, x: State) -> frozenset:
    """Events enabled at ``x``."""
    x = tuple(x)
    if x not in a.states:
        raise UnknownState(f"{state_str(x)} is not a state of the automaton")
    return frozenset(a.by_source.get(x, ()))


def replay(a: Epsilon0Nfa, x0: State, events: Iterable) -> State:
    """Run a word through the transition function, returning the end state."""
    x = tuple(x0)
    if x not in a.states:
        raise UnknownState(f"{state_str(x)} is not a state of the automaton")
    for e in events:
        y = a.transitions.get((x, e))
        if y is None:
            raise NoSuchTransition(f"{e} is not active at {state_str(x)}")
        x = y
    return x


@dataclass(frozen=True)
class EndpointConflict:
    """One shared event whose endpoint patterns disagree between two automata."""

    event: EventId
    left: Signature
    right: Signature

    def __str__(self) -> str:
        return f"{self.event}: {self.left} != {self.right}"


@dataclass(frozen=True)
class CompatibilityReport:
    conflicts: tuple

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def __str__(self) -> str:
        if self.ok:
            return "compatible"
        return "incompatible: " + "; ".join(str(c) for c in self.conflicts)


def check_compatible(a: Epsilon0Nfa, b: Epsilon0Nfa) -> CompatibilityReport:
    """Report every shared event whose endpoints differ between ``a`` and ``b``.

    Shared events that label no transition on one side have nothing to
    disagree about and are compatible vacuously.
    """
    return compare_signatures(a.signatures, b.signatures)


def compare_signatures(left: Mapping, right: Mapping) -> CompatibilityReport:
    """Report every event in both endpoint-pattern maps (``{EventId:
    Signature}``) whose patterns differ."""
    return CompatibilityReport(
        tuple(
            EndpointConflict(e, left[e], right[e])
            for e in sorted(left.keys() & right.keys())
            if left[e] != right[e]
        )
    )

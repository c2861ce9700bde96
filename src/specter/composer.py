"""Compose agent declarations into the global environment model.

An agent contributes capability automata (what it can do), failure automata
(detected broken transitions) and constraint automata (what it must not do),
all single-slot. The environment interleaves every agent's capabilities,
merges in inter-agent capabilities authored over full composite states, and
subtracts the union of all constraints. Detected failures can also be carved
out of an already-built model without recomposing it.

Each agent's automata are combined with the algebra of
:mod:`specter.algebra`, which stays the specification of the composite too.
The composite itself is never built as a dict: its states are the product of
the sorted agent alphabets, so a node is the mixed-radix number of its slot
codes, and :class:`EnvironmentModel` holds the transitions as edge arrays
that :func:`build_environment` computes by stride arithmetic and
:func:`inject_failure` filters with one mask. The dict-level automaton is a
view, built on first access.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .algebra import require_compatible, subtract_compat, union_compat
from .automata import (
    INTER_NAMESPACE,
    RESERVED_NAMESPACES,
    Epsilon0Nfa,
    EventId,
    State,
    empty_nfa,
    state_str,
)
from .errors import (
    ArityMismatch,
    CostConflict,
    EventCollision,
    LiftError,
    SlotCollision,
    UnknownAgent,
    UnknownState,
)


@dataclass(frozen=True)
class AgentSpec:
    """Declarative bundle of one agent's automata, all single-slot and
    namespaced by the agent id."""

    id: str
    capabilities: tuple
    failures: tuple = ()
    constraints: tuple = ()

    def __post_init__(self):
        if not self.id or self.id in RESERVED_NAMESPACES:
            raise ValueError(f"invalid agent id {self.id!r}")
        object.__setattr__(self, "capabilities", tuple(self.capabilities))
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.capabilities:
            raise ValueError(f"agent {self.id!r} declares no capabilities")
        for nfa in self.capabilities + self.failures + self.constraints:
            if nfa.slot_names != (self.id,):
                raise ArityMismatch(
                    f"agent {self.id!r} automaton has slots {nfa.slot_names}, expected ({self.id!r},)"
                )
        for f in self.failures:
            _check_failure_shape(self.id, f)

    @property
    def alphabet(self) -> frozenset:
        """Atomic state labels this agent can occupy."""
        return frozenset(s[0] for nfa in self.capabilities for s in nfa.states)


def _check_failure_shape(agent_id: str, f: Epsilon0Nfa) -> None:
    if len(f.events) != 1 or len(f.transitions) != 1:
        raise ValueError(
            f"agent {agent_id!r} failure automaton must hold exactly one event "
            f"and one transition, got {len(f.events)} events, {len(f.transitions)} transitions"
        )
    ((x, _), y) = next(iter(f.transitions.items()))
    if f.states != {x, y}:
        raise ValueError(
            f"agent {agent_id!r} failure automaton states must be exactly the "
            f"failed transition's endpoints"
        )


@dataclass(frozen=True)
class InterAgentSpec:
    """Capabilities and constraints spanning several agents, authored directly
    over full-arity composite states (one uniquely named event per context)."""

    capabilities: Epsilon0Nfa = None
    constraints: Epsilon0Nfa = None

    @property
    def member_ids(self) -> tuple:
        """Agents whose component any inter event actually moves, in slot order."""
        touched = set()
        for nfa in (self.capabilities, self.constraints):
            if nfa is None:
                continue
            for sig in nfa.signatures.values():
                touched.update(slot for slot, _, _ in sig)
        for nfa in (self.capabilities, self.constraints):
            if nfa is not None:
                return tuple(s for s in nfa.slot_names if s in touched)
        return ()


class EnvironmentModel:
    """The composed global automaton as edge arrays, plus its agent-slot
    metadata.

    Nodes are the states of the product of the sorted agent alphabets, in
    order, which is also sorted state order: node *i* is the mixed-radix
    number of its slot codes, slot 0 most significant, and ``strides[k]`` is
    the weight of slot *k*. The core is read-only:

    - ``src``, ``dst``: int64 node indices, one entry per transition;
    - ``event``: int64 index of each transition's event into ``events``;
    - ``events``: the sorted event tuple, with ``event_costs`` aligned to it;
    - ``marked``: bool mask over nodes.

    ``EnvironmentModel(automaton, agent_ids, per_agent_alphabets)`` reads an
    automaton whose states are exactly that product. ``automaton`` is the
    same model as an :class:`~specter.automata.Epsilon0Nfa`, built on first
    access and then cached.
    """

    def __init__(self, automaton: Epsilon0Nfa, agent_ids, per_agent_alphabets):
        self._set_slots(agent_ids, per_agent_alphabets)
        if automaton.slot_names != self.agent_ids:
            raise ArityMismatch(f"automaton has slots {automaton.slot_names}, expected {self.agent_ids}")
        index = self.node_index
        if len(automaton.states) != len(index) or not all(s in index for s in automaton.states):
            raise LiftError("the automaton's states are not the product of the agent alphabets")
        events = tuple(sorted(automaton.events))
        src, dst, event = edge_arrays(automaton, index, events)
        costs = np.array([automaton.costs[e] for e in events], dtype=np.float64)
        marked = np.fromiter((s in automaton.marked for s in self.states), np.bool_, len(index))
        self._set_core(events, costs, src, dst, event, marked)
        self.__dict__["automaton"] = automaton

    @classmethod
    def _from_edges(cls, agent_ids, per_agent_alphabets, events, event_costs, src, dst, event, marked):
        env = cls.__new__(cls)
        env._set_slots(agent_ids, per_agent_alphabets)
        env._set_core(events, event_costs, src, dst, event, marked)
        return env

    def _set_slots(self, agent_ids, per_agent_alphabets) -> None:
        self.agent_ids = tuple(agent_ids)
        self.per_agent_alphabets = tuple(frozenset(a) for a in per_agent_alphabets)
        if len(self.agent_ids) != len(self.per_agent_alphabets):
            raise ArityMismatch(
                f"{len(self.agent_ids)} agents but {len(self.per_agent_alphabets)} alphabets"
            )
        self.labels, self.label_codes, self.strides = _layout(self.per_agent_alphabets)

    def _set_core(self, events, event_costs, src, dst, event, marked) -> None:
        self.events = tuple(events)
        self.event_costs = _frozen(event_costs, np.float64)
        self.src = _frozen(src, np.int64)
        self.dst = _frozen(dst, np.int64)
        self.event = _frozen(event, np.int64)
        self.marked = _frozen(marked, np.bool_)

    def _keep_edges(self, keep: np.ndarray) -> "EnvironmentModel":
        """The same model with only the transitions ``keep`` selects; the node
        tables already built are shared."""
        out = EnvironmentModel._from_edges(
            self.agent_ids, self.per_agent_alphabets, self.events, self.event_costs,
            self.src[keep], self.dst[keep], self.event[keep], self.marked,
        )
        for key in ("states", "node_index"):
            if key in self.__dict__:
                out.__dict__[key] = self.__dict__[key]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvironmentModel):
            return NotImplemented
        return (
            self.agent_ids == other.agent_ids
            and self.per_agent_alphabets == other.per_agent_alphabets
            and self.events == other.events
            and np.array_equal(self.event_costs, other.event_costs)
            and np.array_equal(self.marked, other.marked)
            and np.array_equal(self.transition_table(), other.transition_table())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"EnvironmentModel(agents={self.agent_ids}, states={self.theta}, "
            f"transitions={self.n_transitions})"
        )

    @property
    def n_transitions(self) -> int:
        return int(self.src.shape[0])

    def transition_table(self) -> np.ndarray:
        """Rows of (source node, event index, target node), sorted."""
        order = np.lexsort((self.dst, self.event, self.src))
        return np.stack((self.src[order], self.event[order], self.dst[order]), axis=1)

    @cached_property
    def states(self) -> tuple:
        """Node *i*'s composite state is ``states[i]``."""
        return tuple(itertools.product(*self.labels))

    @cached_property
    def node_index(self) -> dict:
        return dict(zip(self.states, range(self.theta)))

    def node_of(self, x: State) -> int:
        """Node index of a composite state, by its slot codes."""
        x = tuple(x)
        if len(x) == len(self.labels):
            try:
                return _node(self.label_codes, self.strides, x)
            except (KeyError, TypeError):
                pass
        raise UnknownState(f"{state_str(tuple(map(str, x)))} is not a state of the model")

    @cached_property
    def automaton(self) -> Epsilon0Nfa:
        """The model as an automaton, equal to what the algebra composes."""
        states = self.states
        events = self.events
        transitions = {
            (states[i], events[k]): states[j]
            for i, k, j in zip(self.src.tolist(), self.event.tolist(), self.dst.tolist())
        }
        marked = frozenset(states[i] for i in np.flatnonzero(self.marked).tolist())
        return Epsilon0Nfa(
            self.agent_ids,
            frozenset(states),
            frozenset(events),
            transitions,
            marked,
            dict(zip(events, self.event_costs.tolist())),
        )

    def slot_of(self, agent_id: str) -> int:
        try:
            return self.agent_ids.index(agent_id)
        except ValueError:
            raise UnknownAgent(f"no agent {agent_id!r}; have {self.agent_ids}") from None

    @property
    def theta(self) -> int:
        """State-count law value: the product of the agent alphabet sizes."""
        return math.prod(len(a) for a in self.per_agent_alphabets)

    def theta_prime(self, agent_id: str) -> int:
        """Worst-case transitions touched when failing one agent's transition."""
        slot = self.slot_of(agent_id)
        return math.prod(
            len(a) for i, a in enumerate(self.per_agent_alphabets) if i != slot
        )


def _layout(alphabets) -> tuple:
    """Sorted labels, label-to-code maps and strides of the product of the
    alphabets, slot 0 most significant."""
    labels = tuple(tuple(sorted(a)) for a in alphabets)
    codes = tuple({label: c for c, label in enumerate(ls)} for ls in labels)
    sizes = [len(ls) for ls in labels]
    return labels, codes, tuple(math.prod(sizes[k + 1:]) for k in range(len(sizes)))


def _node(codes, strides, x: State) -> int:
    return sum(c[label] * stride for c, label, stride in zip(codes, x, strides))


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def edge_arrays(a: Epsilon0Nfa, node_index, events) -> tuple:
    """``(src, dst, event)`` int64 arrays of an automaton's transitions:
    node indices through ``node_index``, event indices into ``events``."""
    rank = {e: k for k, e in enumerate(events)}
    t = a.transitions
    m = len(t)
    src = np.fromiter((node_index[x] for x, _ in t), np.int64, m)
    dst = np.fromiter((node_index[y] for y in t.values()), np.int64, m)
    event = np.fromiter((rank[e] for _, e in t), np.int64, m)
    return src, dst, event


@dataclass(frozen=True)
class FailureEvent:
    """A detected infeasible transition of one agent.

    ``agent_id`` may be ``"inter"``, in which case ``event`` must be given and
    ``source``/``target`` are ignored.
    """

    agent_id: str
    source: str = None
    target: str = None
    event: EventId = None


def build_agent_capabilities(spec: AgentSpec) -> Epsilon0Nfa:
    """Union of the agent's capability automata minus its failure automata."""
    caps = reduce(union_compat, spec.capabilities)
    if spec.failures:
        caps = subtract_compat(caps, reduce(union_compat, spec.failures))
    return caps


def build_agent_constraints(spec: AgentSpec) -> Epsilon0Nfa:
    """Union of the agent's constraint automata; empty when it has none."""
    if not spec.constraints:
        return empty_nfa((spec.id,))
    return reduce(union_compat, spec.constraints)


def build_agent(spec: AgentSpec) -> Epsilon0Nfa:
    """The agent model: capabilities minus constraints."""
    return subtract_compat(build_agent_capabilities(spec), build_agent_constraints(spec))


def _check_lifted(nfa: Epsilon0Nfa, slots: tuple, alphabets: Sequence, what: str) -> None:
    if nfa.slot_names != slots:
        raise LiftError(f"{what} automaton has slots {nfa.slot_names}, expected {slots}")
    for s in nfa.states:
        for i, label in enumerate(s):
            if label not in alphabets[i]:
                raise LiftError(
                    f"{what} automaton references {label!r}, unknown for agent {slots[i]!r}"
                )


def _disjoint_events(automata) -> frozenset:
    """The union of the automata's events, which must be pairwise disjoint, as
    :func:`~specter.algebra.concat_compat` requires."""
    seen = frozenset()
    for a in automata:
        shared = seen & a.events
        if shared:
            raise EventCollision(f"concatenation operands share events: {sorted(shared)}")
        seen |= a.events
    return seen


def _interleaved_signatures(automata) -> dict:
    """Endpoint patterns of the interleaving of single-slot automata. An
    event labels composite transitions only when every automaton has a state
    for the others to ride along with."""
    sigs: dict = {}
    if all(a.states for a in automata):
        for a in automata:
            sigs.update(a.signatures)
    return sigs


def _product_mask(automata, labels) -> np.ndarray:
    """Nodes in the product of the automata's marked sets, one automaton per
    slot."""
    mask = np.ones(1, dtype=np.bool_)
    for a, ls in zip(automata, labels):
        marked = {s[0] for s in a.marked}
        hit = np.array([label in marked for label in ls], dtype=np.bool_)
        mask = (mask[:, None] & hit[None, :]).ravel()
    return mask


def build_environment(agents: Sequence, inter: InterAgentSpec = None) -> EnvironmentModel:
    """Interleave every agent's capabilities, merge inter-agent automata, and
    subtract the union of all constraints.

    Each agent's automata go through the algebra; the composite goes straight
    to edge arrays. An agent transition u -> v at slot *k* is one edge from
    every node whose slot-*k* code is u to that node plus (v - u) times the
    slot's stride; inter-agent transitions follow, and every transition whose
    event a constraint names is left out. The result equals
    ``subtract_compat(union_compat(concat_many(capabilities), inter
    capabilities), union_compat(concat_many(constraints), inter
    constraints))``, errors included.
    """
    agents = list(agents)
    if not agents:
        raise ValueError("need at least one agent")
    ids = tuple(a.id for a in agents)
    if len(set(ids)) != len(ids):
        raise SlotCollision(f"duplicate agent ids in {ids}")

    per_agent_caps = [build_agent_capabilities(a) for a in agents]
    per_agent_cons = [build_agent_constraints(a) for a in agents]
    alphabets = tuple(frozenset(s[0] for s in k.states) for k in per_agent_caps)
    for agent_id, alphabet in zip(ids, alphabets):
        if not alphabet:
            raise ValueError(f"agent {agent_id!r} has an empty state alphabet")
    labels, codes, strides = _layout(alphabets)
    cap_events = _disjoint_events(per_agent_caps)
    removed = _disjoint_events(per_agent_cons)
    cap_sigs = _interleaved_signatures(per_agent_caps)
    cons_sigs = _interleaved_signatures(per_agent_cons)
    costs = {}
    for a in per_agent_caps:
        costs.update(a.costs)
    marked = _product_mask(per_agent_caps, labels)
    unmarked = _product_mask(per_agent_cons, labels)

    inter_caps = inter.capabilities if inter is not None else None
    inter_cons = inter.constraints if inter is not None else None
    if inter_caps is not None:
        _check_lifted(inter_caps, ids, alphabets, "inter-agent capability")
        clash = inter_caps.events & cap_events
        if clash:
            raise EventCollision(f"inter-agent events already exist: {sorted(clash)}")
        cap_events |= inter_caps.events
        cap_sigs.update(inter_caps.signatures)
        costs.update(inter_caps.costs)
        for s in inter_caps.marked:
            marked[_node(codes, strides, s)] = True
    if inter_cons is not None:
        _check_lifted(inter_cons, ids, alphabets, "inter-agent constraint")
        require_compatible(cons_sigs, inter_cons.signatures, "union")
        cons_costs = {}
        for a in per_agent_cons:
            cons_costs.update(a.costs)
        for e in sorted(removed & inter_cons.events):
            if cons_costs[e] != inter_cons.costs[e]:
                raise CostConflict(
                    f"event {e} costs {cons_costs[e]} in one operand, {inter_cons.costs[e]} in the other"
                )
        removed |= inter_cons.events
        cons_sigs.update(inter_cons.signatures)
        for s in inter_cons.marked:
            unmarked[_node(codes, strides, s)] = True
    require_compatible(cap_sigs, cons_sigs, "subtraction")

    events = tuple(sorted(cap_events - removed))
    rank = {e: k for k, e in enumerate(events)}
    n_nodes = math.prod(len(ls) for ls in labels)
    src, dst, event = [], [], []
    for k, caps in enumerate(per_agent_caps):
        moves = sorted(
            (rank[e], codes[k][x[0]], codes[k][y[0]])
            for (x, e), y in caps.transitions.items()
            if e in rank
        )
        if not moves:
            continue
        e, u, v = np.array(moves, dtype=np.int64).T
        stride, block = strides[k], strides[k] * len(labels[k])
        # The nodes whose slot-k code is 0, ascending.
        base = (np.arange(0, n_nodes, block)[:, None] + np.arange(stride)[None, :]).ravel()
        src.append((base[None, :] + (u * stride)[:, None]).ravel())
        dst.append((base[None, :] + (v * stride)[:, None]).ravel())
        event.append(np.repeat(e, base.size))
    if inter_caps is not None:
        moves = sorted(
            (_node(codes, strides, x), rank[e], _node(codes, strides, y))
            for (x, e), y in inter_caps.transitions.items()
            if e in rank
        )
        if moves:
            i, e, j = np.array(moves, dtype=np.int64).T
            src.append(i)
            dst.append(j)
            event.append(e)
    empty = np.zeros(0, dtype=np.int64)
    return EnvironmentModel._from_edges(
        ids,
        alphabets,
        events,
        [costs[e] for e in events],
        np.concatenate(src) if src else empty,
        np.concatenate(dst) if dst else empty,
        np.concatenate(event) if event else empty,
        marked & ~unmarked,
    )


def inject_failure(env: EnvironmentModel, f: FailureEvent) -> EnvironmentModel:
    """Carve one agent's failed transition out of a built model.

    Removes every composite transition whose moving agent is ``f.agent_id``
    and whose component goes ``f.source -> f.target`` (optionally restricted
    to one event): one boolean mask over the edge arrays, on the event's
    namespace and the slot codes of both endpoints. States, markings, events
    and costs are untouched; the input model is not modified.
    """
    if f.agent_id == INTER_NAMESPACE:
        if f.event is None:
            raise ValueError("inter-agent failures need an explicit event")
        named = np.array([e == f.event for e in env.events], dtype=np.bool_)
        doomed = named[env.event]
    else:
        slot = env.slot_of(f.agent_id)
        alphabet = env.per_agent_alphabets[slot]
        for label in (f.source, f.target):
            if label not in alphabet:
                raise UnknownState(f"{label!r} is not a state of agent {f.agent_id!r}")
        named = np.array(
            [e.namespace == f.agent_id and (f.event is None or e == f.event) for e in env.events],
            dtype=np.bool_,
        )
        stride, size = env.strides[slot], len(env.labels[slot])
        doomed = (
            named[env.event]
            & ((env.src // stride) % size == env.label_codes[slot][f.source])
            & ((env.dst // stride) % size == env.label_codes[slot][f.target])
        )
    return env._keep_edges(~doomed)

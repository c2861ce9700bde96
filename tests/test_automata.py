from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specter.automata import (
    EventId,
    Projector,
    active_events,
    check_compatible,
    delta,
    empty_nfa,
    inverse_transition,
    make_nfa,
    merge_on,
    parse_state,
    proj,
    replay,
    state_str,
)
from specter.errors import (
    DanglingEndpoint,
    DuplicateEventEndpoints,
    LengthMismatch,
    MissingCost,
    NonPositiveCost,
    NoSuchTransition,
    UnknownState,
)

from .conftest import arity1_nfas, ev


class TestMakeNfa:
    def test_minimal_two_state(self, two_state_nfa):
        assert len(two_state_nfa.states) == 2
        assert two_state_nfa.arity == 1
        assert two_state_nfa.costs[ev("R1", "e1")] == 10.0

    def test_zero_cost_rejected(self):
        e1 = ev("R1", "e1")
        with pytest.raises(NonPositiveCost):
            make_nfa(("R1",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 0})

    @pytest.mark.parametrize("cost", [float("inf"), float("nan")])
    def test_non_finite_cost_rejected(self, cost):
        e1 = ev("R1", "e1")
        with pytest.raises(NonPositiveCost):
            make_nfa(("R1",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: cost})

    def test_missing_cost_rejected(self):
        e1 = ev("R1", "e1")
        with pytest.raises(MissingCost):
            make_nfa(("R1",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {})

    def test_duplicate_event_endpoints(self):
        # Oracle: scan the raw event -> (source, target) multimap and flag any
        # event that maps to more than one pair.
        e1 = ev("R1", "e1")
        transitions = {(("A",), e1): ("B",), (("B",), e1): ("A",)}
        endpoint_pairs = {}
        for (x, e), y in transitions.items():
            endpoint_pairs.setdefault(e, set()).add((x, y))
        assert any(len(pairs) > 1 for pairs in endpoint_pairs.values())

        with pytest.raises(DuplicateEventEndpoints):
            make_nfa(("R1",), [("A",), ("B",)], [e1], transitions, {e1: 10})

    def test_dangling_state(self):
        e1 = ev("R1", "e1")
        with pytest.raises(DanglingEndpoint):
            make_nfa(("R1",), [("A",)], [e1], {(("A",), e1): ("B",)}, {e1: 10})

    def test_dangling_event(self):
        e1 = ev("R1", "e1")
        with pytest.raises(DanglingEndpoint):
            make_nfa(("R1",), [("A",), ("B",)], [], {(("A",), e1): ("B",)}, {})

    def test_marked_defaults_to_all_states(self):
        nfa = make_nfa(("R1",), [("A",), ("B",)], [], {}, {})
        assert nfa.marked == nfa.states

    def test_self_loops_at_several_states_share_an_event(self):
        # Context-free self-loop: the endpoint pattern is empty at every state,
        # which is exactly what concatenating a self-loop with context produces.
        e1 = ev("R1", "hold")
        nfa = make_nfa(
            ("R1",),
            [("A",), ("B",)],
            [e1],
            {(("A",), e1): ("A",), (("B",), e1): ("B",)},
            {e1: 1},
        )
        assert nfa.signatures[e1] == ()

    def test_extra_cost_entries_dropped(self):
        e1, e2 = ev("R1", "e1"), ev("R1", "e2")
        nfa = make_nfa(("R1",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 1, e2: 5})
        assert set(nfa.costs) == {e1}

    def test_empty_nfa(self):
        nfa = empty_nfa(("R1",))
        assert not nfa.states and not nfa.events and not nfa.transitions


class TestDelta:
    def test_assigns_initial(self, two_state_nfa):
        dfa = delta(two_state_nfa, ("A",))
        assert dfa.initial == ("A",)
        dfa_b = delta(two_state_nfa, ("B",))
        assert dfa_b.initial == ("B",)

    def test_unknown_state(self, two_state_nfa):
        with pytest.raises(UnknownState):
            delta(two_state_nfa, ("Z",))

    @given(arity1_nfas())
    def test_round_trip_preserves_everything_else(self, nfa):
        for x0 in sorted(nfa.states):
            dfa = delta(nfa, x0)
            assert dfa.states == nfa.states
            assert dfa.events == nfa.events
            assert dfa.transitions == nfa.transitions
            assert dfa.marked == nfa.marked
            assert dfa.costs == nfa.costs
            assert dfa.initial == x0


class TestProjection:
    def test_single_slot_mask(self):
        assert proj(("E", "Psi", "Gamma", "A"), Projector.from_string("0001")) == ("A",)

    def test_identity_mask(self):
        x = ("E", "Psi", "Gamma", "A")
        assert proj(x, Projector.from_string("1111")) == x

    def test_three_slot_mask(self):
        x = ("S1", "S2", "S3", "J", "C", "W", "D1", "D2", "H")
        assert proj(x, Projector.from_string("000111000")) == ("J", "C", "W")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            proj(("A", "B"), Projector.from_string("1"))

    def test_projector_negate(self):
        assert str(Projector.from_string("0101").negate()) == "1010"

    def test_projector_from_slots(self):
        b = Projector.from_slots(("R1", "R2", "W1", "I1"), ["I1"])
        assert str(b) == "0001"
        with pytest.raises(ValueError):
            Projector.from_slots(("R1",), ["nope"])

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), st.data())
    def test_merge_inverts_proj(self, labels, data):
        x = tuple(labels)
        bits = data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x)))
        b = Projector(tuple(bits))
        assert merge_on(x, b, proj(x, b)) == x

    def test_state_str_round_trip(self):
        x = ("E", "Psi", "Gamma", "A")
        assert parse_state(state_str(x)) == x


class TestInverseTransition:
    def test_single_transition(self, two_state_nfa):
        assert inverse_transition(two_state_nfa, ("B",), ev("R1", "e1")) == ("A",)

    def test_no_such_transition(self, two_state_nfa):
        with pytest.raises(NoSuchTransition):
            inverse_transition(two_state_nfa, ("A",), ev("R1", "e1"))

    @given(arity1_nfas())
    def test_replays_forward_map(self, nfa):
        for (x, e), y in nfa.transitions.items():
            assert inverse_transition(nfa, y, e) == x
            assert e in active_events(nfa, x)


class TestActiveEvents:
    def test_examples(self, two_state_nfa):
        assert active_events(two_state_nfa, ("A",)) == {ev("R1", "e1")}
        assert active_events(two_state_nfa, ("B",)) == frozenset()

    def test_unknown_state(self, two_state_nfa):
        with pytest.raises(UnknownState):
            active_events(two_state_nfa, ("Z",))

    @given(arity1_nfas())
    def test_matches_direct_scan(self, nfa):
        for x in nfa.states:
            expected = {e for (src, e) in nfa.transitions if src == x}
            assert active_events(nfa, x) == expected


class TestReplay:
    def test_walks_transitions(self, two_state_nfa):
        assert replay(two_state_nfa, ("A",), [ev("R1", "e1")]) == ("B",)
        with pytest.raises(NoSuchTransition):
            replay(two_state_nfa, ("B",), [ev("R1", "e1")])


class TestCompatibility:
    def test_disjoint_events_vacuous(self):
        e1, e2 = ev("x", "e1"), ev("y", "e2")
        a = make_nfa(("s",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 1})
        b = make_nfa(("s",), [("B",), ("C",)], [e2], {(("B",), e2): ("C",)}, {e2: 1})
        assert check_compatible(a, b).ok

    def test_shared_event_same_endpoints(self):
        e = ev("x", "e")
        a = make_nfa(("s",), [("A",), ("B",)], [e], {(("A",), e): ("B",)}, {e: 1})
        b = make_nfa(("s",), [("A",), ("B",), ("C",)], [e], {(("A",), e): ("B",)}, {e: 2})
        assert check_compatible(a, b).ok

    def test_shared_event_conflicting_endpoints(self):
        e = ev("x", "e")
        a = make_nfa(("s",), [("A",), ("B",)], [e], {(("A",), e): ("B",)}, {e: 1})
        b = make_nfa(("s",), [("A",), ("C",)], [e], {(("A",), e): ("C",)}, {e: 1})
        report = check_compatible(a, b)
        assert not report.ok
        assert [c.event for c in report.conflicts] == [e]

    def test_transitionless_shared_event_is_vacuous(self):
        e = ev("x", "e")
        a = make_nfa(("s",), [("A",), ("B",)], [e], {(("A",), e): ("B",)}, {e: 1})
        b = make_nfa(("s",), [("A",)], [e], {}, {e: 1})
        assert check_compatible(a, b).ok

    @given(arity1_nfas(slot="s"), arity1_nfas(slot="s"))
    def test_symmetric(self, a, b):
        assert check_compatible(a, b).ok == check_compatible(b, a).ok


class TestSmallEdges:
    def test_event_id_parse(self):
        e = EventId.parse("R1:move.E.A")
        assert e == EventId("R1", "move.E.A")
        assert EventId.parse("inter:load@R2=Psi").name == "load@R2=Psi"
        with pytest.raises(ValueError):
            EventId.parse("no-colon")
        with pytest.raises(ValueError):
            EventId.parse(":empty-namespace")

    def test_merge_on_length_checks(self):
        b = Projector.from_string("10")
        with pytest.raises(LengthMismatch):
            merge_on(("A",), b, ("X",))
        with pytest.raises(LengthMismatch):
            merge_on(("A", "B"), b, ("X", "Y"))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            make_nfa(("s",), [("has|pipe",)], [], {}, {})
        with pytest.raises(ValueError):
            make_nfa(("s",), [("",)], [], {}, {})


def test_event_id_parse_equals_constructor_and_hashes_equally():
    parsed, built = EventId.parse("a:b"), EventId("a", "b")
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert {parsed: 1}[built] == 1

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specter.errors import ExpansionBlowup, ScenarioError
from specter.scenario import (
    build_scenario_environment,
    expand_inter_templates,
    parse_scenario,
    serialize_scenario,
    task_spec,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def factory_text():
    return (SCENARIOS / "factory_cell.json").read_text()


@pytest.fixture(scope="module")
def factory(factory_text):
    return parse_scenario(factory_text)


def _minimal_doc():
    return {
        "version": 1,
        "agents": [
            {
                "id": "r",
                "capabilities": [
                    {
                        "name": "moves",
                        "states": ["A", "B"],
                        "transitions": [
                            {"from": "A", "event": "go", "to": "B", "cost": 1},
                            {"from": "B", "event": "back", "to": "A", "cost": 1},
                        ],
                    }
                ],
            }
        ],
        "initial": {"r": "A"},
        "task": {"r": "B"},
    }


class TestParse:
    def test_bundled_factory_cell(self, factory):
        assert factory.agent_ids == ("R1", "R2", "W1", "I1")
        assert factory.initial == ("E", "Psi", "Gamma", "A")
        task = task_spec(factory)
        assert str(task.projector) == "0001"
        assert task.target == ("B",)
        assert factory.options.solver == "heuristic"
        assert len(factory.options.failures) == 1

    def test_minimal_document(self):
        sc = parse_scenario(json.dumps(_minimal_doc()))
        assert sc.agent_ids == ("r",)

    def test_empty_agents_is_schema_error(self):
        doc = _minimal_doc()
        doc["agents"] = []
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "schema" for d in diags)

    def test_undeclared_state_reference(self):
        doc = _minimal_doc()
        doc["agents"][0]["capabilities"][0]["transitions"][0]["to"] = "Z"
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "unknown-reference" for d in diags)

    def test_nonpositive_cost(self):
        doc = _minimal_doc()
        doc["agents"][0]["capabilities"][0]["transitions"][0]["cost"] = 0
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "non-positive-cost" for d in diags)

    def test_infinite_cost_is_non_positive_cost(self):
        doc = _minimal_doc()
        doc["agents"][0]["capabilities"][0]["transitions"][0]["cost"] = math.inf
        text = json.dumps(doc)
        assert "Infinity" in text
        _, diags = validate_scenario(text)
        assert [d.code for d in diags] == ["non-positive-cost"]
        assert diags[0].where == "/agents/0/capabilities/0/transitions/0/cost"

    def test_duplicate_event_with_conflicting_endpoints(self):
        doc = _minimal_doc()
        doc["agents"][0]["capabilities"][0]["transitions"][1]["event"] = "go"
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "duplicate-event" for d in diags)

    def test_duplicate_agent(self):
        doc = _minimal_doc()
        doc["agents"].append(doc["agents"][0])
        doc["initial"] = {"r": "A"}
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "duplicate-agent" for d in diags)

    def test_reserved_agent_id(self):
        doc = _minimal_doc()
        doc["agents"][0]["id"] = "inter"
        doc["initial"] = {"inter": "A"}
        doc["task"] = {"inter": "B"}
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "reserved-id" for d in diags)

    def test_initial_must_cover_agents(self):
        doc = _minimal_doc()
        doc["initial"] = {}
        _, diags = validate_scenario(json.dumps(doc))
        assert diags  # schema minProperties plus semantic coverage

    def test_task_unknown_label(self):
        doc = _minimal_doc()
        doc["task"] = {"r": "Z"}
        _, diags = validate_scenario(json.dumps(doc))
        assert any(d.code == "unknown-reference" for d in diags)

    def test_syntax_error_carries_position(self):
        scenario, diags = validate_scenario("{not json")
        assert scenario is None
        assert diags[0].code == "parse"
        assert "line" in diags[0].where

    def test_parse_raises_with_diagnostics(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[]")
        assert err.value.diagnostics

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400))
    def test_total_on_arbitrary_bytes(self, blob):
        scenario, diags = validate_scenario(blob)
        assert scenario is not None or diags

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=400))
    def test_total_on_arbitrary_text(self, text):
        scenario, diags = validate_scenario(text)
        assert scenario is not None or diags


class TestRoundTrip:
    def test_factory_round_trips(self, factory):
        assert parse_scenario(serialize_scenario(factory)) == factory

    def test_workflow_round_trips(self):
        sc = parse_scenario((SCENARIOS / "workflow_small.json").read_text())
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_serialization_deterministic(self, factory):
        assert serialize_scenario(factory) == serialize_scenario(factory)


class TestTemplateExpansion:
    def test_counting_oracle(self, factory):
        # Each template yields one event per combination of non-member states.
        expanded = expand_inter_templates(factory)
        assert not expanded.inter_capabilities.templates
        alphabet_sizes = {a: len(factory.alphabet(a)) for a in factory.agent_ids}
        expected = 0
        for t in factory.inter_capabilities.templates:
            expected += math.prod(
                alphabet_sizes[a] for a in factory.agent_ids if a not in t.members
            )
        assert len(expanded.inter_capabilities.events) == expected
        # The R1 load template expands once per R2 state.
        r1_loads = [e for e in expanded.inter_capabilities.events if e.name.startswith("load_R1_A@")]
        assert len(r1_loads) == alphabet_sizes["R2"]

    def test_template_over_all_agents_expands_to_itself(self):
        doc = _minimal_doc()
        doc["agents"].append(
            {
                "id": "s",
                "capabilities": [
                    {"name": "m", "states": ["P", "Q"], "transitions": []}
                ],
            }
        )
        doc["initial"] = {"r": "A", "s": "P"}
        doc["inter"] = {
            "capabilities": {
                "templates": [
                    {
                        "name": "both",
                        "members": ["r", "s"],
                        "from": {"r": "A", "s": "P"},
                        "to": {"r": "B", "s": "P"},
                        "cost": 2,
                    }
                ]
            }
        }
        sc = parse_scenario(json.dumps(doc))
        expanded = expand_inter_templates(sc)
        assert len(expanded.inter_capabilities.events) == 1
        assert expanded.inter_capabilities.events[0].name == "both"

    def test_cap_blowup(self, factory):
        with pytest.raises(ExpansionBlowup):
            expand_inter_templates(factory, cap=10)

    def test_expansion_deterministic(self, factory):
        a = expand_inter_templates(factory)
        b = expand_inter_templates(factory)
        assert a == b


class TestBuild:
    def test_build_environment_from_file(self, factory):
        env = build_scenario_environment(factory)
        assert len(env.automaton.states) == 560
        assert env.agent_ids == factory.agent_ids


def test_published_schema_matches_packaged_copy():
    import specter.schemas

    from importlib import resources

    packaged = resources.files("specter.schemas").joinpath("scenario.schema.json").read_text()
    published = (Path(__file__).resolve().parent.parent / "docs" / "scenario.schema.json").read_text()
    assert packaged == published

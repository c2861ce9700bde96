from __future__ import annotations

import json
from pathlib import Path

import pytest

from specter.artifacts import (
    Timings,
    dump_model,
    load_model,
    parse_model,
    parse_plan,
    plan_document,
    save_model,
    serialize_plan,
)
from specter.composer import build_environment
from specter.errors import ArtifactError
from specter.oracle import random_scenario
from specter.planner import check_chain, plan_complete
from specter.scenario import build_scenario_environment, parse_scenario

from .conftest import MODEL_DEFECTS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def small_env():
    gs = random_scenario(11)
    return build_environment(gs.agents, gs.inter)


class TestModelArtifacts:
    def test_round_trip(self, small_env):
        text = dump_model(small_env)
        loaded = parse_model(text)
        assert loaded == small_env

    def test_byte_stable(self, small_env):
        assert dump_model(small_env) == dump_model(small_env)

    def test_rebuild_gives_identical_bytes(self):
        text = (SCENARIOS / "factory_cell.json").read_text()
        one = dump_model(build_scenario_environment(parse_scenario(text)))
        two = dump_model(build_scenario_environment(parse_scenario(text)))
        assert one == two

    def test_save_and_load(self, small_env, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_env, path)
        assert load_model(path) == small_env

    def test_rejects_wrong_format(self):
        with pytest.raises(ArtifactError):
            parse_model('{"format": "something-else", "version": 1}')
        with pytest.raises(ArtifactError):
            parse_model("not json at all")

    def test_rejects_wrong_version(self, small_env):
        text = dump_model(small_env).replace('"version": 1', '"version": 99')
        with pytest.raises(ArtifactError):
            parse_model(text)


@pytest.fixture(scope="module")
def factory_doc():
    text = (SCENARIOS / "factory_cell.json").read_text()
    return json.loads(dump_model(build_scenario_environment(parse_scenario(text))))


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_malformed_model_raises_artifact_error(factory_doc, defect):
    doc = json.loads(json.dumps(factory_doc))
    MODEL_DEFECTS[defect](doc)
    with pytest.raises(ArtifactError):
        parse_model(json.dumps(doc))


def test_unmutated_factory_document_loads(factory_doc):
    env = parse_model(json.dumps(factory_doc))
    assert env.theta == len(env.automaton.states) == 560


class TestPlanDocuments:
    def _result(self):
        gs = random_scenario(4)
        env = build_environment(gs.agents, gs.inter)
        return env, plan_complete(env, gs.initial, gs.task)

    def test_round_trip(self):
        env, result = self._result()
        timings = Timings(0.125, 0.0625)
        doc = plan_document(result, env.agent_ids, timings)
        assert parse_plan(serialize_plan(doc)) == doc

    def test_empty_chain_document(self):
        env, result = self._result()
        empty = plan_complete(env, result.goal_state, _task_of(env, result))
        doc = plan_document(empty, env.agent_ids, Timings(0.0, 0.0))
        assert doc.modules == ()
        assert doc.total_cost == 0.0
        text = serialize_plan(doc)
        assert parse_plan(text) == doc

    def test_serialization_deterministic(self):
        env, result = self._result()
        t = Timings(0.5, 0.25)
        assert serialize_plan(result, env.agent_ids, t) == serialize_plan(result, env.agent_ids, t)

    def test_timings_fixed_to_six_decimals(self):
        t = Timings(0.123456789, 1e-9)
        assert t.preprocess_s == 0.123457
        assert t.solve_s == 0.0

    def test_parsed_chain_still_checks(self):
        env, result = self._result()
        doc = parse_plan(serialize_plan(result, env.agent_ids, Timings(0, 0)))
        assert check_chain(doc.chain)
        assert doc.chain == result.chain


def _task_of(env, result):
    # A task the goal state trivially satisfies, for the empty-plan path.
    from specter.automata import Projector
    from specter.planner import TaskSpecification

    b = Projector(tuple(i == 0 for i in range(len(env.agent_ids))))
    return TaskSpecification(b, (result.goal_state[0],))

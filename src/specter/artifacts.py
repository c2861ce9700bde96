"""Versioned on-disk artifacts: built environment models and plan documents.

Both are JSON with a magic ``format`` field and canonical ordering, so
identical inputs serialize to identical bytes. Costs keep Python's shortest
round-trip float rendering; timing fields are rounded to six decimal places
when the document is created, so parsing a serialized document is exact.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .automata import EventId, make_nfa, parse_state, state_str
from .composer import EnvironmentModel
from .errors import ArtifactError, SpecterError
from .planner import ModuleChain, PlanResult, PortModule

MODEL_FORMAT = "specter-model"
PLAN_FORMAT = "specter-plan"
FORMAT_VERSION = 1


def dump_model(env: EnvironmentModel) -> str:
    table = env.transition_table()
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "agents": list(env.agent_ids),
        "alphabets": [sorted(alpha) for alpha in env.per_agent_alphabets],
        "states": [state_str(s) for s in env.states],
        "marked": np.flatnonzero(env.marked).tolist(),
        "events": [
            {"event": str(e), "cost": cost} for e, cost in zip(env.events, env.event_costs.tolist())
        ],
        "transitions": table.tolist(),
    }
    return json.dumps(doc, indent=1) + "\n"


def save_model(env: EnvironmentModel, path) -> None:
    Path(path).write_text(dump_model(env), encoding="utf-8")


def _load_json(text: str, expected_format: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ArtifactError(f"expected a {expected_format!r} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported version {doc.get('version')!r}, this build reads {FORMAT_VERSION}"
        )
    return doc


def _malformed(what: str) -> ArtifactError:
    return ArtifactError(f"malformed model document: {what}")


def _index_table(values, bounds, what: str) -> None:
    """``values`` must be rows of non-negative integers, column *c* below
    ``bounds[c]``."""
    table = np.asarray(values)
    if not table.size:
        return
    if table.dtype.kind not in "iu" or table.shape[1:] != (len(bounds),):
        raise _malformed(f"{what} must be rows of {len(bounds)} integers")
    if table.min() < 0 or np.any(table.max(axis=0) >= bounds):
        raise _malformed(f"{what} reference indices out of range")


def parse_model(text: str) -> EnvironmentModel:
    """Read a model document, validating all of it: the states must be the
    product of the sorted alphabets, in order, no event, marked index or
    (state, event) pair may appear twice, and the automaton goes through
    :func:`~specter.automata.make_nfa`. Every defect raises
    :class:`ArtifactError`."""
    doc = _load_json(text, MODEL_FORMAT)
    try:
        agents = tuple(doc["agents"])
        alphabets = [list(labels) for labels in doc["alphabets"]]
        raw_states, raw_events = list(doc["states"]), list(doc["events"])
        marked_at, triples = list(doc["marked"]), list(doc["transitions"])
        if not all(isinstance(label, str) for labels in alphabets for label in labels):
            raise _malformed("alphabet labels must be strings")
        if any(len(set(labels)) != len(labels) for labels in alphabets):
            raise _malformed("an alphabet repeats a label")
        if len(alphabets) != len(agents):
            raise _malformed(f"{len(agents)} agents but {len(alphabets)} alphabets")
        product = [state_str(s) for s in itertools.product(*map(sorted, alphabets))]
        if raw_states != product:
            raise _malformed("states are not the product of the sorted alphabets, in order")
        for entry in raw_events:
            if not isinstance(entry["event"], str):
                raise _malformed(f"event {entry['event']!r} is not a string")
            cost = entry["cost"]
            if isinstance(cost, bool) or not isinstance(cost, (int, float)):
                raise _malformed(f"cost {cost!r} of {entry['event']} is not a number")
        states = [parse_state(s) for s in raw_states]
        events = [EventId.parse(e["event"]) for e in raw_events]
        costs = {e: entry["cost"] for e, entry in zip(events, raw_events)}
        _index_table([[i] for i in marked_at], (len(states),), "marked states")
        _index_table(triples, (len(states), len(events), len(states)), "transitions")
        marked = {states[i] for i in marked_at}
        transitions = {(states[i], events[k]): states[j] for i, k, j in triples}
        if len(costs) < len(events):
            raise _malformed("events repeat an entry")
        if len(marked) < len(marked_at):
            raise _malformed("marked repeats a state index")
        if len(transitions) < len(triples):
            raise _malformed("transitions repeat a (state, event) pair")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _malformed(repr(exc)) from None
    try:
        nfa = make_nfa(agents, states, events, transitions, costs, marked=marked)
        return EnvironmentModel(nfa, agents, alphabets)
    except (SpecterError, ValueError, OverflowError) as exc:
        raise _malformed(str(exc)) from None


def load_model(path) -> EnvironmentModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


@dataclass(frozen=True)
class Timings:
    """Two-phase wall-clock split, seconds, fixed to six decimals."""

    preprocess_s: float
    solve_s: float

    def __post_init__(self):
        object.__setattr__(self, "preprocess_s", round(float(self.preprocess_s), 6))
        object.__setattr__(self, "solve_s", round(float(self.solve_s), 6))


@dataclass(frozen=True)
class PlanDocument:
    solver: str
    slots: tuple
    initial: tuple
    goal: tuple
    task_module_inverted: PortModule
    modules: tuple
    total_cost: float
    timings: Timings

    @property
    def chain(self) -> ModuleChain:
        return ModuleChain(self.task_module_inverted, self.modules)


def plan_document(result: PlanResult, slots, timings: Timings) -> PlanDocument:
    t0 = result.chain.task_module_inverted
    return PlanDocument(
        solver=result.solver,
        slots=tuple(slots),
        initial=t0.output_port,
        goal=result.goal_state,
        task_module_inverted=t0,
        modules=result.chain.modules,
        total_cost=result.cost,
        timings=timings,
    )


def _module_record(m: PortModule) -> dict:
    return {
        "input": list(m.input_port),
        "event": str(m.event),
        "output": list(m.output_port),
        "cost": m.cost,
    }


def serialize_plan(result, slots=None, timings: Timings = None) -> str:
    """Render a plan document; accepts a :class:`PlanResult` plus ``slots`` and
    ``timings``, or an already-built :class:`PlanDocument`."""
    if isinstance(result, PlanDocument):
        doc = result
    else:
        doc = plan_document(result, slots, timings or Timings(0.0, 0.0))
    payload = {
        "format": PLAN_FORMAT,
        "version": FORMAT_VERSION,
        "solver": doc.solver,
        "slots": list(doc.slots),
        "initial": list(doc.initial),
        "goal": list(doc.goal),
        "task_module_inverted": _module_record(doc.task_module_inverted),
        "modules": [_module_record(m) for m in doc.modules],
        "total_cost": doc.total_cost,
        "timing": {"preprocess_s": doc.timings.preprocess_s, "solve_s": doc.timings.solve_s},
    }
    return json.dumps(payload, indent=1) + "\n"


def _parse_module(record) -> PortModule:
    return PortModule(
        tuple(record["input"]),
        EventId.parse(record["event"]),
        tuple(record["output"]),
        float(record["cost"]),
    )


def parse_plan(text: str) -> PlanDocument:
    doc = _load_json(text, PLAN_FORMAT)
    try:
        return PlanDocument(
            solver=doc["solver"],
            slots=tuple(doc["slots"]),
            initial=tuple(doc["initial"]),
            goal=tuple(doc["goal"]),
            task_module_inverted=_parse_module(doc["task_module_inverted"]),
            modules=tuple(_parse_module(m) for m in doc["modules"]),
            total_cost=float(doc["total_cost"]),
            timings=Timings(doc["timing"]["preprocess_s"], doc["timing"]["solve_s"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed plan document: {exc!r}") from None


def load_plan(path) -> PlanDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from None
    return parse_plan(text)

"""Scenario documents: parsing, validation, template expansion and the bridge
into agent/environment specs.

A scenario is one JSON document (schema in ``specter/schemas/``). Parsing is
total: any byte string yields either a validated :class:`ScenarioFile` or a
diagnostic list with stable codes, never an unhandled crash. Inter-agent
events may be written as templates over a member subset; expansion turns each
template into one concrete full-arity event per combination of the non-member
agents' states.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import jsonschema

from .automata import INTER_NAMESPACE, EventId, Projector, make_nfa
from .composer import AgentSpec, EnvironmentModel, FailureEvent, InterAgentSpec, build_environment
from .errors import ExpansionBlowup, ScenarioError
from .planner import TaskSpecification

DEFAULT_TEMPLATE_CAP = 100_000

# Stable diagnostic codes, asserted by tests and documented in docs/.
PARSE = "parse"
SCHEMA = "schema"
NON_POSITIVE_COST = "non-positive-cost"
UNKNOWN_REFERENCE = "unknown-reference"
DUPLICATE_EVENT = "duplicate-event"
DUPLICATE_AGENT = "duplicate-agent"
RESERVED_ID = "reserved-id"
ARITY = "arity-mismatch"
AMBIGUOUS_REFERENCE = "ambiguous-reference"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        place = f" at {self.where}" if self.where else ""
        return f"[{self.code}]{place}: {self.message}"


@dataclass(frozen=True)
class TransitionDecl:
    source: str
    event: str
    target: str
    cost: float = None  # None only valid inside constraint automata


@dataclass(frozen=True)
class AutomatonDecl:
    name: str
    states: tuple
    transitions: tuple
    marked: tuple = None  # None: role default (all for capabilities, none for removers)


@dataclass(frozen=True)
class FailureDecl:
    source: str
    target: str
    event: str = None


@dataclass(frozen=True)
class AgentDecl:
    id: str
    capabilities: tuple
    constraints: tuple = ()
    failures: tuple = ()


@dataclass(frozen=True)
class InterEventDecl:
    name: str
    source: tuple
    target: tuple
    cost: float


@dataclass(frozen=True)
class InterTemplateDecl:
    name: str
    members: tuple
    source: dict  # {agent id: label}
    target: dict
    cost: float


@dataclass(frozen=True)
class InterSectionDecl:
    events: tuple = ()
    templates: tuple = ()


@dataclass(frozen=True)
class FailureInjectionDecl:
    agent: str
    source: str = None
    target: str = None
    event: str = None


@dataclass(frozen=True)
class OptionsDecl:
    solver: str = "complete"
    failures: tuple = ()
    template_cap: int = DEFAULT_TEMPLATE_CAP


@dataclass(frozen=True)
class ScenarioFile:
    agents: tuple
    initial: tuple  # label per agent, in agent order
    task: tuple  # ((agent id, label), ...) in agent order
    inter_capabilities: InterSectionDecl = InterSectionDecl()
    inter_constraints: InterSectionDecl = InterSectionDecl()
    options: OptionsDecl = OptionsDecl()
    name: str = ""
    notes: str = ""

    @property
    def agent_ids(self) -> tuple:
        return tuple(a.id for a in self.agents)

    def alphabet(self, agent_id: str) -> frozenset:
        for a in self.agents:
            if a.id == agent_id:
                return frozenset(s for cap in a.capabilities for s in cap.states)
        raise KeyError(agent_id)


def _schema() -> dict:
    text = resources.files("specter.schemas").joinpath("scenario.schema.json").read_text()
    return json.loads(text)


_SCHEMA = _schema()
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def _json_path(error) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def _schema_diagnostics(doc) -> list:
    out = []
    for error in sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(map(str, e.absolute_path))):
        code = NON_POSITIVE_COST if error.validator in ("exclusiveMinimum", "minimum") else SCHEMA
        out.append(Diagnostic(code, error.message, _json_path(error)))
    return out


def _check_cost(cost, where, diags) -> None:
    # JSON reads Infinity and NaN, and the schema's exclusiveMinimum lets both through.
    try:
        finite = cost is None or math.isfinite(cost)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        diags.append(Diagnostic(NON_POSITIVE_COST, f"cost {cost} is not finite", where))


def _decl_automaton(raw, where, diags, *, costs_required) -> AutomatonDecl:
    states = tuple(raw["states"])
    if len(set(states)) != len(states):
        diags.append(Diagnostic(SCHEMA, f"duplicate state labels in {raw['name']!r}", where))
    transitions = []
    seen = set()
    for k, t in enumerate(raw.get("transitions", ())):
        t_where = f"{where}/transitions/{k}"
        for endpoint in (t["from"], t["to"]):
            if endpoint not in states:
                diags.append(
                    Diagnostic(UNKNOWN_REFERENCE, f"state {endpoint!r} not declared in {raw['name']!r}", t_where)
                )
        key = (t["from"], t["event"])
        if key in seen:
            diags.append(
                Diagnostic(DUPLICATE_EVENT, f"transition ({t['from']!r}, {t['event']!r}) declared twice", t_where)
            )
        seen.add(key)
        cost = t.get("cost")
        if costs_required and cost is None:
            diags.append(Diagnostic(SCHEMA, "transition is missing a cost", t_where))
        _check_cost(cost, f"{t_where}/cost", diags)
        transitions.append(TransitionDecl(t["from"], t["event"], t["to"], cost))
    marked = raw.get("marked")
    if marked is not None:
        stray = set(marked) - set(states)
        if stray:
            diags.append(
                Diagnostic(UNKNOWN_REFERENCE, f"marked states {sorted(stray)} not declared", where)
            )
        marked = tuple(marked)
    return AutomatonDecl(raw["name"], states, tuple(transitions), marked)


def _decl_inter_section(raw, where, n_agents, diags) -> InterSectionDecl:
    events = []
    for k, e in enumerate(raw.get("events", ())):
        e_where = f"{where}/events/{k}"
        src, dst = tuple(e["from"]), tuple(e["to"])
        if len(src) != n_agents or len(dst) != n_agents:
            diags.append(
                Diagnostic(
                    ARITY,
                    f"inter event {e['name']!r} endpoints must list {n_agents} components",
                    e_where,
                )
            )
        _check_cost(e["cost"], f"{e_where}/cost", diags)
        events.append(InterEventDecl(e["name"], src, dst, float(e["cost"])))
    templates = []
    for k, t in enumerate(raw.get("templates", ())):
        t_where = f"{where}/templates/{k}"
        members = tuple(t["members"])
        if len(set(members)) != len(members):
            diags.append(Diagnostic(DUPLICATE_AGENT, f"template {t['name']!r} repeats members", t_where))
        for side in ("from", "to"):
            if set(t[side]) != set(members):
                diags.append(
                    Diagnostic(
                        UNKNOWN_REFERENCE,
                        f"template {t['name']!r} {side!r} must assign exactly its members",
                        t_where,
                    )
                )
        _check_cost(t["cost"], f"{t_where}/cost", diags)
        templates.append(InterTemplateDecl(t["name"], members, dict(t["from"]), dict(t["to"]), float(t["cost"])))
    return InterSectionDecl(tuple(events), tuple(templates))


def validate_scenario(text) -> tuple:
    """Total parse: returns ``(scenario or None, diagnostics)``."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            return None, [Diagnostic(PARSE, f"not UTF-8: {exc}", f"byte {exc.start}")]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [Diagnostic(PARSE, exc.msg, f"line {exc.lineno} column {exc.colno}")]

    diags = _schema_diagnostics(doc)
    if diags:
        return None, diags

    agents = []
    ids = []
    for i, raw in enumerate(doc["agents"]):
        where = f"/agents/{i}"
        agent_id = raw["id"]
        if agent_id in (INTER_NAMESPACE, "virtual"):
            diags.append(Diagnostic(RESERVED_ID, f"agent id {agent_id!r} is reserved", where))
        if agent_id in ids:
            diags.append(Diagnostic(DUPLICATE_AGENT, f"agent id {agent_id!r} declared twice", where))
        ids.append(agent_id)
        caps = tuple(
            _decl_automaton(c, f"{where}/capabilities/{k}", diags, costs_required=True)
            for k, c in enumerate(raw["capabilities"])
        )
        cons = tuple(
            _decl_automaton(c, f"{where}/constraints/{k}", diags, costs_required=False)
            for k, c in enumerate(raw.get("constraints", ()))
        )
        fails = tuple(
            FailureDecl(f["from"], f["to"], f.get("event")) for f in raw.get("failures", ())
        )
        agents.append(AgentDecl(agent_id, caps, cons, fails))
    agents = tuple(agents)

    # Per-agent event table: every use of one event name must agree on
    # endpoints, and capability uses must agree on cost.
    alphabets = {}
    event_tables = {}
    for i, agent in enumerate(agents):
        where = f"/agents/{i}"
        alphabet = set()
        for cap in agent.capabilities:
            alphabet.update(cap.states)
        alphabets[agent.id] = alphabet
        table = {}
        for role, automata in (("capabilities", agent.capabilities), ("constraints", agent.constraints)):
            for decl in automata:
                for t in decl.transitions:
                    entry = table.get(t.event)
                    if entry is None:
                        table[t.event] = [t.source, t.target, t.cost if role == "capabilities" else None]
                        continue
                    if (entry[0], entry[1]) != (t.source, t.target):
                        diags.append(
                            Diagnostic(
                                DUPLICATE_EVENT,
                                f"event {t.event!r} of agent {agent.id!r} used with two "
                                f"endpoint pairs: {entry[0]}->{entry[1]} and {t.source}->{t.target}",
                                where,
                            )
                        )
                    elif role == "capabilities" and entry[2] is not None and t.cost is not None and entry[2] != t.cost:
                        diags.append(
                            Diagnostic(
                                DUPLICATE_EVENT,
                                f"event {t.event!r} of agent {agent.id!r} has conflicting costs",
                                where,
                            )
                        )
                    elif role == "capabilities" and entry[2] is None:
                        entry[2] = t.cost
        event_tables[agent.id] = table

        # Constraint transitions without a cost must resolve one from the table.
        for k, decl in enumerate(agent.constraints):
            for t in decl.transitions:
                if t.cost is None and (table.get(t.event) or [None, None, None])[2] is None:
                    diags.append(
                        Diagnostic(
                            UNKNOWN_REFERENCE,
                            f"constraint event {t.event!r} of agent {agent.id!r} has no cost and "
                            f"matches no capability event",
                            f"{where}/constraints/{k}",
                        )
                    )

        for k, f in enumerate(agent.failures):
            f_where = f"{where}/failures/{k}"
            matches = [
                name
                for name, (src, dst, cost) in sorted(table.items())
                if src == f.source and dst == f.target and cost is not None
            ]
            if f.event is not None:
                entry = table.get(f.event)
                if entry is None or (entry[0], entry[1]) != (f.source, f.target):
                    diags.append(
                        Diagnostic(
                            UNKNOWN_REFERENCE,
                            f"failure names event {f.event!r} but agent {agent.id!r} has no such "
                            f"capability transition {f.source}->{f.target}",
                            f_where,
                        )
                    )
            elif not matches:
                diags.append(
                    Diagnostic(
                        UNKNOWN_REFERENCE,
                        f"no capability transition {f.source}->{f.target} for agent {agent.id!r}",
                        f_where,
                    )
                )
            elif len(matches) > 1:
                diags.append(
                    Diagnostic(
                        AMBIGUOUS_REFERENCE,
                        f"{len(matches)} events match {f.source}->{f.target}; name one of {matches}",
                        f_where,
                    )
                )

    n = len(agents)
    inter_raw = doc.get("inter", {})
    inter_caps = _decl_inter_section(inter_raw.get("capabilities", {}), "/inter/capabilities", n, diags)
    inter_cons = _decl_inter_section(inter_raw.get("constraints", {}), "/inter/constraints", n, diags)

    known = set(ids)
    for section, where in ((inter_caps, "/inter/capabilities"), (inter_cons, "/inter/constraints")):
        names = set()
        for e in section.events:
            if e.name in names:
                diags.append(Diagnostic(DUPLICATE_EVENT, f"inter event {e.name!r} declared twice", where))
            names.add(e.name)
            if len(e.source) == n and len(e.target) == n:
                for agent_id, src, dst in zip(ids, e.source, e.target):
                    for label in (src, dst):
                        if label not in alphabets[agent_id]:
                            diags.append(
                                Diagnostic(
                                    UNKNOWN_REFERENCE,
                                    f"inter event {e.name!r} references {label!r}, unknown "
                                    f"for agent {agent_id!r}",
                                    where,
                                )
                            )
        for t in section.templates:
            if t.name in names:
                diags.append(Diagnostic(DUPLICATE_EVENT, f"inter template {t.name!r} reuses a name", where))
            names.add(t.name)
            stray = set(t.members) - known
            if stray:
                diags.append(
                    Diagnostic(UNKNOWN_REFERENCE, f"template {t.name!r} members unknown: {sorted(stray)}", where)
                )
                continue
            for side_name, side in (("from", t.source), ("to", t.target)):
                for agent_id, label in side.items():
                    if agent_id in alphabets and label not in alphabets[agent_id]:
                        diags.append(
                            Diagnostic(
                                UNKNOWN_REFERENCE,
                                f"template {t.name!r} {side_name!r} references {label!r}, unknown "
                                f"for agent {agent_id!r}",
                                where,
                            )
                        )

    initial_raw = doc["initial"]
    for agent_id in ids:
        if agent_id not in initial_raw:
            diags.append(Diagnostic(UNKNOWN_REFERENCE, f"initial state missing agent {agent_id!r}", "/initial"))
    for agent_id, label in initial_raw.items():
        if agent_id not in known:
            diags.append(Diagnostic(UNKNOWN_REFERENCE, f"initial names unknown agent {agent_id!r}", "/initial"))
        elif label not in alphabets[agent_id]:
            diags.append(
                Diagnostic(UNKNOWN_REFERENCE, f"{label!r} is not a state of agent {agent_id!r}", "/initial")
            )

    task_raw = doc["task"]
    for agent_id, label in task_raw.items():
        if agent_id not in known:
            diags.append(Diagnostic(UNKNOWN_REFERENCE, f"task names unknown agent {agent_id!r}", "/task"))
        elif label not in alphabets[agent_id]:
            diags.append(
                Diagnostic(UNKNOWN_REFERENCE, f"{label!r} is not a state of agent {agent_id!r}", "/task")
            )

    options_raw = doc.get("options", {})
    injections = []
    for k, f in enumerate(options_raw.get("failures", ())):
        f_where = f"/options/failures/{k}"
        agent_id = f["agent"]
        if agent_id == INTER_NAMESPACE:
            if not f.get("event"):
                diags.append(
                    Diagnostic(UNKNOWN_REFERENCE, "inter-agent failure injections need an event", f_where)
                )
        elif agent_id not in known:
            diags.append(Diagnostic(UNKNOWN_REFERENCE, f"failure names unknown agent {agent_id!r}", f_where))
        elif not f.get("from") or not f.get("to"):
            diags.append(Diagnostic(SCHEMA, "agent failure injections need 'from' and 'to'", f_where))
        else:
            for label in (f["from"], f["to"]):
                if label not in alphabets[agent_id]:
                    diags.append(
                        Diagnostic(
                            UNKNOWN_REFERENCE, f"{label!r} is not a state of agent {agent_id!r}", f_where
                        )
                    )
        injections.append(FailureInjectionDecl(agent_id, f.get("from"), f.get("to"), f.get("event")))

    if diags:
        return None, diags

    options = OptionsDecl(
        solver=options_raw.get("solver", "complete"),
        failures=tuple(injections),
        template_cap=options_raw.get("template_cap", DEFAULT_TEMPLATE_CAP),
    )
    scenario = ScenarioFile(
        agents=agents,
        initial=tuple(initial_raw[a] for a in ids),
        task=tuple((a, task_raw[a]) for a in ids if a in task_raw),
        inter_capabilities=inter_caps,
        inter_constraints=inter_cons,
        options=options,
        name=doc.get("name", ""),
        notes=doc.get("notes", ""),
    )
    return scenario, []


def parse_scenario(text) -> ScenarioFile:
    """Parse and validate, raising :class:`ScenarioError` with diagnostics."""
    scenario, diags = validate_scenario(text)
    if scenario is None:
        raise ScenarioError(diags)
    return scenario


def serialize_scenario(sc: ScenarioFile) -> str:
    """Deterministic rendering; ``parse_scenario`` inverts it exactly."""

    def automaton(decl: AutomatonDecl, costs_required: bool) -> dict:
        out = {"name": decl.name, "states": list(decl.states)}
        if decl.marked is not None:
            out["marked"] = list(decl.marked)
        out["transitions"] = [
            {
                "from": t.source,
                "event": t.event,
                "to": t.target,
                **({"cost": t.cost} if (costs_required or t.cost is not None) else {}),
            }
            for t in decl.transitions
        ]
        return out

    def section(s: InterSectionDecl) -> dict:
        out = {}
        if s.events:
            out["events"] = [
                {"name": e.name, "from": list(e.source), "to": list(e.target), "cost": e.cost}
                for e in s.events
            ]
        if s.templates:
            out["templates"] = [
                {
                    "name": t.name,
                    "members": list(t.members),
                    "from": dict(t.source),
                    "to": dict(t.target),
                    "cost": t.cost,
                }
                for t in s.templates
            ]
        return out

    doc = {"version": 1}
    if sc.name:
        doc["name"] = sc.name
    if sc.notes:
        doc["notes"] = sc.notes
    doc["agents"] = []
    for a in sc.agents:
        entry = {"id": a.id, "capabilities": [automaton(c, True) for c in a.capabilities]}
        if a.constraints:
            entry["constraints"] = [automaton(c, False) for c in a.constraints]
        if a.failures:
            entry["failures"] = [
                {"from": f.source, "to": f.target, **({"event": f.event} if f.event else {})}
                for f in a.failures
            ]
        doc["agents"].append(entry)
    inter = {}
    if sc.inter_capabilities.events or sc.inter_capabilities.templates:
        inter["capabilities"] = section(sc.inter_capabilities)
    if sc.inter_constraints.events or sc.inter_constraints.templates:
        inter["constraints"] = section(sc.inter_constraints)
    if inter:
        doc["inter"] = inter
    doc["initial"] = {a: label for a, label in zip(sc.agent_ids, sc.initial)}
    doc["task"] = dict(sc.task)
    options = {}
    if sc.options.solver != "complete":
        options["solver"] = sc.options.solver
    if sc.options.failures:
        options["failures"] = [
            {
                "agent": f.agent,
                **({"from": f.source} if f.source else {}),
                **({"to": f.target} if f.target else {}),
                **({"event": f.event} if f.event else {}),
            }
            for f in sc.options.failures
        ]
    if sc.options.template_cap != DEFAULT_TEMPLATE_CAP:
        options["template_cap"] = sc.options.template_cap
    if options:
        doc["options"] = options
    return json.dumps(doc, indent=2) + "\n"


def expand_inter_templates(sc: ScenarioFile, cap: int = None) -> ScenarioFile:
    """Replace every inter-agent template with concrete full-arity events, one
    uniquely named event per combination of non-member agent states, all
    sharing the template's cost."""
    cap = sc.options.template_cap if cap is None else cap
    ids = sc.agent_ids
    alphabets = {a: sorted(sc.alphabet(a)) for a in ids}

    total = 0
    for section in (sc.inter_capabilities, sc.inter_constraints):
        for t in section.templates:
            count = 1
            for agent_id in ids:
                if agent_id not in t.members:
                    count *= len(alphabets[agent_id])
            total += count
    if total > cap:
        raise ExpansionBlowup(f"templates expand to {total} events, cap is {cap}")

    def expand(section: InterSectionDecl) -> InterSectionDecl:
        events = list(section.events)
        for t in section.templates:
            context_agents = [a for a in ids if a not in t.members]
            for combo in itertools.product(*(alphabets[a] for a in context_agents)):
                context = dict(zip(context_agents, combo))
                suffix = ",".join(f"{a}={context[a]}" for a in context_agents)
                name = f"{t.name}@{suffix}" if suffix else t.name
                src = tuple(t.source[a] if a in t.members else context[a] for a in ids)
                dst = tuple(t.target[a] if a in t.members else context[a] for a in ids)
                events.append(InterEventDecl(name, src, dst, t.cost))
        return InterSectionDecl(tuple(events), ())

    return replace(
        sc,
        inter_capabilities=expand(sc.inter_capabilities),
        inter_constraints=expand(sc.inter_constraints),
    )


def _agent_nfa(agent_id: str, decl: AutomatonDecl, cost_table, *, remover: bool):
    transitions = {}
    costs = {}
    for t in decl.transitions:
        e = EventId(agent_id, t.event)
        transitions[((t.source,), e)] = (t.target,)
        costs[e] = t.cost if t.cost is not None else cost_table[t.event]
    if decl.marked is not None:
        marked = {(s,) for s in decl.marked}
    else:
        marked = () if remover else None
    return make_nfa((agent_id,), [(s,) for s in decl.states], costs, transitions, costs, marked=marked)


def agent_specs(sc: ScenarioFile) -> list:
    """Build :class:`AgentSpec` bundles from the declarations.

    Capability automata default to all-marked; constraint and failure
    automata default to unmarked so they only ever remove events, never
    markings, unless the file says otherwise.
    """
    specs = []
    for agent in sc.agents:
        cost_table = {}
        endpoint_table = {}
        for cap in agent.capabilities:
            for t in cap.transitions:
                cost_table[t.event] = t.cost
                endpoint_table[(t.source, t.target)] = t.event
        caps = tuple(_agent_nfa(agent.id, c, cost_table, remover=False) for c in agent.capabilities)
        cons = tuple(_agent_nfa(agent.id, c, cost_table, remover=True) for c in agent.constraints)
        fails = []
        for f in agent.failures:
            name = f.event if f.event is not None else endpoint_table[(f.source, f.target)]
            e = EventId(agent.id, name)
            fails.append(
                make_nfa(
                    (agent.id,),
                    {(f.source,), (f.target,)},
                    [e],
                    {((f.source,), e): (f.target,)},
                    {e: cost_table[name]},
                    marked=(),
                )
            )
        specs.append(AgentSpec(agent.id, caps, tuple(fails), cons))
    return specs


def _inter_nfa(section: InterSectionDecl, slot_names: tuple, *, remover: bool):
    if not section.events:
        return None
    transitions = {}
    costs = {}
    states = set()
    for e in section.events:
        eid = EventId(INTER_NAMESPACE, e.name)
        transitions[(e.source, eid)] = e.target
        costs[eid] = e.cost
        states.update({e.source, e.target})
    return make_nfa(slot_names, states, costs, transitions, costs, marked=() if remover else None)


def inter_spec(sc: ScenarioFile) -> InterAgentSpec:
    """Full-arity inter-agent automata; templates must be expanded first."""
    pending = sc.inter_capabilities.templates + sc.inter_constraints.templates
    if pending:
        raise ScenarioError(
            [Diagnostic(SCHEMA, f"{len(pending)} template(s) not expanded; call expand_inter_templates")]
        )
    slots = sc.agent_ids
    caps = _inter_nfa(sc.inter_capabilities, slots, remover=False)
    cons = _inter_nfa(sc.inter_constraints, slots, remover=True)
    if caps is None and cons is None:
        return None
    return InterAgentSpec(capabilities=caps, constraints=cons)


def task_spec(sc: ScenarioFile) -> TaskSpecification:
    ids = sc.agent_ids
    assigned = dict(sc.task)
    projector = Projector(tuple(a in assigned for a in ids))
    target = tuple(assigned[a] for a in ids if a in assigned)
    return TaskSpecification(projector, target)


def failure_events(sc: ScenarioFile) -> list:
    """The on-the-fly failure injections listed under ``options``."""
    out = []
    for f in sc.options.failures:
        event = None
        if f.event is not None:
            namespace = INTER_NAMESPACE if f.agent == INTER_NAMESPACE else f.agent
            event = EventId(namespace, f.event)
        out.append(FailureEvent(f.agent, f.source, f.target, event))
    return out


def build_scenario_environment(sc: ScenarioFile) -> EnvironmentModel:
    """Expand templates if needed, then compose the environment model."""
    if sc.inter_capabilities.templates or sc.inter_constraints.templates:
        sc = expand_inter_templates(sc)
    return build_environment(agent_specs(sc), inter_spec(sc))

"""The benchmark's three workloads: their inputs, made from a seed.

Each workload hands the library scenario text, one failure to inject on the
fly and a list of planning queries. The library receives only these inputs;
the seed, the query strata and the reference stay on this side.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from specter import composer, planner, scenario
from specter.automata import EventId

from reference import Reference, expected_after_inject

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@dataclass(frozen=True)
class Query:
    solver: str  # "complete" or "heuristic"
    x0: tuple
    task: dict  # {slot index: label}, the reference's view
    spec: object  # the same task as the library's TaskSpecification
    goals: int  # marked states that satisfy the task


def alphabets(doc):
    """Per-agent state labels, read from the scenario document itself."""
    return [sorted({s for cap in a["capabilities"] for s in cap["states"]}) for a in doc["agents"]]


def _query(solver, slot_names, x0, task, ref):
    spec = planner.task_for(slot_names, {slot_names[i]: label for i, label in task.items()})
    if len(task) == len(slot_names):
        goals = int(tuple(task[i] for i in range(len(slot_names))) in ref.marked)
    else:
        is_goal = ref.goal_test(task)
        goals = sum(1 for s in ref.marked if is_goal(s))
    return Query(solver, x0, task, spec, goals)


def _bands(ranked, n):
    """``ranked`` cut into ``min(n, len(ranked))`` equal consecutive bands."""
    n = min(n, len(ranked))
    return [ranked[b * len(ranked) // n:(b + 1) * len(ranked) // n] for b in range(n)]


def _agent_failure(rng, doc, events):
    """A seeded failed transition of one agent whose event survives in the
    built model, so removing it touches every context of the other agents."""
    moves = [
        (a["id"], t) for a in doc["agents"] for cap in a["capabilities"] for t in cap["transitions"]
        if EventId(a["id"], t["event"]) in events
    ]
    agent, t = rng.choice(moves)
    return composer.FailureEvent(agent, t["from"], t["to"], EventId(agent, t["event"]))


class Workload:
    """An untraced run makes ``reps`` pre-processing cycles (setup, inject,
    save, load); the metrics of each operation are medians over them."""

    reps = 5

    def __init__(self, seed, text):
        self.rng = random.Random(seed)
        self.text = text
        self.doc = json.loads(text)

    def inject_base(self, sc, env):
        """The model the failure is detected on."""
        return env

    def failure(self, sc, base):
        return _agent_failure(self.rng, self.doc, base.automaton.events)

    def case_study(self, sc, base, patched, graph):
        """Extra checks on the scenario's own query: ``[(what, reason or None)]``."""
        return []


class FactoryQueries(Workload):
    """factory_cell with its R2 failure; every single-slot task, each asked
    from ``PER_TASK`` initial states that the scenario's own initial state
    reaches and that do not already satisfy it; both solvers on each.

    A task's candidate initial states are sorted by how far the heuristic's
    target lies from them (its distance rank; unreachable last) and cut into
    ``PER_TASK`` equal bands, and one state is drawn from each band. Drawn
    without bands, the share of near targets moved the heuristic's median by
    a quarter from seed to seed.
    """

    name = "factory_queries"
    reps = 20
    PER_TASK = 12

    def __init__(self, seed):
        super().__init__(seed, (SCENARIOS / "factory_cell.json").read_text(encoding="utf-8"))

    def inject_base(self, sc, env):
        # The paper's case: the model was built before R2's failure was seen.
        return scenario.build_scenario_environment(sc)

    def failure(self, sc, base):
        (f,) = scenario.failure_events(sc)
        return f

    def case_study(self, sc, base, patched, graph):
        """The paper's case: cost 36 before R2's failure, 55 after it with no
        R2 event, under both solvers."""
        x0, task = tuple(sc.initial), scenario.task_spec(sc)
        before = planner.plan_complete(base, x0, task)
        out = [("case study before the failure",
                None if before.cost == 36 else f"cost {before.cost}, expected 36")]
        for solve in (planner.plan_complete, planner.plan_heuristic):
            after = solve(patched, x0, task, graph=graph)
            r2 = [str(m.event) for m in after.chain.modules if m.event.namespace == "R2"]
            reason = None
            if after.cost != 55 or r2:
                reason = f"cost {after.cost} (expected 55), R2 events {r2}"
            out.append((f"case study after the failure, {after.solver}", reason))
        return out

    def queries(self, sc, env, ref):
        ids = env.agent_ids
        reached = sorted(ref.distances(tuple(sc.initial)))
        ranks = {}
        for x0 in reached:
            dist = ref.distances(x0)
            ranks[x0] = {s: i for i, s in enumerate(sorted(dist, key=lambda s: (dist[s], s)))}
        out = []
        for slot, labels in enumerate(alphabets(self.doc)):
            for label in labels:
                def far(x0):
                    target = x0[:slot] + (label,) + x0[slot + 1:]
                    return ranks[x0].get(target, len(reached)), x0

                candidates = sorted((x for x in reached if x[slot] != label), key=far)
                for band in _bands(candidates, self.PER_TASK):
                    x0 = self.rng.choice(band)
                    out += [_query(s, ids, x0, {slot: label}, ref) for s in ("complete", "heuristic")]
        self.rng.shuffle(out)
        return out


class WorkflowMid(Workload):
    """workflow_small after one seeded agent failure that the workflow can
    route around. Queries start at the scenario's initial state: its own task
    under the heuristic solver, ``BANDS`` complete and ``HEURISTIC_BANDS``
    heuristic tasks that fix seven of nine slots to a reached state.

    The tasks come from a seeded pool of ``POOL``. Sorted by how far their
    goals lie (the summed distance ranks of the goals; for the heuristic, the
    rank of its target), the pool is cut into equal bands and the middle task
    of each band is asked, so every seed asks the same spread of near and far
    tasks. Failures that cut states off, and tasks with an unreachable goal
    or heuristic target, are drawn again: each such goal costs a search of
    everything reachable, and how many a seed drew changed a run's query
    time threefold. factory_queries carries those searches instead.
    """

    name = "workflow_mid"
    BANDS = 12
    HEURISTIC_BANDS = 36
    POOL = 960

    def __init__(self, seed):
        super().__init__(seed, (SCENARIOS / "workflow_small.json").read_text(encoding="utf-8"))

    def failure(self, sc, base):
        a, x0 = base.automaton, tuple(sc.initial)
        reached = len(Reference(a.transitions, a.costs, a.marked).distances(x0))
        while True:
            f = super().failure(sc, base)
            kept = expected_after_inject(a.transitions, base.agent_ids.index(f.agent_id), f)
            if len(Reference(kept, a.costs, a.marked).distances(x0)) == reached:
                return f

    def queries(self, sc, env, ref):
        ids, x0 = env.agent_ids, tuple(sc.initial)
        labels = alphabets(self.doc)
        pairs = [p for p in itertools.combinations(range(len(ids)), 2)
                 if 6 <= len(labels[p[0]]) * len(labels[p[1]]) <= 12]
        dist = ref.distances(x0)
        order = sorted(dist, key=lambda s: (dist[s], s))
        rank = {s: i for i, s in enumerate(order)}
        pool = []
        while len(pool) < self.POOL:
            y, (i, j) = self.rng.choice(order), self.rng.choice(pairs)
            goals = []
            for a, b in itertools.product(labels[i], labels[j]):
                g = list(y)
                g[i], g[j] = a, b
                goals.append(tuple(g))
            target = tuple(x0[k] if k in (i, j) else y[k] for k in range(len(ids)))
            if target in rank and all(g in rank for g in goals):
                task = {k: y[k] for k in range(len(ids)) if k not in (i, j)}
                far = sum(rank[g] for g in goals if g in ref.marked)
                pool.append((far, rank[target], task))

        def middles(key, n):
            ranked = sorted(pool, key=key)
            return [ranked[int((b + 0.5) * len(ranked) / n)][2] for b in range(n)]

        own = {ids.index(a): label for a, label in dict(sc.task).items()}
        out = [_query("heuristic", ids, x0, own, ref)]
        out += [_query("complete", ids, x0, t, ref) for t in middles(lambda c: c[0], self.BANDS)]
        out += [_query("heuristic", ids, x0, t, ref)
                for t in middles(lambda c: c[1], self.HEURISTIC_BANDS)]
        self.rng.shuffle(out)
        return out


def stress_scenario(n_agents=5, n_states=10, n_extra=2, seed=424242):
    """The C8b stress generator (criterion 8b of the acceptance tests) as
    scenario text: each agent is a shuffled cycle over its states plus
    ``n_extra`` random shortcuts, costs 1..100."""
    rng = random.Random(seed)
    agents = []
    for i in range(n_agents):
        aid = f"g{i}"
        labels = [f"s{j}" for j in range(n_states)]
        order = labels[:]
        rng.shuffle(order)
        pairs = list(zip(order, order[1:] + order[:1]))
        seen = set(pairs)
        while len(pairs) < n_states + n_extra:
            u, v = rng.choice(labels), rng.choice(labels)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                pairs.append((u, v))
        transitions = [
            {"from": u, "event": f"m{k}", "to": v, "cost": rng.randint(1, 100)}
            for k, (u, v) in enumerate(pairs)
        ]
        # The cycle and the shortcuts as two automata: the same agent, and
        # its capabilities go through the union as in the bundled scenarios.
        agents.append({"id": aid, "capabilities": [
            {"name": "cycle", "states": labels, "transitions": transitions[:n_states]},
            {"name": "shortcuts", "states": labels, "transitions": transitions[n_states:]},
        ]})
    doc = {
        "version": 1,
        "name": "c8b-stress",
        "agents": agents,
        "initial": {a["id"]: "s0" for a in agents},
        "task": {agents[0]["id"]: "s1"},
    }
    return json.dumps(doc, indent=1)


class Stress1e5(Workload):
    """The C8b model (1e5 states, 6e5 transitions) after one seeded agent
    failure; ``QUERIES`` point-to-point tasks that fix all five slots to a
    state ``WALK`` random moves away from a random initial state, under both
    solvers. A pool of ``POOL`` such pairs is sorted by their distance and
    cut into ``QUERIES`` equal bands, and one pair is drawn from each, so
    every seed asks the same spread of near and far pairs."""

    name = "stress_1e5"
    reps = 3
    QUERIES = 200
    POOL = 800
    WALK = 2

    def __init__(self, seed):
        super().__init__(seed, stress_scenario())

    def queries(self, sc, env, ref):
        ids = env.agent_ids
        states = sorted(ref.adj)
        pool = []
        while len(pool) < self.POOL:
            x0 = y = self.rng.choice(states)
            for _ in range(self.WALK):
                y = self.rng.choice(ref.adj[y])[1]
            if y != x0:
                pool.append((ref.optimum(x0, dict(enumerate(y))), x0, y))
        out = []
        for band in _bands(sorted(pool), self.QUERIES):
            _, x0, y = self.rng.choice(band)
            out += [_query(s, ids, x0, dict(enumerate(y)), ref) for s in ("complete", "heuristic")]
        return out


WORKLOADS = {w.name: w for w in (FactoryQueries, WorkflowMid, Stress1e5)}


def product_law(doc):
    return math.prod(len(a) for a in alphabets(doc))

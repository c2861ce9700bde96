"""Independent reference for checking the planner's outputs.

Nothing here imports ``planner``, ``search``, ``_kernels`` or ``oracle``: the
reference reads only the raw transition map, the event costs and the marked
set of a model, runs a plain ``heapq`` multi-goal Dijkstra over them, and
replays event sequences by direct lookup. Every ``check_*`` function returns
``None`` for a correct answer and a one-line reason otherwise.
"""
from __future__ import annotations

import heapq
import math


class Reference:
    """Adjacency view of one model: ``transitions`` maps ``(state, event)``
    to the next state, ``costs`` maps events to positive costs."""

    def __init__(self, transitions, costs, marked):
        self.transitions = transitions
        self.costs = costs
        self.marked = marked
        adj = {}
        for (x, e), y in transitions.items():
            adj.setdefault(x, []).append((costs[e], y))
        # Sorted, so that inputs drawn from it do not follow the model's dict order.
        self.adj = {x: sorted(out) for x, out in adj.items()}

    def distances(self, x0, is_goal=None):
        """Dijkstra from ``x0``. Without ``is_goal`` it settles everything
        reachable and returns ``{state: cost}``; with it, it stops at the first
        settled goal and returns ``(cost, goal)``, or ``None`` if none is
        reachable."""
        dist = {x0: 0.0}
        done = set()
        heap = [(0.0, x0)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            if is_goal is not None and is_goal(u):
                return d, u
            for c, v in self.adj.get(u, ()):
                nd = d + c
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return None if is_goal is not None else {s: dist[s] for s in done}

    def goal_test(self, task, marked=True):
        """``task`` is ``{slot index: label}``; a goal is a state that reads
        those labels and, unless ``marked`` is false, is marked."""
        items = tuple(task.items())
        pool = self.marked if marked else None
        return lambda s: (pool is None or s in pool) and all(s[i] == label for i, label in items)

    def optimum(self, x0, task):
        """Cheapest cost from ``x0`` to any goal of ``task``, or ``None``."""
        found = self.distances(x0, self.goal_test(task))
        return None if found is None else found[0]

    def replay(self, x0, events):
        """Follow ``events`` from ``x0``; returns ``(states, cost)`` or raises
        ``KeyError`` at the first event that cannot fire."""
        states = [x0]
        cost = 0.0
        for e in events:
            states.append(self.transitions[(states[-1], e)])
            cost += self.costs[e]
        return states, cost


INFEASIBLE = ("TaskInfeasible", "NoGoalStates")
HEURISTIC_NO_PLAN = ("NoSuchGoal", "NoPath")


def _check_chain(ref, x0, is_goal, plan):
    """Shared part of both solvers' checks: the chain links up, replays from
    ``x0`` onto a state that ``is_goal`` accepts, and its costs add up."""
    chain = plan.chain
    t0 = chain.task_module_inverted
    mods = chain.modules
    if tuple(t0.output_port) != x0:
        return f"inverted task module leads to {t0.output_port}, not the initial state {x0}"
    ports = [tuple(t0.output_port)]
    for m in mods:
        if tuple(m.input_port) != ports[-1]:
            return f"broken link: module {m.event} starts at {m.input_port}, previous ends at {ports[-1]}"
        ports.append(tuple(m.output_port))
    if ports[-1] != tuple(t0.input_port) or ports[-1] != tuple(plan.goal_state):
        return f"chain ends at {ports[-1]}, goal is {plan.goal_state}"
    try:
        states, cost = ref.replay(x0, [m.event for m in mods])
    except KeyError as exc:
        return f"event does not fire on replay: {exc.args[0]}"
    if states != ports:
        return "replayed states differ from the module ports"
    if not is_goal(states[-1]):
        return f"end state {states[-1]} does not satisfy the task"
    for m in mods:
        if not math.isclose(m.cost, ref.costs[m.event]):
            return f"module {m.event} costs {m.cost}, the event costs {ref.costs[m.event]}"
    if not math.isclose(chain.total_cost, cost) or not math.isclose(plan.cost, cost):
        return f"reported cost {plan.cost} (chain {chain.total_cost}) but events sum to {cost}"
    return None


def check_complete(ref, x0, task, outcome, optimum):
    """``outcome`` is a plan or the exception the solver raised; ``optimum``
    is ``ref.optimum(x0, task)``."""
    if isinstance(outcome, Exception):
        if type(outcome).__name__ in INFEASIBLE:
            if optimum is None:
                return None
            return f"declared infeasible, but a goal is reachable at cost {optimum}"
        return f"unexpected {type(outcome).__name__}: {outcome}"
    if optimum is None:
        return f"returned a plan of cost {outcome.cost}, but no goal is reachable"
    reason = _check_chain(ref, x0, ref.goal_test(task), outcome)
    if reason:
        return reason
    if not math.isclose(outcome.cost, optimum):
        return f"cost {outcome.cost} is not the optimum {optimum}"
    return None


def check_heuristic(ref, x0, task, outcome, optimum):
    """A heuristic "no plan" is a valid answer; a plan must replay and may
    not beat the optimum."""
    if isinstance(outcome, Exception):
        if type(outcome).__name__ in HEURISTIC_NO_PLAN:
            return None
        return f"unexpected {type(outcome).__name__}: {outcome}"
    if optimum is None:
        return f"returned a plan of cost {outcome.cost}, but no goal is reachable"
    # The heuristic stops at the first state that reads the task's labels.
    reason = _check_chain(ref, x0, ref.goal_test(task, marked=False), outcome)
    if reason:
        return reason
    if outcome.cost < optimum and not math.isclose(outcome.cost, optimum):
        return f"cost {outcome.cost} beats the optimum {optimum}"
    return None


def expected_after_inject(transitions, slot, failure):
    """The transition map once ``failure`` (an agent's failed transition with
    its event) is carved out: every context of that move goes."""
    return {
        (x, e): y for (x, e), y in transitions.items()
        if not (e == failure.event and x[slot] == failure.source and y[slot] == failure.target)
    }


def check_inject(base, patched, expected, contexts):
    """``base`` and ``patched`` are automata; ``contexts`` is the product of
    the other agents' alphabet sizes, the number of transitions an
    unconstrained agent move has in the model."""
    removed = len(base.transitions) - len(expected)
    if removed != contexts:
        return f"the failed move has {removed} contexts in the model, expected {contexts}"
    if patched.transitions != expected:
        return (f"kept {len(patched.transitions)} transitions, expected {len(expected)}"
                " or a different set")
    return check_same_model(base, patched, transitions=False)


def check_same_model(a, b, transitions=True):
    """Equality on states, events, costs, marking and (optionally) transitions."""
    for field in ("slot_names", "states", "events", "costs", "marked") + (
        ("transitions",) if transitions else ()
    ):
        if getattr(a, field) != getattr(b, field):
            return f"models differ on {field}"
    return None

"""Task planning over a built environment model.

A plan is a closed module chain: single input/output port modules strung
together output-to-input, plus the inverted virtual task module that closes
the loop from the reached goal back to the initial state. The complete solver
runs one search from the initial state that stops at the first marked goal
state it settles, which is the cheapest one; the heuristic solver aims at the
single goal state that leaves every unconstrained agent where it started and
truncates the path at the first state satisfying the task, trading
optimality and completeness for a search toward one fixed state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._kernels import dijkstra_arrays
from .automata import VIRTUAL_NAMESPACE, EventId, Projector, State, merge_on, proj, state_str
from .composer import EnvironmentModel
from .errors import (
    BrokenPath,
    LengthMismatch,
    NoGoalStates,
    NoPath,
    NoSuchGoal,
    TaskInfeasible,
    UnknownState,
)
from .graph import WeightedGraph, to_graph
from .search import dijkstra, reconstruct

VIRTUAL_TASK_EVENT = EventId(VIRTUAL_NAMESPACE, "task")


@dataclass(frozen=True)
class TaskSpecification:
    """Desired projection: the slots selected by ``projector`` must read
    exactly ``target``."""

    projector: Projector
    target: tuple

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        if self.projector.popcount < 1:
            raise LengthMismatch("task projector selects no slots")
        if len(self.target) != self.projector.popcount:
            raise LengthMismatch(
                f"target has {len(self.target)} components, projector selects "
                f"{self.projector.popcount}"
            )


def task_for(slot_names: Sequence, assignments: Mapping) -> TaskSpecification:
    """Desugar ``{agent: label}`` assignments into a task specification."""
    b = Projector.from_slots(slot_names, assignments.keys())
    target = tuple(assignments[name] for name in slot_names if name in assignments)
    return TaskSpecification(b, target)


@dataclass(frozen=True)
class PortModule:
    """Single I/O port module: consumes the input port state, fires one event,
    yields the output port state."""

    input_port: State
    event: EventId
    output_port: State
    cost: float

    def __str__(self) -> str:
        return (
            f"{{{state_str(self.input_port)}, {self.event}, "
            f"{state_str(self.output_port)}}} @ {self.cost}"
        )


def invert_module(m: PortModule) -> PortModule:
    """Swap the ports; event and cost ride along."""
    return PortModule(m.output_port, m.event, m.input_port, m.cost)


@dataclass(frozen=True)
class ModuleChain:
    """Closed chain: ``task_module_inverted`` leads from the reached goal back
    to the initial state over the zero-cost virtual event."""

    task_module_inverted: PortModule
    modules: tuple

    @property
    def total_cost(self) -> float:
        return sum(m.cost for m in self.modules)

    @property
    def events(self) -> tuple:
        return tuple(m.event for m in self.modules)

    def __len__(self) -> int:
        return len(self.modules)


def check_chain(chain: ModuleChain) -> bool:
    """True iff consecutive modules are directionally compatible and the loop
    closes through the inverted task module."""
    t0 = chain.task_module_inverted
    mods = chain.modules
    if not mods:
        return t0.input_port == t0.output_port
    if mods[0].input_port != t0.output_port:
        return False
    for m1, m2 in zip(mods, mods[1:]):
        if m1.output_port != m2.input_port:
            return False
    return mods[-1].output_port == t0.input_port


@dataclass(frozen=True)
class PlanResult:
    chain: ModuleChain
    cost: float
    goal_state: State
    solver: str


def build_chain(path: Sequence, g: WeightedGraph, x0: State, x_d: State) -> ModuleChain:
    """Turn a state path into a module chain closed by the inverted task
    module {x_d, virtual, x0}."""
    path = [tuple(p) for p in path]
    mods = []
    for u, v in zip(path, path[1:]):
        try:
            i, j = g.node_index[u], g.node_index[v]
        except KeyError as exc:
            raise BrokenPath(f"path state {exc.args[0]} is not a node of the graph") from None
        k = g.edge(i, j)
        if k < 0:
            raise BrokenPath(f"no edge between consecutive states {state_str(u)} and {state_str(v)}")
        mods.append(PortModule(u, g.events[g.edge_event[k]], v, float(g.weights[k])))
    t0_inv = PortModule(tuple(x_d), VIRTUAL_TASK_EVENT, tuple(x0), 0.0)
    return ModuleChain(t0_inv, tuple(mods))


def _empty_plan(x0: State, solver: str) -> PlanResult:
    t0_inv = PortModule(x0, VIRTUAL_TASK_EVENT, x0, 0.0)
    return PlanResult(ModuleChain(t0_inv, ()), 0.0, x0, solver)


def _validate_task(env: EnvironmentModel, task: TaskSpecification) -> None:
    if len(task.projector) != len(env.agent_ids):
        raise LengthMismatch(
            f"projector has {len(task.projector)} bits, model has {len(env.agent_ids)} agents"
        )
    selected = [i for i, bit in enumerate(task.projector.bits) if bit]
    for slot, label in zip(selected, task.target):
        if label not in env.per_agent_alphabets[slot]:
            raise UnknownState(
                f"{label!r} is not a state of agent {env.agent_ids[slot]!r}"
            )


def plan_complete(
    env: EnvironmentModel,
    x0: State,
    task: TaskSpecification,
    *,
    graph: WeightedGraph = None,
) -> PlanResult:
    """Cheapest chain to any marked state matching the task.

    One search from ``x0`` stops at the first goal state it settles. The task
    is infeasible only when no goal is reachable. Ties on cost resolve to the
    goal with the smallest node index.
    """
    x0 = tuple(x0)
    source = env.node_of(x0)
    _validate_task(env, task)
    b, gamma = task.projector, task.target
    if proj(x0, b) == gamma and env.marked[source]:
        return _empty_plan(x0, "complete")

    g = to_graph(env) if graph is None else graph
    goal = np.fromiter(
        (m and proj(s, b) == gamma for m, s in zip(env.marked.tolist(), g.states)),
        dtype=np.bool_,
        count=g.n_nodes,
    )
    if not goal.any():
        raise NoGoalStates(f"no marked state projects onto {gamma} under {task.projector}")
    _, pred, found = dijkstra_arrays(g.indptr, g.indices, g.weights, source, goal)
    if found < 0:
        raise TaskInfeasible(f"no goal state is reachable from {state_str(x0)}")

    path = [g.states[i] for i in reconstruct(pred, source, int(found))]
    chain = build_chain(path, g, x0, path[-1])
    return PlanResult(chain, chain.total_cost, path[-1], "complete")


def plan_heuristic(
    env: EnvironmentModel,
    x0: State,
    task: TaskSpecification,
    *,
    graph: WeightedGraph = None,
) -> PlanResult:
    """Single-goal search: aim at the unique marked state that satisfies the
    task and agrees with ``x0`` everywhere else, then truncate the path at the
    first state whose projection already satisfies the task.

    Failure here (no such goal, or no path to it) says nothing about task
    feasibility; the complete solver may still succeed.
    """
    x0 = tuple(x0)
    source = env.node_of(x0)
    _validate_task(env, task)
    b, gamma = task.projector, task.target
    if proj(x0, b) == gamma and env.marked[source]:
        return _empty_plan(x0, "heuristic")

    x_d = merge_on(x0, b, gamma)  # a state: _validate_task checked gamma's labels
    if not env.marked[env.node_of(x_d)]:
        raise NoSuchGoal(f"{state_str(x_d)} is not a marked state of the model")

    g = to_graph(env) if graph is None else graph
    path, _ = dijkstra(g, x0, x_d)  # NoPath propagates: heuristic failure

    for k in range(1, len(path)):
        if proj(path[k], b) == gamma:
            chain = build_chain(path[: k + 1], g, x0, path[k])
            return PlanResult(chain, chain.total_cost, path[k], "heuristic")
    raise NoPath(f"no prefix of the path to {state_str(x_d)} satisfies the task")

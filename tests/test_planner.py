from __future__ import annotations

import itertools

import pytest

from specter.automata import EventId, Projector, make_nfa, proj, replay
from specter.composer import AgentSpec, build_environment
from specter.errors import (
    BrokenPath,
    LengthMismatch,
    NoGoalStates,
    NoPath,
    NoSuchGoal,
    TaskInfeasible,
    UnknownState,
)
from specter.graph import to_graph
from specter.search import dijkstra_indices
from specter.oracle import brute_force_shortest, enumerate_goal_states, random_scenario
from specter.planner import (
    ModuleChain,
    PortModule,
    TaskSpecification,
    VIRTUAL_TASK_EVENT,
    build_chain,
    check_chain,
    invert_module,
    plan_complete,
    plan_heuristic,
    task_for,
)

from .conftest import ev


def _env(edges, marked=None):
    """Single agent 'x' environment from {name: (src, dst, cost)}."""
    transitions = {}
    costs = {}
    states = set()
    for name, (src, dst, cost) in edges.items():
        e = EventId("x", name)
        transitions[((src,), e)] = (dst,)
        costs[e] = cost
        states.update({(src,), (dst,)})
    nfa = make_nfa(("x",), states, costs, transitions, costs, marked=marked)
    return build_environment([AgentSpec("x", (nfa,))])


def _task(label):
    return TaskSpecification(Projector.from_string("1"), (label,))


class TestTaskSpecification:
    def test_length_must_match_popcount(self):
        with pytest.raises(LengthMismatch):
            TaskSpecification(Projector.from_string("101"), ("A",))
        with pytest.raises(LengthMismatch):
            TaskSpecification(Projector.from_string("000"), ())

    def test_task_for_orders_by_slots(self):
        t = task_for(("r", "s", "w"), {"w": "B", "r": "A"})
        assert str(t.projector) == "101"
        assert t.target == ("A", "B")


class TestModules:
    def test_invert_swaps_ports(self):
        m = PortModule(("A",), ev("x", "e"), ("B",), 3.0)
        assert invert_module(m) == PortModule(("B",), ev("x", "e"), ("A",), 3.0)

    def test_invert_is_involution(self):
        m = PortModule(("A",), ev("x", "e"), ("B",), 3.0)
        assert invert_module(invert_module(m)) == m

    def test_inverted_module_agrees_with_inverse_transition(self):
        # Cross-check against the automaton-level inverse: walking a module
        # backward lands on the same source the automaton reports.
        from specter.automata import inverse_transition

        for seed in range(20):
            gs = random_scenario(seed + 6500)
            env = build_environment(gs.agents, gs.inter)
            try:
                result = plan_complete(env, gs.initial, gs.task)
            except (TaskInfeasible, NoGoalStates):
                continue
            for m in result.chain.modules:
                inverted = invert_module(m)
                assert inverse_transition(env.automaton, m.output_port, m.event) == m.input_port
                assert inverted.input_port == m.output_port
                assert inverted.output_port == m.input_port


class TestBuildAndCheckChain:
    def test_single_edge_path(self):
        env = _env({"e1": ("A", "B", 10)})
        g = to_graph(env)
        chain = build_chain([("A",), ("B",)], g, ("A",), ("B",))
        assert len(chain.modules) == 1
        assert chain.modules[0] == PortModule(("A",), ev("x", "e1"), ("B",), 10.0)
        t0 = chain.task_module_inverted
        assert t0.input_port == ("B",) and t0.output_port == ("A",)
        assert t0.event == VIRTUAL_TASK_EVENT and t0.cost == 0.0
        assert check_chain(chain)

    def test_broken_path(self):
        env = _env({"e1": ("A", "B", 10)})
        g = to_graph(env)
        with pytest.raises(BrokenPath):
            build_chain([("B",), ("A",)], g, ("B",), ("A",))

    def test_swapped_modules_rejected(self):
        env = _env({"e1": ("A", "B", 1), "e2": ("B", "C", 1)})
        g = to_graph(env)
        chain = build_chain([("A",), ("B",), ("C",)], g, ("A",), ("C",))
        assert check_chain(chain)
        swapped = ModuleChain(chain.task_module_inverted, chain.modules[::-1])
        assert not check_chain(swapped)

    def test_permutations_rejected_unless_identity(self):
        env = _env(
            {"e1": ("A", "B", 1), "e2": ("B", "C", 1), "e3": ("C", "D", 1), "e4": ("D", "E", 1)}
        )
        g = to_graph(env)
        path = [("A",), ("B",), ("C",), ("D",), ("E",)]
        chain = build_chain(path, g, ("A",), ("E",))
        for perm in itertools.permutations(range(len(chain.modules))):
            candidate = ModuleChain(chain.task_module_inverted, tuple(chain.modules[i] for i in perm))
            expected = perm == tuple(range(len(chain.modules)))
            assert check_chain(candidate) == expected

    def test_empty_chain_closes_on_itself(self):
        t0 = PortModule(("A",), VIRTUAL_TASK_EVENT, ("A",), 0.0)
        assert check_chain(ModuleChain(t0, ()))
        open_t0 = PortModule(("B",), VIRTUAL_TASK_EVENT, ("A",), 0.0)
        assert not check_chain(ModuleChain(open_t0, ()))


class TestPlanComplete:
    def test_initial_already_satisfies(self):
        env = _env({"e1": ("A", "B", 10)})
        result = plan_complete(env, ("A",), _task("A"))
        assert result.cost == 0.0
        assert result.chain.modules == ()
        assert result.goal_state == ("A",)
        assert check_chain(result.chain)

    def test_simple_goal(self):
        env = _env({"e1": ("A", "B", 10), "e2": ("A", "C", 1)})
        result = plan_complete(env, ("A",), _task("B"))
        assert result.cost == 10.0
        assert [m.event for m in result.chain.modules] == [ev("x", "e1")]

    def test_no_goal_states(self):
        env = _env({"e1": ("A", "B", 10)}, marked=[("A",)])
        with pytest.raises(NoGoalStates):
            plan_complete(env, ("A",), _task("B"))

    def test_unreachable_goal_infeasible(self):
        env = _env({"e1": ("B", "A", 10)})
        with pytest.raises(TaskInfeasible):
            plan_complete(env, ("A",), _task("B"))

    def test_skips_unreachable_goals(self):
        # Two states satisfy the task; only one is reachable. The sweep must
        # skip the dead one instead of giving up.
        e1, e2 = ev("x", "e1"), ev("y", "e2")
        x = make_nfa(("x",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 5})
        y = make_nfa(("y",), [("P",), ("Q",)], [e2], {(("P",), e2): ("Q",)}, {e2: 5})
        env = build_environment([AgentSpec("x", (x,)), AgentSpec("y", (y,))])
        task = task_for(("x", "y"), {"x": "B"})  # (B,P) reachable, (B,Q) needs y first
        result = plan_complete(env, ("B", "Q"), task)  # from (B,Q): already satisfied
        assert result.cost == 0.0
        result = plan_complete(env, ("A", "P"), task)
        assert result.cost == 5.0

    def test_unknown_initial(self):
        env = _env({"e1": ("A", "B", 10)})
        with pytest.raises(UnknownState):
            plan_complete(env, ("Z",), _task("B"))

    def test_bad_target_label(self):
        env = _env({"e1": ("A", "B", 10)})
        with pytest.raises(UnknownState):
            plan_complete(env, ("A",), _task("Z"))

    def test_matches_oracle_sweep(self):
        hits = 0
        for seed in range(80):
            gs = random_scenario(seed + 5000)
            env = build_environment(gs.agents, gs.inter)
            goals = enumerate_goal_states(env, gs.task)
            try:
                result = plan_complete(env, gs.initial, gs.task)
            except NoGoalStates:
                assert not goals
                continue
            except TaskInfeasible:
                with pytest.raises(NoPath):
                    brute_force_shortest(env, gs.initial, lambda s: s in goals)
                continue
            _, oracle_cost = brute_force_shortest(env, gs.initial, lambda s: s in goals)
            assert result.cost == oracle_cost
            assert check_chain(result.chain)
            hits += 1
        assert hits >= 40


class TestTieBreakContract:
    """The complete solver answers as one single-target search per goal
    would, keeping the minimum over (cost, node index)."""

    @staticmethod
    def _per_goal_minimum(env, g, x0, task):
        a, b, gamma = env.automaton, task.projector, task.target
        goals = [i for i, s in enumerate(g.states) if s in a.marked and proj(s, b) == gamma]
        best = None
        for t in goals:
            try:
                path, cost = dijkstra_indices(g, g.node_index[x0], t)
            except NoPath:
                continue
            if best is None or (cost, t) < (best[1], best[0][-1]):
                best = (path, cost)
        return goals, best

    def test_matches_per_goal_searches_on_random_models(self):
        planned = 0
        for seed in range(300):
            gs = random_scenario(seed)
            env = build_environment(gs.agents, gs.inter)
            g = to_graph(env)
            goals, best = self._per_goal_minimum(env, g, gs.initial, gs.task)
            if not goals:
                with pytest.raises(NoGoalStates):
                    plan_complete(env, gs.initial, gs.task, graph=g)
                continue
            if best is None:
                with pytest.raises(TaskInfeasible):
                    plan_complete(env, gs.initial, gs.task, graph=g)
                continue
            path, cost = best
            result = plan_complete(env, gs.initial, gs.task, graph=g)
            assert result.cost == cost
            assert result.goal_state == g.states[path[-1]]
            assert result.chain.events == tuple(
                g.event(i, j) for i, j in zip(path, path[1:])
            )
            planned += 1
        assert planned >= 100

    @pytest.mark.parametrize("other", ["Q", "O"])
    def test_equal_cost_goals_smaller_index_wins(self, other):
        # Goal (B, P) is two hops away and goal (B, other) one inter-agent hop,
        # both at cost 6. "Q" sorts after "P" and "O" before it, so neither the
        # hop count nor the order in which goals are first reached decides.
        from specter.composer import InterAgentSpec

        go, on, both = ev("x", "go"), ev("x", "on"), ev("inter", "both")
        x = make_nfa(
            ("x",), [("A",), ("M",), ("B",)], [go, on],
            {(("A",), go): ("M",), (("M",), on): ("B",)}, {go: 3, on: 3},
        )
        y = make_nfa(("y",), [("P",), (other,)], (), {}, {})
        caps = make_nfa(
            ("x", "y"), {("A", "P"), ("B", other)}, [both],
            {(("A", "P"), both): ("B", other)}, {both: 6},
        )
        env = build_environment(
            [AgentSpec("x", (x,)), AgentSpec("y", (y,))], InterAgentSpec(capabilities=caps)
        )
        g = to_graph(env)
        task = task_for(("x", "y"), {"x": "B"})
        for goal in (("B", "P"), ("B", other)):
            assert dijkstra_indices(g, g.node_index[("A", "P")], g.node_index[goal])[1] == 6.0
        result = plan_complete(env, ("A", "P"), task, graph=g)
        assert result.cost == 6.0
        assert result.goal_state == min(("B", "P"), ("B", other), key=g.node_index.get)


class TestPlanHeuristic:
    def test_adjacent_goal_single_module(self):
        env = _env({"e1": ("A", "B", 7), "e2": ("B", "A", 7)})
        result = plan_heuristic(env, ("A",), _task("B"))
        assert result.cost == 7.0
        assert len(result.chain.modules) == 1

    def test_goal_state_merges_initial_context(self):
        # Two agents; the aimed-at goal keeps the unconstrained agent where it
        # started even when a cheaper goal exists elsewhere.
        e1, e2, e3 = ev("x", "go"), ev("y", "hop"), ev("y", "back")
        x = make_nfa(("x",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 5})
        y = make_nfa(
            ("y",),
            [("P",), ("Q",)],
            [e2, e3],
            {(("P",), e2): ("Q",), (("Q",), e3): ("P",)},
            {e2: 1, e3: 1},
        )
        env = build_environment([AgentSpec("x", (x,)), AgentSpec("y", (y,))])
        task = task_for(("x", "y"), {"x": "B"})
        result = plan_heuristic(env, ("A", "P"), task)
        assert result.goal_state == ("B", "P")

    def test_truncates_at_first_satisfying_state(self):
        # The path to the merged goal passes through a satisfying state early;
        # the chain must stop there.
        e1, e2, e3 = ev("x", "go"), ev("y", "hop"), ev("y", "back")
        x = make_nfa(("x",), [("A",), ("B",)], [e1], {(("A",), e1): ("B",)}, {e1: 5})
        y = make_nfa(
            ("y",),
            [("P",), ("Q",)],
            [e2, e3],
            {(("P",), e2): ("Q",), (("Q",), e3): ("P",)},
            {e2: 1, e3: 1},
        )
        env = build_environment([AgentSpec("x", (x,)), AgentSpec("y", (y,))])
        task = task_for(("x", "y"), {"x": "B"})
        result = plan_heuristic(env, ("A", "Q"), task)
        # Merged goal is (B, Q); shortest path is (A,Q) -> (B,Q): satisfied at
        # the first hop already.
        assert result.goal_state == ("B", "Q")
        assert len(result.chain.modules) == 1

    def test_no_such_goal_when_unmarked(self):
        env = _env({"e1": ("A", "B", 7)}, marked=[("A",)])
        with pytest.raises(NoSuchGoal):
            plan_heuristic(env, ("A",), _task("B"))

    def test_no_path_is_heuristic_failure_not_infeasibility(self):
        # x can only reach B by also moving y, so the merged goal (B, P) is
        # unreachable even though the task is feasible for the complete solver.
        e2 = ev("inter", "both")
        x = make_nfa(("x",), [("A",), ("B",)], (), {}, {})
        y = make_nfa(("y",), [("P",), ("Q",)], (), {}, {})
        from specter.composer import InterAgentSpec

        caps = make_nfa(
            ("x", "y"), {("A", "P"), ("B", "Q")}, [e2], {(("A", "P"), e2): ("B", "Q")}, {e2: 2}
        )
        env = build_environment(
            [AgentSpec("x", (x,)), AgentSpec("y", (y,))], InterAgentSpec(capabilities=caps)
        )
        task = task_for(("x", "y"), {"x": "B"})
        with pytest.raises(NoPath):
            plan_heuristic(env, ("A", "P"), task)
        assert plan_complete(env, ("A", "P"), task).cost == 2.0

    def test_dominates_complete_on_random_models(self):
        succeeded = 0
        for seed in range(80):
            gs = random_scenario(seed + 6000)
            env = build_environment(gs.agents, gs.inter)
            g = to_graph(env)
            try:
                heuristic = plan_heuristic(env, gs.initial, gs.task, graph=g)
            except (NoSuchGoal, NoPath):
                continue
            complete = plan_complete(env, gs.initial, gs.task, graph=g)
            assert heuristic.cost >= complete.cost
            assert check_chain(heuristic.chain)
            succeeded += 1
        assert succeeded >= 30


class TestPlanReplay:
    def test_chain_events_replay_to_goal(self):
        for seed in range(40):
            gs = random_scenario(seed + 7000)
            env = build_environment(gs.agents, gs.inter)
            g = to_graph(env)
            for planner in (plan_complete, plan_heuristic):
                try:
                    result = planner(env, gs.initial, gs.task, graph=g)
                except (TaskInfeasible, NoGoalStates, NoSuchGoal, NoPath):
                    continue
                end = replay(env.automaton, gs.initial, result.chain.events)
                assert end == result.goal_state
                assert proj(end, gs.task.projector) == gs.task.target
                assert result.cost == result.chain.total_cost
                # One event moves at most one agent slot.
                for m in result.chain.modules:
                    changed = sum(1 for a, b in zip(m.input_port, m.output_port) if a != b)
                    assert changed <= 1

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest``; the verdict lines bypass capture so they are
visible either way.
"""
from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import pytest

from specter.automata import EventId, Projector, make_nfa, proj, replay
from specter.composer import AgentSpec, FailureEvent, build_environment, inject_failure
from specter.errors import NoGoalStates, NoPath, NoSuchGoal, SpecterError, TaskInfeasible
from specter.graph import to_graph
from specter.oracle import brute_force_shortest, enumerate_goal_states, random_scenario
from specter.planner import TaskSpecification, check_chain, plan_complete, plan_heuristic
from specter.scenario import build_scenario_environment, failure_events, parse_scenario, task_spec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OPTIMALITY_SEEDS = range(10_000, 10_500)  # criterion 4: >= 500 scenarios
COMPLETENESS_SEEDS = range(10_000, 10_500)  # criterion 5 reuses the pool
INJECT_SEEDS = range(20_000, 20_260)  # criterion 6: >= 200 usable cases
TIMING_RUNS = 20


@pytest.fixture()
def announce(capfd):
    def _announce(line: str):
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def _report(announce, cid: str, ok: bool, detail: str):
    announce(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="session")
def factory():
    scenario = parse_scenario((SCENARIOS / "factory_cell.json").read_text())
    start = time.perf_counter()
    env = build_scenario_environment(scenario)
    build_s = time.perf_counter() - start
    failed = env
    for f in failure_events(scenario):
        failed = inject_failure(failed, f)
    return {
        "scenario": scenario,
        "env": env,
        "failed": failed,
        "graph": to_graph(failed),
        "task": task_spec(scenario),
        "build_s": build_s,
    }


@pytest.fixture(scope="session")
def pool():
    """Shared seeded scenarios with their built environments."""
    out = []
    for seed in OPTIMALITY_SEEDS:
        gs = random_scenario(seed)
        out.append((gs, build_environment(gs.agents, gs.inter)))
    return out


def test_criterion_1_model_reconstruction(factory, announce):
    states = len(factory["env"].automaton.states)
    ok = states == 560 and factory["build_s"] < 5.0
    _report(announce, "C1 environment reconstruction", ok,
            f"states={states} (want 560 exactly), build={factory['build_s']:.3f}s (cap 5s)")


def test_criterion_2_flagship_plan(factory, announce):
    scenario = factory["scenario"]
    env = factory["failed"]
    g = factory["graph"]
    x0 = scenario.initial
    task = factory["task"]

    complete = plan_complete(env, x0, task, graph=g)
    heuristic = plan_heuristic(env, x0, task, graph=g)

    # Analytic total from the bundled file: the three fixed workflow costs
    # plus the file's three calibrated free costs.
    decls = {a.id: a for a in scenario.agents}
    cost_of = {}
    for agent_id, agent in decls.items():
        for cap in agent.capabilities:
            for t in cap.transitions:
                cost_of[(agent_id, t.event)] = t.cost
    load = next(t for t in scenario.inter_capabilities.templates if t.name == "load_R1_A")
    unload = next(t for t in scenario.inter_capabilities.templates if t.name == "unload_R1_B")
    analytic = (
        cost_of[("R1", "move.E.A")]
        + cost_of[("W1", "move.Gamma.A")]
        + load.cost
        + cost_of[("R1", "move.A.B")]
        + cost_of[("W1", "move.A.B")]
        + unload.cost
    )

    namespaces = [m.event.namespace for m in heuristic.chain.modules]
    names = [m.event.name for m in heuristic.chain.modules]
    pattern_ok = (
        namespaces == ["R1", "W1", "inter", "R1", "W1", "inter"]
        and names[2].startswith("load_R1_A")
        and names[5].startswith("unload_R1_B")
    )
    fixed_ok = (
        cost_of[("R1", "move.E.A")] == 10
        and load.cost == 3
        and cost_of[("R1", "move.A.B")] == 15
    )
    ok = (
        len(complete.chain.modules) == 6
        and len(heuristic.chain.modules) == 6
        and complete.chain == heuristic.chain
        and pattern_ok
        and fixed_ok
        and "R2" not in namespaces
        and complete.cost == analytic
        and analytic == 55.0  # calibration: free costs in the file sum to 27
    )
    _report(announce, "C2 flagship plan after failure injection", ok,
            f"modules={len(complete.chain.modules)}, identical={complete.chain == heuristic.chain}, "
            f"sequence={namespaces}, cost={complete.cost} (analytic {analytic})")


def test_criterion_3_goal_state_count(factory, announce):
    goals = enumerate_goal_states(factory["env"], factory["task"])
    _report(announce, "C3 goal-state count", len(goals) == 80, f"count={len(goals)} (want 80 exactly)")


def test_criterion_4_optimality_against_oracle(pool, announce):
    start = time.perf_counter()
    feasible = infeasible = 0
    for gs, env in pool:
        goals = enumerate_goal_states(env, gs.task)
        try:
            result = plan_complete(env, gs.initial, gs.task)
        except NoGoalStates:
            assert not goals
            infeasible += 1
            continue
        except TaskInfeasible:
            with pytest.raises(NoPath):
                brute_force_shortest(env, gs.initial, lambda s: s in goals)
            infeasible += 1
            continue
        _, oracle_cost = brute_force_shortest(env, gs.initial, lambda s: s in goals)
        assert result.cost == oracle_cost, f"seed {gs.seed}: {result.cost} != oracle {oracle_cost}"
        assert check_chain(result.chain)
        end = replay(env.automaton, gs.initial, result.chain.events)
        assert proj(end, gs.task.projector) == gs.task.target
        feasible += 1
    elapsed = time.perf_counter() - start
    ok = feasible + infeasible == len(pool) and feasible >= 300 and elapsed < 60.0
    _report(announce, "C4 optimality vs brute-force oracle", ok,
            f"{feasible} optimal plans + {infeasible} consistently infeasible over "
            f"{len(pool)} seeded scenarios in {elapsed:.1f}s (cap 60s)")


def test_criterion_5_completeness_event_law(pool, announce):
    for gs, env in pool:
        caps, failures, constraints = set(), set(), set()
        for a in gs.agents:
            for m in a.capabilities:
                caps |= m.events
            for f in a.failures:
                failures |= f.events
            for n in a.constraints:
                constraints |= n.events
        inter_caps = gs.inter.capabilities.events if gs.inter else set()
        expected = (caps | inter_caps) - ((failures - inter_caps) | constraints)
        assert env.automaton.events == expected, f"seed {gs.seed}"
    revived = sum(
        1
        for gs, _ in pool
        if gs.inter
        and any(e.namespace != "inter" for e in gs.inter.capabilities.events)
    )
    _report(announce, "C5 completeness of the composed event set", True,
            f"exact set equality on {len(pool)} compositions, "
            f"{revived} exercising failure events revived by inter-agent capabilities")


def test_criterion_6_inject_matches_rebuild(announce):
    rng = random.Random(99)
    checked = 0
    for seed in INJECT_SEEDS:
        gs = random_scenario(seed, p_failure=0.0, p_inter_revives_failure=0.0)
        candidates = [
            (a, m, (x, e), y)
            for a in gs.agents
            for m in a.capabilities
            for (x, e), y in sorted(m.transitions.items())
        ]
        if not candidates:
            continue
        spec, owner, (x, e), y = rng.choice(candidates)
        if gs.inter and e in gs.inter.capabilities.events:
            continue
        env = build_environment(gs.agents, gs.inter)
        injected = inject_failure(env, FailureEvent(spec.id, x[0], y[0], e))
        failure_nfa = make_nfa((spec.id,), {x, y}, [e], {(x, e): y}, {e: owner.costs[e]}, marked=())
        rebuilt = build_environment(
            [
                AgentSpec(a.id, a.capabilities, a.failures + (failure_nfa,), a.constraints)
                if a.id == spec.id
                else a
                for a in gs.agents
            ],
            gs.inter,
        )
        assert dict(injected.automaton.transitions) == dict(rebuilt.automaton.transitions), f"seed {seed}"
        assert len(env.automaton.transitions) - len(injected.automaton.transitions) <= env.theta_prime(spec.id)
        checked += 1
    _report(announce, "C6 on-the-fly injection equals rebuild", checked >= 200,
            f"transition sets identical on {checked} seeded failures (need >= 200)")


def test_criterion_7_heuristic_dominance(pool, factory, announce):
    succeeded = 0
    for gs, env in pool:
        g = to_graph(env)
        try:
            heuristic = plan_heuristic(env, gs.initial, gs.task, graph=g)
        except (NoSuchGoal, NoPath):
            continue
        complete = plan_complete(env, gs.initial, gs.task, graph=g)
        assert heuristic.cost >= complete.cost, f"seed {gs.seed}"
        assert check_chain(heuristic.chain)
        succeeded += 1

    env, g, task = factory["failed"], factory["graph"], factory["task"]
    x0 = factory["scenario"].initial
    h = plan_heuristic(env, x0, task, graph=g)
    c = plan_complete(env, x0, task, graph=g)
    ok = succeeded >= 100 and h.cost == c.cost
    _report(announce, "C7 heuristic dominance", ok,
            f"cost(heuristic) >= cost(complete) on {succeeded} scenarios; "
            f"flagship equality {h.cost} == {c.cost}")


def test_criterion_8_timing_direction(factory, announce):
    env, g, task = factory["failed"], factory["graph"], factory["task"]
    x0 = factory["scenario"].initial
    plan_complete(env, x0, task, graph=g)  # warm the kernels
    complete_times, heuristic_times = [], []
    for _ in range(TIMING_RUNS):
        t0 = time.perf_counter()
        plan_complete(env, x0, task, graph=g)
        t1 = time.perf_counter()
        plan_heuristic(env, x0, task, graph=g)
        t2 = time.perf_counter()
        complete_times.append(t1 - t0)
        heuristic_times.append(t2 - t1)
    med_c = statistics.median(complete_times)
    med_h = statistics.median(heuristic_times)
    _report(announce, "C8a timing direction on the 560-state model", med_h < med_c,
            f"median heuristic {med_h * 1e3:.3f}ms < median complete {med_c * 1e3:.3f}ms "
            f"over {TIMING_RUNS} runs")


def _stress_specs(n_agents: int, n_states: int, n_extra: int, seed: int):
    rng = random.Random(seed)
    specs = []
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
        transitions, costs = {}, {}
        for k, (u, v) in enumerate(pairs):
            e = EventId(aid, f"m{k}")
            transitions[((u,), e)] = (v,)
            costs[e] = rng.randint(1, 100)
        specs.append(
            AgentSpec(aid, (make_nfa((aid,), [(l,) for l in labels], costs, transitions, costs),))
        )
    return specs


def test_criterion_8_stress_bench(announce):
    # 10^5 states is the ceiling of what this criterion asks for; termination
    # and invariant compliance are asserted, not absolute times beyond the cap.
    start = time.perf_counter()
    specs = _stress_specs(n_agents=5, n_states=10, n_extra=2, seed=424242)
    env = build_environment(specs)
    g = to_graph(env)
    build_s = time.perf_counter() - start

    assert len(env.automaton.states) == 100_000 == env.theta
    assert g.n_edges <= len(env.automaton.transitions)

    task = TaskSpecification(Projector.from_string("11000"), ("s1", "s2"))
    x0 = sorted(env.automaton.states)[-1]
    solve_start = time.perf_counter()
    result = plan_complete(env, x0, task, graph=g)
    solve_s = time.perf_counter() - solve_start
    total = time.perf_counter() - start

    assert check_chain(result.chain)
    end = replay(env.automaton, x0, result.chain.events)
    assert proj(end, task.projector) == task.target
    ok = total < 600.0
    _report(announce, "C8b stress bench (1e5 states)", ok,
            f"build+graph {build_s:.1f}s, complete search {solve_s:.1f}s over "
            f"{len(enumerate_goal_states(env, task))} goals, total {total:.1f}s (cap 600s)")


def test_criterion_9_chain_wellformedness(pool, factory, announce):
    checked = 0
    for gs, env in pool[:150]:
        g = to_graph(env)
        for planner in (plan_complete, plan_heuristic):
            try:
                result = planner(env, gs.initial, gs.task, graph=g)
            except SpecterError:
                continue
            t0 = result.chain.task_module_inverted
            assert check_chain(result.chain)
            assert t0.output_port == gs.initial
            assert t0.input_port == result.goal_state
            end = replay(env.automaton, gs.initial, result.chain.events)
            assert end == result.goal_state
            assert proj(end, gs.task.projector) == gs.task.target
            checked += 1

    for solver in (plan_complete, plan_heuristic):
        result = solver(
            factory["failed"], factory["scenario"].initial, factory["task"], graph=factory["graph"]
        )
        assert check_chain(result.chain)
        checked += 1
    _report(announce, "C9 chain well-formedness and replay", checked >= 200,
            f"{checked} emitted chains close through the inverted task module and "
            f"replay onto the target projection")

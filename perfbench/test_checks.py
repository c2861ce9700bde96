"""The benchmark's checker must reject wrong answers, not only accept right ones.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from specter.automata import EventId, make_nfa  # noqa: E402
from specter.composer import EnvironmentModel  # noqa: E402
from specter.errors import TaskInfeasible  # noqa: E402
from specter.planner import plan_complete, plan_heuristic, task_for  # noqa: E402

from bench import Run  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import Query  # noqa: E402


def _model():
    """A -a(1)-> B -b(2)-> C and A -c(5)-> C; D is unreachable."""
    a, b, c = (EventId("r", n) for n in "abc")
    nfa = make_nfa(("r",), [(s,) for s in "ABCD"], [a, b, c],
                   {(("A",), a): ("B",), (("B",), b): ("C",), (("A",), c): ("C",)},
                   {a: 1, b: 2, c: 5})
    return EnvironmentModel(nfa, ("r",), (frozenset("ABCD"),))


def _checked(queries, outcomes):
    env = _model()
    a = env.automaton
    run = Run(workload=None, tracer=None)
    run.ref = Reference(a.transitions, a.costs, a.marked)
    run.queries = queries
    run.check_pass(outcomes)
    return run


def _query(solver, label):
    return Query(solver, ("A",), {0: label}, task_for(("r",), {"r": label}), 1)


def test_right_answers_pass():
    env = _model()
    to_c, to_d = _query("complete", "C"), _query("complete", "D")
    heuristic = _query("heuristic", "C")
    try:
        plan_complete(env, ("A",), to_d.spec)
    except TaskInfeasible as exc:
        infeasible = exc
    outcomes = [plan_complete(env, ("A",), to_c.spec), infeasible,
                plan_heuristic(env, ("A",), heuristic.spec)]
    run = _checked([to_c, to_d, heuristic], outcomes)
    assert (run.failed, run.wrong) == (0, [])


def test_wrong_answers_are_counted_as_failed():
    env = _model()
    q = _query("complete", "C")
    plan = plan_complete(env, ("A",), q.spec)
    first, second = plan.chain.modules

    perturbed_cost = dataclasses.replace(
        plan, chain=dataclasses.replace(plan.chain, modules=(dataclasses.replace(first, cost=1.5), second)))
    broken_link = dataclasses.replace(
        plan, chain=dataclasses.replace(plan.chain, modules=(first, dataclasses.replace(second, input_port=("A",)))))
    false_infeasible = TaskInfeasible("no goal state is reachable")

    run = _checked([q, q, q], [perturbed_cost, broken_link, false_infeasible])
    assert run.failed == 3
    assert len(run.wrong) == 3
    assert "costs 1.5" in run.wrong[0]
    assert "broken link" in run.wrong[1]
    assert "declared infeasible" in run.wrong[2]


def test_later_passes_must_repeat_the_first():
    env = _model()
    q = _query("complete", "C")
    plan = plan_complete(env, ("A",), q.spec)
    run = _checked([q], [plan])
    run.check_pass([TaskInfeasible("no goal state is reachable")])
    assert run.failed == 1

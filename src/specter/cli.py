"""Command line front end: build, plan, inject, export, bench.

The expensive composition runs once (``build``) and writes a model artifact;
``plan`` and ``inject`` reuse that artifact without recomposing anything, so
solving time is reported separately from loading time. Exit codes are stable:
1 unreadable/invalid input, 2 composition or lookup failure, 3 infeasible
task, 4 heuristic failure.
"""
from __future__ import annotations

import csv
import sys
import time
from pathlib import Path

import click

from . import __version__
from .artifacts import Timings, dump_model, load_model, load_plan, serialize_plan
from .automata import INTER_NAMESPACE, EventId, parse_state
from .composer import EnvironmentModel, FailureEvent, build_environment, inject_failure
from .dot import automaton_dot, chain_dot
from .errors import (
    ArtifactError,
    NoGoalStates,
    NoPath,
    NoSuchGoal,
    ScenarioError,
    SpecterError,
    TaskInfeasible,
)
from .graph import to_graph
from .oracle import random_scenario
from .planner import plan_complete, plan_heuristic, task_for
from .scenario import build_scenario_environment, failure_events, parse_scenario, task_spec

EXIT_INPUT = 1
EXIT_COMPOSE = 2
EXIT_INFEASIBLE = 3
EXIT_HEURISTIC = 4

BENCH_MAX_AGENTS = 6
BENCH_MAX_ALPHABET = 32
BENCH_MAX_TRIALS = 10_000
BENCH_MAX_STATES = 2_000_000

BENCH_HEADER = (
    "trial",
    "states",
    "preprocess_s",
    "complete_s",
    "heuristic_s",
    "complete_cost",
    "heuristic_cost",
)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write {path}: {exc}")


@click.group()
@click.version_option(__version__, prog_name="specter")
def main():
    """Compose agent automata into an environment model and extract
    minimum-cost task plans from it."""


@main.command("build")
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("model_out", type=click.Path(dir_okay=False, writable=True))
def cmd_build(scenario_path, model_out):
    """Parse SCENARIO_PATH, compose the environment model, write MODEL_OUT."""
    try:
        text = open(scenario_path, encoding="utf-8").read()
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot read {scenario_path}: {exc}")
    start = time.perf_counter()
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        for d in exc.diagnostics:
            click.echo(str(d), err=True)
        sys.exit(EXIT_INPUT)
    try:
        env = build_scenario_environment(scenario)
    except SpecterError as exc:
        _fail(EXIT_COMPOSE, str(exc))
    elapsed = time.perf_counter() - start
    _write(model_out, dump_model(env))
    click.echo(f"states: {env.theta}")
    click.echo(f"transitions: {env.n_transitions}")
    click.echo(f"preprocess_s: {elapsed:.6f}")


def _parse_initial(text, env: EnvironmentModel):
    if "=" in text:
        assignments = {}
        for part in text.split(","):
            agent, sep, label = part.strip().partition("=")
            if not sep:
                _fail(EXIT_INPUT, f"bad --initial component {part!r}, want agent=state")
            assignments[agent] = label
        missing = set(env.agent_ids) - set(assignments)
        if missing:
            _fail(EXIT_INPUT, f"--initial misses agents {sorted(missing)}")
        extra = set(assignments) - set(env.agent_ids)
        if extra:
            _fail(EXIT_INPUT, f"--initial names unknown agents {sorted(extra)}")
        return tuple(assignments[a] for a in env.agent_ids)
    return parse_state(text)


def _parse_task(text, env: EnvironmentModel):
    assignments = {}
    for part in text.split(","):
        agent, sep, label = part.strip().partition("=")
        if not sep:
            _fail(EXIT_INPUT, f"bad --task component {part!r}, want agent=state")
        assignments[agent] = label
    extra = set(assignments) - set(env.agent_ids)
    if extra:
        _fail(EXIT_INPUT, f"--task names unknown agents {sorted(extra)}")
    return task_for(env.agent_ids, assignments)


@main.command("plan")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--initial", "initial_text", required=True, help="agent=state,... or a 'a|b|c' tuple")
@click.option("--task", "task_text", required=True, help="agent=state[,agent=state...]")
@click.option(
    "--solver",
    type=click.Choice(["complete", "heuristic"]),
    default="complete",
    show_default=True,
)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True), default=None)
def cmd_plan(model_path, initial_text, task_text, solver, out_path):
    """Load a model artifact and print the minimum-cost plan document."""
    start = time.perf_counter()
    try:
        env = load_model(model_path)
    except ArtifactError as exc:
        _fail(EXIT_INPUT, str(exc))
    graph = to_graph(env)
    load_s = time.perf_counter() - start

    x0 = _parse_initial(initial_text, env)
    task = _parse_task(task_text, env)

    solve_start = time.perf_counter()
    try:
        if solver == "complete":
            result = plan_complete(env, x0, task, graph=graph)
        else:
            result = plan_heuristic(env, x0, task, graph=graph)
    except (TaskInfeasible, NoGoalStates) as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except (NoSuchGoal, NoPath) as exc:
        _fail(EXIT_HEURISTIC, str(exc))
    except SpecterError as exc:
        _fail(EXIT_COMPOSE, str(exc))
    solve_s = time.perf_counter() - solve_start

    text = serialize_plan(result, env.agent_ids, Timings(load_s, solve_s))
    if out_path:
        _write(out_path, text)
    else:
        click.echo(text, nl=False)
    click.echo(f"load_s: {load_s:.6f}", err=True)
    click.echo(f"solve_s: {solve_s:.6f}", err=True)


@main.command("inject")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("model_out", type=click.Path(dir_okay=False, writable=True))
@click.option("--agent", required=True, help="agent id, or 'inter' with --event")
@click.option("--from", "source", default=None, help="failed transition source state")
@click.option("--to", "target", default=None, help="failed transition target state")
@click.option("--event", default=None, help="restrict removal to one event name")
def cmd_inject(model_path, model_out, agent, source, target, event):
    """Carve a detected failure out of a built model, without recomposing."""
    try:
        env = load_model(model_path)
    except ArtifactError as exc:
        _fail(EXIT_INPUT, str(exc))
    event_id = None
    if event is not None:
        namespace = INTER_NAMESPACE if agent == INTER_NAMESPACE else agent
        event_id = EventId(namespace, event)
    if agent != INTER_NAMESPACE and (source is None or target is None):
        _fail(EXIT_INPUT, "agent failures need --from and --to")
    try:
        patched = inject_failure(env, FailureEvent(agent, source, target, event_id))
    except SpecterError as exc:
        _fail(EXIT_COMPOSE, str(exc))
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    removed = env.n_transitions - patched.n_transitions
    _write(model_out, dump_model(patched))
    click.echo(f"transitions_removed: {removed}")


@main.command("export")
@click.argument("artifact_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["dot"]), default="dot", show_default=True)
def cmd_export(artifact_path, fmt):
    """Render a model or plan artifact as Graphviz DOT on stdout."""
    try:
        env = load_model(artifact_path)
    except ArtifactError:
        env = None
    if env is not None:
        click.echo(automaton_dot(env), nl=False)
        return
    try:
        doc = load_plan(artifact_path)
    except ArtifactError as exc:
        _fail(EXIT_INPUT, f"not a model or plan artifact: {exc}")
    click.echo(chain_dot(doc.chain), nl=False)


@main.command("bench")
@click.option("--agents", "n_agents", type=int, default=3, show_default=True)
@click.option("--states", "alphabet_size", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=5, show_default=True)
@click.option(
    "--scenario",
    "scenario_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="bench this scenario file instead of random models",
)
def cmd_bench(n_agents, alphabet_size, seed, trials, scenario_path):
    """Time pre-processing and both solvers; CSV rows on stdout."""
    if trials < 0 or trials > BENCH_MAX_TRIALS:
        _fail(EXIT_INPUT, f"--trials must be in [0, {BENCH_MAX_TRIALS}]")
    if not 1 <= n_agents <= BENCH_MAX_AGENTS:
        _fail(EXIT_INPUT, f"--agents must be in [1, {BENCH_MAX_AGENTS}]")
    if not 2 <= alphabet_size <= BENCH_MAX_ALPHABET:
        _fail(EXIT_INPUT, f"--states must be in [2, {BENCH_MAX_ALPHABET}]")
    if alphabet_size**n_agents > BENCH_MAX_STATES:
        _fail(EXIT_INPUT, f"--agents/--states exceed the {BENCH_MAX_STATES} state cap")

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_HEADER)

    prepared = None
    if scenario_path is not None:
        text = open(scenario_path, encoding="utf-8").read()
        try:
            scenario = parse_scenario(text)
        except ScenarioError as exc:
            _fail(EXIT_INPUT, str(exc))
        start = time.perf_counter()
        try:
            env = build_scenario_environment(scenario)
            for failure in failure_events(scenario):
                env = inject_failure(env, failure)
        except SpecterError as exc:
            _fail(EXIT_COMPOSE, str(exc))
        graph = to_graph(env)
        preprocess_s = time.perf_counter() - start
        prepared = (env, graph, scenario.initial, task_spec(scenario), preprocess_s)

    for trial in range(trials):
        if prepared is None:
            generated = random_scenario(seed + trial, n_agents, alphabet_size)
            start = time.perf_counter()
            env = build_environment(generated.agents, generated.inter)
            graph = to_graph(env)
            preprocess_s = time.perf_counter() - start
            x0, task = generated.initial, generated.task
        else:
            env, graph, x0, task, preprocess_s = prepared

        complete_s = complete_cost = ""
        heuristic_s = heuristic_cost = ""
        start = time.perf_counter()
        try:
            result = plan_complete(env, x0, task, graph=graph)
            complete_s = f"{time.perf_counter() - start:.6f}"
            complete_cost = repr(result.cost)
        except (TaskInfeasible, NoGoalStates):
            pass
        start = time.perf_counter()
        try:
            result = plan_heuristic(env, x0, task, graph=graph)
            heuristic_s = f"{time.perf_counter() - start:.6f}"
            heuristic_cost = repr(result.cost)
        except (NoSuchGoal, NoPath):
            pass
        writer.writerow(
            (
                trial,
                env.theta,
                f"{preprocess_s:.6f}",
                complete_s,
                heuristic_s,
                complete_cost,
                heuristic_cost,
            )
        )


if __name__ == "__main__":
    main()

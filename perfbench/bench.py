"""One workload in one process: the timed operations, their checks and the
metrics computed from them."""
from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy

import tracing
from reference import (
    HEURISTIC_NO_PLAN,
    INFEASIBLE,
    Reference,
    check_complete,
    check_heuristic,
    check_inject,
    check_same_model,
    expected_after_inject,
)
from specter import _kernels, artifacts, composer, graph, planner, scenario
from workloads import WORKLOADS, product_law

OUT = Path(__file__).resolve().parent / "_out"


class Run:
    """One workload in this process: timings, operation counts and checks."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.raised = []
        self.queries = None
        self.first_answers = None  # summaries of the first pass, for later passes
        self.queries_done = 0
        self.query_time = 0.0

    def timed(self, name, fn):
        """Time one operation. Garbage from earlier work is collected first,
        so that collecting it does not land inside the timed region."""
        gc.collect()
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
        self.samples[name].append(elapsed)
        self.attempted += 1
        return out

    def verdict(self, what, reason, ops=1, wrong=True):
        """A rejected output fails ``ops`` operations; unless it was an
        unexpected exception, it is also a wrong answer."""
        if reason is not None:
            self.failed += ops
            (self.wrong if wrong else self.raised).append(f"{what}: {reason}")

    def cycle(self, first, last):
        """One of each pre-processing operation: setup, inject, save, load.
        The first cycle draws the failure; the last one's outputs are checked
        and give the reference and the queries, so that neither is alive
        while earlier cycles are timed. Returns the loaded model and its
        graph, ready for queries."""
        w = self.w

        def setup():
            sc = scenario.parse_scenario(w.text)
            env = scenario.build_scenario_environment(scenario.expand_inter_templates(sc))
            for f in scenario.failure_events(sc):
                env = composer.inject_failure(env, f)
            return sc, env, graph.to_graph(env)

        def inject():
            patched = composer.inject_failure(base, self.failure)
            return patched, graph.to_graph(patched)

        def save():
            path.write_text(artifacts.dump_model(patched), encoding="utf-8")

        def load():
            model = artifacts.parse_model(path.read_text(encoding="utf-8"))
            return model, graph.to_graph(model)

        sc, env, _ = self.timed("setup_s", setup)
        if last:
            law = product_law(w.doc)
            self.verdict("setup", None if len(env.automaton.states) == law
                         else f"{len(env.automaton.states)} states, product law says {law}")
        base = w.inject_base(sc, env)
        env = None
        if first:
            self.failure = w.failure(sc, base)
        patched, patched_graph = self.timed("inject_s", inject)
        if last:
            slot = base.agent_ids.index(self.failure.agent_id)
            expected = expected_after_inject(base.automaton.transitions, slot, self.failure)
            contexts = product_law(w.doc) // len(base.per_agent_alphabets[slot])
            self.verdict("inject", check_inject(base.automaton, patched.automaton, expected, contexts))
            try:
                studied = w.case_study(sc, base, patched, patched_graph)
            except Exception as exc:  # a raising solver is a failed operation
                self.attempted += 1
                self.verdict("case study", f"raised {exc!r}", wrong=False)
                studied = []
            for what, reason in studied:
                self.attempted += 1
                self.verdict(what, reason)
            costs, marked = base.automaton.costs, base.automaton.marked
        base = patched_graph = None

        OUT.mkdir(exist_ok=True)
        path = OUT / f"model-{w.name}.json"
        # A fresh file each time: rewriting one in place makes ext4 flush it
        # to disk on close, which times the disk, not the library.
        path.unlink(missing_ok=True)
        self.timed("model_save_s", save)
        self.model_bytes = path.stat().st_size
        model, g = self.timed("model_load_s", load)
        if last:
            self.verdict("save and load", check_same_model(patched.automaton, model.automaton))
        patched = None
        path.unlink()
        if last:
            # The reference's adjacency is built once the library's own
            # models are gone, so that it does not set the peak memory.
            self.ref = Reference(expected, costs, marked)
            self.queries = w.queries(sc, model, self.ref)
        return model, g

    def query_passes(self, model, g, seconds):
        solvers = {"complete": planner.plan_complete, "heuristic": planner.plan_heuristic}
        start = time.perf_counter()
        while True:
            outcomes = []
            gc.collect()
            pass_start = time.perf_counter()
            for q in self.queries:
                t = time.perf_counter()
                try:
                    out = solvers[q.solver](model, q.x0, q.spec, graph=g)
                except Exception as exc:  # checked below: expected verdicts pass
                    out = exc
                self.samples[q.solver].append(time.perf_counter() - t)
                outcomes.append(out)
            self.query_time += time.perf_counter() - pass_start
            self.queries_done += len(outcomes)
            self.attempted += len(outcomes)
            self.check_pass(outcomes)
            if time.perf_counter() - start >= seconds:
                return

    def check_pass(self, outcomes):
        """The first pass is checked against the reference; later passes must
        answer as it did. A plan or a verdict that is wrong is a wrong
        answer; any other exception only fails its operation."""
        summaries = [_summary(o) for o in outcomes]
        if self.first_answers is not None:
            for q, was, now in zip(self.queries, self.first_answers, summaries):
                if now != was:
                    self.verdict(f"{q.solver} from {q.x0}", f"answered {now}, earlier {was}")
            return
        self.first_answers = summaries
        optima = {}
        for q, out in zip(self.queries, outcomes):
            key = (q.x0, tuple(sorted(q.task.items())))
            if key not in optima:
                optima[key] = self.ref.optimum(q.x0, q.task)
            check = check_complete if q.solver == "complete" else check_heuristic
            answered = not isinstance(out, Exception) or type(out).__name__ in INFEASIBLE + HEURISTIC_NO_PLAN
            self.verdict(f"{q.solver} from {q.x0} to {q.task}",
                         check(self.ref, q.x0, q.task, out, optima[key]), wrong=answered)


def _summary(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return (outcome.cost, tuple(outcome.goal_state), tuple(str(e) for e in outcome.chain.events))


def _median_ms(values):
    return statistics.median(values) * 1e3


def end_to_end(run):
    s = run.samples
    return {
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "complete_p50_ms": (_median_ms(s["complete"]), "ms"),
        "complete_p95_ms": (statistics.quantiles(s["complete"], n=20)[18] * 1e3, "ms"),
        "heuristic_p50_ms": (_median_ms(s["heuristic"]), "ms"),
        "queries_per_s": (run.queries_done / run.query_time, "1/s"),
        "inject_s": (statistics.median(s["inject_s"]), "s"),
        "model_save_s": (statistics.median(s["model_save_s"]), "s"),
        "model_load_s": (statistics.median(s["model_load_s"]), "s"),
        "model_bytes": (run.model_bytes, "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def provenance():
    return {
        "backend": _kernels.resolve_backend(),
        "numba": _kernels.HAS_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    restore = tracing.install(tracer) if trace else None
    run = Run(workload, tracer)
    if not trace:
        # Cycles rather than each operation repeated on its own, so that a
        # slow spell of the machine reaches few samples of any one metric.
        for i in range(workload.reps):
            model = g = None  # the previous cycle's model goes before the next setup
            model, g = run.cycle(first=i == 0, last=i == workload.reps - 1)
        run.query_passes(model, g, seconds)
        metrics = end_to_end(run)
    else:
        # Whole rounds of one cycle and one query pass; layer metrics are
        # per round.
        start, rounds = time.perf_counter(), 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            model, g = run.cycle(first=rounds == 0, last=rounds == 0)
            run.query_passes(model, g, 0)
            model = g = None
            rounds += 1
        restore()
        goals = rounds * sum(q.goals for q in run.queries if q.solver == "complete")
        metrics = tracing.layer_metrics(tracer, rounds, run.queries_done, goals)
        metrics["trace.setup_s"] = (statistics.median(run.samples["setup_s"]), "s")
        metrics["trace.queries_per_s"] = (run.queries_done / run.query_time, "1/s")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "samples": {k: len(v) for k, v in run.samples.items()},
        "queries_per_pass": len(run.queries),
        "wrong": run.wrong[:20],
        "raised": run.raised[:20],
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for line in run.wrong[:20] + run.raised[:20]:
        print(f"failed: {line}")
    print(f"detail: {json.dumps(detail)}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))

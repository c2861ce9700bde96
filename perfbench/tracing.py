"""Spans and counters around the library's layers, from outside the library.

:func:`install` wraps each layer's public functions wherever a ``specter``
module holds them, so a call from one module into another, and a call from
the benchmark itself, both pass through the wrapper. Spans carry a parent
link and stay in memory until :meth:`Tracer.write`; counters are summed at
the same boundaries. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import collections
import contextlib
import json
import sys
import time

import numpy as np


def _count_expand(c, args, result):
    c["scenario.inter_events"] += len(result.inter_capabilities.events) + len(
        result.inter_constraints.events
    )


def _count_make_nfa(c, args, result):
    c["automata.make_nfa_transitions"] += len(result.transitions)


def _count_subtract(c, args, result):
    if not args[1].events:
        c["algebra.subtract_empty_calls"] += 1


def _count_build(c, args, result):
    c["composer.states"] += len(result.automaton.states)
    c["composer.transitions"] += len(result.automaton.transitions)


def _count_inject(c, args, result):
    kept = len(result.automaton.transitions)
    c["composer.inject_removed"] += len(args[0].automaton.transitions) - kept
    c["composer.inject_kept"] += kept


def _count_to_graph(c, args, result):
    source = getattr(args[0], "automaton", args[0])
    c["graph.edges"] += result.n_edges
    c["graph.collapsed"] += len(source.transitions) - result.n_edges


def _count_kernel(c, args, result):
    c["search.reached_nodes"] += int(np.isfinite(result[0]).sum())


def _count_chain(c, args, result):
    c["planner.chain_modules"] += len(result.modules)


def _count_dump(c, args, result):
    c["artifacts.bytes"] += len(result.encode("utf-8"))


# (module, function, span name whose total time is reported, counter hook)
LAYERS = (
    ("scenario", "parse_scenario", "scenario.parse_s", None),
    ("scenario", "expand_inter_templates", "scenario.expand_s", _count_expand),
    ("scenario", "build_scenario_environment", None, None),
    ("automata", "make_nfa", "automata.make_nfa_s", _count_make_nfa),
    ("algebra", "concat_compat", "algebra.concat_s", None),
    ("algebra", "union_compat", "algebra.union_s", None),
    ("algebra", "subtract_compat", "algebra.subtract_s", _count_subtract),
    ("composer", "build_environment", "composer.build_s", _count_build),
    ("composer", "inject_failure", "composer.inject_s", _count_inject),
    ("graph", "to_graph", "graph.to_graph_s", _count_to_graph),
    ("search", "dijkstra", None, None),
    ("search", "dijkstra_indices", None, None),
    ("_kernels", "dijkstra_arrays", "search.kernel_s", _count_kernel),
    ("planner", "plan_complete", "planner.complete_s", None),
    ("planner", "plan_heuristic", "planner.heuristic_s", None),
    ("planner", "build_chain", "planner.build_chain_s", _count_chain),
    ("artifacts", "dump_model", "artifacts.dump_s", _count_dump),
    ("artifacts", "parse_model", "artifacts.parse_s", None),
)

# Layer name of each module for self times; names must start with a letter.
LAYER_OF = {mod: mod.lstrip("_") for mod, *_ in LAYERS}
LAYER_OF["bench"] = "bench"


class Tracer:
    """In-memory span log plus integer counters."""

    def __init__(self):
        self.spans = []  # [id, name, module, parent, start, duration]
        self.counters = collections.Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, module="bench"):
        record = [len(self.spans), name, module, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.perf_counter()
        try:
            yield
        finally:
            record[5] = time.perf_counter() - record[4]
            self._stack.pop()

    def wrap(self, module, name, fn, count):
        """``fn`` under a span; ``count`` sees the arguments and the result of
        each call that returns."""
        def traced(*args, **kwargs):
            with self.span(f"{module}.{name}", module):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Seconds per layer, each span counted minus its children."""
        child = collections.defaultdict(float)
        for _, _, _, parent, _, duration in self.spans:
            if parent is not None:
                child[parent] += duration
        out = collections.defaultdict(float)
        for sid, _, module, _, _, duration in self.spans:
            out[LAYER_OF[module]] += duration - child[sid]
        return out

    def span_totals(self):
        """Inclusive seconds and call counts per span name. A span nested in
        another of the same name (a recursive call) adds no seconds."""
        seconds = collections.defaultdict(float)
        calls = collections.Counter()
        for _, name, _, parent, _, duration in self.spans:
            calls[name] += 1
            while parent is not None and self.spans[parent][1] != name:
                parent = self.spans[parent][3]
            if parent is None:
                seconds[name] += duration
        return seconds, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, module, parent, start, duration in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "duration": duration}) + "\n")


def install(tracer):
    """Wrap every function of :data:`LAYERS` in every ``specter`` module that
    holds it; returns a function that restores the originals."""
    modules = [m for n, m in sys.modules.items() if n == "specter" or n.startswith("specter.")]
    undo = []
    for mod_name, fn_name, _, count in LAYERS:
        fn = getattr(sys.modules[f"specter.{mod_name}"], fn_name)
        wrapper = tracer.wrap(mod_name, fn_name, fn, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, fn))

    def restore():
        for m, attr, fn in undo:
            setattr(m, attr, fn)

    return restore


def layer_metrics(tracer, rounds, queries, goals):
    """Per-layer metrics per round: ``rounds`` whole rounds ran, answering
    ``queries`` planning queries that had ``goals`` goal states in all."""
    seconds, calls = tracer.span_totals()
    c = collections.Counter(tracer.counters)
    c["automata.make_nfa_calls"] = calls["automata.make_nfa"]
    c["algebra.subtract_calls"] = calls["algebra.subtract_compat"]
    c["graph.to_graph_calls"] = calls["graph.to_graph"]
    c["search.calls"] = calls["_kernels.dijkstra_arrays"]
    out = {}
    for mod_name, fn_name, metric, _ in LAYERS:
        if metric is not None:
            out[metric] = (seconds[f"{mod_name}.{fn_name}"] / rounds, "s")
    for name in (
        "scenario.inter_events", "automata.make_nfa_calls", "automata.make_nfa_transitions",
        "algebra.subtract_calls", "algebra.subtract_empty_calls", "composer.states",
        "composer.transitions", "composer.inject_removed", "composer.inject_kept",
        "graph.to_graph_calls", "graph.edges", "graph.collapsed", "search.calls",
        "search.reached_nodes", "planner.chain_modules",
    ):
        out[name] = (c[name] / rounds, "count")
    out["artifacts.bytes"] = (c["artifacts.bytes"] / rounds, "bytes")
    out["planner.goals"] = (goals / rounds, "count")
    out["planner.searches_per_query"] = (c["search.calls"] / queries, "count")
    self_s = tracer.self_times()
    for layer in sorted(set(LAYER_OF.values()) - {"bench"}):
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / rounds, "s")
    return out


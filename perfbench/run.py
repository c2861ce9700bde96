#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the specter pipeline.

One caller drives the public library API in a closed loop: each query is
sent after the previous one returns. A run pre-processes a scenario into a
query-ready graph, injects one failure on the fly, saves and reloads the
model artifact, then answers planning queries until ``--seconds`` have
passed. Every output is checked against ``reference.py`` outside the timed
regions. The last line of standard output is the result as JSON.

    python3 perfbench/run.py                     # every workload, untraced and traced
    python3 perfbench/run.py --workload stress_1e5 --seed 3 --seconds 10 --trace 0

With ``--trace 1`` the run wraps the library's layers (``tracing.py``) and
reports per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("factory_queries", "workflow_mid", "stress_1e5")


def _import_library():
    """Import ``specter`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import specter
    except ImportError as exc:
        sys.exit(f"cannot import specter from {ROOT / 'src'}: {exc}")
    if Path(specter.__file__).resolve().parent != ROOT / "src" / "specter":
        sys.exit(f"specter was imported from {specter.__file__}, not from this checkout")


def run_all(seed, seconds):
    """Every workload, each in its own process, untraced then traced."""
    from bench import OUT

    OUT.mkdir(exist_ok=True)
    ok = True
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{name} (trace {trace}) exited with {proc.returncode}")
            results[trace] = json.loads(lines[-1])
            ok = ok and results[trace]["correct"] and results[trace]["failed"] == 0
        plain, traced = results[0], results[1]
        print(f"== {name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']} (traced: {traced['attempted']}, {traced['failed']})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<18} {m['value']:>14.4f} {m['unit']}")
        overhead = {
            "setup_s": traced["metrics"]["trace.setup_s"]["value"] - plain["metrics"]["setup_s"]["value"],
            "queries_per_s": traced["metrics"]["trace.queries_per_s"]["value"]
            - plain["metrics"]["queries_per_s"]["value"],
        }
        print(f"  tracing overhead: setup_s {overhead['setup_s']:+.4f} s, "
              f"queries_per_s {overhead['queries_per_s']:+.2f} 1/s")
        record = {"workload": name, "seed": seed, "seconds": seconds, "untraced": plain,
                 "traced": traced, "tracing_overhead": overhead}
        (OUT / f"BENCH_{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not ok:
        sys.exit("some operations failed or answered wrongly")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # The default search path is what gets measured.
    for var in ("SPECTER_BACKEND", "SPECTER_THREADS"):
        os.environ.pop(var, None)
    _import_library()
    if args.workload is None:
        run_all(args.seed, args.seconds)
    else:
        import bench

        bench.run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()

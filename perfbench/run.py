"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Workloads: ``serve-read``, ``serve-mixed``, ``analytics`` (see
``perfbench/README.md``).  The run builds its inputs from ``--seed``,
measures for ``--seconds``, checks every answer, prints each figure by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public calls in spans, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.  Every run also writes
its record (run context, every figure, checks) to ``perfbench/out``.  The
exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

WORKLOADS = ("serve-read", "serve-mixed", "analytics")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    from perfbench import common

    leaked = common.leaked_overrides()
    if leaked:
        common.warn(f"perfbench: refusing to run with overrides set: {leaked}")
        return 2
    spec = common.load_spec()
    trace = bool(args.trace)
    context = common.run_context(args.workload, args.seed, args.seconds, trace)
    if args.workload == "analytics":
        from perfbench import analytics as workload
    else:
        from perfbench import serving as workload
    try:
        outcome = workload.run(args.workload, args.seed, args.seconds, trace,
                               context)
    except common.BenchmarkError as exc:
        common.warn(f"perfbench: {exc}")
        return 1

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            common.warn(f"perfbench: metric {entry['name']} was not measured")
            return 1
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}

    common.emit(f"# context: {json.dumps(context, default=str)}")
    for name, (value, unit) in outcome.details.items():
        common.emit(f"{name} = {value:.6g} {unit}")
    for check in outcome.checks:
        common.emit(f"# check: {check}")
    for error in outcome.errors:
        common.emit(f"# WRONG: {error}")
    record = common.write_record(context, outcome, metrics)
    common.emit(f"# record: {os.path.relpath(record, ROOT)}")
    common.emit(json.dumps({"correct": outcome.correct,
                            "attempted": outcome.attempted,
                            "failed": outcome.failed,
                            "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # Not in main(): the self-tests call it inside the test process,
        # whose resource tracker other tests still use.
        from perfbench import common

        common.stop_processes()
    sys.exit(status)

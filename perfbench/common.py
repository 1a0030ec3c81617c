"""Run context, percentiles and the result record shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Environment overrides that change which analytics tier or flush policy
#: runs.  A benchmark run must use the defaults, so any of these set in the
#: environment aborts the run before set-up.
FORBIDDEN_ENV_PREFIXES = ("ANALYTICS_FORCE_",)
FORBIDDEN_ENV_NAMES = ("SHARD_MIN_EDGES", "WAL_FSYNC")

#: Tail percentiles tried from the highest down; the reported tail is the
#: highest one with at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_MIN_BEYOND = 10


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result: the server child failed or hung."""


def leaked_overrides(environ: dict[str, str] | None = None) -> list[str]:
    """Names of forbidden tier/flush overrides present in ``environ``."""
    environ = os.environ if environ is None else environ
    return sorted(name for name in environ
                  if name in FORBIDDEN_ENV_NAMES
                  or name.startswith(FORBIDDEN_ENV_PREFIXES))


def _git(*args: str) -> str | None:
    """Output of a git command in the checkout, or None outside a work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    out = _git("rev-parse", "HEAD")
    return (out.strip() or None) if out is not None else None


def git_dirty() -> bool | None:
    """Whether tracked or untracked files differ from the commit (None outside git)."""
    out = _git("status", "--porcelain")
    return bool(out.strip()) if out is not None else None


def bench_digest() -> str:
    """SHA-256 over ``BENCHMARK.json`` and the benchmark's Python files.

    Tells records from different benchmark code apart even when they carry
    the same commit, or none.
    """
    digest = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json"] + sorted(
        (ROOT / "perfbench").glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Machine and configuration facts recorded with every result."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "bench_sha256": bench_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        # WAL_FSYNC is a forbidden override, so every WAL the run opens
        # uses the library default (fsync on); serve-mixed replaces this
        # with the flag its durability engine actually reports.
        "wal_fsync": "library default (on)",
        "overrides": leaked_overrides(),
        "started_at": time.time(),
    }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest percentile with enough samples beyond."""
    for pct in TAIL_CANDIDATES:
        rank = max(1, math.ceil(pct / 100.0 * len(values)))
        if len(values) - rank >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set size, in MiB, of the largest child process joined."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run produced, before printing."""

    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Every named figure of the workload: ``{name: (value, unit)}``.
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Traced runs: calls, total and self milliseconds of every span name.
    layer_table: dict | None = None
    #: Raw untraced samples behind the figures, by name (milliseconds).
    samples: dict[str, list[float]] = field(default_factory=dict)


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Children started through ``multiprocessing`` (the server child, shard
    workers) are joined, and killed if they linger.  The resource tracker
    that the ``spawn`` start method launches is meant to outlive its
    parent, so it is stopped and reaped here as well.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def write_record(context: dict, outcome: Outcome, metrics: dict) -> Path:
    """Write the run's JSON record under ``perfbench/out`` and return its path."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = (f"{context['workload']}-seed{context['seed']}"
            f"-trace{int(context['trace'])}")
    path = OUT_DIR / f"{stem}.json"
    record = {
        "context": context,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "details": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.details.items()},
        "checks": outcome.checks,
        "errors": outcome.errors,
        "layers": outcome.layer_table,
        "samples": outcome.samples,
    }
    path.write_text(json.dumps(record, indent=2, default=str))
    return path


def write_spans(context: dict, spans: list) -> dict:
    """Write a traced run's spans next to its record; returns the layer table."""
    from perfbench.spans import SpanRecorder, summarize

    recorder = SpanRecorder()
    recorder.spans = spans
    path = OUT_DIR / f"spans-{context['workload']}-seed{context['seed']}.jsonl"
    recorder.dump(path)
    context["span_file"] = os.path.relpath(path, ROOT)
    return summarize(spans)


def emit(line: str) -> None:
    print(line, flush=True)


def warn(line: str) -> None:
    print(line, file=sys.stderr, flush=True)

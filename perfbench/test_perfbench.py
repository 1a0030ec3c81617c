"""Self-tests of the benchmark: metric names and units, checkers, span math.

Each workload runs once at a tiny scale (small graphs, one set-up, about a
second of load); the tests assert what is emitted, never how fast it was.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import analytics, checks, common, layers, run, serving  # noqa: E402
from perfbench.spans import Span, aggregate, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Small graphs, one set-up per run, outputs under a temporary directory."""
    for name in common.leaked_overrides():
        monkeypatch.delenv(name)
    monkeypatch.setattr(common, "OUT_DIR", tmp_path)
    monkeypatch.setattr(serving, "GRAPH_JOBS", 60)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(analytics, "ANALYTICS_JOBS", 120)
    monkeypatch.setattr(analytics, "SETUP_REPEATS", 1)
    return tmp_path


def run_workload(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    code, result = run_workload(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected}
    record = json.loads(
        (tiny / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "git_dirty", "bench_sha256", "cpu_count", "python",
                "numpy", "seed", "wal_fsync"):
        assert key in record["context"]
    if trace:
        metrics = {name: entry["value"]
                   for name, entry in result["metrics"].items()}
        assert (tiny / f"spans-{workload}-seed3.jsonl").stat().st_size > 0
        if workload == "analytics":
            assert metrics["enumerator.calls_per_query"] == 0
            assert metrics["planner.plans_per_query"] == 0
        else:
            assert metrics["parallel.dispatch_parallel"] == 0
            assert metrics["parallel.dispatch_single"] == 0


def test_wrong_analytics_answer_fails_the_run(tiny, capsys, monkeypatch):
    """A wrong vectorized kernel is caught: the oracle runs the loop tier."""
    from repro.analytics import kernels

    honest = kernels._bulk_k_hop_counts_np

    def tampered(*args, **kwargs):
        reached = honest(*args, **kwargs)
        reached[0] += 1
        return reached

    monkeypatch.setattr(kernels, "_bulk_k_hop_counts_np", tampered)
    code, result = run_workload(capsys, "analytics", 0)
    assert code != 0
    assert result["correct"] is False


ROWS = [{"a": "job-1", "b": "job-2"}, {"a": "job-1", "b": "job-2"},
        {"a": "job-3", "b": "job-4"}]


def test_oracle_accepts_the_same_rows_in_any_order():
    oracle = checks.Oracle(ROWS)
    assert oracle.mismatch(list(reversed(ROWS)), None) is None


def test_oracle_rejects_tampered_rows():
    oracle = checks.Oracle(ROWS)
    # A correct answer seen first must not let a different one through.
    assert oracle.mismatch(ROWS, None) is None
    assert oracle.mismatch(ROWS[1:], "connector") is None
    tampered = ROWS[:-1] + [{"a": "job-3", "b": "job-5"}]
    assert oracle.mismatch(tampered, None) is not None
    assert oracle.mismatch(tampered, "connector") is not None
    assert oracle.mismatch(ROWS[:-1], "connector") is not None


def test_view_answers_compare_as_sets_and_base_answers_as_bags():
    oracle = checks.Oracle(ROWS)
    deduplicated = ROWS[1:]
    assert oracle.mismatch(deduplicated, "connector") is None
    assert oracle.mismatch(deduplicated, None) is not None


def test_dropped_acknowledged_write_is_reported():
    from repro.durability.manager import apply_op

    batches = serving.commit_batches(seed=5, count=3)
    graph = serving.build_graph(serving.GRAPH_JOBS)
    for batch in batches[:2]:
        for op in batch:
            apply_op(graph, op)
    assert checks.missing_writes(graph, batches[:2]) == []
    lost = checks.missing_writes(graph, batches)
    assert len(lost) == len(batches[2])


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        Span(1, None, "root", 0, 100),
        Span(2, 1, "child", 10, 30),
        Span(3, 1, "child", 20, 50),      # overlaps the first child
        Span(4, 1, "late", 90, 120),      # clipped to the root's end
        Span(5, 2, "grandchild", 12, 18),
    ]
    selfs = self_times_ns(spans)
    assert selfs == {1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
    child = aggregate(spans)["child"]
    assert child.calls == 2 and sorted(child.self_ns) == [14, 30]


def test_merge_keeps_span_ids_distinct_across_processes():
    first = [Span(1, None, "a", 0, 10), Span(2, 1, "b", 1, 2)]
    second = [Span(1, None, "a", 0, 10), Span(2, 1, "b", 3, 9)]
    merged = layers.merge(first, second)
    assert len({span.span_id for span in merged}) == 4
    assert sorted(self_times_ns(merged).values()) == [1, 4, 6, 9]


def test_tail_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert common.tail(values) == (90.0, 90.0)
    assert common.tail(values[:15]) is None


def test_leaked_overrides_are_detected():
    env = {"ANALYTICS_FORCE_SINGLE": "1", "SHARD_MIN_EDGES": "5",
           "WAL_FSYNC": "0", "PATH": "/bin"}
    assert common.leaked_overrides(env) == [
        "ANALYTICS_FORCE_SINGLE", "SHARD_MIN_EDGES", "WAL_FSYNC"]


def test_stop_processes_reaps_children_and_the_resource_tracker():
    # In a fresh interpreter: stopping the tracker here would unlink shared
    # memory that other tests in this process still hold.
    script = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker
sys.path.insert(0, sys.argv[1])
from perfbench import common
child = multiprocessing.get_context("spawn").Process(target=time.sleep,
                                                     args=(0.1,))
child.start()
tracker = resource_tracker._resource_tracker._pid
common.stop_processes()
assert not child.is_alive() and multiprocessing.active_children() == []
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("reaped")
"""
    out = subprocess.run([sys.executable, "-c", script, str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "reaped"

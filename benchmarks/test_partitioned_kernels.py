"""Benchmark: shard-parallel kernels vs the single-CSR vectorized tier.

The claim behind the partitioned-execution PR: once a frozen store is split
into hash-owned shards living in ``multiprocessing.shared_memory``, a
persistent worker pool must run the heavy analytics — bulk k-hop counts and
label propagation — at least ``MIN_PARALLEL_SPEEDUP``x faster wall-clock than
the single-process vectorized tier on the same store, while answering
**row-for-row identically** (parity is asserted in the same run as the race,
always — a fast wrong answer is no answer).

The graph is always the ``15000``-job summarized provenance topology
(~78.6k vertices / ~104k edges — past the 100k-edge mark where partitioning
is worth the pool startup).  ``SHARD_BENCH_SMOKE=1`` (as CI does) keeps that
graph but halves the label-propagation pass count so the run finishes fast;
the speedup gate itself is asserted whenever the machine actually has >= 2
cores (a single-core box runs the race for the record but cannot be expected
to win it).

``BENCH_test_partitioned_kernels.json`` records the speedups, shard count and
edge-balance ratio, feeding ``BENCH_TRAJECTORY.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analytics import kernels, parallel
from repro.datasets.provenance import summarized_provenance_graph
from repro.storage.csr import CSRGraphStore

SMOKE = os.environ.get("SHARD_BENCH_SMOKE") == "1"

pytestmark = pytest.mark.skipif(
    not parallel.multiprocessing_available(),
    reason="parallel tier requires multiprocessing.shared_memory")

#: Required combined wall-clock advantage of the shard-parallel tier over the
#: single-CSR vectorized tier on bulk k-hop + label propagation (asserted
#: whenever the machine has >= 2 cores).
MIN_PARALLEL_SPEEDUP = 2.0

#: The benchmark graph never shrinks: the acceptance gate is defined at
#: >= 100k edges, where the per-call work dwarfs the request/reply overhead.
NUM_JOBS = 15000
LINEAGE_HOPS = 4
LP_PASSES = 5 if SMOKE else 10


def _time_best(fn, min_seconds: float = 0.2, min_rounds: int = 2) -> float:
    best = float("inf")
    rounds = 0
    start_all = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start_all < min_seconds:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        rounds += 1
    return best


def test_partitioned_kernels_speedup_and_parity(bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)
    assert store.num_edges >= 100_000

    workers = min(4, os.cpu_count() or 1)
    handle = parallel.partition_store(store, num_shards=max(2, workers))
    try:
        # Every Job anchor, both directions: heavy enough per request that
        # the pool's fixed request/reply cost disappears into the sweep.
        anchors = store.vertex_ids("Job")

        def single_bulk(stats=None):
            return kernels.bulk_k_hop_counts(
                store, LINEAGE_HOPS, direction="both", anchors=anchors,
                vertex_type="Job", stats=stats)

        def parallel_bulk(stats=None):
            return handle.bulk_k_hop_counts(
                store, LINEAGE_HOPS, direction="both", anchors=anchors,
                vertex_type="Job", stats=stats)

        def single_lp(stats=None):
            return kernels.label_propagation(store, passes=LP_PASSES,
                                             write_property=None, stats=stats)

        def parallel_lp(stats=None):
            return handle.label_propagation(store, passes=LP_PASSES,
                                            write_property=None, stats=stats)

        # Row parity in the same run as the race, plus deterministic-counter
        # parity: the shards collectively traverse exactly the adjacency
        # entries the single sweep does — the split saves wall-clock, never
        # coverage.
        single_stats = kernels.KernelStats()
        parallel_stats = kernels.KernelStats()
        assert parallel_bulk(parallel_stats) == single_bulk(single_stats)
        assert parallel_stats.traversal_edges == single_stats.traversal_edges
        single_stats = kernels.KernelStats()
        parallel_stats = kernels.KernelStats()
        assert parallel_lp(parallel_stats) == single_lp(single_stats)
        assert parallel_stats.passes == single_stats.passes
        assert parallel_stats.traversal_edges == single_stats.traversal_edges

        timings = {
            "bulk_single": _time_best(single_bulk),
            "bulk_parallel": _time_best(parallel_bulk),
            "lp_single": _time_best(single_lp),
            "lp_parallel": _time_best(parallel_lp),
        }
    finally:
        balance = handle.partition.edge_balance_ratio()
        shards = handle.num_shards
        parallel.release_store(store)

    bulk_speedup = timings["bulk_single"] / max(timings["bulk_parallel"], 1e-9)
    lp_speedup = timings["lp_single"] / max(timings["lp_parallel"], 1e-9)
    combined = ((timings["bulk_single"] + timings["lp_single"])
                / max(timings["bulk_parallel"] + timings["lp_parallel"], 1e-9))
    print(f"\n[shards] {shards} workers over {store.num_vertices}V/"
          f"{store.num_edges}E (balance {balance:.2f}): bulk "
          f"{LINEAGE_HOPS}-hop x{len(anchors)} anchors single "
          f"{timings['bulk_single'] * 1000:.0f}ms vs parallel "
          f"{timings['bulk_parallel'] * 1000:.0f}ms -> {bulk_speedup:.1f}x; "
          f"label propagation x{LP_PASSES} single "
          f"{timings['lp_single'] * 1000:.0f}ms vs parallel "
          f"{timings['lp_parallel'] * 1000:.0f}ms -> {lp_speedup:.1f}x; "
          f"combined -> {combined:.1f}x")
    for name, seconds in timings.items():
        bench_record("partitioned_kernels", f"{name}_seconds", seconds)
    bench_record("partitioned_kernels", "bulk_parallel_vs_single_speedup",
                 bulk_speedup)
    bench_record("partitioned_kernels", "lp_parallel_vs_single_speedup",
                 lp_speedup)
    bench_record("partitioned_kernels", "combined_parallel_vs_single_speedup",
                 combined)
    bench_record("partitioned_kernels", "shard_count", shards)
    bench_record("partitioned_kernels", "edge_balance_ratio", balance)

    if (os.cpu_count() or 1) >= 2:
        assert combined >= MIN_PARALLEL_SPEEDUP, (
            f"shard-parallel bulk k-hop + label propagation should be >= "
            f"{MIN_PARALLEL_SPEEDUP}x faster than the single-CSR vectorized "
            f"tier on {shards} workers, got {combined:.1f}x")
    else:
        print("[shards] single-core machine: speedup gate recorded, "
              "not asserted")

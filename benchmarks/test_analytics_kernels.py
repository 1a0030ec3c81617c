"""Benchmark: the two analytics tiers — vectorized kernels vs the reference.

The kernel value claim: once a graph is frozen to CSR, the workload's
traversal analytics must do their work in interned integer space — bulk
k-hop neighbourhoods advancing every source together, and label propagation
over a once-built undirected adjacency with integer-rank tie-breaks — as
whole-array numpy operations, instead of re-walking ``VertexId``-keyed dicts
per vertex.

Three claims are asserted:

* **Deterministic (runs in CI):** the reference label propagation re-fetches
  the undirected adjacency from the store on *every* pass, while the kernel
  pulls it exactly once — so the store-read counters must show at least a
  ``MIN_STORE_READ_REDUCTION``x reduction regardless of machine.  The
  reference's reads are counted by an instrumented store wrapper, the
  kernel's by :class:`repro.analytics.kernels.KernelStats`.
* **Deterministic (runs in CI):** the vectorized tier must replace at least
  ``MIN_VECTOR_STEP_REDUCTION``x interpreted steps per whole-array operation:
  an edge-at-a-time traversal executes one interpreted iteration per
  traversal edge (``KernelStats.traversal_edges``, equal to the reference's
  adjacency reads), the vectorized tier one batched operation per frontier
  gather / dedup / vote (``KernelStats.batched_ops``).
* **Wall-clock (full mode only):** the kernels must beat the dict reference
  by ``MIN_TIME_REDUCTION``x at the small size, and by
  ``MIN_VECTOR_TIME_REDUCTION``x on the combined bulk k-hop + label
  propagation workload at the large size (with a per-kernel
  ``MIN_VECTOR_KERNEL_TIME_REDUCTION``x floor).
  ``ANALYTICS_BENCH_SMOKE=1`` (as CI does) shrinks the graph and skips the
  wall-clock assertions, which are flaky on slow shared runners; every
  differential identity and counter gate still holds.

``BENCH_test_analytics_kernels.json`` records the per-tier timings
(``*_seconds_vectorized`` / ``*_seconds_reference``)
so the perf trajectory across PRs stays machine-readable.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

from repro.analytics import bulk_k_hop_counts, label_propagation
from repro.analytics import kernels
from repro.datasets.provenance import summarized_provenance_graph
from repro.graph.property_graph import PropertyGraph, VertexId
from repro.storage.base import PropertyGraphStore
from repro.storage.csr import CSRGraphStore

SMOKE = os.environ.get("ANALYTICS_BENCH_SMOKE") == "1"

#: Required wall-clock advantage of the kernels over the dict reference
#: (full mode).
MIN_TIME_REDUCTION = 3.0
#: Required store-adjacency-read advantage of the label-propagation kernel
#: (asserted always — the counters are deterministic).
MIN_STORE_READ_REDUCTION = 3.0
#: Required wall-clock advantage of the vectorized tier over the dict
#: reference on the combined bulk-k-hop + label-propagation workload (full
#: mode).  The product of the former kernel-vs-reference (3x) and
#: vectorized-vs-interpreted-kernel (5x) bounds this gate replaces.
MIN_VECTOR_TIME_REDUCTION = 15.0
#: Per-kernel wall-clock floor (full mode): the combined gate must not be
#: carried by one kernel while the other regresses (3x times the former
#: 2x per-kernel floor).
MIN_VECTOR_KERNEL_TIME_REDUCTION = 6.0
#: Required interpreted-steps-per-batched-op advantage of the vectorized tier
#: (asserted always — both counters are deterministic).
MIN_VECTOR_STEP_REDUCTION = 5.0

NUM_JOBS = 150 if SMOKE else 1200
#: The tier shoot-out runs on a larger graph than the kernel-vs-reference
#: tests: whole-array operations amortize fixed per-hop costs, so the
#: vectorized tier's wall-clock margin is a function of frontier width.
TIER_NUM_JOBS = NUM_JOBS if SMOKE else 15000
LINEAGE_HOPS = 4
LP_PASSES = 8 if SMOKE else 25


class CountingStore(PropertyGraphStore):
    """Store adapter that counts adjacency entries fetched from the graph."""

    def __init__(self, graph: PropertyGraph) -> None:
        super().__init__(graph)
        self.adjacency_reads = 0

    def successors(self, vertex_id: VertexId, label: str | None = None
                   ) -> Iterable[VertexId]:
        for target in self.graph.successors(vertex_id, label):
            self.adjacency_reads += 1
            yield target

    def predecessors(self, vertex_id: VertexId, label: str | None = None
                     ) -> Iterable[VertexId]:
        for source in self.graph.predecessors(vertex_id, label):
            self.adjacency_reads += 1
            yield source


def _time_best(fn, min_seconds: float = 0.05, min_rounds: int = 3) -> float:
    """Best-of-rounds wall-clock time of ``fn``."""
    best = float("inf")
    rounds = 0
    start_all = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start_all < min_seconds:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        rounds += 1
    return best


def test_bulk_k_hop_kernel_beats_per_vertex_reference(monkeypatch, bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def reference():
        return bulk_k_hop_counts(graph, LINEAGE_HOPS, direction="in",
                                 anchor_type="Job", vertex_type="Job")

    def kernel():
        return kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                         anchor_type="Job", vertex_type="Job")

    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        # Differential identity first — a fast wrong answer is no answer.
        reference_counts = reference()
        assert reference_counts == kernel()

        # The kernel scans exactly the edges the reference fetches: the bulk
        # sweep saves constant factors, never coverage.
        counting = CountingStore(graph)
        bulk_k_hop_counts(counting, LINEAGE_HOPS, direction="in",
                          anchor_type="Job", vertex_type="Job")
        stats = kernels.KernelStats()
        kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                  anchor_type="Job", vertex_type="Job",
                                  stats=stats)
        assert stats.traversal_edges == counting.adjacency_reads

        reference_seconds = _time_best(reference)
    kernel_seconds = _time_best(kernel)
    reduction = reference_seconds / max(kernel_seconds, 1e-9)
    print(f"\n[kernels] bulk {LINEAGE_HOPS}-hop over {len(reference_counts)} "
          f"anchors ({graph.num_vertices}V/{graph.num_edges}E): "
          f"reference {reference_seconds * 1000:.1f}ms vs kernel "
          f"{kernel_seconds * 1000:.1f}ms -> {reduction:.1f}x")
    bench_record("bulk_k_hop", "kernel_vs_reference_speedup", reduction)
    if not SMOKE:
        assert reduction >= MIN_TIME_REDUCTION, (
            f"bulk k-hop kernel should cut traversal time >= "
            f"{MIN_TIME_REDUCTION}x vs the per-vertex reference, got "
            f"{reduction:.1f}x")


def test_label_propagation_kernel_reduces_store_reads_and_time(
        monkeypatch, bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def reference():
        return label_propagation(graph, passes=LP_PASSES, write_property=None)

    def kernel():
        return kernels.label_propagation(store, passes=LP_PASSES,
                                         write_property=None)

    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        assert reference() == kernel()

        # Deterministic claim (holds in CI): the reference re-fetches the
        # undirected adjacency from the store every pass; the kernel pulls it
        # once into CSR slices and reads labels as array entries thereafter.
        # A fresh store makes the kernel pay (and account) its one build.
        counting = CountingStore(graph)
        label_propagation(counting, passes=LP_PASSES, write_property=None)
        stats = kernels.KernelStats()
        kernels.label_propagation(CSRGraphStore.from_graph(graph),
                                  passes=LP_PASSES, write_property=None,
                                  stats=stats)
        read_reduction = counting.adjacency_reads / max(stats.store_reads, 1)
        print(f"\n[kernels] label propagation x{stats.passes} passes: "
              f"reference store reads {counting.adjacency_reads} vs kernel "
              f"{stats.store_reads} -> {read_reduction:.1f}x")
        assert read_reduction >= MIN_STORE_READ_REDUCTION, (
            f"label-propagation kernel should cut store adjacency reads >= "
            f"{MIN_STORE_READ_REDUCTION}x, got {read_reduction:.1f}x")

        reference_seconds = _time_best(reference)
    kernel_seconds = _time_best(kernel)
    reduction = reference_seconds / max(kernel_seconds, 1e-9)
    print(f"[kernels] label propagation x{LP_PASSES} "
          f"({graph.num_vertices}V/{graph.num_edges}E): reference "
          f"{reference_seconds * 1000:.1f}ms vs kernel "
          f"{kernel_seconds * 1000:.1f}ms -> {reduction:.1f}x")
    bench_record("label_propagation", "kernel_vs_reference_speedup", reduction)
    if not SMOKE:
        assert reduction >= MIN_TIME_REDUCTION, (
            f"label-propagation kernel should cut time >= "
            f"{MIN_TIME_REDUCTION}x vs the Counter/str reference, got "
            f"{reduction:.1f}x")


def test_vectorized_tier_beats_reference_tier(monkeypatch, bench_record):
    """The headline gate of the vectorized tier, against its oracle.

    Both tiers must answer bulk k-hop and label propagation row-identically;
    the vectorized kernels must replace >= ``MIN_VECTOR_STEP_REDUCTION``
    interpreted edge steps per whole-array operation (deterministic
    counters, gates CI); and in full mode they must also win >=
    ``MIN_VECTOR_TIME_REDUCTION``x wall-clock over the dict reference.
    """
    graph = summarized_provenance_graph(num_jobs=TIER_NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def run_bulk(stats=None):
        return kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                         anchor_type="Job", vertex_type="Job",
                                         stats=stats)

    def run_lp(stats=None):
        return kernels.label_propagation(store, passes=LP_PASSES,
                                         write_property=None, stats=stats)

    stats = kernels.KernelStats()
    vectorized_results = (run_bulk(stats), run_lp(stats))
    timings = {"vectorized": (_time_best(run_bulk), _time_best(run_lp))}
    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        # One timed run each: the reference is far off the pace at this
        # graph size, and best-of-N rounds on it would dominate the whole
        # benchmark.  A single run can only overstate its time by noise,
        # which the per-kernel floors absorb.
        start = time.perf_counter()
        reference_bulk = bulk_k_hop_counts(graph, LINEAGE_HOPS, direction="in",
                                           anchor_type="Job", vertex_type="Job")
        reference_bulk_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reference_lp = label_propagation(graph, passes=LP_PASSES,
                                         write_property=None)
        timings["reference"] = (reference_bulk_seconds,
                                time.perf_counter() - start)

    # Row-identical results.
    assert vectorized_results == (reference_bulk, reference_lp)

    # Every traversal edge is one interpreted step on an edge-at-a-time
    # path; the vectorized kernels batch them into whole-array operations.
    assert stats.batched_ops > 0
    step_reduction = stats.traversal_edges / stats.batched_ops
    print(f"\n[tiers] vectorized tier: {stats.traversal_edges} traversal "
          f"edges in {stats.batched_ops} whole-array ops -> "
          f"{step_reduction:.1f} steps/op")
    assert step_reduction >= MIN_VECTOR_STEP_REDUCTION, (
        f"vectorized kernels should replace >= {MIN_VECTOR_STEP_REDUCTION} "
        f"interpreted steps per whole-array op, got {step_reduction:.1f}")

    for tier, (bulk_seconds, lp_seconds) in timings.items():
        bench_record("analytics_tiers", f"bulk_k_hop_seconds_{tier}",
                     bulk_seconds)
        bench_record("analytics_tiers", f"label_propagation_seconds_{tier}",
                     lp_seconds)
    bench_record("analytics_tiers", "interpreter_steps_per_batched_op",
                 step_reduction)
    bulk_speedup = timings["reference"][0] / max(timings["vectorized"][0], 1e-9)
    lp_speedup = timings["reference"][1] / max(timings["vectorized"][1], 1e-9)
    combined_speedup = (sum(timings["reference"])
                        / max(sum(timings["vectorized"]), 1e-9))
    bench_record("analytics_tiers",
                 "bulk_k_hop_vectorized_vs_reference_speedup", bulk_speedup)
    bench_record("analytics_tiers",
                 "label_propagation_vectorized_vs_reference_speedup",
                 lp_speedup)
    bench_record("analytics_tiers", "combined_vectorized_vs_reference_speedup",
                 combined_speedup)
    print(f"[tiers] bulk {LINEAGE_HOPS}-hop: reference "
          f"{timings['reference'][0] * 1000:.1f}ms vs vectorized "
          f"{timings['vectorized'][0] * 1000:.1f}ms -> {bulk_speedup:.1f}x; "
          f"label propagation: reference "
          f"{timings['reference'][1] * 1000:.1f}ms vs vectorized "
          f"{timings['vectorized'][1] * 1000:.1f}ms -> {lp_speedup:.1f}x; "
          f"combined -> {combined_speedup:.1f}x")
    if not SMOKE:
        # The bulk-k-hop + label-propagation workload as a whole must run
        # >= MIN_VECTOR_TIME_REDUCTION x faster vectorized than on the
        # reference.  Each kernel additionally has a per-kernel floor so one
        # kernel can never carry a regression in the other (bulk k-hop's
        # small-frontier sweeps have the narrower intrinsic margin and
        # wobble more run-to-run).
        assert combined_speedup >= MIN_VECTOR_TIME_REDUCTION, (
            f"vectorized bulk k-hop + label propagation should be >= "
            f"{MIN_VECTOR_TIME_REDUCTION}x faster than the reference, got "
            f"{combined_speedup:.1f}x")
        assert bulk_speedup >= MIN_VECTOR_KERNEL_TIME_REDUCTION, (
            f"vectorized bulk k-hop should be >= "
            f"{MIN_VECTOR_KERNEL_TIME_REDUCTION}x faster than the "
            f"reference, got {bulk_speedup:.1f}x")
        assert lp_speedup >= MIN_VECTOR_KERNEL_TIME_REDUCTION, (
            f"vectorized label propagation should be >= "
            f"{MIN_VECTOR_KERNEL_TIME_REDUCTION}x faster than the "
            f"reference, got {lp_speedup:.1f}x")

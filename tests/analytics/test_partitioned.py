"""Differential tests for the shard-parallel execution tier.

Every parallelized kernel is pinned row-for-row against the vectorized
single-CSR tier (which is itself pinned against the loop tier and the dict
reference — the existing three-way suite), across directed/undirected
traversals, label filters, type masks, boundary-vertex-heavy graphs, graphs
with empty shards, and under a pinned MVCC snapshot.  Dispatch tests cover
the registration/auto-partition seam, the ``ANALYTICS_FORCE_SINGLE`` escape
hatch, worker-death fallback, and the ``kaskade_parallel_dispatch_total``
metrics mirror.  A subprocess test asserts the shared-memory lifecycle is
clean: no leaked segments, no ``resource_tracker`` warnings on stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.analytics import community, kernels, parallel, traversal
from repro.core import Kaskade
from repro.datasets.provenance import (
    provenance_graph,
    summarized_provenance_graph,
)
from repro.errors import VertexNotFoundError
from repro.graph.property_graph import PropertyGraph
from repro.service.metrics import ServiceMetrics
from repro.service.mvcc import SnapshotManager
from repro.storage.csr import CSRGraphStore

pytestmark = pytest.mark.skipif(
    not parallel.multiprocessing_available(),
    reason="parallel tier requires multiprocessing.shared_memory")


def star_graph() -> PropertyGraph:
    """One hub adjacent to everything: every edge crosses an ownership
    boundary for some shard, the worst case for cross-shard merges."""
    g = PropertyGraph(name="star")
    g.add_vertex("hub", "Job", cpu=1.0)
    for i in range(60):
        g.add_vertex(f"leaf{i}", "Job" if i % 2 else "File", cpu=float(i))
        g.add_edge("hub", f"leaf{i}", "OUT")
        if i % 3 == 0:
            g.add_edge(f"leaf{i}", "hub", "BACK")
    return g


@pytest.fixture(scope="module")
def prov_store():
    graph = summarized_provenance_graph(num_jobs=400, seed=13)
    return CSRGraphStore.from_graph(graph)


@pytest.fixture(scope="module")
def prov_handle(prov_store):
    handle = parallel.partition_store(prov_store, num_shards=3)
    yield handle
    parallel.release_store(prov_store)


BULK_CASES = [
    dict(direction="out"),
    dict(direction="in"),
    dict(direction="both"),
    dict(direction="out", edge_labels=("WRITES_TO",)),
    dict(direction="both", edge_labels=("WRITES_TO", "IS_READ_BY")),
    dict(direction="in", edge_labels=("NO_SUCH_LABEL",)),
    dict(direction="out", anchor_type="Job"),
    dict(direction="both", vertex_type="File"),
    dict(direction="out", anchor_type="Job", vertex_type="Job"),
]


@pytest.mark.parametrize("case", BULK_CASES,
                         ids=lambda case: "-".join(
                             f"{k}={v}" for k, v in sorted(case.items())))
def test_bulk_k_hop_counts_row_parity(prov_store, prov_handle, case):
    for max_hops in (1, 3):
        single_stats = kernels.KernelStats()
        parallel_stats = kernels.KernelStats()
        single = kernels.bulk_k_hop_counts(prov_store, max_hops,
                                           stats=single_stats, **case)
        sharded = prov_handle.bulk_k_hop_counts(prov_store, max_hops,
                                                stats=parallel_stats, **case)
        assert sharded == single
        # The union of shard blocks is the full adjacency, so the workers
        # collectively gather exactly the entries the single sweep gathers.
        assert parallel_stats.traversal_edges == single_stats.traversal_edges
        if single_stats.sources:
            # (The single tier short-circuits before the sweep when the label
            # filter leaves no blocks, counting no sources at all.)
            assert parallel_stats.sources == single_stats.sources


def test_bulk_explicit_anchors_and_zero_hops(prov_store, prov_handle):
    anchors = prov_store.vertex_ids("Job")[:37]
    single = kernels.bulk_k_hop_counts(prov_store, 2, anchors=anchors)
    sharded = prov_handle.bulk_k_hop_counts(prov_store, 2, anchors=anchors)
    assert sharded == single
    assert prov_handle.bulk_k_hop_counts(prov_store, 0, anchors=anchors) == \
        kernels.bulk_k_hop_counts(prov_store, 0, anchors=anchors)
    with pytest.raises(VertexNotFoundError):
        prov_handle.bulk_k_hop_counts(prov_store, 2, anchors=["no-such-id"])


def test_frontier_bfs_parity_across_owners(prov_store, prov_handle):
    """Single-anchor BFS routes to the owning shard; whichever worker owns
    the source, hop distances must match the single-CSR kernel exactly."""
    owner = prov_handle.partition.owner
    ids = prov_store.external_ids
    # One source owned by each shard, so routing itself is exercised.
    sources = []
    for shard in range(prov_handle.num_shards):
        owned = np.flatnonzero(owner == shard)
        if owned.size:
            sources.append(ids[int(owned[0])])
    assert len(sources) == prov_handle.num_shards
    for source in sources:
        for direction in ("out", "in", "both"):
            single = kernels.k_hop_neighborhood(
                prov_store, source, 4, direction=direction)
            sharded = prov_handle.k_hop_neighborhood(
                prov_store, source, 4, direction=direction)
            assert sharded == single
    assert prov_handle.k_hop_neighborhood(
        prov_store, sources[0], 3, include_source=True) == \
        kernels.k_hop_neighborhood(
            prov_store, sources[0], 3, include_source=True)
    assert prov_handle.k_hop_neighborhood(prov_store, sources[0], 0) == {}
    with pytest.raises(VertexNotFoundError):
        prov_handle.k_hop_neighborhood(prov_store, "no-such-id", 2)
    with pytest.raises(ValueError):
        prov_handle.k_hop_neighborhood(prov_store, sources[0], -1)


def test_label_propagation_parity_and_write_back(prov_store, prov_handle):
    for passes in (0, 1, 8):
        single_stats = kernels.KernelStats()
        parallel_stats = kernels.KernelStats()
        single = kernels.label_propagation(prov_store, passes=passes,
                                           write_property=None,
                                           stats=single_stats)
        sharded = prov_handle.label_propagation(prov_store, passes=passes,
                                                write_property=None,
                                                stats=parallel_stats)
        assert sharded == single
        # Same synchronous pass structure: identical pass counts (early
        # convergence included) and identical neighbor-label reads in total.
        assert parallel_stats.passes == single_stats.passes
        assert parallel_stats.traversal_edges == single_stats.traversal_edges
    single = kernels.label_propagation(prov_store, passes=3,
                                       write_property="community_single")
    sharded = prov_handle.label_propagation(prov_store, passes=3,
                                            write_property="community_shard")
    assert sharded == single
    for ref in prov_store.vertices():
        assert ref.properties["community_shard"] == \
            ref.properties["community_single"]
    with pytest.raises(ValueError):
        prov_handle.label_propagation(prov_store, passes=-1)


def test_degree_sweep_parity(prov_store, prov_handle):
    for direction in ("out", "in"):
        for label in [None] + sorted(prov_store.edge_labels()):
            offsets, _targets = prov_store.csr_ndarrays(direction, label)
            expected = np.diff(offsets.astype(np.int64))
            got = prov_handle.degree_sweep(prov_store, direction, label)
            assert np.array_equal(got, expected)
    und_offsets, _ = prov_store.undirected_csr_arrays()
    assert np.array_equal(prov_handle.degree_sweep(prov_store, "und"),
                          np.diff(und_offsets.astype(np.int64)))
    # An absent label is an all-zero sweep, matching the single tier's
    # empty-block behavior.
    assert not prov_handle.degree_sweep(prov_store, "out", "NO_SUCH").any()
    with pytest.raises(ValueError):
        prov_handle.degree_sweep(prov_store, "sideways")


@pytest.mark.parametrize("num_shards", [2, 4])
def test_boundary_heavy_star_graph_parity(num_shards):
    store = CSRGraphStore.from_graph(star_graph())
    handle = parallel.partition_store(store, num_shards=num_shards)
    try:
        for direction in ("out", "in", "both"):
            assert handle.bulk_k_hop_counts(store, 2, direction=direction) \
                == kernels.bulk_k_hop_counts(store, 2, direction=direction)
        assert handle.k_hop_neighborhood(store, "hub", 2, direction="both") \
            == kernels.k_hop_neighborhood(store, "hub", 2, direction="both")
        assert handle.label_propagation(store, passes=5, write_property=None) \
            == kernels.label_propagation(store, passes=5, write_property=None)
    finally:
        parallel.release_store(store)


def test_empty_shard_graph_parity():
    """More shards than vertices: idle workers must serve empty blocks."""
    g = PropertyGraph(name="mini")
    for i in range(3):
        g.add_vertex(f"v{i}", "T")
    g.add_edge("v0", "v1", "E")
    g.add_edge("v1", "v2", "E")
    store = CSRGraphStore.from_graph(g)
    handle = parallel.partition_store(store, num_shards=5)
    try:
        assert handle.bulk_k_hop_counts(store, 2) == \
            kernels.bulk_k_hop_counts(store, 2)
        assert handle.label_propagation(store, passes=4, write_property=None) \
            == kernels.label_propagation(store, passes=4, write_property=None)
    finally:
        parallel.release_store(store)


def test_parity_under_pinned_mvcc_snapshot():
    kaskade = Kaskade(provenance_graph(num_jobs=40, seed=3))
    manager = SnapshotManager(kaskade, max_retained=3)
    with manager.pinned() as snapshot:
        store = snapshot.store
        assert isinstance(store, CSRGraphStore)
        handle = parallel.partition_store(store, num_shards=2)
        try:
            assert handle.bulk_k_hop_counts(store, 3, direction="both") == \
                kernels.bulk_k_hop_counts(store, 3, direction="both")
            assert handle.label_propagation(store, passes=6,
                                            write_property=None) == \
                kernels.label_propagation(store, passes=6,
                                          write_property=None)
        finally:
            parallel.release_store(store)


# ------------------------------------------------------------------ dispatch
def test_public_functions_route_through_registered_partition(prov_store,
                                                             prov_handle):
    before = dict(parallel.dispatch_counts)
    single = kernels.bulk_k_hop_counts(prov_store, 2, anchor_type="Job")
    routed = traversal.bulk_k_hop_counts(prov_store, 2, anchor_type="Job")
    assert routed == single
    assert parallel.dispatch_counts["parallel"] == before["parallel"] + 1
    routed = community.label_propagation(prov_store, passes=2,
                                         write_property=None)
    assert routed == kernels.label_propagation(prov_store, passes=2,
                                               write_property=None)
    assert parallel.dispatch_counts["parallel"] == before["parallel"] + 2
    assert kernels.engine_for(prov_store) == "parallel"


def test_force_single_escape_hatch(prov_store, prov_handle, monkeypatch):
    monkeypatch.setenv(parallel.FORCE_SINGLE_ENV, "1")
    before = dict(parallel.dispatch_counts)
    result = traversal.bulk_k_hop_counts(prov_store, 2, anchor_type="Job")
    assert result == kernels.bulk_k_hop_counts(prov_store, 2,
                                               anchor_type="Job")
    # Pinned single: no parallel dispatch, and not even a "single" count —
    # the store was never eligible while the hatch is set.
    assert parallel.dispatch_counts == before
    assert kernels.engine_for(prov_store) == "kernel"
    assert parallel.peek_parallel(prov_store) is None


def test_auto_partition_respects_size_floor_and_core_count(monkeypatch):
    graph = summarized_provenance_graph(num_jobs=60, seed=9)
    store = CSRGraphStore.from_graph(graph)
    # Below the floor: never auto-partitions, regardless of cores.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert parallel.resolve_parallel(store) is None
    # Past the floor on a multi-core box: auto-partitions and registers.
    monkeypatch.setenv(parallel.SHARD_MIN_EDGES_ENV, "1")
    handle = parallel.resolve_parallel(store)
    try:
        assert handle is not None
        assert parallel.peek_parallel(store) is handle
        assert handle.bulk_k_hop_counts(store, 2) == \
            kernels.bulk_k_hop_counts(store, 2)
    finally:
        parallel.release_store(store)
    # On a single core the floor alone is not enough.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert parallel.resolve_parallel(store) is None
    # Eligible-but-single calls count toward the "single" dispatch path.
    before = dict(parallel.dispatch_counts)
    assert parallel.try_parallel(store, "bulk_k_hop_counts",
                                 max_hops=1) is parallel.MISS
    assert parallel.dispatch_counts["single"] == before["single"] + 1


def test_worker_death_degrades_to_single_tier():
    graph = summarized_provenance_graph(num_jobs=80, seed=11)
    store = CSRGraphStore.from_graph(graph)
    handle = parallel.partition_store(store, num_shards=2)
    try:
        expected = kernels.bulk_k_hop_counts(store, 2)
        assert handle.bulk_k_hop_counts(store, 2) == expected
        # Kill one worker out from under the pool: the next public call must
        # fall back to the single-CSR tier and still answer correctly.
        handle.pool._processes[0].terminate()
        handle.pool._processes[0].join(timeout=5.0)
        assert not handle.healthy
        assert parallel.peek_parallel(store) is None
        assert traversal.bulk_k_hop_counts(store, 2) == expected
        assert kernels.engine_for(store) == "kernel"
    finally:
        parallel.release_store(store)


def test_release_unlinks_segments_and_engine_reverts():
    graph = summarized_provenance_graph(num_jobs=50, seed=4)
    store = CSRGraphStore.from_graph(graph)
    handle = parallel.partition_store(store, num_shards=2)
    names = handle.partition.segment_names()
    assert kernels.engine_for(store) == "parallel"
    parallel.release_store(store)
    assert kernels.engine_for(store) == "kernel"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_parallel_dispatch_metrics_mirror(prov_store, prov_handle):
    metrics = ServiceMetrics()
    rendered = metrics.registry.render()
    for path in ("parallel", "single"):
        assert f'kaskade_parallel_dispatch_total{{path="{path}"}} 0' \
            in rendered
    assert "kaskade_shard_count" in rendered
    assert "kaskade_shard_edge_balance_ratio" in rendered
    traversal.bulk_k_hop_counts(prov_store, 1, anchor_type="Job")
    assert metrics.parallel_dispatch.value(path="parallel") == 1.0
    rendered = metrics.registry.render()
    assert 'kaskade_parallel_dispatch_total{path="parallel"} 1' in rendered
    # Shard gauges sample the live registry: three shards registered by the
    # module fixture (at least), balance ratio ≥ 1 for a non-empty partition.
    shard_line = next(line for line in rendered.splitlines()
                      if line.startswith("kaskade_shard_count "))
    assert float(shard_line.split()[-1]) >= 3.0
    balance_line = next(
        line for line in rendered.splitlines()
        if line.startswith("kaskade_shard_edge_balance_ratio "))
    assert float(balance_line.split()[-1]) >= 1.0


def test_spawn_start_method_parity():
    """The pool is spawn-safe end to end (workers rebuild all state from the
    picklable spec), whatever the platform default is."""
    graph = summarized_provenance_graph(num_jobs=100, seed=6)
    store = CSRGraphStore.from_graph(graph)
    handle = parallel.PartitionedAnalytics(store, num_shards=2,
                                           mp_start_method="spawn")
    try:
        assert handle.pool.start_method_used == "spawn"
        assert handle.bulk_k_hop_counts(store, 3, direction="both") == \
            kernels.bulk_k_hop_counts(store, 3, direction="both")
        assert handle.label_propagation(store, passes=4,
                                        write_property=None) == \
            kernels.label_propagation(store, passes=4, write_property=None)
    finally:
        handle.close()


_LIFECYCLE_SCRIPT = """
import sys
from repro.analytics import kernels, parallel
from repro.datasets.provenance import summarized_provenance_graph
from repro.storage.csr import CSRGraphStore

def main():
    graph = summarized_provenance_graph(num_jobs=150, seed=8)
    store = CSRGraphStore.from_graph(graph)
    handle = parallel.partition_store(store, num_shards=2)
    assert handle.bulk_k_hop_counts(store, 2) == \
        kernels.bulk_k_hop_counts(store, 2)
    names = handle.partition.segment_names()
    print("SEGMENTS:" + ",".join(names))
    # No explicit release: the atexit sweep must close and unlink everything.

if __name__ == "__main__":
    main()
"""


def test_no_leaked_segments_or_resource_tracker_warnings(tmp_path):
    """A process that partitions, runs a kernel, and exits without cleanup
    must leave no segments behind and print no resource_tracker noise."""
    script = tmp_path / "lifecycle_child.py"
    script.write_text(_LIFECYCLE_SCRIPT)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(parallel.FORCE_SINGLE_ENV, None)
    completed = subprocess.run([sys.executable, str(script)],
                               capture_output=True, text=True, env=env,
                               timeout=180)
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
    assert "leaked" not in completed.stderr, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    names = completed.stdout.split("SEGMENTS:")[1].strip().split(",")
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

"""Tier-pinned tests for the vectorized analytics kernels.

The analytics stack has two execution tiers — **vectorized** (numpy
whole-array kernels over the CSR ndarrays) and **reference** (the dict-store
implementations, the oracle).  These tests pin each tier explicitly through
the ``ANALYTICS_FORCE_REFERENCE`` escape hatch and assert:

* row identity (``vectorized == reference``) across directions, label
  filters and type masks,
* dtype edge cases — empty graphs, single vertices, self-loop-heavy graphs,
  and the ``int32`` → ``int64`` widening guard (driven by shrinking
  :data:`repro.storage.csr._INT32_LIMIT`, not by building 2-billion-edge
  graphs),
* the physical executor's batched gather path agrees with the per-source
  path on rows, work counters, and ``max_work`` budget enforcement,
* MVCC-pinned service snapshots return identical rows whichever tier
  executes them,
* ``compute_statistics`` / ``out_degree_histogram`` produce field-by-field
  identical results on the ndarray and dict scan paths,
* every tier decision lands in :data:`repro.analytics.kernels.dispatch_counts`
  and mirrors into ``kaskade_kernel_dispatch_total{path=...}``.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.analytics import bulk_k_hop_counts, kernels, label_propagation
from repro.core import Kaskade
from repro.datasets.provenance import (
    provenance_graph,
    summarized_provenance_graph,
)
from repro.datasets.random_graphs import erdos_renyi_graph, power_law_graph
from repro.errors import QueryExecutionError
from repro.graph.property_graph import PropertyGraph
from repro.graph.statistics import compute_statistics, out_degree_histogram
from repro.query import execute_query, parse_query
from repro.service.metrics import ServiceMetrics
from repro.service.mvcc import SnapshotManager
from repro.storage import csr
from repro.storage.csr import CSRGraphStore

def pin_tier(monkeypatch, tier: str) -> None:
    """Pin kernel dispatch to one tier via the environment escape hatch."""
    if tier == "reference":
        monkeypatch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
    else:
        assert tier == "vectorized"
        monkeypatch.delenv(kernels.FORCE_REFERENCE_ENV, raising=False)


def self_loop_heavy_graph() -> PropertyGraph:
    """Every vertex self-loops (some twice, across labels) plus a sparse ring.

    Self-loops are the classic off-by-one of visited-set kernels: the source
    is pre-stamped and must never count itself, even when a loop or a cycle
    closes straight back onto it.
    """
    g = PropertyGraph(name="loopy")
    for i in range(40):
        g.add_vertex(f"v{i}", "Job" if i % 3 else "File", cpu=float(i))
    for i in range(40):
        g.add_edge(f"v{i}", f"v{i}", "SELF")
        g.add_edge(f"v{i}", f"v{(i * 7 + 1) % 40}", "L")
        if i % 2 == 0:
            g.add_edge(f"v{i}", f"v{i}", "L")
    return g


GRAPH_BUILDERS = {
    "prov": lambda: summarized_provenance_graph(num_jobs=50, seed=13),
    "erdos": lambda: erdos_renyi_graph(80, 360, seed=21),
    "power_law": lambda: power_law_graph(100, seed=8),
    "self_loops": self_loop_heavy_graph,
}


@pytest.fixture(params=sorted(GRAPH_BUILDERS))
def tier_graph(request):
    return GRAPH_BUILDERS[request.param]()


# ------------------------------------------------------- three-way identity
def test_three_way_bulk_k_hop_identity(tier_graph, monkeypatch):
    """vectorized kernel == reference on the CSR store == reference on the
    dict graph, per anchor, across directions, label filters, and type
    masks.  The middle leg is what an open circuit breaker serves."""
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    labels = graph.edge_labels()
    cases = [
        dict(direction="out"),
        dict(direction="in"),
        dict(direction="both"),
        dict(direction="out", edge_labels=labels[:1]),
        dict(direction="both", edge_labels=labels),
        dict(direction="out", vertex_type=graph.vertex_types()[0]),
    ]
    pin_tier(monkeypatch, "reference")
    reference = [bulk_k_hop_counts(graph, 3, **case) for case in cases]
    on_store = [bulk_k_hop_counts(store, 3, **case) for case in cases]
    pin_tier(monkeypatch, "vectorized")
    stats = kernels.KernelStats()
    vectorized = [kernels.bulk_k_hop_counts(store, 3, stats=stats, **case)
                  for case in cases]
    assert vectorized == on_store == reference
    assert stats.batched_ops > 0


def test_three_way_label_propagation_identity(tier_graph, monkeypatch):
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)

    def run(target):
        return [label_propagation(target, passes=passes, write_property=None)
                for passes in (0, 1, 3, 9)]

    pin_tier(monkeypatch, "reference")
    reference, on_store = run(graph), run(store)
    pin_tier(monkeypatch, "vectorized")
    assert run(store) == on_store == reference


def test_vectorized_write_back_matches_reference(monkeypatch):
    """The Q7 write-back lands the reference's labels on the live graph
    (property dicts are shared with the source graph)."""
    graph = self_loop_heavy_graph()
    store = CSRGraphStore.from_graph(graph)
    pin_tier(monkeypatch, "reference")
    expected = label_propagation(graph, passes=4, write_property=None)
    pin_tier(monkeypatch, "vectorized")
    label_propagation(store, passes=4, write_property="wb")
    assert {v.id: v.get("wb") for v in graph.vertices()} == expected


# ------------------------------------------------------------- dtype edges
def test_empty_graph_every_tier(monkeypatch):
    empty = CSRGraphStore.from_graph(PropertyGraph(name="empty"))
    for tier in ("vectorized", "reference"):
        pin_tier(monkeypatch, tier)
        assert bulk_k_hop_counts(empty, 3) == {}
        assert label_propagation(empty, passes=5, write_property=None) == {}
    assert compute_statistics(empty, use_cache=False).per_type == {}


def test_single_vertex_and_self_loop_source_never_counted(monkeypatch):
    g = PropertyGraph(name="one")
    g.add_vertex("only", "Job")
    lone = CSRGraphStore.from_graph(g)
    g.add_edge("only", "only", "SELF")
    looped = CSRGraphStore.from_graph(g)
    for tier in ("vectorized", "reference"):
        pin_tier(monkeypatch, tier)
        assert bulk_k_hop_counts(lone, 2) == {"only": 0}
        # The source is pre-stamped: a self-loop closing straight back onto
        # it must not count, matching the reference's seeded distance entry.
        assert bulk_k_hop_counts(looped, 2) == {"only": 0}
        assert bulk_k_hop_counts(looped, 2, direction="both") == {"only": 0}
        assert label_propagation(looped, passes=3,
                                 write_property=None) == {"only": "only"}


def test_index_dtype_widening_guard():
    assert csr._index_dtype(csr._INT32_LIMIT) == np.int32
    assert csr._index_dtype(csr._INT32_LIMIT + 1) == np.int64
    assert csr._index_array([0, 1, 2], 2).dtype == np.int32


def test_int64_widened_store_matches_int32_results(monkeypatch):
    """Shrinking ``_INT32_LIMIT`` forces the whole stack — CSR arrays,
    gather positions, and the bulk kernel's packed sort keys — onto the
    ``int64`` path; results must be bit-identical to the ``int32`` run."""
    graph = GRAPH_BUILDERS["erdos"]()
    pin_tier(monkeypatch, "vectorized")
    narrow_store = CSRGraphStore.from_graph(graph)
    offsets, targets = narrow_store.csr_ndarrays("out")
    assert offsets.dtype == np.int32 and targets.dtype == np.int32
    expected_bulk = kernels.bulk_k_hop_counts(narrow_store, 3,
                                              direction="both")
    expected_lpa = label_propagation(narrow_store, passes=6,
                                     write_property=None)

    monkeypatch.setattr(csr, "_INT32_LIMIT", 1)
    wide_store = CSRGraphStore.from_graph(graph)
    offsets, targets = wide_store.csr_ndarrays("out")
    assert offsets.dtype == np.int64 and targets.dtype == np.int64
    assert kernels.bulk_k_hop_counts(wide_store, 3,
                                     direction="both") == expected_bulk
    assert label_propagation(wide_store, passes=6,
                             write_property=None) == expected_lpa
    # The widened run must also agree with the reference on the same store.
    pin_tier(monkeypatch, "reference")
    assert bulk_k_hop_counts(wide_store, 3, direction="both") == expected_bulk


# ----------------------------------------------------- executor tier parity
def test_executor_gather_path_matches_loop_path(monkeypatch):
    """The batched-gather expansion returns the same rows AND the same work
    counters as the per-source loop path (pinned by the reference escape
    hatch), so the ``max_work`` budget trips at exactly the same threshold
    on both."""
    graph = provenance_graph(num_jobs=25, seed=7)
    store = CSRGraphStore.from_graph(graph)
    query = parse_query(
        "MATCH (j:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
        "RETURN j, b")
    results = {}
    for tier in ("vectorized", "reference"):
        pin_tier(monkeypatch, tier)
        results[tier] = execute_query(store, query, engine="planner")
    vec, loop = results["vectorized"], results["reference"]
    assert sorted(map(str, vec.rows)) == sorted(map(str, loop.rows))
    for field in ("vertices_scanned", "edges_expanded", "bindings_produced",
                  "total_work"):
        assert getattr(vec.stats, field) == getattr(loop.stats, field), field

    total = vec.stats.total_work
    for budget in (1, total // 2, total - 1, total):
        verdicts = {}
        for tier in ("vectorized", "reference"):
            pin_tier(monkeypatch, tier)
            try:
                execute_query(store, query, engine="planner", max_work=budget)
                verdicts[tier] = "ok"
            except QueryExecutionError:
                verdicts[tier] = "over budget"
        assert verdicts["vectorized"] == verdicts["reference"], budget
    assert verdicts["vectorized"] == "ok"  # the exact budget fits


# ------------------------------------------------------- MVCC snapshot parity
def test_mvcc_pinned_snapshot_identical_across_tiers(monkeypatch):
    kaskade = Kaskade(provenance_graph(num_jobs=20, seed=3))
    manager = SnapshotManager(kaskade, max_retained=3)
    query = kaskade.parse("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f")
    outcomes = {}
    with manager.pinned() as snapshot:
        for tier in ("vectorized", "reference"):
            pin_tier(monkeypatch, tier)
            outcomes[tier] = manager.execute_pinned(query, snapshot)
    vec, ref = outcomes["vectorized"], outcomes["reference"]
    assert sorted(map(str, vec.result.rows)) == sorted(map(str, ref.result.rows))
    assert vec.executed_version == ref.executed_version
    assert len(vec.result.rows) > 0


# --------------------------------------------------- statistics regression
def test_statistics_ndarray_matches_dict_scan_field_by_field(tier_graph):
    """The CSR store's ndarray degree path against the dict graph's scan
    (the snapshot is built directly, so no manager publishes it for
    ``graph`` and the dict path really runs)."""
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    vec_stats = compute_statistics(store, use_cache=False)
    vec_hist = {vertex_type: out_degree_histogram(store, vertex_type)
                for vertex_type in [None] + graph.vertex_types()}
    dict_stats = compute_statistics(graph, use_cache=False)
    assert vec_stats.total_vertices == dict_stats.total_vertices
    assert vec_stats.total_edges == dict_stats.total_edges
    assert set(vec_stats.per_type) == set(dict_stats.per_type)
    assert "*" in vec_stats.per_type
    for vertex_type, expected in dict_stats.per_type.items():
        got = vec_stats.per_type[vertex_type]
        assert got.vertex_type == expected.vertex_type
        assert got.vertex_count == expected.vertex_count
        assert got.edge_count == expected.edge_count
        assert got.mean_out_degree == expected.mean_out_degree
        assert got.max_out_degree == expected.max_out_degree
        assert got.percentiles == expected.percentiles
    for vertex_type in [None] + graph.vertex_types():
        assert vec_hist[vertex_type] == out_degree_histogram(graph, vertex_type)


# --------------------------------------------------------- dispatch counter
def test_dispatch_counts_and_service_metrics_mirror(monkeypatch):
    graph = summarized_provenance_graph(num_jobs=30, seed=2)
    store = CSRGraphStore.from_graph(graph)
    metrics = ServiceMetrics()
    rendered = metrics.registry.render()
    assert 'path="loops"' not in rendered
    for path in ("vectorized", "reference"):
        # Pre-seeded: every series is visible on /metrics before any query.
        assert f'kaskade_kernel_dispatch_total{{path="{path}"}} 0' in rendered
    before = dict(kernels.dispatch_counts)

    pin_tier(monkeypatch, "vectorized")
    label_propagation(store, passes=1, write_property=None)
    assert kernels.dispatch_counts["vectorized"] == before["vectorized"] + 1
    assert metrics.kernel_dispatch.value(path="vectorized") == 1

    pin_tier(monkeypatch, "reference")
    label_propagation(store, passes=1, write_property=None)
    assert kernels.dispatch_counts["reference"] == before["reference"] + 1
    assert metrics.kernel_dispatch.value(path="reference") == 1

    rendered = metrics.registry.render()
    assert 'kaskade_kernel_dispatch_total{path="vectorized"} 1' in rendered

    # With the vectorized tier off, the executor and the engine prediction
    # attribute CSR work to the reference path too.
    query = parse_query("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f")
    assert kernels.engine_for(store) == "reference"
    execute_query(store, query, engine="planner")
    assert metrics.kernel_dispatch.value(path="reference") == 2
    pin_tier(monkeypatch, "vectorized")
    assert kernels.engine_for(store) == "kernel"
    execute_query(store, query, engine="planner")
    assert metrics.kernel_dispatch.value(path="vectorized") == 2

    # A discarded registry drops out of the subscriber list silently: the
    # weak reference dies, and the next dispatch must not raise.
    del metrics, rendered
    gc.collect()
    label_propagation(store, passes=0, write_property=None)

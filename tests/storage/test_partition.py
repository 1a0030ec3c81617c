"""Partitioner invariants and shared-memory arena lifecycle.

The shard-parallel tier is only correct if the storage layer under it is:
every edge of the frozen store must land in exactly one shard's block, every
shard block must be a valid whole-graph CSR (full ``V + 1`` offsets,
non-owned rows empty), ownership must be a pure function both sides of a
process boundary compute identically, and every shared segment must be gone
— actually unlinked, not merely closed — once the partition is released.
"""

from __future__ import annotations

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.datasets.provenance import summarized_provenance_graph
from repro.errors import GraphError
from repro.graph.property_graph import PropertyGraph
from repro.storage.csr import CSRGraphStore, gather_slices
from repro.storage.partition import (
    GraphPartitioner,
    attach_partition,
    owner_of_indices,
)


@pytest.fixture()
def store():
    graph = summarized_provenance_graph(num_jobs=120, seed=5)
    return CSRGraphStore.from_graph(graph)


def test_owner_hash_is_deterministic_and_covers_all_shards(store):
    indices = np.arange(store.num_vertices, dtype=np.int64)
    first = owner_of_indices(indices, 4)
    second = owner_of_indices(indices, 4)
    assert np.array_equal(first, second)
    assert first.min() >= 0 and first.max() < 4
    # A multiplicative hash over a thousand-plus vertices must touch every
    # shard; a missing shard would silently idle one worker forever.
    assert set(np.unique(first).tolist()) == {0, 1, 2, 3}


@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_shard_blocks_partition_every_adjacency_exactly(store, num_shards):
    """Each vertex's full row lives in exactly its owner's shard block, and
    the union of shard blocks reproduces every (direction, label) CSR plus
    the undirected adjacency edge-for-edge."""
    partition = GraphPartitioner(num_shards).partition(store)
    try:
        owner = partition.owner
        sources = []
        for label in [None] + sorted(store.edge_labels()):
            for direction in ("out", "in"):
                arrays = store.csr_ndarrays(direction, label)
                if arrays is not None:
                    sources.append(((direction, label), arrays))
        sources.append((("und", None), store.undirected_csr_arrays()))
        for (kind, label), (offsets, targets) in sources:
            for shard, arena_spec in enumerate(partition.spec.shard_arenas):
                shard_offsets = partition._arenas[shard].views[
                    (kind, label, "offsets")]
                shard_targets = partition._arenas[shard].views[
                    (kind, label, "targets")]
                assert len(shard_offsets) == store.num_vertices + 1
                for vertex in range(store.num_vertices):
                    row = shard_targets[
                        shard_offsets[vertex]:shard_offsets[vertex + 1]]
                    full_row = targets[offsets[vertex]:offsets[vertex + 1]]
                    if owner[vertex] == shard:
                        assert np.array_equal(row, full_row)
                    else:
                        assert row.size == 0
    finally:
        partition.close()


def test_shard_edge_counts_and_balance(store):
    partition = GraphPartitioner(3).partition(store)
    try:
        assert sum(partition.shard_edge_counts) == store.num_edges
        ratio = partition.edge_balance_ratio()
        # The hash cut is not perfect but must stay in the same league as a
        # uniform split — a pathological ratio means one worker does all the
        # work and the parallel tier is theater.
        assert 1.0 <= ratio < 2.0
    finally:
        partition.close()


def test_more_shards_than_vertices_yields_empty_shards():
    graph = PropertyGraph(name="tiny")
    for i in range(3):
        graph.add_vertex(f"v{i}", "T")
    graph.add_edge("v0", "v1", "E")
    store = CSRGraphStore.from_graph(graph)
    partition = GraphPartitioner(5).partition(store)
    try:
        assert partition.num_shards == 5
        assert sum(partition.shard_edge_counts) == 1
        # At least two shards own no vertices at all; their blocks must be
        # valid (all-empty-row) CSRs rather than errors.
        empty_shards = [s for s in range(5)
                        if partition.owned_indices(s).size == 0]
        assert len(empty_shards) >= 2
    finally:
        partition.close()


def test_attach_round_trip_matches_parent_views(store):
    partition = GraphPartitioner(2).partition(store)
    try:
        for shard in (0, 1):
            attached = attach_partition(partition.spec, shard)
            try:
                assert np.array_equal(attached.owner, partition.owner)
                assert np.array_equal(
                    attached.owned, partition.owned_indices(shard))
                # Traversal block lists cover all shards and reproduce the
                # full out-adjacency through gather.
                blocks = attached.blocks("out")
                offsets, targets = store.csr_ndarrays("out", None)
                frontier = np.arange(store.num_vertices, dtype=np.int64)
                gathered = np.sort(np.concatenate(
                    [gather_slices(o, t, frontier)[0] for o, t in blocks]))
                assert np.array_equal(
                    gathered, np.sort(np.asarray(targets, dtype=np.int64)))
                # Unknown vertex types answer an all-false mask, known types
                # the store's own mask.
                assert not attached.type_mask("NoSuchType").any()
                for vertex_type in store.vertex_types():
                    assert np.array_equal(attached.type_mask(vertex_type),
                                          store.type_index_mask(vertex_type))
            finally:
                attached.close()
    finally:
        partition.close()


def test_close_unlinks_every_segment(store):
    partition = GraphPartitioner(2).partition(store)
    names = partition.segment_names()
    assert len(names) == 3  # two shard arenas + the common arena
    partition.close()
    partition.close()  # idempotent
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_labels_double_buffer_is_shared_and_writable(store):
    partition = GraphPartitioner(2).partition(store)
    try:
        attached = attach_partition(partition.spec, 0)
        try:
            partition.labels_buffer[...] = 7
            assert int(attached.labels[0]) == 7
            attached.labels_next[attached.owned] = 9
            assert (partition.labels_next_buffer[
                partition.owned_indices(0)] == 9).all()
        finally:
            attached.close()
    finally:
        partition.close()


def test_invalid_shard_count_rejected(store):
    with pytest.raises(GraphError):
        GraphPartitioner(0)


def test_direction_validation_on_attached_blocks(store):
    partition = GraphPartitioner(2).partition(store)
    try:
        attached = attach_partition(partition.spec, 0)
        try:
            with pytest.raises(ValueError):
                attached.blocks("sideways")
        finally:
            attached.close()
    finally:
        partition.close()

"""Hash-partitioned CSR shards backed by shared memory.

The single-process analytics tier runs every kernel over one monolithic
:class:`~repro.storage.csr.CSRGraphStore` on one core.  This module is the
storage half of the shard-parallel tier: :class:`GraphPartitioner` splits a
frozen CSR store into ``num_shards`` **row partitions** —
shard ``s`` holds the complete adjacency rows (out, in, per-label, and
undirected) of the vertices it *owns* (``owner[v] == s``), over the shared
global interned vertex space — and packs every shard's arrays into one
:class:`multiprocessing.shared_memory.SharedMemory` arena.

Layout choices, and why:

* **Row partition over the global vertex space.**  Every shard block keeps a
  full ``V + 1`` offsets array; non-owned rows are empty.  A shard block is
  therefore a valid CSR block of the whole graph containing a subset of its
  edges, so the existing multi-block kernels
  (:func:`repro.analytics.kernels._bulk_k_hop_counts_np`,
  :func:`~repro.analytics.kernels._bfs_levels_np`) traverse the *union of all
  shard blocks* exactly as they traverse one combined block — the per-hop
  sort-dedup merge the kernels already do doubles as the cross-shard frontier
  union, and no translation between shard-local and global ids ever happens.
* **Hash ownership.**  ``owner[v]`` is a multiplicative (Fibonacci) hash of
  the interned id — deterministic across processes and runs, so any attached
  worker recomputes its owned-row set from the shared ``owner`` array alone.
* **Complete undirected rows per owner.**  Label propagation votes need every
  neighbor of a vertex in one place; the undirected block of the owner shard
  carries the vertex's whole merged neighbor list, so a synchronous LPA pass
  over owned rows is *exact*, not approximate, and shards only reconcile
  labels (not votes) between passes.
* **One arena per shard plus one common arena.**  Each arena is a single
  shared-memory segment holding many arrays at recorded byte offsets.  The
  common arena carries the ``owner`` array, the string-rank tie-break array,
  per-type boolean masks, and a writable ``labels`` buffer (the only mutable
  array — the LPA orchestrator scatters new labels into it between passes
  while every worker is idle at the pass barrier).

Lifecycle hygiene: the creating process owns the segments and must call
:meth:`GraphPartition.close` (close + unlink).  Attaching processes use
:func:`attach_partition`, which immediately detaches the segment from the
``resource_tracker`` (via ``track=False`` on Python ≥ 3.13, or an explicit
``unregister`` before that) so worker exits never unlink live segments and
never log leaked-segment warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as _np

try:  # pragma: no cover - stdlib, but gate like multiprocessing itself
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.csr import CSRGraphStore

#: Array-key tuples inside a shard arena: ``(kind, label, part)`` where
#: ``kind`` is ``"out"``/``"in"``/``"und"``, ``label`` is an edge label or
#: ``None``, and ``part`` is ``"offsets"`` or ``"targets"``.
ArrayKey = tuple

#: Byte alignment of arrays inside an arena (keeps every ndarray view
#: naturally aligned for its dtype).
_ALIGN = 16

#: 64-bit Fibonacci-hash multiplier (golden-ratio constant).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def shared_memory_available() -> bool:
    """Whether this platform can back shard arenas with shared memory."""
    return _shm is not None


def owner_of_indices(indices, num_shards: int):
    """Shard owner per interned vertex id (deterministic multiplicative hash).

    Pure function of ``(index, num_shards)`` — every attached worker derives
    the same ownership from the same inputs, so routing decisions made by the
    orchestrator and owned-row sets derived inside workers always agree.
    """
    hashed = _np.asarray(indices, dtype=_np.uint64) * _np.uint64(_HASH_MULTIPLIER)
    hashed ^= hashed >> _np.uint64(31)
    return (hashed % _np.uint64(num_shards)).astype(_np.int16)


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach_segment(name: str):
    """Attach to an existing segment without resource-tracker registration.

    A plain attach registers the segment with the process's
    ``resource_tracker``, which unlinks it when the attaching process exits —
    tearing shared graph data out from under sibling workers and printing
    "leaked shared_memory" warnings at shutdown.  Only the *creating* process
    may own unlink responsibility.

    Python 3.13 grew ``track=False`` for exactly this; earlier versions need
    registration suppressed during the attach.  Suppression (rather than
    attach-then-unregister) matters under *fork*: forked workers share the
    parent's tracker daemon, so an unregister message from a worker would
    tear out the parent's own registration and make the parent's eventual
    unlink print a tracker ``KeyError`` traceback.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _no_register(resource_name, rtype):
        if rtype != "shared_memory":  # pragma: no cover - not hit by attach
            original_register(resource_name, rtype)

    resource_tracker.register = _no_register
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of one shared-memory arena.

    ``arrays`` maps an :data:`ArrayKey` to ``(dtype, length, byte_offset)``;
    any process holding the spec can attach the segment and rebuild every
    ndarray view without copying.
    """

    segment: str
    arrays: dict

    def views(self, buffer) -> dict:
        return {
            key: _np.ndarray((length,), dtype=_np.dtype(dtype),
                             buffer=buffer, offset=offset)
            for key, (dtype, length, offset) in self.arrays.items()
        }


@dataclass(frozen=True)
class PartitionSpec:
    """Everything a worker needs to attach the whole partition (picklable)."""

    num_shards: int
    num_vertices: int
    num_edges: int
    edge_labels: tuple
    vertex_types: tuple
    shard_arenas: tuple
    common_arena: ArenaSpec
    shard_edge_counts: tuple


class _Arena:
    """One created or attached segment plus its live ndarray views."""

    def __init__(self, segment, spec: ArenaSpec, owns: bool) -> None:
        self.segment = segment
        self.spec = spec
        self.owns = owns
        self.views: dict = spec.views(segment.buf)

    def close(self) -> None:
        # ndarray views export the segment's buffer; they must be dropped
        # before close() or the memoryview release raises BufferError.
        self.views = {}
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass
        if self.owns:
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


def _pack_arena(arrays: dict) -> _Arena:
    """Copy ``arrays`` into one freshly created shared-memory segment."""
    total = sum(_aligned(array.nbytes) for array in arrays.values())
    segment = _shm.SharedMemory(create=True, size=max(total, 1))
    spec_arrays: dict = {}
    offset = 0
    for key, array in arrays.items():
        view = _np.ndarray(array.shape, dtype=array.dtype,
                           buffer=segment.buf, offset=offset)
        view[...] = array
        spec_arrays[key] = (array.dtype.str, array.shape[0], offset)
        offset += _aligned(array.nbytes)
    arena = _Arena(segment, ArenaSpec(segment=segment.name,
                                      arrays=spec_arrays), owns=True)
    return arena


def _shard_rows(offsets, targets, row_owned, degrees):
    """The sub-CSR keeping only the rows where ``row_owned`` is True.

    Offsets stay ``V + 1``-long (non-owned rows collapse to empty slices), so
    the result is a whole-graph CSR block containing a subset of the edges.
    """
    kept = _np.where(row_owned, degrees, 0)
    shard_offsets = _np.zeros(len(offsets), dtype=_np.int64)
    _np.cumsum(kept, out=shard_offsets[1:])
    shard_offsets = shard_offsets.astype(offsets.dtype, copy=False)
    if len(degrees) and degrees.sum():
        shard_targets = targets[_np.repeat(row_owned, degrees)]
    else:
        shard_targets = targets[:0]
    return shard_offsets, shard_targets


class GraphPartition:
    """Created shard arenas plus parent-side views and bookkeeping.

    The creating process keeps this object alive for the lifetime of the
    worker pool reading it, then calls :meth:`close` exactly once; ``close``
    drops every view, closes the mappings, and unlinks the segments.
    """

    def __init__(self, spec: PartitionSpec, arenas: list[_Arena],
                 common: _Arena) -> None:
        self.spec = spec
        self._arenas = arenas
        self._common = common
        self.closed = False

    # ------------------------------------------------------------ properties
    @property
    def num_shards(self) -> int:
        return self.spec.num_shards

    @property
    def num_vertices(self) -> int:
        return self.spec.num_vertices

    @property
    def num_edges(self) -> int:
        return self.spec.num_edges

    @property
    def owner(self):
        """Shard owner per interned vertex id (int16 ndarray view)."""
        return self._common.views[("owner",)]

    @property
    def labels_buffer(self):
        """The writable int64 LPA labels array shared with every worker."""
        return self._common.views[("labels",)]

    @property
    def labels_next_buffer(self):
        """The second half of the LPA double buffer (workers write their
        disjoint owned slices here; the orchestrator flips at the barrier)."""
        return self._common.views[("labels_next",)]

    @property
    def shard_edge_counts(self) -> tuple:
        """Out-edges owned by each shard (the balance the hash achieved)."""
        return self.spec.shard_edge_counts

    def owned_indices(self, shard: int):
        """Interned ids owned by ``shard`` (derived, matching the workers)."""
        return _np.flatnonzero(self.owner == _np.int16(shard)).astype(_np.int64)

    def edge_balance_ratio(self) -> float:
        """``max(shard edges) / mean(shard edges)`` — 1.0 is a perfect cut."""
        counts = self.spec.shard_edge_counts
        if not counts or self.num_edges == 0:
            return 1.0
        mean = self.num_edges / len(counts)
        return max(counts) / mean if mean else 1.0

    def segment_names(self) -> list[str]:
        return [arena.spec.segment for arena in self._arenas] + [
            self._common.spec.segment]

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop views, close mappings, unlink segments.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for arena in self._arenas:
            arena.close()
        self._common.close()

    def __del__(self):  # pragma: no cover - GC-order dependent safety net
        try:
            self.close()
        except Exception:
            pass


class GraphPartitioner:
    """Splits a frozen ndarray CSR store into shared-memory shard arenas.

    Example:
        >>> from repro.graph.property_graph import PropertyGraph
        >>> from repro.storage.csr import CSRGraphStore
        >>> g = PropertyGraph(name="tiny")
        >>> for i in range(4): _ = g.add_vertex(f"v{i}", "T")
        >>> _ = g.add_edge("v0", "v1", "E"); _ = g.add_edge("v1", "v2", "E")
        >>> partition = GraphPartitioner(num_shards=2).partition(
        ...     CSRGraphStore.from_graph(g))
        >>> partition.num_shards, partition.num_edges
        (2, 2)
        >>> partition.close()
    """

    def __init__(self, num_shards: int, include_labels: bool = True) -> None:
        if num_shards < 1:
            raise GraphError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.include_labels = include_labels

    def partition(self, store: "CSRGraphStore") -> GraphPartition:
        if not shared_memory_available():
            raise GraphError(
                "shared-memory partitioning requires "
                "multiprocessing.shared_memory")
        from repro.analytics.kernels import _str_rank_array

        n = store.num_vertices
        owner = owner_of_indices(_np.arange(max(n, 1), dtype=_np.int64),
                                 self.num_shards)[:n]
        labels = ([None] + sorted(store.edge_labels())
                  if self.include_labels else [None])

        # Source blocks, fetched once; undirected is built (or reused) here so
        # the workers never pay it.
        blocks: dict = {}
        for label in labels:
            for direction in ("out", "in"):
                arrays = store.csr_ndarrays(direction, label)
                if arrays is not None:
                    blocks[(direction, label)] = arrays
        blocks[("und", None)] = store.undirected_csr_arrays()

        degrees = {
            key: _np.diff(offsets.astype(_np.int64))
            for key, (offsets, _targets) in blocks.items()
        }
        arenas: list[_Arena] = []
        shard_edge_counts = []
        created: list[_Arena] = []
        try:
            for shard in range(self.num_shards):
                row_owned = owner == _np.int16(shard)
                arrays: dict = {}
                for key, (offsets, targets) in blocks.items():
                    kind, label = key
                    shard_offsets, shard_targets = _shard_rows(
                        offsets, targets, row_owned, degrees[key])
                    arrays[(kind, label, "offsets")] = shard_offsets
                    arrays[(kind, label, "targets")] = shard_targets
                shard_edge_counts.append(
                    int(arrays[("out", None, "targets")].shape[0]))
                arena = _pack_arena(arrays)
                created.append(arena)
                arenas.append(arena)

            common_arrays: dict = {
                ("owner",): owner,
                ("rank",): _str_rank_array(store),
                ("labels",): _np.arange(n, dtype=_np.int64),
                # Double buffer for synchronous LPA: workers write their
                # owned slice of labels_next during a pass (owned sets are
                # disjoint, so no write overlaps), the orchestrator flips the
                # buffers at the barrier — no label arrays ever pickle.
                ("labels_next",): _np.arange(n, dtype=_np.int64),
            }
            for vertex_type in sorted(store.vertex_types()):
                common_arrays[("mask", vertex_type)] = store.type_index_mask(
                    vertex_type)
            common = _pack_arena(common_arrays)
            created.append(common)
        except Exception:
            for arena in created:
                arena.close()
            raise

        spec = PartitionSpec(
            num_shards=self.num_shards,
            num_vertices=n,
            num_edges=store.num_edges,
            edge_labels=tuple(sorted(store.edge_labels())),
            vertex_types=tuple(sorted(store.vertex_types())),
            shard_arenas=tuple(arena.spec for arena in arenas),
            common_arena=common.spec,
            shard_edge_counts=tuple(shard_edge_counts),
        )
        return GraphPartition(spec, arenas, common)


class AttachedPartition:
    """A worker's zero-copy window onto every shard arena.

    Workers attach **all** shards once at startup: the row partition means
    any multi-hop traversal crosses ownership boundaries every hop, so the
    kernels gather from the union of shard blocks (each gather of a non-owned
    row is an empty slice).  The per-worker *own* shard only matters for the
    operations that split work by ownership — LPA votes and degree sweeps.
    """

    def __init__(self, spec: PartitionSpec, shard_index: int) -> None:
        if _shm is None:
            raise GraphError("attaching a partition requires "
                             "multiprocessing.shared_memory")
        self.spec = spec
        self.shard_index = shard_index
        self._arenas: list[_Arena] = []
        for arena_spec in spec.shard_arenas:
            segment = _attach_segment(arena_spec.segment)
            self._arenas.append(_Arena(segment, arena_spec, owns=False))
        segment = _attach_segment(spec.common_arena.segment)
        self._common = _Arena(segment, spec.common_arena, owns=False)
        self.owner = self._common.views[("owner",)]
        self.rank = self._common.views[("rank",)]
        self.labels = self._common.views[("labels",)]
        self.labels_next = self._common.views[("labels_next",)]
        self.owned = _np.flatnonzero(
            self.owner == _np.int16(shard_index)).astype(_np.int64)
        inverse = _np.empty(spec.num_vertices, dtype=_np.int64)
        inverse[self.rank] = _np.arange(spec.num_vertices, dtype=_np.int64)
        self.inverse_rank = inverse

    # -------------------------------------------------------------- accessors
    @property
    def num_vertices(self) -> int:
        return self.spec.num_vertices

    def blocks(self, direction: str, edge_labels=None) -> list[tuple]:
        """All shards' ``(offsets, targets)`` pairs for a traversal.

        Mirrors :func:`repro.analytics.kernels._np_blocks`: ``direction`` is
        ``out``/``in``/``both``, ``edge_labels`` restricts to those labels
        (absent labels contribute nothing), and the returned list feeds the
        multi-block kernels directly.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be 'out', 'in' or 'both', got {direction!r}")
        directions = ("out", "in") if direction == "both" else (direction,)
        labels = list(edge_labels) if edge_labels is not None else [None]
        pairs: list[tuple] = []
        for one_direction in directions:
            for label in labels:
                if label is not None and label not in self.spec.edge_labels:
                    continue
                for arena in self._arenas:
                    offsets = arena.views.get((one_direction, label, "offsets"))
                    if offsets is not None:
                        pairs.append(
                            (offsets,
                             arena.views[(one_direction, label, "targets")]))
        return pairs

    def own_block(self, kind: str, label=None) -> tuple:
        """This worker's own shard block (e.g. ``("und", None)`` for LPA)."""
        views = self._arenas[self.shard_index].views
        return views[(kind, label, "offsets")], views[(kind, label, "targets")]

    def type_mask(self, vertex_type: str | None):
        """Boolean membership mask for ``vertex_type`` (zeros for an unknown
        type, matching :meth:`CSRGraphStore.type_index_mask`)."""
        if vertex_type is None:
            return None
        mask = self._common.views.get(("mask", vertex_type))
        if mask is None:
            return _np.zeros(self.spec.num_vertices, dtype=bool)
        return mask

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        for arena in self._arenas:
            arena.close()
        self._arenas = []
        self._common.close()
        self.owner = self.rank = self.labels = self.labels_next = None
        self.owned = self.inverse_rank = None


def attach_partition(spec: PartitionSpec, shard_index: int) -> AttachedPartition:
    """Attach every arena of ``spec`` from the current process."""
    return AttachedPartition(spec, shard_index)

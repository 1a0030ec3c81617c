"""Shard-parallel kernel execution over shared-memory CSR partitions.

The third dispatch tier.  :mod:`repro.analytics.kernels` gives two
(vectorized / reference); this module adds **parallel**: the frozen
store is split into hash-owned row shards by
:class:`~repro.storage.partition.GraphPartitioner`, the shard arenas live in
``multiprocessing.shared_memory``, and a persistent :class:`ShardWorkerPool`
of spawn-safe workers attaches every arena **once**, then serves kernel
requests over per-worker task queues — workers read graph data zero-copy and
only tiny request/response tuples ever pickle.

Work split and merge, per kernel:

* **bulk k-hop counts** — anchors are split across workers
  (``np.array_split``); each worker runs the unchanged multi-source sweep
  :func:`~repro.analytics.kernels._bulk_k_hop_counts_np` over the union of
  all shard blocks (the per-hop packed-key sort-dedup the kernel already does
  is the cross-shard frontier union), and the merge is per-source count
  concatenation in anchor order.
* **frontier BFS** (``k_hop_neighborhood``) — a single-anchor query routes to
  the *owning* shard's worker (ownership is the deterministic hash both sides
  compute), which runs :func:`~repro.analytics.kernels._bfs_levels_np` over
  all shard blocks and returns per-hop index levels.
* **label propagation** — synchronous passes with a barrier per pass: each
  worker votes over its *owned* rows only (the owner shard carries a
  vertex's complete undirected neighbor list, so per-shard votes are exact),
  writes winners into its disjoint slice of a shared double buffer, and the
  orchestrator flips the buffer once every worker has reported — the
  boundary-vertex label reconciliation is the flip itself.  Tie-breaks reuse
  the shared string-rank array, so results match the single-CSR tier
  bit-for-bit, pass for pass.
* **degree sweeps** — each worker diffs its own shard's offsets and returns
  owned-row degrees; the orchestrator scatters them into one dense array.

Dispatch mirrors the existing tiers: the kernel seam the public analytics
functions share (:func:`repro.analytics.kernels.run_vectorized`) calls
:func:`try_parallel` first, which returns :data:`MISS` (fall through to the
single-CSR kernels) unless a healthy partition is registered or the store is
large enough (:data:`SHARD_MIN_EDGES_ENV`, default
:data:`DEFAULT_SHARD_MIN_EDGES`) to auto-partition on a multi-core machine.
``ANALYTICS_FORCE_SINGLE=1`` (:data:`FORCE_SINGLE_ENV`) is the escape hatch
that pins the single-process tiers, and ``KASKADE_MP_START``
(:data:`MP_START_ENV`) overrides the multiprocessing start method (the pool
is spawn-safe; fork is simply faster to start on Linux).  Tier decisions land
in :data:`dispatch_counts` and mirror into subscribed metrics counters
(:func:`subscribe_dispatch` — the service's
``kaskade_parallel_dispatch_total{path=...}``).

A dead or wedged worker raises
:class:`~repro.errors.ParallelUnavailableError` internally; dispatch retires
the partition and transparently re-runs on the single-CSR tier, so callers
only ever see correct results.  All shared segments are released by explicit
``close()`` on pool shutdown and by an ``atexit`` sweep — the test suite
asserts no ``resource_tracker`` leaked-segment warnings survive.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue as _queue_mod
import threading
import time
import weakref

import numpy as _np

try:  # pragma: no cover - stdlib, but some platforms lack _multiprocessing
    import multiprocessing as _mp
except ImportError:  # pragma: no cover
    _mp = None

from repro.analytics import kernels
from repro.errors import ParallelUnavailableError, WorkerError
from repro.storage.csr import CSRGraphStore
from repro.storage.partition import (
    GraphPartitioner,
    attach_partition,
    shared_memory_available,
)

#: Environment variable pinning the single-process tiers when set to ``1`` —
#: the escape hatch mirroring ``ANALYTICS_FORCE_REFERENCE`` one tier up.
FORCE_SINGLE_ENV = "ANALYTICS_FORCE_SINGLE"

#: Environment variable overriding the edge-count floor below which stores
#: are never auto-partitioned (partitioning + worker startup must amortize).
SHARD_MIN_EDGES_ENV = "SHARD_MIN_EDGES"

#: Default auto-partition floor.  High on purpose: only clearly large graphs
#: pay the pool startup without being asked.
DEFAULT_SHARD_MIN_EDGES = 200_000

#: Environment variable selecting the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``); unset uses the platform default.
MP_START_ENV = "KASKADE_MP_START"

#: Environment variable overriding the per-request timeout (seconds).
TIMEOUT_ENV = "KASKADE_PARALLEL_TIMEOUT"

_DEFAULT_TIMEOUT = 120.0

#: Sentinel returned by :func:`try_parallel` when the parallel tier did not
#: run and the caller must fall through to the single-CSR kernels.  (``None``
#: would be ambiguous: kernels legitimately return empty results.)
MISS = object()

#: The kernels :class:`PartitionedAnalytics` serves, by kernel name.
SHARDED_KERNELS = frozenset({"bulk_k_hop_counts", "k_hop_neighborhood",
                             "label_propagation"})


def forced_single() -> bool:
    """Whether the environment pins analytics to the single-process tiers."""
    return os.environ.get(FORCE_SINGLE_ENV, "") == "1"


def shard_min_edges() -> int:
    """Edge count from which stores auto-partition (env-overridable)."""
    raw = os.environ.get(SHARD_MIN_EDGES_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_SHARD_MIN_EDGES
    except ValueError:
        return DEFAULT_SHARD_MIN_EDGES


def start_method() -> str | None:
    """The configured multiprocessing start method, or None for default."""
    return os.environ.get(MP_START_ENV) or None


def request_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV, "")
    try:
        return float(raw) if raw else _DEFAULT_TIMEOUT
    except ValueError:
        return _DEFAULT_TIMEOUT


def multiprocessing_available() -> bool:
    """Whether this platform can run the shard worker pool at all."""
    return _mp is not None and shared_memory_available()


# ------------------------------------------------------------ dispatch notes
#: Cumulative parallel-tier decisions by path name; the service mirrors these
#: into ``kaskade_parallel_dispatch_total{path=...}``.  ``parallel`` counts
#: requests served by the worker pool; ``single`` counts requests that were
#: *eligible* for the pool (registered partition, or past the size floor) but
#: ran on the single-CSR tier instead.
dispatch_counts: dict[str, int] = {"parallel": 0, "single": 0}

_dispatch_lock = threading.Lock()
_dispatch_subscribers: list[weakref.ref] = []


def subscribe_dispatch(counter) -> None:
    """Mirror every parallel-tier decision into ``counter.inc(path=...)``.

    Weakly referenced, like :func:`repro.analytics.kernels.subscribe_dispatch`
    — a dead metrics registry silently drops out.
    """
    with _dispatch_lock:
        _dispatch_subscribers.append(weakref.ref(counter))


def note_dispatch(path: str) -> None:
    with _dispatch_lock:
        dispatch_counts[path] = dispatch_counts.get(path, 0) + 1
        if not _dispatch_subscribers:
            return
        alive = []
        for ref in _dispatch_subscribers:
            counter = ref()
            if counter is not None:
                counter.inc(path=path)
                alive.append(ref)
        _dispatch_subscribers[:] = alive


# -------------------------------------------------------------- worker side
def _worker_serve(task_queue, result_queue, spec, shard_index) -> None:
    """Request loop of one shard worker (runs in the child process).

    Module-level so every start method can import it (spawn pickles the
    function by qualified name).  The worker attaches all shard arenas once,
    acknowledges with ``("ready", shard)``, then answers requests until a
    ``("shutdown",)`` sentinel.  Graph data is only ever *read* through the
    attached views; the sole writes are the worker's disjoint owned slice of
    the shared LPA double buffer.
    """
    partition = attach_partition(spec, shard_index)
    lpa_state: dict = {}
    result_queue.put(("ready", shard_index, None, None))
    while True:
        task = task_queue.get()
        op = task[0]
        if op == "shutdown":
            break
        request_id = task[1]
        try:
            if op == "bulk":
                _op, _rid, anchors, max_hops, direction, labels, mask_key = task
                stats = kernels.KernelStats()
                blocks = partition.blocks(direction, labels)
                anchor_array = _np.asarray(anchors, dtype=_np.int64)
                reached = kernels._bulk_k_hop_counts_np(
                    blocks, anchor_array, max_hops, partition.num_vertices,
                    partition.type_mask(mask_key), stats)
                payload = (reached, _stats_tuple(stats))
            elif op == "bfs":
                _op, _rid, source_index, max_hops, direction, labels = task
                stats = kernels.KernelStats()
                blocks = partition.blocks(direction, labels)
                if blocks:
                    levels = kernels._bfs_levels_np(
                        blocks, source_index, max_hops,
                        partition.num_vertices, stats)
                else:
                    levels = []
                payload = ([level for level in levels[1:]],
                           _stats_tuple(stats))
            elif op == "lpa_pass":
                payload = _lpa_pass(partition, lpa_state)
            elif op == "lpa_reset":
                # Re-derive pass constants lazily; labels buffers are reset
                # by the orchestrator (single writer while workers are idle).
                payload = None
            elif op == "degrees":
                _op, _rid, kind, label = task
                try:
                    offsets, _targets = partition.own_block(kind, label)
                except KeyError:
                    owned_degrees = _np.zeros(len(partition.owned),
                                              dtype=_np.int64)
                else:
                    degrees = _np.diff(offsets.astype(_np.int64))
                    owned_degrees = degrees[partition.owned]
                payload = (owned_degrees, (0, 1, 0))
            elif op == "ping":
                payload = None
            else:
                raise ValueError(f"unknown op {op!r}")
            result_queue.put(("ok", request_id, shard_index, payload))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            result_queue.put(("error", request_id, shard_index,
                              f"{type(exc).__name__}: {exc}"))
    partition.close()


def _stats_tuple(stats: kernels.KernelStats) -> tuple:
    return (stats.traversal_edges, stats.batched_ops, stats.sources)


def _lpa_pass(partition, state: dict) -> tuple:
    """One synchronous LPA pass over this worker's owned rows.

    Exactly the per-pass body of
    :func:`repro.analytics.kernels._label_propagation_np`, restricted to the
    owned rows — valid because the owner shard's undirected block carries
    each owned vertex's *complete* merged neighbor list, so the segmented
    majority vote sees every neighbor label.  Reads the shared ``labels``
    buffer, writes winners into the disjoint owned slice of ``labels_next``.
    Returns ``(changed, owned_neighbor_total)``.
    """
    if not state:
        offsets, targets = partition.own_block("und", None)
        degrees = _np.diff(offsets.astype(_np.int64))
        n = partition.num_vertices
        shift = max(int(n - 1).bit_length(), 1)
        state["shift"] = shift
        state["stride"] = 1 << shift
        state["rank_mask"] = state["stride"] - 1
        state["vote_base"] = _np.repeat(
            _np.arange(n, dtype=_np.int64) << shift, degrees)
        state["neighbors"] = targets.astype(_np.int64, copy=False)
        state["total"] = int(degrees.sum())
    labels = partition.labels
    labels_next = partition.labels_next
    owned = partition.owned
    owned_labels = labels[owned]
    labels_next[owned] = owned_labels
    if state["total"]:
        rank_of = partition.rank[labels]
        votes = state["vote_base"] + rank_of[state["neighbors"]]
        votes.sort()
        firsts = _np.empty(votes.shape, dtype=bool)
        firsts[0] = True
        _np.not_equal(votes[1:], votes[:-1], out=firsts[1:])
        first_indices = _np.flatnonzero(firsts)
        unique_votes = votes[first_indices]
        counts = _np.diff(first_indices, append=votes.size)
        shift = state["shift"]
        rank_mask = state["rank_mask"]
        vote_segment = unique_votes >> shift
        vote_rank = unique_votes & rank_mask
        score = counts * state["stride"] + (rank_mask - vote_rank)
        starts = _np.flatnonzero(
            _np.r_[True, vote_segment[1:] != vote_segment[:-1]])
        best = _np.maximum.reduceat(score, starts)
        labels_next[vote_segment[starts]] = partition.inverse_rank[
            rank_mask - (best & rank_mask)]
    changed = int((labels_next[owned] != owned_labels).sum())
    return (changed, state["total"])


# ---------------------------------------------------------------- the pool
class ShardWorkerPool:
    """Persistent shard workers fed over per-worker task queues.

    One worker per shard; worker ``i``'s *own* shard is ``i`` (LPA votes and
    degree sweeps split by ownership), while traversals read the union of all
    shards through the attached arenas.  Per-worker queues make routing
    possible (a single-anchor BFS goes only to the owner's queue); one shared
    result queue collects replies, matched back by request id.
    """

    def __init__(self, spec, mp_start_method: str | None = None) -> None:
        if not multiprocessing_available():
            raise ParallelUnavailableError(
                "multiprocessing or shared_memory unavailable")
        method = mp_start_method or start_method()
        try:
            context = (_mp.get_context(method) if method
                       else _mp.get_context())
        except ValueError as exc:
            raise ParallelUnavailableError(
                f"unknown start method {method!r}: {exc}") from exc
        self.num_workers = spec.num_shards
        self.start_method_used = context.get_start_method()
        self._request_ids = itertools.count(1)
        self._task_queues = [context.Queue() for _ in range(self.num_workers)]
        self._results = context.Queue()
        self._processes = []
        self.closed = False
        try:
            for shard in range(self.num_workers):
                process = context.Process(
                    target=_worker_serve,
                    args=(self._task_queues[shard], self._results, spec, shard),
                    daemon=True,
                    name=f"kaskade-shard-{shard}",
                )
                process.start()
                self._processes.append(process)
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _await_ready(self) -> None:
        deadline = time.monotonic() + request_timeout()
        ready = 0
        while ready < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ParallelUnavailableError(
                    f"worker pool startup timed out "
                    f"({ready}/{self.num_workers} ready)")
            try:
                message = self._results.get(timeout=min(remaining, 0.5))
            except _queue_mod.Empty:
                self._check_alive()
                continue
            if message[0] == "ready":
                ready += 1
            elif message[0] == "error":  # pragma: no cover - attach failure
                raise ParallelUnavailableError(
                    f"worker failed during startup: {message[3]}")

    def _check_alive(self) -> None:
        for process in self._processes:
            if not process.is_alive():
                raise ParallelUnavailableError(
                    f"shard worker {process.name} died "
                    f"(exitcode {process.exitcode})")

    def run(self, requests: list[tuple[int, tuple]]) -> list:
        """Issue ``(worker_index, task_tail)`` requests; reply in order.

        ``task_tail`` is the op tuple minus the request id (inserted here).
        Blocks until every reply arrives; a worker exception raises
        :class:`WorkerError`, a dead worker or timeout raises
        :class:`ParallelUnavailableError`.
        """
        if self.closed:
            raise ParallelUnavailableError("worker pool is closed")
        pending: dict[int, int] = {}
        replies: dict[int, object] = {}
        for position, (worker_index, tail) in enumerate(requests):
            request_id = next(self._request_ids)
            pending[request_id] = position
            self._task_queues[worker_index].put(
                (tail[0], request_id) + tuple(tail[1:]))
        deadline = time.monotonic() + request_timeout()
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ParallelUnavailableError(
                    f"worker pool request timed out "
                    f"({len(pending)} replies outstanding)")
            try:
                message = self._results.get(timeout=min(remaining, 0.5))
            except _queue_mod.Empty:
                self._check_alive()
                continue
            kind, request_id = message[0], message[1]
            position = pending.pop(request_id, None)
            if position is None:
                continue  # stale reply from a timed-out earlier request
            if kind == "error":
                raise WorkerError(message[2], message[3])
            replies[position] = message[3]
        return [replies[position] for position in range(len(requests))]

    def broadcast(self, tail: tuple) -> list:
        """Send one op to every worker; replies in worker order."""
        return self.run([(worker, tail) for worker in range(self.num_workers)])

    def close(self) -> None:
        """Shut workers down and drop the queues.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(("shutdown",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        for task_queue in self._task_queues + [self._results]:
            try:
                task_queue.close()
                task_queue.cancel_join_thread()
            except Exception:  # pragma: no cover
                pass


# ------------------------------------------------------------- orchestrator
class PartitionedAnalytics:
    """A partitioned store plus its worker pool: the parallel kernel facade.

    Methods mirror the single-CSR kernel signatures (same validation, same
    zero-hop short-circuits, same unknown-id errors) so dispatch can swap the
    tiers without behavioral seams.  ``stats`` aggregation sums the workers'
    deterministic counters, so differential tests can still reason about
    total traversal work.
    """

    def __init__(self, store: CSRGraphStore, num_shards: int,
                 mp_start_method: str | None = None) -> None:
        self.partition = GraphPartitioner(num_shards).partition(store)
        try:
            self.pool = ShardWorkerPool(self.partition.spec, mp_start_method)
        except BaseException:
            self.partition.close()
            raise
        self.num_shards = num_shards
        self.source_version = store.source_version
        self.closed = False

    # -------------------------------------------------------------- kernels
    def bulk_k_hop_counts(self, store: CSRGraphStore, max_hops: int,
                          direction: str = "out", anchors=None,
                          anchor_type: str | None = None,
                          vertex_type: str | None = None, edge_labels=None,
                          stats=None) -> dict:
        if max_hops < 1:
            if anchors is not None:
                return {anchor: 0 for anchor in anchors}
            return {anchor: 0 for anchor in store.vertex_ids(anchor_type)}
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be 'out', 'in' or 'both', got {direction!r}")
        if anchors is not None:
            anchor_indices = [store.index_of(anchor) for anchor in anchors]
        else:
            anchor_indices = (store.indices_of_type(anchor_type)
                              if anchor_type is not None
                              else list(range(store.num_vertices)))
        ids = store.external_ids
        labels = tuple(edge_labels) if edge_labels is not None else None
        anchor_array = _np.asarray(anchor_indices, dtype=_np.int64)
        chunks = [chunk for chunk
                  in _np.array_split(anchor_array, self.pool.num_workers)
                  if chunk.size]
        requests = [
            (worker, ("bulk", chunk, max_hops, direction, labels, vertex_type))
            for worker, chunk in enumerate(chunks)
        ]
        replies = self.pool.run(requests)
        self._merge_stats(stats, [reply[1] for reply in replies])
        if replies:
            reached = _np.concatenate([reply[0] for reply in replies])
        else:
            reached = _np.zeros(0, dtype=_np.int64)
        return dict(zip(map(ids.__getitem__, anchor_indices),
                        reached.tolist()))

    def k_hop_neighborhood(self, store: CSRGraphStore, source, max_hops: int,
                           direction: str = "out", edge_labels=None,
                           include_source: bool = False, stats=None) -> dict:
        if max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
        if max_hops < 1:
            return {source: 0} if include_source else {}
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be 'out', 'in' or 'both', got {direction!r}")
        source_index = store.index_of(source)
        owner = int(self.partition.owner[source_index])
        labels = tuple(edge_labels) if edge_labels is not None else None
        (reply,) = self.pool.run([
            (owner, ("bfs", source_index, max_hops, direction, labels))])
        levels, stats_tuple = reply
        self._merge_stats(stats, [stats_tuple])
        ids = store.external_ids
        distances: dict = {source: 0} if include_source else {}
        for hop, level in enumerate(levels, start=1):
            for index in level.tolist():
                distances[ids[index]] = hop
        return distances

    def label_propagation(self, store: CSRGraphStore, passes: int = 25,
                          write_property: str | None = "community",
                          stats=None) -> dict:
        if passes < 0:
            raise ValueError(f"passes must be >= 0, got {passes}")
        n = store.num_vertices
        labels_buffer = self.partition.labels_buffer
        labels_next_buffer = self.partition.labels_next_buffer
        # Single writer while every worker idles between requests: reset both
        # buffers to the identity labeling before the first pass.
        identity = _np.arange(n, dtype=_np.int64)
        labels_buffer[...] = identity
        labels_next_buffer[...] = identity
        total_edges = 0
        for _ in range(passes):
            replies = self.pool.broadcast(("lpa_pass",))
            changed = sum(reply[0] for reply in replies)
            owned_totals = sum(reply[1] for reply in replies)
            total_edges += owned_totals
            if stats is not None:
                stats.passes += 1
                stats.traversal_edges += owned_totals
                stats.batched_ops += 3 * len(replies)
            # Barrier flip: every worker wrote its disjoint owned slice of
            # labels_next; publishing is one dense copy.
            labels_buffer[...] = labels_next_buffer
            if changed == 0:
                break
        labels = labels_buffer.tolist()
        ids = store.external_ids
        result = dict(zip(ids, map(ids.__getitem__, labels)))
        if write_property is not None:
            for vertex, ref in enumerate(store.vertices()):
                ref.properties[write_property] = ids[labels[vertex]]
        return result

    def degree_sweep(self, store: CSRGraphStore, direction: str = "out",
                     edge_label: str | None = None, stats=None):
        """Per-vertex degree array computed shard-parallel.

        Each worker diffs its own shard's offsets (its rows are the only
        non-empty ones) and returns owned-row degrees; the merge scatters
        them by ownership into one dense int64 array.
        """
        if direction not in ("out", "in", "und"):
            raise ValueError(
                f"direction must be 'out', 'in' or 'und', got {direction!r}")
        replies = self.pool.broadcast(("degrees", direction, edge_label))
        self._merge_stats(stats, [reply[1] for reply in replies])
        result = _np.zeros(store.num_vertices, dtype=_np.int64)
        for shard, reply in enumerate(replies):
            result[self.partition.owned_indices(shard)] = reply[0]
        return result

    # ------------------------------------------------------------ plumbing
    @staticmethod
    def _merge_stats(stats, stats_tuples) -> None:
        if stats is None:
            return
        for edges, ops, sources in stats_tuples:
            stats.traversal_edges += edges
            stats.batched_ops += ops
            stats.sources += sources

    @property
    def healthy(self) -> bool:
        return not self.closed and not self.pool.closed and all(
            process.is_alive() for process in self.pool._processes)

    def close(self) -> None:
        """Shut the pool down, then release every shared segment."""
        if self.closed:
            return
        self.closed = True
        self.pool.close()
        self.partition.close()


# --------------------------------------------------------------- registry
# Keyed by id(store); the weakref detects both store death (finalize closes
# the handle) and id reuse (a dead ref with a matching id never resolves).
_registry: dict[int, tuple[weakref.ref, PartitionedAnalytics]] = {}
_registry_lock = threading.Lock()


def _register(store: CSRGraphStore, handle: PartitionedAnalytics) -> None:
    key = id(store)

    def _reap(_ref, key=key, handle=handle):
        with _registry_lock:
            entry = _registry.get(key)
            if entry is not None and entry[1] is handle:
                del _registry[key]
        handle.close()

    with _registry_lock:
        previous = _registry.get(key)
        _registry[key] = (weakref.ref(store, _reap), handle)
    if previous is not None:
        previous[1].close()


def partition_store(store: CSRGraphStore, num_shards: int | None = None,
                    mp_start_method: str | None = None) -> PartitionedAnalytics:
    """Explicitly partition ``store`` and register the handle for dispatch.

    Unlike auto-dispatch this ignores the size floor and the core count —
    tests and benchmarks partition deliberately.  The returned handle is
    owned by the registry; ``release_store(store)`` (or store death, or
    interpreter exit) closes it.
    """
    handle = PartitionedAnalytics(
        store,
        num_shards or default_num_shards(),
        mp_start_method,
    )
    _register(store, handle)
    return handle


def release_store(store: CSRGraphStore) -> None:
    """Close and unregister the partition handle for ``store``, if any."""
    with _registry_lock:
        entry = _registry.pop(id(store), None)
    if entry is not None:
        entry[1].close()


def default_num_shards() -> int:
    """Shards/workers used when none are requested: bounded by core count."""
    return max(2, min(os.cpu_count() or 1, 4))


def peek_parallel(store) -> PartitionedAnalytics | None:
    """The healthy registered handle for ``store``, or None.  Never creates,
    never counts a dispatch — safe for :func:`kernels.engine_for` prediction.
    """
    if not isinstance(store, CSRGraphStore) or forced_single():
        return None
    with _registry_lock:
        entry = _registry.get(id(store))
    if entry is None or entry[0]() is not store:
        return None
    handle = entry[1]
    if not handle.healthy or handle.source_version != store.source_version:
        return None
    return handle


def resolve_parallel(store) -> PartitionedAnalytics | None:
    """The handle a kernel call should fan out through, or None.

    A registered healthy handle wins.  Otherwise the store auto-partitions
    when it is clearly worth it: at least
    :func:`shard_min_edges` edges, vectorized tier enabled, multiprocessing
    present, more than one core, and no ``ANALYTICS_FORCE_SINGLE=1`` pin.
    """
    handle = peek_parallel(store)
    if handle is not None:
        return handle
    if (forced_single()
            or not isinstance(store, CSRGraphStore)
            or not multiprocessing_available()
            or (os.cpu_count() or 1) < 2
            or store.num_edges < shard_min_edges()
            or not kernels.vectorized_enabled()):
        return None
    try:
        return partition_store(store)
    except ParallelUnavailableError:
        return None


def _eligible(store) -> bool:
    """Whether a single-tier run of ``store`` counts as a ``single`` dispatch
    decision (the parallel tier *could* have served it)."""
    return (isinstance(store, CSRGraphStore)
            and store.num_edges >= shard_min_edges())


def try_parallel(store, op: str, **kwargs):
    """Run ``op`` on the parallel tier, or return :data:`MISS`.

    Called by :func:`repro.analytics.kernels.run_vectorized` before the
    single-CSR kernel: for a kernel in :data:`SHARDED_KERNELS`, resolves a
    handle (registered or auto-created), runs the kernel, and degrades to
    :data:`MISS` — retiring the handle — if the pool is unavailable, so the
    caller transparently falls back to the single-CSR tiers.  Worker-side
    exceptions (:class:`~repro.errors.WorkerError`) propagate: they mean a
    bug, not a capacity condition.
    """
    if op not in SHARDED_KERNELS:
        return MISS
    handle = resolve_parallel(store)
    if handle is None:
        if _eligible(store) and not forced_single():
            note_dispatch("single")
        return MISS
    try:
        result = getattr(handle, op)(store, **kwargs)
    except ParallelUnavailableError:
        release_store(store)
        note_dispatch("single")
        return MISS
    note_dispatch("parallel")
    return result


def describe_partitions() -> list[dict]:
    """Live registered partitions, for metrics: ``[{shards, edges, balance}]``."""
    with _registry_lock:
        entries = list(_registry.values())
    out = []
    for ref, handle in entries:
        if ref() is None or handle.closed:
            continue
        out.append({
            "shards": handle.num_shards,
            "edges": handle.partition.num_edges,
            "balance": handle.partition.edge_balance_ratio(),
        })
    return out


def close_all() -> None:
    """Close every registered partition (test teardown / interpreter exit)."""
    with _registry_lock:
        entries = list(_registry.values())
        _registry.clear()
    for _ref, handle in entries:
        handle.close()


atexit.register(close_all)

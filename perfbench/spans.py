"""Span recorder and layer wrappers for the traced benchmark run.

The recorder lives entirely in the benchmark: :func:`install_layers` wraps the
public entry point of each layer (a class method or a module function) with a
span-recording shim, and :meth:`Patches.uninstall` puts the originals back.
Nothing under ``src/`` is edited, and an untraced run never installs a
wrapper, so the difference between a traced and an untraced run of the same
load is the tracing overhead.

A span is ``(id, parent, name, start_ns, end_ns, request_id, attrs)``.  The
parent and request id come from context variables, so nested calls on one
thread form a tree and a request's spans share its id.  Spans stay in memory
until :meth:`SpanRecorder.dump` writes them as JSON lines.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_current_request: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request", default=None)

#: Payload key the load generator puts on each ``POST /query`` body.  The
#: service ignores unknown keys; the traced ``GraphService.handle`` wrapper
#: reads it so server-side spans carry the client's request id.
REQUEST_ID_KEY = "bench_request_id"

#: Attribute the ``GraphService.handle`` wrapper sets on the returned
#: ``Response`` so ``Response.encode`` (run later on the event-loop thread,
#: outside the request's context) can be linked back to its request.
_RESPONSE_RID_ATTR = "_perfbench_request_id"


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    request_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(data["id"], data["parent"], data["name"], data["start_ns"],
                   data["end_ns"], data["request_id"], data["attrs"])

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                "request_id": self.request_id, "attrs": self.attrs}


class SpanRecorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def record(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
               request_id: str | None = None,
               attrs: Callable[..., dict | None] | None = None) -> Any:
        """Call ``fn`` inside a span named ``name`` and return its result."""
        span_id = next(self._ids)
        parent = _current_span.get()
        span_token = _current_span.set(span_id)
        request_token = None
        if request_id is not None:
            request_token = _current_request.set(request_id)
        else:
            request_id = _current_request.get()
        result = error = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter_ns()
            _current_span.reset(span_token)
            if request_token is not None:
                _current_request.reset(request_token)
            extra = attrs(args, kwargs, result, error) if attrs is not None else None
            self.spans.append(Span(span_id, parent, name, start, end,
                                   request_id, extra or {}))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), default=str) + "\n")


# ------------------------------------------------------------------ analysis
def self_times_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    Children are the spans naming it as parent; their intervals are clipped
    to the parent's and merged before subtraction, so overlapping children
    are not counted twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, int] = {}
    for span in spans:
        intervals = sorted(
            (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
            for child in children.get(span.span_id, ()))
        covered = 0
        cursor = span.start_ns
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration_ns - covered
    return result


@dataclass
class LayerStats:
    """Per-name aggregate over the spans of one phase."""

    calls: int = 0
    total_ns: int = 0
    self_ns: list[int] = field(default_factory=list)

    def self_p50_ms(self) -> float:
        return statistics.median(self.self_ns) / 1e6 if self.self_ns else 0.0

    def self_total_ms(self) -> float:
        return sum(self.self_ns) / 1e6


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Group spans by name with their self times."""
    selfs = self_times_ns(spans)
    layers: dict[str, LayerStats] = {}
    for span in spans:
        stats = layers.setdefault(span.name, LayerStats())
        stats.calls += 1
        stats.total_ns += span.duration_ns
        stats.self_ns.append(selfs[span.span_id])
    return layers


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """JSON-ready per-layer table: calls, total/self milliseconds, medians."""
    return {name: {"calls": stats.calls,
                   "total_ms": stats.total_ns / 1e6,
                   "self_total_ms": stats.self_total_ms(),
                   "self_p50_ms": stats.self_p50_ms()}
            for name, stats in sorted(aggregate(spans).items())}


# ------------------------------------------------------------------ patching
class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _wrap(recorder: SpanRecorder, name: str, fn: Callable, *,
          attrs: Callable | None = None,
          request_id: Callable[[tuple, dict], str | None] | None = None,
          after: Callable[[str | None, Any], None] | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        rid = request_id(args, kwargs) if request_id is not None else None
        result = recorder.record(name, fn, args, kwargs, request_id=rid,
                                 attrs=attrs)
        if after is not None:
            after(rid, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _handle_request_id(args: tuple, kwargs: dict) -> str | None:
    payload = args[3] if len(args) > 3 else kwargs.get("payload")
    if isinstance(payload, dict):
        rid = payload.get(REQUEST_ID_KEY)
        return str(rid) if rid is not None else None
    return None


def _tag_response(rid: str | None, response: Any) -> None:
    if rid is not None:
        setattr(response, _RESPONSE_RID_ATTR, rid)


def _encode_request_id(args: tuple, kwargs: dict) -> str | None:
    return getattr(args[0], _RESPONSE_RID_ATTR, None)


def install_layers(recorder: SpanRecorder) -> Patches:
    """Wrap every measured layer's public calls; returns the undo handle.

    Layers are named by module.  Each wrapper records one span per call and,
    where a per-layer metric needs it, attributes read from the arguments or
    the result (rows and work, bytes appended, views refreshed, sheds).
    """
    from repro.analytics import community, parallel, traversal
    from repro.core.enumerator import ViewEnumerator
    from repro.core.kaskade import Kaskade
    from repro.core.rewriter import QueryRewriter
    from repro.core.selection import ViewSelector
    from repro.durability.manager import DurabilityEngine
    from repro.durability.wal import WriteAheadLog, encode_record
    from repro.errors import AdmissionError
    from repro.inference.engine import InferenceEngine
    from repro.query.plan import physical
    from repro.query.plan.planner import QueryPlanner
    from repro.service.admission import AdmissionController
    from repro.service.mvcc import SnapshotManager
    from repro.service.server import GraphService, Response
    from repro.storage.manager import StorageManager
    from repro.views.catalog import ViewCatalog
    from repro.workloads import queries as workload_queries

    patches = Patches()

    def method(owner, attr, name, **options):
        patches.replace(owner, attr,
                        _wrap(recorder, name, owner.__dict__[attr], **options))

    def function(modules, attr, name, **options):
        original = getattr(modules[0], attr)
        wrapper = _wrap(recorder, name, original, **options)
        for module in modules:
            if getattr(module, attr) is original:
                patches.replace(module, attr, wrapper)

    def shed(args, kwargs, result, error):
        return {"shed": 1} if isinstance(error, AdmissionError) else None

    def executed(args, kwargs, result, error):
        if result is None:
            return None
        return {"rows": len(result.rows), "work": result.stats.total_work}

    def rewrote(args, kwargs, result, error):
        return {"hit": int(result is not None)}

    def refreshed(args, kwargs, result, error):
        if result is None:
            return None
        return {"refreshed": result.refreshed, "incremental": result.incremental}

    def committed(args, kwargs, result, error):
        return {"ops": len(args[1] if len(args) > 1 else kwargs["ops"])}

    def appended(args, kwargs, result, error):
        return {"bytes": len(encode_record(args[1]))}

    def routed(args, kwargs, result, error):
        return {"path": args[2] if len(args) > 2 else kwargs.get("path")}

    def encoded(args, kwargs, result, error):
        return {"bytes": len(result)} if result is not None else None

    method(GraphService, "handle", "server.handle", attrs=routed,
           request_id=_handle_request_id, after=_tag_response)
    method(Response, "encode", "server.encode", attrs=encoded,
           request_id=_encode_request_id)
    method(AdmissionController, "admit", "admission.admit", attrs=shed)
    method(SnapshotManager, "pin", "mvcc.pin")
    method(SnapshotManager, "release", "mvcc.release")
    method(SnapshotManager, "commit", "mvcc.commit", attrs=committed)
    method(Kaskade, "parse", "parser.parse")
    method(Kaskade, "rewrite", "kaskade.rewrite", attrs=rewrote)
    method(Kaskade, "execute", "kaskade.execute")
    method(Kaskade, "refresh_views", "delta.refresh", attrs=refreshed)
    method(ViewEnumerator, "enumerate", "enumerator.enumerate")
    method(InferenceEngine, "query_distinct", "inference.query_distinct")
    method(QueryRewriter, "applicable", "rewriter.applicable")
    method(QueryPlanner, "plan", "planner.plan")
    method(physical.PhysicalExecutor, "execute", "physical.execute",
           attrs=executed)
    function([physical], "finalize_rows", "projection.finalize")
    method(StorageManager, "freeze", "storage.freeze")
    method(StorageManager, "union_for", "storage.union_for")
    method(WriteAheadLog, "append", "wal.append", attrs=appended)
    method(WriteAheadLog, "sync", "wal.sync")
    method(DurabilityEngine, "checkpoint", "checkpoint")
    method(ViewSelector, "select", "selection.select")
    method(ViewCatalog, "materialize", "catalog.materialize")
    function([traversal, workload_queries], "bulk_k_hop_counts",
             "analytics.bulk_k_hop")
    function([community, workload_queries], "label_propagation",
             "analytics.label_propagation")
    function([parallel], "partition_store", "parallel.partition")
    return patches


class DispatchCounter:
    """``inc(path=...)`` sink for the analytics dispatch subscriptions.

    Both dispatch modules hold subscribers weakly, so the caller keeps this
    object alive; it only counts while ``enabled``.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.enabled = False
        self.counts: dict[str, int] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if self.enabled:
            key = f"{self.prefix}{labels.get('path', '?')}"
            self.counts[key] = self.counts.get(key, 0) + int(amount)


def subscribe_dispatch() -> tuple[DispatchCounter, DispatchCounter]:
    """Subscribe counters to the parallel and kernel tier decisions."""
    from repro.analytics import kernels, parallel

    shard = DispatchCounter("parallel.dispatch_")
    tier = DispatchCounter("kernels.dispatch_")
    parallel.subscribe_dispatch(shard)
    kernels.subscribe_dispatch(tier)
    return shard, tier

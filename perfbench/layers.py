"""Per-layer metrics of a traced run, computed from its spans.

Every ``*_ms`` figure is the median self time of one call of that layer
(its span's duration minus the time its child spans cover), except
``mvcc.commit_ms`` (whole commit, children included) and ``server.http_ms``
(client latency minus the server's ``GraphService.handle`` span, per
request).  A layer the workload never calls reports 0.
"""

from __future__ import annotations

import statistics

from perfbench.spans import Span, aggregate

#: Layers whose ``*_ms`` metric is the median self time of the named span.
_SELF_TIME = {
    "server.handle_ms": "server.handle",
    "server.encode_ms": "server.encode",
    "admission.wait_ms": "admission.admit",
    "mvcc.commit_self_ms": "mvcc.commit",
    "parser.parse_ms": "parser.parse",
    "enumerator.enumerate_ms": "enumerator.enumerate",
    "rewriter.applicable_ms": "rewriter.applicable",
    "kaskade.rewrite_ms": "kaskade.rewrite",
    "kaskade.execute_ms": "kaskade.execute",
    "planner.plan_ms": "planner.plan",
    "physical.execute_ms": "physical.execute",
    "projection.finalize_ms": "projection.finalize",
    "storage.freeze_ms": "storage.freeze",
    "delta.refresh_ms": "delta.refresh",
    "wal.append_ms": "wal.append",
    "wal.sync_ms": "wal.sync",
    "checkpoint.ms": "checkpoint",
    "analytics.bulk_k_hop_ms": "analytics.bulk_k_hop",
    "analytics.label_propagation_ms": "analytics.label_propagation",
}

#: Layers measured during set-up rather than under load.
_SETUP_SELF_TIME = {
    "selection.select_ms": "selection.select",
    "catalog.materialize_ms": "catalog.materialize",
}


def merge(*groups: list[Span]) -> list[Span]:
    """Concatenate span lists from different processes with distinct ids."""
    merged: list[Span] = []
    offset = 0
    for group in groups:
        top = 0
        for span in group:
            parent = span.parent + offset if span.parent is not None else None
            merged.append(Span(span.span_id + offset, parent, span.name,
                               span.start_ns, span.end_ns, span.request_id,
                               span.attrs))
            top = max(top, span.span_id)
        offset += top
    return merged


def _median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _attr_sum(spans: list[Span], name: str, attr: str) -> float:
    return sum(span.attrs.get(attr, 0) for span in spans if span.name == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(*, load: list[Span], setup: list[Span],
                      client_latency: dict[str, float] | None = None,
                      plan_cache: tuple[int, int] = (0, 0),
                      dispatch: dict[str, int] | None = None) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except the overheads."""
    layer = aggregate(load)
    setup_layer = aggregate(setup)
    metrics: dict[str, float] = {}
    for metric, name in _SELF_TIME.items():
        stats = layer.get(name)
        metrics[metric] = stats.self_p50_ms() if stats else 0.0
    for metric, name in _SETUP_SELF_TIME.items():
        stats = setup_layer.get(name)
        metrics[metric] = stats.self_p50_ms() if stats else 0.0

    def calls(name: str) -> int:
        stats = layer.get(name)
        return stats.calls if stats else 0

    # A query is one POST /query on the server, or one library execute.
    queries = (sum(1 for s in load if s.name == "server.handle"
                   and s.attrs.get("path") == "/query")
               + calls("kaskade.execute"))
    commits = calls("mvcc.commit")

    handle_ns = {s.request_id: s.duration_ns for s in load
                 if s.name == "server.handle" and s.request_id is not None}
    http_gaps = [latency * 1e9 - handle_ns[rid]
                 for rid, latency in (client_latency or {}).items()
                 if rid in handle_ns]
    metrics["server.http_ms"] = _median_ms(http_gaps)
    encoded = [s.attrs.get("bytes", 0) for s in load if s.name == "server.encode"]
    metrics["server.response_kb"] = (statistics.median(encoded) / 1024
                                     if encoded else 0.0)
    metrics["admission.shed"] = _attr_sum(load, "admission.admit", "shed")
    pins = [ns for name in ("mvcc.pin", "mvcc.release")
            for ns in (layer[name].self_ns if name in layer else [])]
    metrics["mvcc.pin_ms"] = _median_ms(pins)
    metrics["mvcc.commit_ms"] = _median_ms(
        [s.duration_ns for s in load if s.name == "mvcc.commit"])
    metrics["enumerator.calls_per_query"] = _ratio(
        calls("enumerator.enumerate"), queries)
    metrics["inference.solves_per_query"] = _ratio(
        calls("inference.query_distinct"), queries)
    metrics["rewriter.view_hit_ratio"] = _ratio(
        _attr_sum(load, "kaskade.rewrite", "hit"), calls("kaskade.rewrite"))
    metrics["kaskade.plan_cache_hit_ratio"] = _ratio(plan_cache[0],
                                                     sum(plan_cache))
    metrics["planner.plans_per_query"] = _ratio(calls("planner.plan"), queries)
    metrics["physical.work_per_row"] = _ratio(
        _attr_sum(load, "physical.execute", "work"),
        _attr_sum(load, "physical.execute", "rows"))
    metrics["storage.freezes_per_commit"] = _ratio(calls("storage.freeze"),
                                                   commits)
    metrics["storage.union_for_calls"] = calls("storage.union_for")
    metrics["delta.incremental_ratio"] = _ratio(
        _attr_sum(load, "delta.refresh", "incremental"),
        _attr_sum(load, "delta.refresh", "refreshed"))
    metrics["wal.bytes_per_op"] = _ratio(_attr_sum(load, "wal.append", "bytes"),
                                         _attr_sum(load, "mvcc.commit", "ops"))
    metrics["checkpoint.count"] = calls("checkpoint")
    dispatch = dispatch or {}
    for key in ("parallel.dispatch_parallel", "parallel.dispatch_single",
                "kernels.dispatch_vectorized", "kernels.dispatch_loops",
                "kernels.dispatch_reference"):
        metrics[key] = dispatch.get(key, 0)
    metrics["parallel.partition_s"] = sum(
        s.duration_ns for s in setup + load
        if s.name == "parallel.partition") / 1e9
    return metrics


def overheads(untraced: dict[str, float], traced: dict[str, float]
              ) -> dict[str, float]:
    """Traced minus untraced value of each end-to-end figure both runs have."""
    return {f"tracing.overhead_{name}": traced[name] - untraced[name]
            for name in ("primary_per_s", "primary_p50_ms", "heavy_p50_ms",
                         "secondary_p50_ms")}

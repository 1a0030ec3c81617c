"""The ``serve-read`` and ``serve-mixed`` workloads: HTTP load on a server child.

The server runs in a child process started with the ``spawn`` method, so the
load generator and the server never share an interpreter lock.  The child
builds the service through the public API (``Kaskade.select_views`` then
``GraphService`` and ``serve_in_thread``), reports its port, and serves until
told to stop.  Each request opens one connection (the server answers with
``Connection: close``), and its latency runs from connect to the last byte
of the response.

serve-read sends a seeded query mix from one closed-loop connection and, in
slices alternating with it, sends the same stream in-process through
``Kaskade.execute_text``.
serve-mixed runs the same mix from one closed-loop reader on a durable
service while one open-loop writer commits at a fixed rate; commit latency
runs from each commit's due time, so a stalled writer shows up in it.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import shutil
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import common, layers, spans
from perfbench.checks import Oracle, missing_writes, oracle_rows

#: The 600-job summarized provenance graph: about 3.2k vertices / 4.3k edges.
GRAPH_JOBS = 600
GRAPH_SEED = 7
#: Pipeline stages of the generator (job ``job-i`` sits in stage ``i % 5``).
GRAPH_STAGES = 5
#: View-selection budget, in multiples of the base graph's edge count.
BUDGET_FACTOR = 4
#: Server set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Share of ``--seconds`` given to serve-read's HTTP reader; the library
#: replay gets the rest.
HTTP_SHARE = 0.6
#: serve-read alternates HTTP and library in this many slices per run, so
#: each samples the whole run (host speed drifts over seconds).
SLICES = 10
#: serve-mixed open-loop commit rate.  At 3/s a slow stretch of the host
#: pushed commits past their 333 ms period, the writer fell behind and
#: the blast median jumped from about 120 to 200 ms in some runs.
COMMITS_PER_SECOND = 2.0
#: Commits between checkpoints on the durable service.  The library default
#: (64) would not fire once in a run at this rate, so the checkpoint layer
#: would go unmeasured.
CHECKPOINT_EVERY = 12
#: serve-mixed answers blast radius at many graph versions and its
#: interpreter oracle costs about a second per version, so blast answers are
#: checked at this many versions spread over the run; every other answer is
#: checked at its own version.
BLAST_CHECK_VERSIONS = 6

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1:File)-[r*0..8]->(q_f2:File), "
         "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
         "RETURN q_j1 AS A, q_j2 AS B")
LINEAGE = ("MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
           "RETURN a, f, b")
BAND = "MATCH (j:Job) WHERE j.cpu > {low:.2f} AND j.cpu < {high:.2f} RETURN j"
#: Band lower bounds are drawn in hundredths from this range: 49,401
#: distinct literals against the 1024-entry plan cache and the 512-entry
#: saved-rewrite cache, so a band query almost never repeats.
BAND_HUNDREDTHS = (100, 49_500)
BAND_WIDTH = 5.0
MIX = (("blast", 0.10), ("lineage", 0.30), ("band", 0.60))
BLOCK = 10


def band(low: float) -> str:
    return BAND.format(low=low, high=low + BAND_WIDTH)


def selection_mix() -> list[str]:
    """The workload view selection runs over: one query of each class."""
    return [BLAST, LINEAGE, band(250.0)]


class QueryStream:
    """The seeded request sequence.

    Requests come in blocks of ten holding exactly the :data:`MIX` shares
    (one blast, three lineage, six band) in a seeded order, so every stretch
    of the run carries the same load whatever the seed.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._block: list[str] = []
        self._count = 0

    def _draw(self) -> tuple[str, str]:
        if not self._block:
            self._block = [kind for kind, share in MIX
                           for _ in range(round(share * BLOCK))]
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "blast":
            return kind, BLAST
        if kind == "lineage":
            return kind, LINEAGE
        return kind, band(self._rng.randint(*BAND_HUNDREDTHS) / 100.0)

    def next(self) -> tuple[int, str, str]:
        """``(index, kind, text)`` of the next request."""
        kind, text = self._draw()
        self._count += 1
        return self._count - 1, kind, text


def commit_batches(seed: int, count: int) -> list[list[dict]]:
    """Seeded commits: a new File written by a Job and read by the next stage."""
    rng = random.Random(seed * 7919 + 1)
    batches = []
    for index in range(count):
        stage = rng.randrange(GRAPH_STAGES - 1)
        writer = rng.randrange(stage, GRAPH_JOBS, GRAPH_STAGES)
        reader = rng.randrange(stage + 1, GRAPH_JOBS, GRAPH_STAGES)
        file_id = f"bench-file-{seed}-{index}"
        batches.append([
            {"op": "add_vertex", "id": file_id, "type": "File",
             "properties": {"bytes": rng.randint(1, 10 ** 6)}},
            {"op": "add_edge", "source": f"job-{writer}", "target": file_id,
             "label": "WRITES_TO"},
            {"op": "add_edge", "source": file_id, "target": f"job-{reader}",
             "label": "IS_READ_BY"},
        ])
    return batches


def build_graph(jobs: int):
    from repro.datasets.provenance import summarized_provenance_graph

    return summarized_provenance_graph(num_jobs=jobs, seed=GRAPH_SEED,
                                       num_stages=GRAPH_STAGES)


def build_kaskade(jobs: int):
    """Graph plus selected and materialized views (the served engine)."""
    from repro.core import Kaskade

    graph = build_graph(jobs)
    kaskade = Kaskade(graph)
    kaskade.select_views([kaskade.parse(text) for text in selection_mix()],
                         budget_edges=BUDGET_FACTOR * graph.num_edges)
    return kaskade


# ------------------------------------------------------------- server child
def server_main(conn, config: dict) -> None:
    """Child-process entry: build, serve, trace on request, report, exit."""
    from repro.durability.manager import DurabilityEngine
    from repro.service import GraphService, serve_in_thread

    recorder = spans.SpanRecorder() if config["trace"] else None
    patches = spans.install_layers(recorder) if recorder is not None else None
    counters = spans.subscribe_dispatch() if recorder is not None else ()
    kaskade = build_kaskade(config["jobs"])
    durability = None
    if config["durable_root"] is not None:
        # What GraphService.open_durable builds on a first start, with the
        # views selected before the baseline checkpoint so they are in it.
        durability = DurabilityEngine(config["durable_root"],
                                      checkpoint_every=CHECKPOINT_EVERY)
    service = GraphService(kaskade, durability=durability)
    handle = serve_in_thread(service)
    setup_spans: list = []
    if patches is not None:
        patches.uninstall()
        setup_spans, recorder.spans = recorder.spans, []
    conn.send({"port": handle.port,
               "head_version": service.snapshots.head_version(),
               "views": sorted(view.definition.name for view in kaskade.catalog),
               "fsync": (durability.wal.fsync_enabled
                         if durability is not None else None)})
    cache_start = (kaskade.plan_cache_hits, kaskade.plan_cache_misses)
    while True:
        command = conn.recv()
        if command == "trace" and recorder is not None:
            patches = spans.install_layers(recorder)
            cache_start = (kaskade.plan_cache_hits, kaskade.plan_cache_misses)
            for counter in counters:
                counter.enabled = True
            conn.send("tracing")
        elif command == "stop":
            break
    handle.stop()
    if patches is not None:
        patches.uninstall()
    if durability is not None:
        durability.close()
    conn.send({
        "rss_mb": common.peak_rss_mb(),
        "plan_cache": (kaskade.plan_cache_hits - cache_start[0],
                       kaskade.plan_cache_misses - cache_start[1]),
        "dispatch": {key: count for counter in counters
                     for key, count in counter.counts.items()},
        "setup_spans": [span.as_dict() for span in setup_spans],
        "load_spans": ([span.as_dict() for span in recorder.spans]
                       if recorder is not None else []),
    })
    conn.close()


class ServerChild:
    """Parent-side handle on one server child process."""

    def __init__(self, config: dict, timeout: float = 120.0) -> None:
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(target=server_main,
                                       args=(child_conn, config),
                                       name="perfbench-server")
        start = time.perf_counter()
        self.process.start()
        child_conn.close()
        self.ready = self._receive(timeout)
        self.setup_seconds = time.perf_counter() - start
        self.port = self.ready["port"]

    def _receive(self, timeout: float) -> Any:
        if not self._conn.poll(timeout):
            self.kill()
            raise common.BenchmarkError("server child did not answer in time")
        try:
            return self._conn.recv()
        except EOFError as exc:
            self.kill()
            raise common.BenchmarkError("server child exited early") from exc

    def start_tracing(self) -> None:
        self._conn.send("trace")
        self._receive(30.0)

    def stop(self) -> dict:
        self._conn.send("stop")
        report = self._receive(60.0)
        self.process.join(30.0)
        if self.process.is_alive():
            self.kill()
        self._conn.close()
        return report

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(10.0)


# --------------------------------------------------------------- HTTP client
def post_json(port: int, path: str, payload: dict,
              timeout: float = 120.0) -> tuple[int, bytes, float]:
    """One ``Connection: close`` request: (status, body, seconds elapsed).

    Status 0 means the connection failed or timed out.
    """
    body = json.dumps(payload).encode()
    request = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
               ).encode() + body
    start = time.perf_counter()
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b"", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    head, _, response = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, response, elapsed


@dataclass
class Reply:
    index: int
    kind: str
    text: str
    status: int
    seconds: float
    body: bytes
    request_id: str
    traced: bool


@dataclass
class CommitReply:
    index: int
    status: int
    seconds_from_due: float
    lateness: float
    body: bytes
    traced: bool


def read_loop(port: int, stream: QueryStream, deadline: float,
              traced: bool) -> list[Reply]:
    """One closed-loop connection: the next query goes out after the reply."""
    replies = []
    while time.perf_counter() < deadline:
        index, kind, text = stream.next()
        rid = f"q{index}"
        status, body, seconds = post_json(
            port, "/query", {"query": text, spans.REQUEST_ID_KEY: rid})
        replies.append(Reply(index, kind, text, status, seconds, body, rid,
                             traced))
    return replies


def open_loop_writer(port: int, batches: list[list[dict]], first: int,
                     start: float, deadline: float, traced: bool,
                     out: list[CommitReply]) -> None:
    """Send commit ``first + i`` at ``start + i / rate`` until ``deadline``."""
    index = first
    while index < len(batches):
        due = start + (index - first) / COMMITS_PER_SECOND
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness = max(0.0, time.perf_counter() - due)
        status, body, _ = post_json(port, "/mutate", {"ops": batches[index]})
        out.append(CommitReply(index, status, time.perf_counter() - due,
                               lateness, body, traced))
        index += 1


class OracleCache:
    """Interpreter answers per query text on one (unchanging) graph."""

    def __init__(self, kaskade) -> None:
        self.kaskade = kaskade
        self._answers: dict[str, Oracle] = {}

    def cached(self, text: str) -> Oracle | None:
        return self._answers.get(text)

    def get(self, text: str) -> Oracle:
        oracle = self._answers.get(text)
        if oracle is None:
            oracle = Oracle(oracle_rows(self.kaskade, text))
            self._answers[text] = oracle
        return oracle

    def __len__(self) -> int:
        return len(self._answers)


def _decode(body: bytes) -> dict:
    try:
        return json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {}


# ------------------------------------------------------------------ phases
def start_server(mixed: bool, trace: bool, work_dir: Path
                 ) -> tuple[ServerChild, list[float], Path | None]:
    """Set the server up :data:`SETUP_REPEATS` times; the last one serves."""
    times = []
    child = None
    root = None
    for attempt in range(SETUP_REPEATS):
        if child is not None:
            child.stop()
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)
        root = work_dir / f"durable-{attempt}" if mixed else None
        child = ServerChild({"trace": trace, "jobs": GRAPH_JOBS,
                             "durable_root": str(root) if root else None})
        times.append(child.setup_seconds)
    return child, times, root


@dataclass
class HttpLoad:
    replies: list[Reply]
    commits: list[CommitReply]
    batches: list[list[dict]]
    #: Wall seconds the read loop ran in each phase, keyed by "traced".
    elapsed: dict[bool, float]


def drive_http(child: ServerChild, mixed: bool, seed: int, seconds: float,
               trace: bool, library: "LibraryReplay | None" = None) -> HttpLoad:
    """The load phase; a traced run measures its second half traced.

    With ``library`` (serve-read) the phase is cut into :data:`SLICES`
    slices, and each slice gives :data:`HTTP_SHARE` of its time to the HTTP
    reader and the rest to the in-process replay, so both sample the whole
    run rather than one stretch of it.
    """
    stream = QueryStream(seed)
    batches = commit_batches(seed, int(seconds * COMMITS_PER_SECOND) + 8)
    load = HttpLoad([], [], batches, {})
    # Warm the fixed shapes once so the plan and rewrite caches hold them.
    for text in selection_mix():
        post_json(child.port, "/query", {"query": text})
    phases = [False, True] if trace else [False]
    for traced in phases:
        if traced:
            child.start_tracing()
            if library is not None:
                library.start_tracing()
        start = time.perf_counter()
        deadline = start + seconds / len(phases)
        writer = None
        if mixed:
            writer = threading.Thread(
                target=open_loop_writer, name="perfbench-writer",
                args=(child.port, batches, len(load.commits), start, deadline,
                      traced, load.commits))
            writer.start()
        if library is None:
            load.replies += read_loop(child.port, stream, deadline, traced)
            load.elapsed[traced] = time.perf_counter() - start
        else:
            slices = max(1, SLICES // len(phases))
            load.elapsed[traced] = 0.0
            for index in range(slices):
                slice_end = start + (index + 1) * (deadline - start) / slices
                began = time.perf_counter()
                http_end = began + (slice_end - began) * HTTP_SHARE
                load.replies += read_loop(child.port, stream, http_end, traced)
                load.elapsed[traced] += time.perf_counter() - began
                library.replay(slice_end, traced)
        if writer is not None:
            writer.join()
    return load


class LibraryReplay:
    """serve-read's in-process replay through ``Kaskade.execute_text``.

    Draws the same seeded stream as the HTTP reader, each text once, so the
    band filters miss the plan and rewrite caches here too.  An answer whose
    oracle is at hand is checked as it comes back, untimed; the others (the
    new band filters, whose answers are small) are kept and checked by
    :meth:`check_pending` after the load.
    """

    def __init__(self, seed: int, trace: bool, errors: list[str]) -> None:
        self.kaskade = build_kaskade(GRAPH_JOBS)
        for text in selection_mix():
            self.kaskade.execute_text(text)
        self.oracles = OracleCache(build_kaskade(GRAPH_JOBS))
        for text in selection_mix()[:2]:
            self.oracles.get(text)
        self.stream = QueryStream(seed)
        self.errors = errors
        #: Milliseconds per call, keyed by "traced".
        self.latencies: dict[bool, list[float]] = {}
        #: Untraced milliseconds per query class.
        self.by_kind: dict[str, list[float]] = {}
        self.wrong = 0
        self.pending: list[tuple[str, str, list, str | None]] = []
        self.recorder = spans.SpanRecorder() if trace else None
        self.counters = spans.subscribe_dispatch() if trace else ()
        self.patches = None
        self.cache_start = (0, 0)
        self.spans: list[spans.Span] = []
        self.plan_cache = (0, 0)
        self.dispatch: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    def start_tracing(self) -> None:
        self.patches = spans.install_layers(self.recorder)
        self.cache_start = (self.kaskade.plan_cache_hits,
                            self.kaskade.plan_cache_misses)
        for counter in self.counters:
            counter.enabled = True

    def replay(self, deadline: float, traced: bool) -> None:
        # The oracles and stored replies belong to the benchmark, not the
        # engine under test; keep them out of the collector's scans so the
        # measured calls do not pay for them.
        gc.freeze()
        latencies = self.latencies.setdefault(traced, [])
        while time.perf_counter() < deadline:
            _, kind, text = self.stream.next()
            start = time.perf_counter()
            outcome = self.kaskade.execute_text(text)
            elapsed = (time.perf_counter() - start) * 1000
            latencies.append(elapsed)
            if not traced:
                self.by_kind.setdefault(kind, []).append(elapsed)
            answer = (kind, text, outcome.result.rows, outcome.used_view_name)
            if self.oracles.cached(text) is None:
                self.pending.append(answer)
            else:
                self._check(*answer)

    def check_pending(self) -> None:
        for answer in self.pending:
            self._check(*answer)
        self.pending = []

    def _check(self, kind: str, text: str, rows: list,
               used_view: str | None) -> None:
        problem = self.oracles.get(text).mismatch(rows, used_view)
        if problem is not None:
            self.wrong += 1
            self.errors.append(f"library {kind}: {problem}")

    def finish(self) -> None:
        gc.unfreeze()
        if self.patches is not None:
            self.patches.uninstall()
            self.patches = None
            self.spans = self.recorder.spans
            self.plan_cache = (
                self.kaskade.plan_cache_hits - self.cache_start[0],
                self.kaskade.plan_cache_misses - self.cache_start[1])
            self.dispatch = {key: count for counter in self.counters
                             for key, count in counter.counts.items()}


def check_reads(replies: list[Reply], oracles: OracleCache,
                errors: list[str]) -> int:
    """serve-read: every 200 answer against its query text's oracle."""
    wrong = 0
    for reply in replies:
        if reply.status != 200:
            continue
        body = _decode(reply.body)
        problem = oracles.get(reply.text).mismatch(body.get("rows", []),
                                                   body.get("used_view"))
        if problem is not None:
            wrong += 1
            errors.append(f"http {reply.kind} #{reply.index}: {problem}")
    return wrong


# ----------------------------------------------------------------- workload
def run(workload: str, seed: int, seconds: float, trace: bool,
        context: dict) -> common.Outcome:
    """Run serve-read or serve-mixed and check every answer."""
    mixed = workload == "serve-mixed"
    work_dir = common.OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    errors: list[str] = []
    checks: list[str] = []
    try:
        child, setup_times, durable_root = start_server(mixed, trace, work_dir)
        checks.append(f"served views: {', '.join(child.ready['views'])}")
        if mixed:
            context["wal_fsync"] = child.ready["fsync"]
            if child.ready["fsync"] is not True:
                errors.append("durable service did not enable fsync")
        replay = None if mixed else LibraryReplay(seed, trace, errors)
        try:
            load = drive_http(child, mixed, seed, seconds, trace, replay)
        finally:
            report = child.stop()
            if replay is not None:
                replay.finish()
        wrong = 0
        if mixed:
            wrong += _check_mixed(load, child.ready, durable_root, errors,
                                  checks)
        else:
            replay.check_pending()
            wrong += replay.wrong + check_reads(load.replies, replay.oracles,
                                                errors)
            checks.append(f"http and library: {len(load.replies)} + "
                          f"{replay.attempted} answers checked against "
                          f"{len(replay.oracles)} interpreter oracles")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = (sum(r.status != 200 for r in load.replies)
              + sum(c.status != 200 for c in load.commits))
    attempted = (len(load.replies) + len(load.commits)
                 + (replay.attempted if replay else 0))

    def figures(traced: bool) -> dict[str, float]:
        ok = [r for r in load.replies if r.traced == traced and r.status == 200]

        def class_p50(kind: str) -> float:
            return common.median([r.seconds * 1000 for r in ok
                                  if r.kind == kind])

        if mixed:
            secondary = [c.seconds_from_due * 1000 for c in load.commits
                         if c.traced == traced and c.status == 200]
        else:
            secondary = replay.latencies.get(traced, [])
        return {"primary_per_s": len(ok) / load.elapsed[traced],
                "primary_p50_ms": class_p50("band"),
                "heavy_p50_ms": class_p50("blast"),
                "secondary_p50_ms": common.median(secondary)}

    measured = figures(False)
    end_to_end = dict(measured, setup_s=common.median(setup_times),
                      peak_rss_mb=report["rss_mb"],
                      ok_ratio=(attempted - failed) / max(attempted, 1))
    details = _details(load, replay, end_to_end, failed, attempted)

    per_layer: dict[str, float] = {}
    layer_table = None
    if trace:
        child_setup = [spans.Span.from_dict(d) for d in report["setup_spans"]]
        child_load = [spans.Span.from_dict(d) for d in report["load_spans"]]
        lib_spans = replay.spans if replay else []
        merged = layers.merge(child_load, lib_spans)
        hits, misses = report["plan_cache"]
        lib_hits, lib_misses = replay.plan_cache if replay else (0, 0)
        dispatch = dict(report["dispatch"])
        for key, count in (replay.dispatch if replay else {}).items():
            dispatch[key] = dispatch.get(key, 0) + count
        per_layer = layers.per_layer_metrics(
            load=merged, setup=child_setup,
            client_latency={r.request_id: r.seconds for r in load.replies
                            if r.traced and r.status == 200},
            plan_cache=(hits + lib_hits, misses + lib_misses),
            dispatch=dispatch)
        per_layer.update(layers.overheads(measured, figures(True)))
        layer_table = common.write_spans(context,
                                         layers.merge(child_setup, merged))
    return common.Outcome(
        correct=wrong == 0 and not errors, attempted=attempted, failed=failed,
        end_to_end=end_to_end, per_layer=per_layer, details=details,
        layer_table=layer_table,
        samples=_samples(load, replay),
        checks=checks, errors=errors[:20])


def _samples(load: HttpLoad, replay: LibraryReplay | None
             ) -> dict[str, list[float]]:
    """Untraced latencies by class, in milliseconds, for the run record."""
    samples: dict[str, list[float]] = {}
    for reply in load.replies:
        if not reply.traced and reply.status == 200:
            samples.setdefault(f"http_{reply.kind}_ms", []).append(
                reply.seconds * 1000)
    samples["mutate_ms"] = [c.seconds_from_due * 1000 for c in load.commits
                            if not c.traced and c.status == 200]
    if replay is not None:
        samples["lib_ms"] = replay.latencies.get(False, [])
    return samples


def _details(load: HttpLoad, replay: LibraryReplay | None,
             end_to_end: dict[str, float], failed: int,
             attempted: int) -> dict[str, tuple[float, str]]:
    """Every named figure of this run (untraced phase)."""
    untraced = [r for r in load.replies if not r.traced and r.status == 200]
    latencies = [r.seconds * 1000 for r in untraced]
    details = {
        "setup_s": (end_to_end["setup_s"], "s"),
        "query_rps": (end_to_end["primary_per_s"], "queries/s"),
        "query_p50_ms": (common.median(latencies), "ms"),
    }
    _tail_detail(details, "query", latencies)
    details["blast_p50_ms"] = (end_to_end["heavy_p50_ms"], "ms")
    if replay is None:
        mutate = [c.seconds_from_due * 1000 for c in load.commits
                  if not c.traced and c.status == 200]
        late = [c.lateness * 1000 for c in load.commits]
        details.update({
            "mutate_p50_ms": (common.median(mutate), "ms"),
            "mutate_p90_ms": (common.percentile(mutate, 90.0) if mutate
                              else 0.0, "ms"),
            "writer_late_p50_ms": (common.median(late), "ms"),
            "writer_late_max_ms": (max(late, default=0.0), "ms"),
            "commits": (len(load.commits), "count"),
        })
    else:
        lib = replay.latencies.get(False, [])
        details["lib_query_p50_ms"] = (common.median(lib), "ms")
        _tail_detail(details, "lib_query", lib)
        for kind, values in sorted(replay.by_kind.items()):
            details[f"lib_{kind}_p50_ms"] = (common.median(values), "ms")
    for kind, _ in MIX:
        values = [r.seconds * 1000 for r in untraced if r.kind == kind]
        details[f"http_{kind}_p50_ms"] = (common.median(values), "ms")
        details[f"{kind}_queries"] = (len(values), "count")
    details["peak_rss_mb"] = (end_to_end["peak_rss_mb"], "MB")
    details["fail_ratio"] = (failed / max(attempted, 1), "ratio")
    details["band_literal_universe"] = (
        BAND_HUNDREDTHS[1] - BAND_HUNDREDTHS[0] + 1, "count")
    return details


def _tail_detail(details: dict, prefix: str, values: list[float]) -> None:
    found = common.tail(values)
    if found is None:
        return
    pct, value = found
    label = f"{pct:g}".replace(".", "_")
    details[f"{prefix}_p{label}_ms"] = (value, "ms")


def _check_mixed(load: HttpLoad, ready: dict, durable_root: Path,
                 errors: list[str], checks: list[str]) -> int:
    """Check serve-mixed answers at their versions and the recovered state."""
    from repro.core import Kaskade
    from repro.durability import recover_kaskade
    from repro.durability.manager import apply_op

    wrong = 0
    batches = load.batches
    acknowledged: dict[int, list[dict]] = {}
    for commit in load.commits:
        if commit.status != 200:
            continue
        body = _decode(commit.body)
        if body.get("applied") != len(batches[commit.index]) or body.get("errors"):
            wrong += 1
            errors.append(f"commit #{commit.index} applied {body.get('applied')} "
                          f"of {len(batches[commit.index])} ops: "
                          f"{body.get('errors')}")
            continue
        acknowledged[body["version"]] = batches[commit.index]
    head = max(acknowledged, default=ready["head_version"])

    graph = build_graph(GRAPH_JOBS)
    replica = Kaskade(graph)
    if graph.version != ready["head_version"]:
        errors.append(f"replica starts at version {graph.version}, server "
                      f"at {ready['head_version']}")
        return wrong + 1

    reads: dict[int, list[tuple[Reply, dict]]] = {}
    for reply in load.replies:
        if reply.status == 200:
            body = _decode(reply.body)
            reads.setdefault(body.get("version", -1), []).append((reply, body))
    blast_versions = sorted(v for v, items in reads.items()
                            if any(r.kind == "blast" for r, _ in items))
    if len(blast_versions) > BLAST_CHECK_VERSIONS:
        step = (len(blast_versions) - 1) / (BLAST_CHECK_VERSIONS - 1)
        blast_versions = [blast_versions[round(i * step)]
                          for i in range(BLAST_CHECK_VERSIONS)]
    checked = skipped = 0
    pending = sorted(acknowledged.items())
    for version in sorted(set(reads) | {head}):
        while pending and pending[0][0] <= version:
            commit_version, batch = pending.pop(0)
            for op in batch:
                apply_op(graph, op)
            if graph.version != commit_version:
                errors.append(f"replica reached version {graph.version}, the "
                              f"server acknowledged {commit_version}")
                return wrong + 1
        if version not in reads:
            continue
        if graph.version != version:
            errors.append(f"answer at version {version} matches no "
                          f"acknowledged commit (replica at {graph.version})")
            wrong += 1
            continue
        answers: dict[str, Oracle] = {}
        for reply, body in reads[version]:
            if reply.kind == "blast" and version not in blast_versions:
                skipped += 1
                continue
            oracle = answers.get(reply.text)
            if oracle is None:
                oracle = answers[reply.text] = Oracle(
                    oracle_rows(replica, reply.text))
            problem = oracle.mismatch(body.get("rows", []), body.get("used_view"))
            checked += 1
            if problem is not None:
                wrong += 1
                errors.append(f"http {reply.kind} at v{version}: {problem}")
    checks.append(f"http: {checked} answers checked at their versions "
                  f"({skipped} blast answers outside the "
                  f"{len(blast_versions)} sampled versions)")

    # Recovery must land on the acknowledged head with identical rows.
    recovered, engine, result = recover_kaskade(durable_root)
    try:
        if recovered.graph.version != head:
            wrong += 1
            errors.append(f"recovery reached version {recovered.graph.version}, "
                          f"acknowledged head is {head}")
        lost = missing_writes(recovered.graph, list(acknowledged.values()))
        if lost:
            wrong += 1
            errors.append(f"recovery lost acknowledged writes: {lost[:5]}")
        for text in selection_mix():
            expected = Oracle(oracle_rows(replica, text))
            got = recovered.execute(recovered.parse(text), use_views=False)
            problem = expected.mismatch(got.result.rows, None)
            if problem is not None:
                wrong += 1
                errors.append(f"recovered head: {problem}")
        checks.append(f"recovery: version {recovered.graph.version}, "
                      f"{len(acknowledged)} acknowledged commits present, "
                      f"head rows equal")
    finally:
        engine.close()
    return wrong

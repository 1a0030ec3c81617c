"""The ``analytics`` workload: Table IV Q2, Q3 and Q7 on a large graph.

Runs in this process.  The summarized provenance graph with 40k jobs (about
210k vertices / 279k edges) is past the 200k-edge auto-partition threshold,
so on a machine with two or more cores the base store fans out to the shard
workers with no override set.  Each round runs Q2, Q3 and Q7 on the base
store (``run_base``) and on the 2-hop Job-to-Job connector view's store
(``run_connector``).  The query pipeline (parse, rewrite, plan) is not
involved; the serve workloads are where it runs.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

from perfbench import common, layers, spans

ANALYTICS_JOBS = 40_000
GRAPH_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.  Each takes about 15 s on
#: two cores, so two keep a run well inside its time limit.
SETUP_REPEATS = 2
QUERIES = ("Q2", "Q3", "Q7")


class Setup:
    """One built graph with its analytics store and connector view store.

    With ``oracle=True`` the loop-tier answers are computed between the
    build and the warm-up, untimed (see :func:`loop_tier_answers`).
    """

    def __init__(self, oracle: bool = False) -> None:
        from repro.core import Kaskade
        from repro.datasets.provenance import summarized_provenance_graph
        from repro.views.definitions import ConnectorView
        from repro.workloads.queries import workload_for_dataset

        start = time.perf_counter()
        graph = summarized_provenance_graph(num_jobs=ANALYTICS_JOBS,
                                            seed=GRAPH_SEED)
        self.kaskade = Kaskade(graph)
        self.store = self.kaskade.analytics_store()
        view = self.kaskade.materialize_view(ConnectorView(
            name="job_to_job_2hop", source_type="Job", target_type="Job", k=2))
        self.view_store = view.read_store()
        self.queries = {query.query_id: query
                        for query in workload_for_dataset("prov")
                        if query.query_id in QUERIES}
        self.seconds = time.perf_counter() - start
        self.oracle = loop_tier_answers(self) if oracle else None
        # Warm-up: the first base-store call partitions the store (when the
        # parallel tier is eligible) and every kernel builds its caches.
        start = time.perf_counter()
        for query in self.queries.values():
            query.run_base(self.store)
            query.run_connector(self.view_store)
        self.seconds += time.perf_counter() - start
        self.sizes = (graph.num_vertices, graph.num_edges,
                      view.graph.num_vertices, view.graph.num_edges)

    def close(self) -> None:
        from repro.analytics import parallel

        parallel.release_store(self.store)


def loop_tier_answers(setup: Setup) -> dict[tuple[str, str], dict]:
    """Q2/Q3/Q7 on both stores through the pure-Python loop tier.

    Runs ``run_base`` / ``run_connector`` themselves with an open circuit
    breaker installed on the vectorized tier.  An open breaker turns the
    vectorized kernels off, and a store whose kernels are off never
    auto-partitions, so neither the vectorized nor the shard tier the
    rounds measure computes its own reference.  Must run before the store
    is first partitioned: a registered partition would still be used.
    """
    from repro.analytics import kernels, parallel
    from repro.service.client import CircuitBreaker

    if parallel.peek_parallel(setup.store) is not None:
        raise common.BenchmarkError("the oracle store is already partitioned")
    breaker = CircuitBreaker("perfbench-oracle", failure_threshold=1,
                             reset_seconds=float("inf"))
    breaker.record_failure()
    previous = kernels.installed_breaker()
    vectorized = kernels.dispatch_counts["vectorized"]
    kernels.install_breaker(breaker)
    try:
        answers = {}
        for target, store in (("base", setup.store), ("view", setup.view_store)):
            for qid, query in setup.queries.items():
                run_query = (query.run_base if target == "base"
                             else query.run_connector)
                answers[(target, qid)] = run_query(store)
    finally:
        kernels.install_breaker(previous)
    if (kernels.dispatch_counts["vectorized"] != vectorized
            or parallel.peek_parallel(setup.store) is not None):
        raise common.BenchmarkError("the oracle did not run on the loop tier")
    return answers


@dataclass
class Rounds:
    """Milliseconds per base-store query and per round, with the outcome."""

    per_query: dict[str, list[float]] = field(
        default_factory=lambda: {qid: [] for qid in QUERIES})
    base_round: list[float] = field(default_factory=list)
    view_round: list[float] = field(default_factory=list)
    wrong: int = 0
    elapsed_s: float = 0.0

    @property
    def runs(self) -> int:
        return (len(self.base_round) + len(self.view_round)) * len(QUERIES)


def measure_rounds(setup: Setup, oracle: dict, rng: random.Random,
                   seconds: float, errors: list[str]) -> Rounds:
    """Run rounds until ``seconds`` pass.

    Each round runs Q2, Q3 and Q7 in a seeded order on the base store, then
    on the view store, and compares every answer with the loop-tier one.
    """
    rounds = Rounds()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for target, store in (("base", setup.store), ("view", setup.view_store)):
            round_ms = 0.0
            for qid in rng.sample(QUERIES, len(QUERIES)):
                query = setup.queries[qid]
                run_query = query.run_base if target == "base" else query.run_connector
                began = time.perf_counter()
                result = run_query(store)
                elapsed = (time.perf_counter() - began) * 1000
                round_ms += elapsed
                if target == "base":
                    rounds.per_query[qid].append(elapsed)
                if result != oracle[(target, qid)]:
                    rounds.wrong += 1
                    errors.append(f"{qid} on the {target} store differs from "
                                  f"the loop-tier answer")
            (rounds.base_round if target == "base"
             else rounds.view_round).append(round_ms)
    rounds.elapsed_s = time.perf_counter() - start
    return rounds


def run(workload: str, seed: int, seconds: float, trace: bool,
        context: dict) -> common.Outcome:
    from repro.analytics import parallel

    errors: list[str] = []
    recorder = spans.SpanRecorder() if trace else None
    counters = spans.subscribe_dispatch() if trace else ()
    setup_times = []
    setup = None
    oracle = None
    try:
        for attempt in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
                setup = None
                gc.collect()
            # A traced run traces the last set-up, whose stores it measures.
            patches = None
            if recorder is not None and attempt == SETUP_REPEATS - 1:
                patches = spans.install_layers(recorder)
            try:
                # The graph is the same in every set-up, so the first one's
                # answers are the oracle for the one the rounds measure.
                setup = Setup(oracle=attempt == 0)
                oracle = oracle or setup.oracle
            finally:
                if patches is not None:
                    patches.uninstall()
            setup_times.append(setup.seconds)
        setup_spans: list[spans.Span] = []
        if recorder is not None:
            setup_spans, recorder.spans = recorder.spans, []

        rng = random.Random(seed)
        phases = [False, True] if trace else [False]
        samples: dict[bool, Rounds] = {}
        for traced in phases:
            patches = None
            if traced:
                patches = spans.install_layers(recorder)
                for counter in counters:
                    counter.enabled = True
            try:
                samples[traced] = measure_rounds(
                    setup, oracle, rng, seconds / len(phases), errors)
            finally:
                if patches is not None:
                    patches.uninstall()
        sizes = setup.sizes
    finally:
        if setup is not None:
            setup.close()
        parallel.close_all()
    # The shard workers have been joined, so their peaks are in the
    # children's figure.
    rss = common.peak_rss_mb() + common.children_peak_rss_mb()

    def figures(traced: bool) -> dict[str, float]:
        rounds = samples[traced]
        return {"primary_per_s": rounds.runs / rounds.elapsed_s,
                "primary_p50_ms": common.median(rounds.base_round),
                "heavy_p50_ms": common.median(rounds.per_query["Q7"]),
                "secondary_p50_ms": common.median(rounds.view_round)}

    attempted = sum(rounds.runs for rounds in samples.values())
    wrong = sum(rounds.wrong for rounds in samples.values())
    measured = figures(False)
    setup_s = common.median(setup_times)
    end_to_end = dict(measured, setup_s=setup_s, peak_rss_mb=rss,
                      ok_ratio=(attempted - wrong) / max(attempted, 1))
    base = samples[False]
    details = {
        "setup_s": (setup_s, "s"),
        "q2_p50_ms": (common.median(base.per_query["Q2"]), "ms"),
        "q3_p50_ms": (common.median(base.per_query["Q3"]), "ms"),
        "q7_p50_ms": (common.median(base.per_query["Q7"]), "ms"),
        "view_round_p50_ms": (measured["secondary_p50_ms"], "ms"),
        "base_round_p50_ms": (measured["primary_p50_ms"], "ms"),
        "rounds": (len(base.base_round), "count"),
        "query_runs_per_s": (measured["primary_per_s"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "fail_ratio": (wrong / max(attempted, 1), "ratio"),
        "base_vertices": (sizes[0], "count"),
        "base_edges": (sizes[1], "count"),
        "view_vertices": (sizes[2], "count"),
        "view_edges": (sizes[3], "count"),
    }
    per_layer: dict[str, float] = {}
    layer_table = None
    if trace:
        per_layer = layers.per_layer_metrics(
            load=recorder.spans, setup=setup_spans,
            dispatch={key: count for counter in counters
                      for key, count in counter.counts.items()})
        per_layer.update(layers.overheads(measured, figures(True)))
        layer_table = common.write_spans(
            context, layers.merge(setup_spans, recorder.spans))
    return common.Outcome(
        correct=wrong == 0, attempted=attempted, failed=wrong,
        end_to_end=end_to_end, per_layer=per_layer, details=details,
        layer_table=layer_table,
        samples={"base_round_ms": base.base_round,
                 "view_round_ms": base.view_round,
                 **{f"{qid.lower()}_ms": values
                    for qid, values in base.per_query.items()}},
        checks=[f"{attempted} query runs equal the loop-tier answers"
                if wrong == 0 else f"{wrong} of {attempted} query runs wrong"],
        errors=errors[:20])

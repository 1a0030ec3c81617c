"""The query-shape memo inside ``ViewEnumerator.enumerate``.

Enumeration depends only on the MATCH pattern, the projected variables, the
schema and the template library, so queries differing only in WHERE literals,
LIMIT, DISTINCT, aliases or name share one inference-engine solve.  These
tests count solves with a wrapper around ``InferenceEngine.query_distinct``
(no wall-clock assertions) and compare memoized results with fresh ones.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.core import Kaskade, ViewEnumerator
from repro.core.enumerator import query_shape
from repro.datasets.provenance import summarized_provenance_graph
from repro.datasets.registry import load_dataset
from repro.inference.engine import InferenceEngine
from repro.query import parse_query
from repro.query.ast import Condition, PropertyRef, ReturnItem
from repro.workloads.runner import pattern_queries_for_dataset

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1:File)-[r*0..8]->(q_f2:File), "
         "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
         "RETURN q_j1 AS A, q_j2 AS B")
LINEAGE = ("MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
           "RETURN a, f, b")


def band(low: float) -> str:
    return f"MATCH (j:Job) WHERE j.cpu > {low:.2f} AND j.cpu < {low + 5:.2f} RETURN j"


@pytest.fixture(scope="module")
def prov600():
    return summarized_provenance_graph(num_jobs=600, seed=7, num_stages=5)


@pytest.fixture
def solves(monkeypatch):
    """Count every ``InferenceEngine.query_distinct`` call."""
    calls = []
    original = InferenceEngine.query_distinct

    def counting(self, goal, *args):
        calls.append(goal)
        return original(self, goal, *args)

    monkeypatch.setattr(InferenceEngine, "query_distinct", counting)
    return calls


def templates_of(enumerator: ViewEnumerator) -> int:
    return len(enumerator.templates) + len(enumerator.aggregate_templates)


def literal_variants(query):
    """Copies of ``query`` that differ only in parts the memo key leaves out."""
    first = query.node_variables()[0]
    return [
        replace(query, name=f"{query.name}-renamed"),
        replace(query, where=(Condition(PropertyRef(first, "cpu"), ">", 3),)),
        replace(query, where=(Condition(PropertyRef(first, "cpu"), "<=", 97.5),),
                limit=7),
        replace(query, distinct=not query.distinct, limit=1, name="variant"),
        replace(query, returns=tuple(
            ReturnItem(ref=item.ref, alias=f"col{index}", aggregate=item.aggregate)
            for index, item in enumerate(query.returns))),
    ]


class TestSolveCounts:
    def test_band_filters_solve_once_per_template(self, prov600, solves):
        enumerator = ViewEnumerator(prov600.infer_schema())
        results = [enumerator.enumerate(parse_query(band(1 + 7.5 * i), name=f"b{i}"))
                   for i in range(25)]
        assert len(solves) == templates_of(enumerator)
        assert (enumerator.memo_misses, enumerator.memo_hits) == (1, 24)
        assert all(r.candidates == [replace(c, query_name=r.query.name)
                                    for c in results[0].candidates]
                   for r in results)

    def test_kaskade_execute_makes_zero_solves_on_a_repeated_shape(self, prov600, solves):
        kaskade = Kaskade(prov600)
        kaskade.select_views([kaskade.parse(text)
                              for text in (BLAST, LINEAGE, band(250.0))],
                             budget_edges=4 * prov600.num_edges)
        assert len(kaskade.catalog) > 0
        after_selection = len(solves)
        for index in range(20):
            kaskade.execute_text(band(10 + 3.25 * index))
            kaskade.execute_text(BLAST)
            kaskade.execute_text(LINEAGE)
        assert len(solves) == after_selection

    @pytest.mark.parametrize("changed", [
        "MATCH (x:Job)-[*1..3]->(y) RETURN x, y",        # hop bound
        "MATCH (x:File)-[*1..4]->(y) RETURN x, y",       # label
        "MATCH (x:Job)-[*1..4]->(y) RETURN x",           # projected variable
        "MATCH (x:Job)<-[*1..4]-(y) RETURN x, y",        # direction
    ])
    def test_a_new_shape_solves_again(self, prov600, solves, changed):
        enumerator = ViewEnumerator(prov600.infer_schema())
        per_shape = templates_of(enumerator)
        base = "MATCH (x:Job)-[*1..4]->(y) RETURN x, y"
        enumerator.enumerate(parse_query(base))
        enumerator.enumerate(parse_query(base + " LIMIT 3"))
        assert len(solves) == per_shape
        enumerator.enumerate(parse_query(changed))
        assert len(solves) == 2 * per_shape
        enumerator.enumerate(parse_query(changed, name="again"))
        assert len(solves) == 2 * per_shape

    def test_shape_leaves_out_literals_limit_distinct_and_aliases(self):
        query = parse_query("MATCH (j:Job) WHERE j.cpu > 1.00 RETURN j AS x LIMIT 2")
        twin = parse_query("MATCH (j:Job) WHERE j.cpu < 9.00 RETURN DISTINCT j",
                           name="twin")
        assert query_shape(query) == query_shape(twin)
        assert query_shape(query) != query_shape(parse_query("MATCH (j:File) RETURN j"))


@pytest.mark.parametrize("dataset", ["prov", "dblp", "roadnet-usa"])
def test_memo_matches_fresh_enumeration(dataset):
    schema = load_dataset(dataset, "tiny").infer_schema()
    memoized = ViewEnumerator(schema)
    for _, query in pattern_queries_for_dataset(dataset):
        memoized.enumerate(query)
        for variant in [query] + literal_variants(query):
            hit_before = memoized.memo_hits
            got = memoized.enumerate(variant)
            assert memoized.memo_hits == hit_before + 1
            fresh = ViewEnumerator(schema).enumerate(variant)
            assert got.query is variant
            assert got.solutions_examined == fresh.solutions_examined
            # Frozen-dataclass equality covers the definition (signature and
            # name), template, bindings, endpoint variables and query_name;
            # list equality covers the order.
            assert got.candidates == fresh.candidates
            assert [c.definition.signature() for c in got] == \
                [c.definition.signature() for c in fresh]
            assert all(c.query_name == variant.name for c in got)


class TestMemoIsolationAndBound:
    def test_mutating_a_result_never_reaches_the_memo(self):
        schema = load_dataset("prov", "tiny").infer_schema()
        enumerator = ViewEnumerator(schema)
        query = parse_query(BLAST, name="blast")
        expected = ViewEnumerator(schema).enumerate(query).candidates
        first = enumerator.enumerate(query)           # the miss
        first.candidates.clear()
        second = enumerator.enumerate(query)          # a hit
        assert second.candidates == expected
        second.candidates.reverse()
        second.candidates.append(expected[0])
        assert enumerator.enumerate(query).candidates == expected

    def test_memo_bounded_oldest_first(self):
        from repro.core.enumerator import _MAX_ENUMERATED_SHAPES

        schema = load_dataset("prov", "tiny").infer_schema()
        enumerator = ViewEnumerator(schema)
        shape = "MATCH (a{i}:Job)-[:WRITES_TO]->(b:File) RETURN a{i}"
        for index in range(_MAX_ENUMERATED_SHAPES + 20):
            enumerator.enumerate(parse_query(shape.format(i=index)))
        assert len(enumerator._memo) == _MAX_ENUMERATED_SHAPES
        assert query_shape(parse_query(shape.format(i=0))) not in enumerator._memo
        newest = parse_query(shape.format(i=_MAX_ENUMERATED_SHAPES + 19))
        assert query_shape(newest) in enumerator._memo
        misses = enumerator.memo_misses
        enumerator.enumerate(parse_query(shape.format(i=0)))
        assert enumerator.memo_misses == misses + 1


    def test_concurrent_callers_keep_the_bound_and_get_fresh_results(self, monkeypatch):
        from repro.core import enumerator as module

        monkeypatch.setattr(module, "_MAX_ENUMERATED_SHAPES", 8)
        schema = load_dataset("prov", "tiny").infer_schema()
        shapes = [parse_query(f"MATCH (a{i}:Job)-[:WRITES_TO]->(b:File) RETURN a{i}")
                  for i in range(20)]
        expected = [ViewEnumerator(schema).enumerate(q).candidates for q in shapes]
        enumerator = ViewEnumerator(schema)
        errors = []

        def worker(offset):
            try:
                for step in range(40):
                    index = (offset * 7 + step * 3) % len(shapes)
                    got = enumerator.enumerate(shapes[index])
                    if got.candidates != expected[index]:
                        errors.append(index)
                    got.candidates.clear()
                    if len(enumerator._memo) > 8:
                        errors.append("bound")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(enumerator._memo) <= 8


class TestEmptyCatalog:
    def test_execute_skips_enumeration_and_outcomes_are_unchanged(self, solves):
        graph = summarized_provenance_graph(num_jobs=40, seed=7, num_stages=5)
        kaskade = Kaskade(graph)
        assert len(kaskade.catalog) == 0
        for text in (BLAST, LINEAGE, band(100.0)):
            with_views = kaskade.execute_text(text)
            without = kaskade.execute_text(text, use_views=False)
            oracle = kaskade.execute_text(text, use_views=False, engine="interpreter")
            assert with_views.used_view is None and with_views.rewrite is None
            assert with_views.considered_view is None
            assert with_views.base_cost == without.base_cost
            key = sorted(map(repr, with_views.result.rows))
            assert key == sorted(map(repr, without.result.rows))
            assert key == sorted(map(repr, oracle.result.rows))
        assert solves == []
        assert kaskade.enumerator.memo_misses == 0

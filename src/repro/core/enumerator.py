"""Constraint-based view enumeration (§IV).

The :class:`ViewEnumerator` wires together the three inputs of Fig. 4 — a
query, a graph schema, and the view template library — inside the inference
engine:

1. explicit facts are extracted from the query and schema
   (:mod:`repro.core.facts`),
2. the constraint mining rules (:mod:`repro.core.mining`) and view templates
   (:mod:`repro.core.templates`) are consulted, and
3. each template head is evaluated; every solution is converted into a
   :class:`~repro.core.templates.ViewCandidate`.

Because the mined constraints are evaluated *inside* the same resolution as
the templates, infeasible candidates (odd-length job-to-job connectors,
connectors longer than the query's hop bound, …) are pruned during the search
rather than filtered afterwards.  The :meth:`ViewEnumerator.search_space_report`
method quantifies that reduction for the §IV-A benchmark.

Enumeration is memoized by *query shape*: the candidates depend only on the
MATCH pattern and the projected variables (the only parts of a query that
:func:`~repro.core.facts.query_to_facts` and the template converters read,
besides ``query.name``), on the schema, and on the template library — and the
last two are fixed per enumerator.  Queries that differ only in WHERE
literals, LIMIT, DISTINCT or aliases therefore share one inference-engine
solve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.facts import query_to_facts, schema_to_facts
from repro.core.mining import k_hop_schema_paths_procedural, mining_rules
from repro.core.templates import (
    AggregateTemplate,
    ViewCandidate,
    ViewTemplate,
    all_template_rules,
    connector_templates,
    summarizer_templates,
)
from repro.graph.schema import GraphSchema
from repro.inference.database import RuleDatabase
from repro.inference.engine import InferenceEngine
from repro.query.ast import GraphQuery

#: Memoized query shapes retained at once per enumerator (oldest evicted
#: first), bounded like the other Kaskade caches.
_MAX_ENUMERATED_SHAPES = 512


def query_shape(query: GraphQuery) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The literal-free part of a query that enumeration depends on.

    The rendering of each MATCH path plus the projected variables: WHERE
    literals, LIMIT, DISTINCT, aliases and the query name are left out, so
    queries differing only in those share a memoized enumeration.
    """
    return (tuple(str(path) for path in query.match),
            tuple(query.projected_variables()))


@dataclass
class EnumerationResult:
    """Output of one enumeration run."""

    query: GraphQuery
    candidates: list[ViewCandidate] = field(default_factory=list)
    solutions_examined: int = 0

    @property
    def connectors(self) -> list[ViewCandidate]:
        return [c for c in self.candidates if c.definition.kind == "connector"]

    @property
    def summarizers(self) -> list[ViewCandidate]:
        return [c for c in self.candidates if c.definition.kind == "summarizer"]

    def by_template(self, template: str) -> list[ViewCandidate]:
        return [c for c in self.candidates if c.template == template]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


@dataclass
class SearchSpaceReport:
    """Comparison of constrained vs. unconstrained candidate counts (§IV-A2)."""

    constrained_candidates: int
    unconstrained_schema_paths: int
    max_k: int

    @property
    def reduction_factor(self) -> float:
        """How many times fewer candidates the constrained search considers."""
        if self.constrained_candidates == 0:
            return float("inf") if self.unconstrained_schema_paths else 1.0
        return self.unconstrained_schema_paths / self.constrained_candidates


class ViewEnumerator:
    """Enumerates candidate views for a query over a schema."""

    def __init__(self, schema: GraphSchema,
                 extra_templates: Iterable[ViewTemplate] = (),
                 max_depth: int = 20000) -> None:
        """Create an enumerator for a schema.

        Args:
            schema: Graph schema whose constraints are mined.
            extra_templates: Additional user-supplied view templates — the
                template library is "readily extensible" (§IV).
            max_depth: Resolution depth limit passed to the inference engine.
        """
        self.schema = schema
        self.templates: list[ViewTemplate] = connector_templates() + list(extra_templates)
        self.aggregate_templates: list[AggregateTemplate] = summarizer_templates()
        self.max_depth = max_depth
        self._schema_facts = schema_to_facts(schema)
        self._static_rules = mining_rules() + all_template_rules()
        # query shape -> (candidates, solutions examined).  Lookups are
        # lock-free dict reads; only inserts (and eviction) take the lock.
        self._memo: dict[tuple, tuple[tuple[ViewCandidate, ...], int]] = {}
        self._memo_lock = threading.Lock()
        # Memo hit/miss counters (read by the metrics layer); plain ints, a
        # lost increment under concurrency only skews telemetry.
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------ public
    def enumerate(self, query: GraphQuery) -> EnumerationResult:
        """Enumerate candidate views for a query.

        Memoized by :func:`query_shape`: a repeated shape skips the inference
        engine and gets the stored candidates rebound to ``query.name``.
        Every call returns a fresh result, so mutating it never reaches the
        memo.
        """
        key = query_shape(query)
        entry = self._memo.get(key)
        if entry is None:
            self.memo_misses += 1
            fresh = self._solve(query)
            entry = (tuple(fresh.candidates), fresh.solutions_examined)
            with self._memo_lock:
                if key not in self._memo and len(self._memo) >= _MAX_ENUMERATED_SHAPES:
                    self._memo.pop(next(iter(self._memo)), None)
                self._memo[key] = entry
            return fresh
        self.memo_hits += 1
        candidates, examined = entry
        return EnumerationResult(
            query=query,
            candidates=[replace(c, query_name=query.name) for c in candidates],
            solutions_examined=examined)

    def enumerate_workload(self, queries: Iterable[GraphQuery]) -> list[EnumerationResult]:
        """Enumerate candidates for every query in a workload."""
        return [self.enumerate(query) for query in queries]

    def search_space_report(self, query: GraphQuery, max_k: int | None = None,
                            baseline: str = "walks") -> SearchSpaceReport:
        """Quantify the §IV-A2 search-space reduction for a query.

        The unconstrained baseline is the number of k-hop schema paths that a
        schema-only enumeration would consider, summed over k = 1..max_k
        (max_k defaults to the query's maximum hop bound).  With ``baseline=
        "walks"`` this is the walk count over the schema type graph — the
        space that grows at least as M^k when the schema has cycles, which is
        the paper's argument for injecting query constraints.  ``baseline=
        "procedural"`` instead uses the trail-based Algorithm 1.
        """
        if max_k is None:
            max_k = max((path.hop_bounds()[1] for path in query.match), default=8)
            max_k = max(max_k, 1)
        unconstrained = 0
        for k in range(1, max_k + 1):
            if baseline == "procedural":
                unconstrained += len(k_hop_schema_paths_procedural(self.schema, k))
            else:
                unconstrained += self.schema.count_k_hop_paths(k, mode="walk",
                                                               max_paths=1_000_000)
        constrained = len(self.enumerate(query).connectors)
        return SearchSpaceReport(
            constrained_candidates=constrained,
            unconstrained_schema_paths=unconstrained,
            max_k=max_k,
        )

    # ----------------------------------------------------------------- internal
    def _solve(self, query: GraphQuery) -> EnumerationResult:
        """Evaluate every template head for ``query`` in the inference engine."""
        engine = self._build_engine(query)
        result = EnumerationResult(query=query)
        seen_signatures: set[tuple] = set()

        for template in self.templates:
            solutions = engine.query_distinct(template.goal)
            result.solutions_examined += len(solutions)
            for solution in solutions:
                candidate = template.convert(solution, query)
                if candidate is None:
                    continue
                signature = candidate.definition.signature()
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                result.candidates.append(candidate)

        for aggregate in self.aggregate_templates:
            solutions = engine.query_distinct(aggregate.goal)
            result.solutions_examined += len(solutions)
            candidate = aggregate.converter(solutions, query)
            if candidate is None:
                continue
            signature = candidate.definition.signature()
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                result.candidates.append(candidate)
        return result

    def _build_engine(self, query: GraphQuery) -> InferenceEngine:
        database = RuleDatabase()
        database.add_all(self._schema_facts)
        database.add_all(query_to_facts(query))
        database.add_all(self._static_rules)
        return InferenceEngine(database=database, max_depth=self.max_depth)

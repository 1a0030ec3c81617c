"""Correctness checks: rows against the interpreter oracle, durable writes.

Rows are compared the way ``tests/integration/test_differential_planner.py``
compares them: each row becomes a sorted tuple of ``(column, str(value))``.
A base-plan answer must equal the oracle as a multiset.  A view rewrite
contracts paths, so it may change how often a row repeats; it must equal the
oracle's distinct row set.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

Row = tuple[tuple[str, str], ...]


def canonical(rows: Iterable[Mapping[str, Any]]) -> Counter:
    """Row multiset in a form shared by library rows and decoded JSON rows."""
    return Counter(tuple(sorted((str(key), str(value))
                                for key, value in row.items()))
                   for row in rows)


class Oracle:
    """Expected rows of one query text at one graph version."""

    def __init__(self, rows: Iterable[Mapping[str, Any]]) -> None:
        self.bag = canonical(rows)
        self.distinct = frozenset(self.bag)
        #: The last answer found correct, per plan kind; an equal answer is
        #: correct too, and comparing lists is cheaper than re-canonicalizing.
        self._verified: dict[bool, list] = {}

    def mismatch(self, rows: list[Mapping[str, Any]],
                 used_view: str | None) -> str | None:
        """None when ``rows`` are a correct answer, else what differs."""
        if self._verified.get(used_view is None) == rows:
            return None
        problem = self._compare(rows, used_view)
        if problem is None:
            self._verified[used_view is None] = rows
        return problem

    def _compare(self, rows: list[Mapping[str, Any]],
                 used_view: str | None) -> str | None:
        got = canonical(rows)
        if used_view is None:
            if got != self.bag:
                return (f"base plan returned {sum(got.values())} rows, oracle "
                        f"{sum(self.bag.values())} (multiset differs)")
            return None
        if frozenset(got) != self.distinct:
            return (f"view {used_view} returned {len(got)} distinct rows, "
                    f"oracle {len(self.distinct)} (distinct sets differ)")
        return None


def oracle_rows(kaskade, text: str) -> list[dict]:
    """The seed interpreter's answer on the base graph, views off."""
    outcome = kaskade.execute(kaskade.parse(text), use_views=False,
                              engine="interpreter")
    return outcome.result.rows


def missing_writes(graph, acknowledged: list[list[Mapping[str, Any]]]) -> list[str]:
    """Acknowledged ops whose effect is absent from ``graph``.

    ``acknowledged`` holds the op batches the service confirmed.  Every
    ``add_vertex`` must have left its vertex and every ``add_edge`` an edge
    with its label between its endpoints.
    """
    missing = []
    for batch in acknowledged:
        for op in batch:
            if op["op"] == "add_vertex":
                if not graph.has_vertex(op["id"]):
                    missing.append(f"vertex {op['id']}")
            elif op["op"] == "add_edge":
                if not graph.has_vertex(op["source"]) or not any(
                        edge.target == op["target"]
                        for edge in graph.out_edges(op["source"], op["label"])):
                    missing.append(
                        f"edge {op['source']}-{op['label']}->{op['target']}")
    return missing

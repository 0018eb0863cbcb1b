"""Join-path discovery (paper §IV, Algorithm 3).

Two lake tables are *SA-joinable* iff (i) there is I_V evidence that the
tsets of two of their attributes overlap and (ii) at least one of the two
attributes is its table's *subject attribute*. The SA-join graph G_S has
tables as nodes and SA-joinable pairs as edges; given a target T and its
top-k answer S^k, Algorithm 3 DFSes from each S_i in S^k through nodes that
are (a) outside S^k, (b) not already on the path, and (c) related to T by
at least one index — each such path contributes tables whose aligned
attributes can further populate T.

The edge list is built with one LSH self-join (DataFrame); the DFS runs in
the driver over the collected table-granular edge list (|tables| nodes —
orders of magnitude smaller than the lake, and the paper's algorithm is
inherently sequential).
"""
from __future__ import annotations

from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core import distances as dist
from repro.core.ranking import D3L


def sa_join_edges(d3l: D3L, *, tau: float | None = None) -> DataFrame:
    """The SA-join graph's edge list ``(t1, t2, similarity)`` (t1 < t2).

    Built by querying I_V with every *subject attribute* and keeping
    candidates whose estimated tset Jaccard >= tau — the paper's
    "I_V-based evidence that the tsets overlap" with the LSH threshold.
    """
    tau = d3l.config.tau if tau is None else tau
    hits = d3l.index_v.lookup(d3l.subjects.select("attr_id"), min_similarity=tau)
    # Normalise to undirected edges; either endpoint being a subject
    # satisfies condition (ii) since the query side is always a subject.
    return (
        dist.attach_tables(hits, d3l.attrs)
        .select(
            F.least("q_table", "s_table").alias("t1"),
            F.greatest("q_table", "s_table").alias("t2"),
            "similarity",
        )
        .groupBy("t1", "t2")
        .agg(F.max("similarity").alias("similarity"))
    )


@dataclass
class JoinGraph:
    """Driver-side adjacency view of the SA-join graph."""

    adjacency: dict[str, set[str]]

    @staticmethod
    def from_edges(edges: DataFrame | list[tuple[str, str]]) -> "JoinGraph":
        if isinstance(edges, DataFrame):
            rows = [(r["t1"], r["t2"]) for r in edges.select("t1", "t2").collect()]
        else:
            rows = list(edges)
        adj: dict[str, set[str]] = {}
        for a, b in rows:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return JoinGraph(adjacency=adj)

    def neighbours(self, node: str) -> set[str]:
        return self.adjacency.get(node, set())


def find_join_paths(
    graph: JoinGraph,
    start: str,
    top_k: set[str],
    related_to_target: set[str],
    *,
    max_depth: int = 3,
) -> list[list[str]]:
    """Algorithm 3: all simple paths from ``start`` through nodes that are
    outside the top-k, acyclic, and index-related to the target.

    ``related_to_target`` is the set of tables with at least one attribute
    in some index lookup result for the target (the paper's
    ``I_*.lookup(T)`` with existential interpretation). ``max_depth`` bounds
    the recursion (path length excluding ``start``); the paper leaves this
    unbounded but its lakes are DAG-ish — a small bound keeps the search
    tractable without changing which *tables* are reachable in practice.
    """
    paths: list[list[str]] = []

    def _dfs(node: str, path: list[str]) -> None:
        path = path + [node]
        if len(path) > 1:
            paths.append(path)
        if len(path) - 1 >= max_depth:
            return
        for nxt in sorted(graph.neighbours(node)):
            if nxt in top_k or nxt in path or nxt not in related_to_target:
                continue
            _dfs(nxt, path)

    _dfs(start, [])
    return paths


def join_paths_for_topk(
    graph: JoinGraph,
    target: str,
    top_k_tables: list[str],
    alignments,
    *,
    max_depth: int = 3,
) -> dict[str, list[list[str]]]:
    """All SA-join paths J_{S_i} for each S_i in the top-k (paper §IV).

    ``alignments`` must cover the *full* candidate set for the target (not
    just top-k rows) so that ``related_to_target`` reflects I_*.lookup(T).
    """
    related = set(alignments["s_table"]) - {target}
    topk = set(top_k_tables)
    return {
        s: find_join_paths(graph, s, topk, related, max_depth=max_depth)
        for s in top_k_tables
    }

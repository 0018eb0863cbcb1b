"""Workloads of the D³L benchmark, their output checks and their spans.

Each workload generates its lake, builds the D³L index over it and answers
discovery queries, drawn from the seed, through the public API of ``repro``. An
untraced run (``run_untraced``) measures what a user waits for; a traced run
(``run_traced``) re-composes the build and one query from the layers' public
functions, forcing each step so that it can be timed as a span.
"""
from __future__ import annotations

import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import duckdb
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro import oracle
from repro.baselines.aurum import Aurum
from repro.baselines.tus import TUS
from repro.core import distances as dist
from repro.core import features, joins, lsh, minhash, randproj, subject, weights
from repro.core.ranking import D3L, D3LConfig, SearchResult
from repro.embedding.wem import WordEmbeddingModel
from repro.eval import harness, metrics
from repro.lake import generator, tables
from repro.lake.generator import Lake

from spans import Tracer

#: Generator parameters per workload. The lake seed defaults to the preset
#: seed of ``repro.eval.harness`` for that kind of lake, so every run of a
#: workload measures the same lake and its quality metrics are exact.
LAKES: dict[str, dict] = {
    "point_small": dict(noise=0.0, derivations_per_base=5, rows=80, seed=21),
    "point_large": dict(noise=0.3, derivations_per_base=8, rows=120, seed=23),
}

K = 10  # answer size of every discovery
K_EVAL = 5  # cut-off of P@5, R@5 and join coverage
BATCH = 8  # targets of the one-plan ``search_many`` sweep
SETUP_REPS = 3  # lake loads per run; setup_s takes their median
TOL = 1e-9  # score tolerance between two paths that must agree

Metrics = dict[str, tuple[float, str]]


@dataclass
class Outcome:
    """What one run measured and how many of its operations failed."""

    attempted: int = 0
    failed: int = 0
    metrics: Metrics = field(default_factory=dict)
    #: sample count behind each metric that is a statistic of several
    samples: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def operation(self, what: str) -> Iterator[list[str]]:
        """Count one operation; it fails if it raises or if the caller
        appends a problem to the yielded list."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:
            traceback.print_exc()
            problems.append("raised")
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_lake(workload: str, lake_seed: int | None) -> Lake:
    params = dict(LAKES[workload])
    if lake_seed is not None:
        params["seed"] = lake_seed
    return generator.generate_lake(**params)


def load_cells(spark: SparkSession, lake: Lake) -> tuple[DataFrame, int]:
    cells = tables.cells_df(spark, lake.tables).cache()
    return cells, cells.count()


def targets(lake: Lake, seed: int) -> tuple[list[str], list[str]]:
    """The batch targets, fixed per lake, and the point-query order.

    The point queries visit every table with a non-empty ground-truth answer:
    first batch target first, then the other batch targets, then the rest,
    each group in an order drawn from ``seed``. The first query is fixed
    because at today's speed a run holds one query, and latencies differ
    by ±20% between targets; it is in the batch, so it is also checked
    against ``search_many``.
    """
    batch = harness.pick_targets(lake, BATCH)
    rng = np.random.default_rng(seed)
    rest = sorted(t for t in lake.tables if lake.gt.related_tables(t) and t not in batch)
    return batch, [
        batch[0],
        *(batch[1:][i] for i in rng.permutation(len(batch) - 1)),
        *(rest[i] for i in rng.permutation(len(rest))),
    ]


def describe_lake(lake: Lake, n_cells: int) -> str:
    return (
        f"lake: seed {lake.seed}, {lake.n_tables} tables, {lake.n_attributes} attrs,"
        f" {n_cells} cells"
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def ranking_problems(
    res: SearchResult, target: str, *, descending: bool = False
) -> list[str]:
    """At most K tables, none twice, never the target, scores in order."""
    problems = []
    names = res.tables
    scores = [s for _, s in res.ranking]
    if len(names) > K:
        problems.append(f"{len(names)} tables > k={K}")
    if len(set(names)) != len(names):
        problems.append("a table is ranked twice")
    if target in names:
        problems.append("target ranked as its own answer")
    if descending:
        scores = [-s for s in scores]
    if any(b < a for a, b in zip(scores, scores[1:])):
        problems.append("scores out of order")
    return problems


def same_ranking(a: SearchResult, b: SearchResult) -> bool:
    return a.tables == b.tables and all(
        abs(x - y) <= TOL for (_, x), (_, y) in zip(a.ranking, b.ranking)
    )


def same_alignments(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if sorted(a.columns) != sorted(b.columns) or len(a) != len(b):
        return False
    cols = sorted(a.columns)
    key = ["query_attr", "attr_id"]
    a = a[cols].sort_values(key).reset_index(drop=True)
    b = b[cols].sort_values(key).reset_index(drop=True)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=0.0, atol=TOL)
    except AssertionError:
        return False
    return True


def _eq12_sql() -> str:
    """Eq. 2 midrank CCDF weights and Eq. 1 weighted means, in DuckDB."""
    ws, ds = [], []
    for t in dist.EVIDENCE_TYPES:
        ws.append(
            f"(1 + cume_dist() OVER (PARTITION BY query_attr ORDER BY d_{t} DESC)"
            f" - cume_dist() OVER (PARTITION BY query_attr ORDER BY d_{t} ASC))"
            f" / 2.0 AS w_{t}"
        )
        ds.append(
            f"CASE WHEN sum(w_{t}) > 0 THEN sum(w_{t} * d_{t}) / sum(w_{t})"
            f" ELSE 1.0 END AS D_{t}"
        )
    return (
        f"WITH w AS (SELECT *, {', '.join(ws)} FROM pairs) "
        f"SELECT q_table, s_table, {', '.join(ds)} FROM w GROUP BY q_table, s_table"
    )


def eq12_problems(spark: SparkSession, d3l: D3L, res: SearchResult) -> list[str]:
    """Recompute Eq. 2 and Eq. 1 in DuckDB from one target's alignments.

    The Spark aggregation of the same alignments must match DuckDB, and
    Eq. 3 over the DuckDB vectors must give the ranking ``res`` holds.
    """
    align = res.alignments
    sql = _eq12_sql()
    spark_tv = weights.aggregate_eq1(weights.pair_weights(spark.createDataFrame(align)))
    oracle.assert_equivalent(spark_tv, sql, pairs=align)
    con = duckdb.connect()
    try:
        con.register("pairs", align)
        tv = con.execute(sql).fetchdf()
    finally:
        con.close()
    scored = weights.combine_eq3(tv, d3l.evidence_weights)
    scored = scored.sort_values(["score", "s_table"]).head(K)
    expected = SearchResult(res.target, list(zip(scored["s_table"], scored["score"])), align)
    return [] if same_ranking(res, expected) else ["Eq. 3 over DuckDB vectors differs"]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def index_bytes_ratio(d3l: D3L, lake: Lake, root: Path) -> float:
    """Table II for D³L: the parquet bytes of the structures that
    ``harness.space_overhead`` writes for D³L, over the lake's CSV bytes."""
    lake_dir, index_dir = root / "lake", root / "d3l"
    lake_dir.mkdir(parents=True)
    for name, df in lake.tables.items():
        df.to_csv(lake_dir / f"{name}.csv", index=False)
    parts = {"extents": d3l.extents, "subjects": d3l.subjects, "tset_sizes": d3l.tset_sizes}
    for ev, idx in indexes(d3l).items():
        parts[f"sig_{ev}"] = idx.signatures
        parts[f"bands_{ev}"] = idx.bands
    # One file per structure, so the bytes are the structure's and not
    # parquet's per-file overhead times the partition count; the writes are
    # independent, so they run as concurrent Spark jobs.
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(df.coalesce(1).write.parquet, str(index_dir / name))
            for name, df in parts.items()
        ]
        for f in futures:
            f.result()
    ratio = _dir_bytes(index_dir) / _dir_bytes(lake_dir)
    shutil.rmtree(root)
    return ratio


def indexes(d3l: D3L) -> dict[str, lsh.LshIndex]:
    return {"n": d3l.index_n, "v": d3l.index_v, "f": d3l.index_f, "e": d3l.index_e}


def quality(results: dict[str, SearchResult], lake: Lake, graph: joins.JoinGraph) -> Metrics:
    """Mean P@5 and R@5 against the generator's ground truth, and D³L+J
    target coverage at 5 as ``harness.run_join_impact`` computes it."""
    (pr,) = harness.pr_at_ks(results, lake, [K_EVAL])
    covs = []
    for target, res in results.items():
        top = res.tables[:K_EVAL]
        arity = lake.tables[target].shape[1]
        paths = joins.join_paths_for_topk(graph, target, top, res.alignments)
        for s in top:
            reach = {s} | {n for path in paths[s] for n in path}
            covs.append(metrics.joinpath_coverage(res.alignments, arity, reach))
    return {
        "precision_at_5": (pr["precision"], "ratio"),
        "recall_at_5": (pr["recall"], "ratio"),
        "join_coverage_at_5": (metrics.mean_or_zero(covs), "ratio"),
    }


def join_graph(d3l: D3L) -> tuple[joins.JoinGraph, int]:
    """Materialise the SA-join graph; returns it and its edge count."""
    edges = joins.sa_join_edges(d3l).toPandas()
    return joins.JoinGraph.from_edges(list(zip(edges["t1"], edges["t2"]))), len(edges)


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(
    spark: SparkSession,
    workload: str,
    seed: int,
    lake_seed: int | None,
    *,
    seconds: float,
    work: Path,
    session_s: float,
) -> Outcome:
    out = Outcome()
    clock = time.perf_counter

    loads, cells = [], None
    for _ in range(SETUP_REPS):
        if cells is not None:
            cells.unpersist()
        t0 = clock()
        lake = make_lake(workload, lake_seed)
        cells, n_cells = load_cells(spark, lake)
        loads.append(clock() - t0)
    print(describe_lake(lake, n_cells), flush=True)

    t0 = clock()
    d3l = D3L.build(spark, cells)
    d3l.materialize()
    graph, _ = join_graph(d3l)
    build_s = clock() - t0

    batch, order = targets(lake, seed)
    t0 = clock()
    batch_res = d3l.search_many(batch, K)
    batch_s = clock() - t0
    for target in batch:
        with out.operation(f"search_many {target}") as problems:
            problems += ranking_problems(batch_res[target], target)

    # Closed loop, one client: the next discovery starts when the last one
    # returned. The batch sweep above runs the same plans and warms them.
    latencies: list[float] = []
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        target = order[i % len(order)]
        i += 1
        with out.operation(f"search {target}") as problems:
            t0 = clock()
            res = d3l.search(target, K)
            joins.join_paths_for_topk(graph, target, res.tables[:K_EVAL], res.alignments)
            latencies.append(clock() - t0)
            problems += ranking_problems(res, target)
            if target in batch_res and not same_ranking(res, batch_res[target]):
                problems.append("search differs from search_many")
    if not latencies:
        raise RuntimeError("no discovery query completed")

    t0 = clock()
    with out.operation("Eq. 1/2 DuckDB oracle") as problems:
        problems += eq12_problems(spark, d3l, batch_res[batch[0]])
    oracle_s = clock() - t0

    # Last, so that its writes do not disturb the timed phases.
    t0 = clock()
    bytes_ratio = index_bytes_ratio(d3l, lake, work / "space")
    print(
        f"phases: loads {' '.join(f'{x:.2f}' for x in loads)} s, build {build_s:.2f} s,"
        f" batch {batch_s:.2f} s, {len(latencies)} queries {sum(latencies):.2f} s,"
        f" oracle {oracle_s:.2f} s, index bytes {clock() - t0:.2f} s",
        flush=True,
    )

    out.metrics = {
        "setup_s": (session_s + statistics.median(loads), "s"),
        "index_build_s": (build_s, "s"),
        "query_p50_s": (statistics.median(latencies), "s"),
        "batch_s_per_target": (batch_s / len(batch), "s"),
        "index_bytes_ratio": (bytes_ratio, "ratio"),
        **quality(batch_res, lake, graph),
        "py_peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.samples = {
        "setup_s": len(loads),
        "query_p50_s": len(latencies),
        "batch_s_per_target": len(batch),
        "precision_at_5": len(batch),
        "recall_at_5": len(batch),
        "join_coverage_at_5": len(batch),
    }
    return out


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def traced_build(spark: SparkSession, cells: DataFrame, tr: Tracer) -> D3L:
    """``D3L.build`` + ``materialize()``, one span per layer call."""
    cfg = D3LConfig()
    wem = WordEmbeddingModel(dim=cfg.wem_dim)
    make_features = {
        "n": lambda: features.name_qgrams(attrs, q=cfg.q),
        "v": lambda: features.informative_tokens(cells),
        "f": lambda: features.format_strings(cells),
        "e": lambda: features.embedding_vectors(cells, wem),
    }
    idx: dict[str, lsh.LshIndex] = {}
    with tr.span("d3l.build"):
        attrs = tables.attrs_df(cells).cache()
        attrs.count()
        for offset, (ev, make) in enumerate(make_features.items()):
            with tr.span(f"features.{ev}"):
                feats = make().cache()
                tr.count(f"features.{ev}_rows", feats.count())
            with tr.span(f"signatures.{ev}"):
                if ev == "e":
                    sig = randproj.bit_signatures_df(
                        feats, dim=cfg.wem_dim, n_bits=cfg.n_hashes, seed=cfg.seed + offset
                    )
                else:
                    sig = minhash.signatures_df(feats, n_hashes=cfg.n_hashes, seed=cfg.seed + offset)
                sig = sig.cache()
                sig.count()
            with tr.span(f"bands.{ev}"):
                kind, n_bands = (
                    ("cosine", cfg.n_bands_cosine) if ev == "e" else ("jaccard", cfg.n_bands_jaccard)
                )
                idx[ev] = lsh.LshIndex.build(sig, kind=kind, n_bands=n_bands)
                tr.count(f"bands.{ev}_rows", idx[ev].bands.count())
            if ev == "v":
                tsets = feats
            else:
                feats.unpersist()
        with tr.span("extents"):
            extents = dist.numeric_extents(cells).cache()
            extents.count()
        with tr.span("subjects"):
            subjects = subject.subject_attributes(cells, None).cache()
            subjects.count()
        tset_sizes = tsets.groupBy("attr_id").agg(F.count("*").alias("tset_size")).cache()
        tset_sizes.count()
        tsets.unpersist()
    tr.count("extents.values", extents.select(F.sum(F.size("vals"))).first()[0])
    return D3L(
        spark=spark,
        cells=cells,
        attrs=attrs,
        index_n=idx["n"],
        index_v=idx["v"],
        index_f=idx["f"],
        index_e=idx["e"],
        extents=extents,
        subjects=subjects,
        tset_sizes=tset_sizes,
        config=cfg,
    )


def traced_query(d3l: D3L, graph: joins.JoinGraph, target: str, tr: Tracer) -> SearchResult:
    """``d3l.search(target, K)`` + Algorithm 3, re-composed from what
    ``candidate_pairs`` -> ``table_vectors`` -> ``search_many`` call."""
    floor = d3l.config.min_similarity
    q_attrs = d3l.attrs.where(F.col("table").isin([target])).select("attr_id")
    with tr.span("query"):
        found = {}
        for ev, index in indexes(d3l).items():
            with tr.span(f"lookup.{ev}"):
                found[ev] = index.lookup(q_attrs, min_similarity=floor).localCheckpoint(eager=True)
        with tr.span("merge"):
            merged = dist.merge_lookups(dist.LookupResults(**found))
            pairs = dist.attach_tables(merged, d3l.attrs).localCheckpoint(eager=True)
        with tr.span("ks_guard"):
            full = dist.add_domain_distance(pairs, d3l.extents, d3l.subjects)
            full = full.localCheckpoint(eager=True)
        with tr.span("eq2"):
            pairs_w = weights.pair_weights(full).localCheckpoint(eager=True)
        with tr.span("eq1"):
            tv = weights.aggregate_eq1(pairs_w).toPandas()
        with tr.span("collect"):
            align = full.toPandas()
        with tr.span("eq3"):
            scored = weights.combine_eq3(tv[tv["q_table"] == target].copy(), d3l.evidence_weights)
            scored = scored.sort_values(["score", "s_table"]).head(K)
            res = SearchResult(
                target=target,
                ranking=list(zip(scored["s_table"], scored["score"])),
                alignments=align[align["q_table"] == target].reset_index(drop=True),
            )
        with tr.span("paths"):
            paths = joins.join_paths_for_topk(graph, target, res.tables[:K_EVAL], res.alignments)

    kept = bucket_sharing = 0
    for ev, index in indexes(d3l).items():
        n = found[ev].count()
        tr.count(f"lookup.{ev}_candidates", n)
        kept += n
        bucket_sharing += index.lookup(q_attrs, min_similarity=0.0).count()
    tr.count("lookup.floor_pass_ratio", kept / bucket_sharing if bucket_sharing else 1.0, "ratio")
    tr.count("pairs", len(res.alignments))
    tr.count("pairs.domain_scored", int((res.alignments["d_d"] < 1.0).sum()))
    tr.count("paths", sum(len(p) for p in paths.values()))
    for df in (pairs_w, full, pairs, *found.values()):
        df.unpersist()
    return res


def run_traced(
    spark: SparkSession, workload: str, seed: int, lake_seed: int | None
) -> Outcome:
    out = Outcome()
    tr = Tracer(lambda: spark.sparkContext._jsc.sc().dagScheduler().nextJobId())

    with tr.span("lake.generate"):
        lake = make_lake(workload, lake_seed)
    with tr.span("lake.cells"):
        cells, n_cells = load_cells(spark, lake)
    tr.count("lake.cells", n_cells)
    print(describe_lake(lake, n_cells), flush=True)

    d3l = traced_build(spark, cells, tr)
    with tr.span("joins.sa_edges"):
        graph, n_edges = join_graph(d3l)
    tr.count("joins.sa_edges", n_edges)

    target = targets(lake, seed)[1][0]
    # Warm-up, and the answer the traced re-composition must reproduce.
    reference = d3l.search(target, K)
    with out.operation(f"traced query {target}") as problems:
        res = traced_query(d3l, graph, target, tr)
        if not same_ranking(res, reference):
            problems.append("re-composed ranking differs from d3l.search")
        if not same_alignments(res.alignments, reference.alignments):
            problems.append("re-composed alignments differ from d3l.search")
    with out.operation(f"search {target}") as problems:
        with tr.span("search"):
            again = d3l.search(target, K)
            joins.join_paths_for_topk(graph, target, again.tables[:K_EVAL], again.alignments)
        problems += ranking_problems(again, target)
        if not same_ranking(again, reference):
            problems.append("d3l.search is not repeatable")
    tr.count("trace_overhead_s", tr.seconds("query") - tr.seconds("search"), "s")
    for index in indexes(d3l).values():
        index.unpersist()

    with out.operation(f"TUS {target}") as problems:
        with tr.span("tus.build"):
            tus = TUS.build(spark, cells)
            tus.materialize()
        with tr.span("tus.search"):
            problems += ranking_problems(tus.search(target, K), target, descending=True)
        for index in (tus.index_value, tus.index_semantic, tus.index_nl):
            index.unpersist()
    with out.operation(f"Aurum {target}") as problems:
        with tr.span("aurum.build"):
            aurum = Aurum.build(spark, cells)
        tr.count("aurum.graph_edges", aurum.edges.count())
        with tr.span("aurum.search"):
            problems += ranking_problems(aurum.search(target, K), target, descending=True)

    jvm_pid = spark.sparkContext._jvm.ProcessHandle.current().pid()
    tr.count("jvm_peak_rss_mb", peak_rss_mb(jvm_pid), "MB")
    out.metrics = tr.metrics()
    return out

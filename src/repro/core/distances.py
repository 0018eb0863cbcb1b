"""Attribute-pair distance computation (paper §III-B/C, Algorithm 2).

Given the four LSH indexes and a set of query (target) attributes, this
module produces the per-pair distance table the aggregation framework
consumes — one row per candidate (target attribute, lake attribute) pair
with all five distances:

* ``d_n``, ``d_v``, ``d_f`` — 1 - estimated Jaccard (MinHash indexes);
* ``d_e`` — cosine distance, clamped to [0, 1];
* ``d_d`` — Kolmogorov-Smirnov statistic for numeric pairs that pass
  Algorithm 2's guards, else 1.0.

A pair becomes a candidate when *any* index retrieves it; distances for
evidence types that did not retrieve the pair default to 1.0 (maximally
distant), matching §III-D ("otherwise that measurement is set to 1").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType

EVIDENCE_TYPES = ("n", "v", "f", "e", "d")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS statistic sup_t |F_x(t) - F_y(t)| (scipy-free)."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if len(x) == 0 or len(y) == 0:
        return 1.0
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / len(x)
    cdf_y = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


@F.pandas_udf(DoubleType())
def _ks_udf(xs: pd.Series, ys: pd.Series) -> pd.Series:
    return pd.Series(
        [
            ks_statistic(np.asarray(x), np.asarray(y))
            for x, y in zip(xs, ys)
        ],
        dtype=np.float64,
    )


#: Most values a numeric extent keeps. A longer column keeps its M midpoint
#: order statistics sorted[floor((i + 0.5) * n / M)], i < M: each ECDF then
#: moves by at most 1/(2M), so a KS statistic by at most 1/M.
EXTENT_CAP = 1024


def numeric_extents(cells: DataFrame) -> DataFrame:
    """``(attr_id, table, vals: array<double>)`` for numeric attributes: all
    values of a column of at most :data:`EXTENT_CAP`, else its
    ``EXTENT_CAP`` midpoint order statistics."""
    m = EXTENT_CAP
    # ``sorted`` is read twice below, so Catalyst keeps it in its own
    # projection: each column is sorted once, not once per kept value.
    n = F.size("sorted")
    midpoints = F.transform(
        F.sequence(F.lit(0), F.lit(m - 1)),
        lambda i: F.col("sorted")[F.floor((i + 0.5) * n / m).cast("int")],
    )
    return (
        cells.where(F.col("is_numeric") & F.col("num_value").isNotNull())
        .groupBy("attr_id", "table")
        .agg(F.collect_list("num_value").alias("vals"))
        .withColumn("sorted", F.sort_array("vals"))
        .select(
            "attr_id",
            "table",
            F.when(F.size("vals") <= m, F.col("vals")).otherwise(midpoints).alias("vals"),
        )
    )


# ---------------------------------------------------------------------------
# Candidate pair distance table
# ---------------------------------------------------------------------------


#: Evidence types retrieved by an LSH index (all but the domain's KS test).
LSH_EVIDENCE = EVIDENCE_TYPES[:4]


@dataclass
class LookupResults:
    """Raw per-index lookup results, each ``(query_attr, attr_id, similarity)``."""

    n: DataFrame
    v: DataFrame
    f: DataFrame
    e: DataFrame


def merge_lookups(lookups: LookupResults) -> DataFrame:
    """:func:`pivot_distances` over four single-index lookups, tagged by
    evidence type."""
    hits = [
        getattr(lookups, ev).select(
            "query_attr", "attr_id", F.lit(ev).alias("evidence"), "similarity"
        )
        for ev in LSH_EVIDENCE
    ]
    return pivot_distances(reduce(DataFrame.unionByName, hits))


def pivot_distances(hits: DataFrame) -> DataFrame:
    """One row per pair of a multi-index lookup
    ``(query_attr, attr_id, evidence, similarity)`` with distances
    ``d_n, d_v, d_f, d_e``: 1 - similarity clamped to [0, 1] (cosine
    similarity lies in [-1, 1]), 1.0 where that index did not retrieve the
    pair."""
    wide = (
        hits.groupBy("query_attr", "attr_id")
        .pivot("evidence", list(LSH_EVIDENCE))
        .agg(F.max("similarity"))
    )
    # Test for null first: greatest/least skip nulls, so clamping a missing
    # similarity would yield a distance of 0.0 instead of 1.0.
    return wide.select(
        "query_attr",
        "attr_id",
        *(
            F.when(F.col(ev).isNull(), F.lit(1.0))
            .otherwise(F.greatest(F.lit(0.0), F.least(F.lit(1.0), F.lit(1.0) - F.col(ev))))
            .alias(f"d_{ev}")
            for ev in LSH_EVIDENCE
        ),
    )


def attach_tables(pairs: DataFrame, attrs: DataFrame) -> DataFrame:
    """Add ``q_table``/``s_table``/numeric flags and drop same-table pairs
    (an attribute of the target is never a discovery answer for it)."""
    q = attrs.select(
        F.col("attr_id").alias("query_attr"),
        F.col("table").alias("q_table"),
        F.col("is_numeric").alias("q_numeric"),
    )
    s = attrs.select(
        "attr_id",
        F.col("table").alias("s_table"),
        F.col("is_numeric").alias("s_numeric"),
    )
    return (
        pairs.join(q, "query_attr")
        .join(s, "attr_id")
        .where(F.col("q_table") != F.col("s_table"))
    )


def add_domain_distance(
    pairs: DataFrame,
    extents: DataFrame,
    subjects: DataFrame,
) -> DataFrame:
    """Algorithm 2: compute ``d_d`` for numeric pairs passing the guards.

    Guards (any grants a KS computation):
      1. the two tables' *subject attributes* are related in any index —
         i.e. there is a candidate pair between the subjects;
      2. the numeric pair itself was retrieved by I_N (``d_n < 1``);
      3. the numeric pair itself was retrieved by I_F (``d_f < 1``).

    Guard 1 extends the candidate set: every numeric x numeric attribute
    pair of a subject-related table pair gets a KS measurement even if no
    index retrieved that pair directly.
    """
    # -- guard 1: subject-related table pairs --------------------------------
    subj = subjects.select("table", F.col("attr_id").alias("subj_attr"))
    subj_pairs = (
        pairs.join(
            subj.select(F.col("subj_attr").alias("query_attr"), F.col("table").alias("qt")),
            "query_attr",
        )
        .join(subj.select(F.col("subj_attr").alias("attr_id"), F.col("table").alias("st")), "attr_id")
        .select(F.col("qt").alias("q_table"), F.col("st").alias("s_table"))
        .distinct()
    )
    ext_q = extents.select(
        F.col("attr_id").alias("query_attr"),
        F.col("table").alias("q_table"),
        F.col("vals").alias("vals_q"),
    )
    ext_s = extents.select(
        "attr_id", F.col("table").alias("s_table"), F.col("vals").alias("vals_s")
    )
    key = ["query_attr", "attr_id", "q_table", "s_table"]

    # Guard-1 pairs: numeric x numeric cross product within subject-related
    # table pairs. Table granularity keeps this tiny (few numeric attrs each).
    guard1 = subj_pairs.join(ext_q, "q_table").join(ext_s, "s_table")

    # Guards 2/3: the pair itself N- or F-related.
    guard23 = (
        pairs.where(
            F.col("q_numeric") & F.col("s_numeric") & ((F.col("d_n") < 1.0) | (F.col("d_f") < 1.0))
        )
        .select(*key)
        .join(ext_q, ["query_attr", "q_table"])
        .join(ext_s, ["attr_id", "s_table"])
    )

    ks_pairs = (
        guard1.unionByName(guard23)
        .dropDuplicates(key)
        .withColumn("d_d", _ks_udf(F.col("vals_q"), F.col("vals_s")))
        .select(*key, "d_d")
    )

    # Guard-1 rows may introduce pairs absent from `pairs`; default their
    # four LSH distances to 1.0.
    out = pairs.join(ks_pairs, key, "full_outer")
    out = out.fillna(1.0, subset=["d_n", "d_v", "d_f", "d_e", "d_d"])
    out = out.fillna(True, subset=["q_numeric", "s_numeric"])
    return out.where(F.col("q_table") != F.col("s_table"))

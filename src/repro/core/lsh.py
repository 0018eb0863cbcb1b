"""Banded LSH indexes over signature DataFrames, queried via one similarity join.

The paper uses LSH Forest with threshold tau = 0.7 and 256 hashes per index
(§V footnote 5). We implement the classic banded equivalent: a signature of
n positions is cut into ``b`` bands of ``r = n/b`` rows; two attributes are
*candidates* iff they share at least one (band, band_hash) bucket. With
b=32, r=8 the S-curve midpoint (1/b)^(1/r) ~= 0.65, matching the paper's
tau; D3L's MinHash indexes use b=64, r=4 (midpoint ~0.35) because LSH
Forest also *descends* to shorter prefixes until k answers are found, so
mid-similarity items must be retrievable (see D3LConfig). For every
candidate pair the full signatures are re-compared, giving the actual
distance estimate that feeds Eqs. 1-3 — banding is only a blocking step,
exactly the role LSH Forest plays in the paper.

Everything is a DataFrame: each index is a bucket table ``(attr_id, band,
band_hash)`` plus a signature table ``(attr_id, sig)``. :func:`lookup`
queries all of a system's indexes at once: it unions their bucket and
signature tables under an ``evidence`` tag, then runs one equi-join on
``(evidence, band, band_hash)`` and one join back to the signatures —
Catalyst plans both, so the "query the lake" step is literally one
similarity join, however many indexes take part.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

#: Banding defaults chosen so the candidate threshold matches the paper's 0.7.
DEFAULT_N_BANDS = 32


def band_hashes_df(signatures: DataFrame, *, n_bands: int = DEFAULT_N_BANDS) -> DataFrame:
    """Explode ``(attr_id, sig)`` into ``(attr_id, band, band_hash)`` rows:
    band i's key is ``xxhash64`` of signature positions [i*r, (i+1)*r),
    r = len(sig) / n_bands. A signature whose length ``n_bands`` does not
    divide fails the query rather than drop its tail positions."""
    r = (F.size("sig") / n_bands).cast("int")
    keys = F.transform(
        F.sequence(F.lit(0), F.lit(n_bands - 1)),
        lambda i: F.xxhash64(F.slice("sig", i * r + 1, r)),
    )
    checked = F.when(F.size("sig") % n_bands == 0, keys).otherwise(
        F.raise_error(F.lit(f"signature length is not a multiple of {n_bands} bands"))
    )
    return signatures.select("attr_id", F.posexplode(checked).alias("band", "band_hash")).select(
        "attr_id", F.col("band").cast("long"), "band_hash"
    )


@dataclass
class LshIndex:
    """One of the paper's four indexes (I_N, I_V, I_F, I_E).

    ``signatures`` holds every indexed attribute's full signature;
    ``bands`` is the bucket table. ``kind`` selects the similarity estimator
    ('jaccard' for MinHash signatures, 'cosine' for SimHash bit signatures).
    """

    signatures: DataFrame
    bands: DataFrame
    kind: str
    n_bands: int

    @staticmethod
    def build(signatures: DataFrame, *, kind: str, n_bands: int = DEFAULT_N_BANDS) -> "LshIndex":
        if kind not in ("jaccard", "cosine"):
            raise ValueError(f"unknown similarity kind: {kind}")
        signatures = signatures.cache()
        bands = band_hashes_df(signatures, n_bands=n_bands).cache()
        return LshIndex(signatures=signatures, bands=bands, kind=kind, n_bands=n_bands)

    def lookup(self, query_attrs: DataFrame, *, min_similarity: float = 0.0) -> DataFrame:
        """:func:`lookup` over this index alone: ``(query_attr, attr_id,
        similarity)``."""
        return lookup({"": self}, query_attrs, min_similarity=min_similarity).drop("evidence")

    def unpersist(self) -> None:
        for df in (self.signatures, self.bands):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass


def lookup(
    indexes: dict[str, LshIndex], query_attrs: DataFrame, *, min_similarity: float = 0.0
) -> DataFrame:
    """LSH lookup of a set of query attributes (themselves indexed) in every
    index of ``indexes``, keyed by evidence type.

    ``query_attrs`` is a one-column DataFrame ``(attr_id)`` naming the query
    side. Returns ``(query_attr, attr_id, evidence, similarity)`` for every
    pair sharing >= 1 band bucket of the ``evidence`` index, self-pairs
    excluded, filtered to ``similarity >= min_similarity``. Similarity is
    the fraction of equal signature positions for a ``'jaccard'`` index and
    cos(pi * hamming) for a ``'cosine'`` one.
    """
    tag = [(F.lit(ev).alias("evidence"), idx) for ev, idx in indexes.items()]
    bands = reduce(DataFrame.unionByName, [idx.bands.select(ev, "*") for ev, idx in tag])
    sigs = reduce(DataFrame.unionByName, [idx.signatures.select(ev, "*") for ev, idx in tag])
    q_bands = bands.join(
        query_attrs.select(F.col("attr_id").alias("query_attr")),
        bands["attr_id"] == F.col("query_attr"),
    ).select("evidence", "query_attr", "band", "band_hash")
    candidates = (
        q_bands.join(bands, ["evidence", "band", "band_hash"])
        .where(F.col("query_attr") != F.col("attr_id"))
        .select("evidence", "query_attr", "attr_id")
        .distinct()
    )
    sig_q = sigs.select(
        "evidence", F.col("attr_id").alias("query_attr"), F.col("sig").alias("sig_q")
    )
    sig_s = sigs.select("evidence", "attr_id", F.col("sig").alias("sig_s"))
    joined = candidates.join(sig_q, ["evidence", "query_attr"]).join(
        sig_s, ["evidence", "attr_id"]
    )
    eq_frac = (
        F.aggregate(
            F.zip_with("sig_q", "sig_s", lambda a, b: (a == b).cast("int")),
            F.lit(0),
            lambda acc, x: acc + x,
        ).cast("double")
        / F.size("sig_q").cast("double")
    )
    cosine = [ev for ev, idx in indexes.items() if idx.kind == "cosine"]
    sim = F.when(
        F.col("evidence").isin(cosine), F.cos(F.lit(float(np.pi)) * (F.lit(1.0) - eq_frac))
    ).otherwise(eq_frac)
    hits = joined.select("query_attr", "attr_id", "evidence", sim.alias("similarity"))
    if min_similarity > 0.0:
        hits = hits.where(F.col("similarity") >= F.lit(min_similarity))
    return hits


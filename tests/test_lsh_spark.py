"""Spark MinHash signatures + banded LSH index (lookup = similarity join)."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core import lsh, minhash, randproj
from repro.core.hashing import HashFamily
from repro.oracle import assert_equivalent


def _features_df(spark, sets: dict[str, set]):
    rows = [(a, f) for a, feats in sets.items() for f in feats]
    return spark.createDataFrame(rows, schema="attr_id string, feature string")


@pytest.fixture(scope="module")
def toy_sets():
    base = {f"x{i}" for i in range(60)}
    return {
        "A": base,
        "B": set(list(base)[:40]) | {f"b{i}" for i in range(20)},  # J(A,B)~0.5
        "C": {f"c{i}" for i in range(60)},  # disjoint
        "D": base,  # identical to A
    }


@pytest.fixture(scope="module")
def sigs(spark, toy_sets):
    return minhash.signatures_df(_features_df(spark, toy_sets)).cache()


class TestSignaturesDf:
    def test_one_row_per_attr(self, sigs, toy_sets):
        assert sigs.count() == len(toy_sets)

    def test_signature_length(self, sigs):
        assert all(len(r["sig"]) == 256 for r in sigs.collect())

    def test_identical_sets_identical_sigs(self, sigs):
        rows = {r["attr_id"]: r["sig"] for r in sigs.collect()}
        assert rows["A"] == rows["D"]

    def test_disjoint_sets_differ(self, sigs):
        rows = {r["attr_id"]: r["sig"] for r in sigs.collect()}
        frac_eq = np.mean(np.array(rows["A"]) == np.array(rows["C"]))
        assert frac_eq < 0.05

    def test_seed_changes_signatures(self, spark, toy_sets):
        s1 = minhash.signatures_df(_features_df(spark, toy_sets), seed=1).collect()
        s2 = minhash.signatures_df(_features_df(spark, toy_sets), seed=2).collect()
        r1 = {r["attr_id"]: r["sig"] for r in s1}
        r2 = {r["attr_id"]: r["sig"] for r in s2}
        assert r1["A"] != r2["A"]

    def test_duplicate_features_ignored(self, spark):
        df_dup = spark.createDataFrame(
            [("A", "x"), ("A", "x"), ("A", "y")], schema="attr_id string, feature string"
        )
        df_uniq = spark.createDataFrame(
            [("A", "x"), ("A", "y")], schema="attr_id string, feature string"
        )
        s1 = minhash.signatures_df(df_dup).collect()[0]["sig"]
        s2 = minhash.signatures_df(df_uniq).collect()[0]["sig"]
        assert s1 == s2


class TestBandIndex:
    def test_band_count(self, sigs):
        bands = lsh.band_hashes_df(sigs, n_bands=32)
        counts = bands.groupBy("attr_id").count().collect()
        assert all(r["count"] == 32 for r in counts)

    def test_identical_sets_share_every_band(self, sigs):
        bands = lsh.band_hashes_df(sigs, n_bands=32).toPandas()
        a = bands[bands.attr_id == "A"].sort_values("band")["band_hash"].tolist()
        d = bands[bands.attr_id == "D"].sort_values("band")["band_hash"].tolist()
        assert a == d

    def test_band_count_must_divide_signature(self, sigs):
        with pytest.raises(Exception, match="not a multiple of 3 bands"):
            lsh.band_hashes_df(sigs, n_bands=3).collect()

    def test_lookup_finds_identical(self, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        q = sigs.sparkSession.createDataFrame([("A",)], schema="attr_id string")
        hits = {r["attr_id"]: r["similarity"] for r in index.lookup(q).collect()}
        assert hits["D"] == pytest.approx(1.0)

    def test_lookup_excludes_self(self, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        q = sigs.sparkSession.createDataFrame([("A",)], schema="attr_id string")
        assert "A" not in {r["attr_id"] for r in index.lookup(q).collect()}

    def test_lookup_mid_similarity_with_fine_bands(self, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=64)
        q = sigs.sparkSession.createDataFrame([("A",)], schema="attr_id string")
        hits = {r["attr_id"]: r["similarity"] for r in index.lookup(q).collect()}
        assert "B" in hits
        assert 0.25 < hits["B"] < 0.75

    def test_min_similarity_filter(self, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=64)
        q = sigs.sparkSession.createDataFrame([("A",)], schema="attr_id string")
        hits = index.lookup(q, min_similarity=0.9).collect()
        assert {r["attr_id"] for r in hits} == {"D"}

    def test_disjoint_not_candidates(self, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        q = sigs.sparkSession.createDataFrame([("C",)], schema="attr_id string")
        hits = {r["attr_id"] for r in index.lookup(q).collect()}
        assert hits == set()

    def test_build_rejects_bad_kind(self, sigs):
        with pytest.raises(ValueError):
            lsh.LshIndex.build(sigs, kind="hamming")

    def test_candidate_join_oracle(self, spark, sigs):
        """The banded candidate join agrees with DuckDB's join over the
        same band table."""
        bands_pdf = lsh.band_hashes_df(sigs, n_bands=32).toPandas()
        got = (
            lsh.band_hashes_df(sigs, n_bands=32)
            .alias("q")
            .join(
                lsh.band_hashes_df(sigs, n_bands=32).alias("s"),
                ["band", "band_hash"],
            )
            .where(F.col("q.attr_id") < F.col("s.attr_id"))
            .select(
                F.col("q.attr_id").alias("a1"), F.col("s.attr_id").alias("a2")
            )
            .distinct()
        )
        assert_equivalent(
            got,
            """
            SELECT DISTINCT q.attr_id AS a1, s.attr_id AS a2
            FROM bands q JOIN bands s
              ON q.band = s.band AND q.band_hash = s.band_hash
            WHERE q.attr_id < s.attr_id
            """,
            bands=bands_pdf,
        )


class TestCosineIndex:
    def test_cosine_lookup(self, spark):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(50)
        vecs = spark.createDataFrame(
            pd.DataFrame(
                {
                    "attr_id": ["a", "b", "c"],
                    "vec": [
                        v.tolist(),
                        (0.9 * v + 0.2 * rng.standard_normal(50)).tolist(),
                        rng.standard_normal(50).tolist(),
                    ],
                }
            )
        )
        sigs = randproj.bit_signatures_df(vecs, dim=50)
        index = lsh.LshIndex.build(sigs, kind="cosine", n_bands=32)
        q = spark.createDataFrame([("a",)], schema="attr_id string")
        hits = {r["attr_id"]: r["similarity"] for r in index.lookup(q).collect()}
        assert "b" in hits and hits["b"] > 0.8
        assert hits.get("c", 0.0) < 0.5


@pytest.mark.parametrize("lake", ["clean", "noisy"])
def test_buckets_are_equal_band_slices(request, lake):
    """In all four D3L indexes of the test lakes, two attributes share a
    (band, band_hash) bucket exactly when numpy finds that band's slice of
    their collected signatures equal."""
    d3l = request.getfixturevalue(f"d3l_{lake}")
    for ev, index in d3l._indexes().items():
        rows = index.signatures.collect()
        ids = np.array([r["attr_id"] for r in rows])
        bands = np.array([r["sig"] for r in rows]).reshape(len(rows), index.n_bands, -1)
        equal = (bands[:, None] == bands[None, :]).all(axis=3)
        i, j, band = np.nonzero(equal)
        keep = ids[i] < ids[j]
        expected = set(zip(ids[i][keep], ids[j][keep], band[keep]))

        pdf = index.bands.toPandas()
        pairs = pdf.merge(pdf, on=["band", "band_hash"])
        pairs = pairs[pairs["attr_id_x"] < pairs["attr_id_y"]]
        got = set(zip(pairs["attr_id_x"], pairs["attr_id_y"], pairs["band"]))
        assert expected and got == expected, ev

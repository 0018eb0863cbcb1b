"""Aurum baseline: graph materialisation, certainty ranking, PK/FK joins."""
import pandas as pd

from repro.baselines.aurum import Aurum, tfidf_vectors
from repro.lake import tables


class TestTfidfVectors:
    def test_vector_shape(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"s": ["alpha beta", "alpha gamma"]})}
        )
        rows = tfidf_vectors(cells).collect()
        assert len(rows) == 1
        assert len(rows[0]["vec"]) == 64

    def test_numeric_excluded(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"n": [1, 2]})})
        assert tfidf_vectors(cells).count() == 0

    def test_shared_tokens_similar_vectors(self, spark):
        import numpy as np

        cells = tables.cells_df(
            spark,
            {
                "t": pd.DataFrame(
                    {
                        "a": ["red blue green"] * 3,
                        "b": ["red blue yellow"] * 3,
                        "c": ["wholly unrelated words"] * 3,
                    }
                )
            },
        )
        vecs = {r["attr_id"]: np.array(r["vec"]) for r in tfidf_vectors(cells).collect()}

        def cos(x, y):
            nx, ny = np.linalg.norm(x), np.linalg.norm(y)
            return float(x @ y / (nx * ny)) if nx and ny else 0.0

        assert cos(vecs["t||a"], vecs["t||b"]) > cos(vecs["t||a"], vecs["t||c"])


class TestGraph:
    def test_edges_materialised(self, aurum_clean):
        assert aurum_clean.materialize()["edges"] > 0

    def test_edges_have_similarity(self, aurum_clean):
        row = aurum_clean.edges.first()
        assert 0.0 <= row["similarity"] <= 1.0

    def test_no_self_table_edges(self, aurum_clean):
        n_self = aurum_clean.edges.where("q_table = s_table").count()
        assert n_self == 0

    def test_pkfk_edges_shape(self, aurum_clean):
        assert set(aurum_clean.pkfk_edges.columns) == {"t1", "t2"}
        if len(aurum_clean.pkfk_edges):
            assert (aurum_clean.pkfk_edges["t1"] != aurum_clean.pkfk_edges["t2"]).all()

    def test_pkfk_requires_unique_side(self, spark):
        """Two low-uniqueness columns (many repeats) never form a PK/FK
        candidate even with perfect overlap."""
        rep = ["x", "x", "x", "y", "y", "y", "z", "z"]
        cells = tables.cells_df(
            spark,
            {
                "a": pd.DataFrame({"col": rep}),
                "b": pd.DataFrame({"col": rep}),
            },
        )
        a = Aurum.build(spark, cells)
        assert len(a.pkfk_edges) == 0
        a.unpersist()


class TestSearch:
    def test_certainty_ranking_descending(self, aurum_clean, clean_lake):
        res = aurum_clean.search(sorted(clean_lake.tables)[4], k=10)
        scores = [s for _, s in res.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_target_excluded(self, aurum_clean, clean_lake):
        t = sorted(clean_lake.tables)[8]
        assert t not in aurum_clean.search(t, k=20).tables

    def test_finds_siblings(self, aurum_clean, clean_lake):
        target = "schools__000"
        res = aurum_clean.search(target, k=4)
        assert len(set(res.tables) & clean_lake.gt.related_tables(target)) >= 1

    def test_k_independent_answer_prefix(self, aurum_clean, clean_lake):
        t = sorted(clean_lake.tables)[12]
        r5 = aurum_clean.search(t, k=5).tables
        r10 = aurum_clean.search(t, k=10).tables
        assert r10[:5] == r5

    def test_search_many_matches_single(self, aurum_clean, clean_lake):
        names = sorted(clean_lake.tables)
        batched = aurum_clean.search_many([names[1], names[7]], k=3)
        assert batched[names[1]].tables == aurum_clean.search(names[1], k=3).tables

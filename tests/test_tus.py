"""TUS baseline behaviour (value-equality sensitivity, numeric blindness)."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.baselines.kb import KnowledgeBase
from repro.baselines.tus import TUS, semantic_sets, value_sets
from repro.lake import tables


@pytest.fixture(scope="session")
def tus_clean(spark, clean_cells):
    t = TUS.build(spark, clean_cells)
    t.materialize()
    return t


class TestFeatures:
    def test_value_sets_lowercased_full_values(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"s": ["Oxford Road", "OXFORD ROAD"]})}
        )
        feats = {r["feature"] for r in value_sets(cells).collect()}
        assert feats == {"oxford road"}

    def test_value_sets_skip_numeric(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"n": [1, 2], "s": ["a", "b"]})}
        )
        attrs = {r["attr_id"] for r in value_sets(cells).collect()}
        assert attrs == {"t||s"}

    def test_semantic_sets_map_to_classes(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"c": ["Manchester", "Salford"]})}
        )
        feats = {r["feature"] for r in semantic_sets(cells, KnowledgeBase()).collect()}
        assert "city" in feats and "entity" in feats

    def test_semantic_sets_oov_empty(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"c": ["zzz qqq"]})})
        assert semantic_sets(cells, KnowledgeBase()).count() == 0


class TestSearch:
    def test_returns_at_most_k(self, tus_clean, clean_lake):
        res = tus_clean.search(sorted(clean_lake.tables)[0], k=4)
        assert len(res.ranking) <= 4

    def test_scores_descending(self, tus_clean, clean_lake):
        res = tus_clean.search(sorted(clean_lake.tables)[6], k=10)
        scores = [s for _, s in res.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_target_excluded(self, tus_clean, clean_lake):
        t = sorted(clean_lake.tables)[10]
        assert t not in tus_clean.search(t, k=20).tables

    def test_finds_siblings_on_clean_lake(self, tus_clean, clean_lake):
        """Clean data = TUS's best case (exact value overlap works)."""
        target = "gp_practices__000"
        siblings = clean_lake.gt.related_tables(target)
        res = tus_clean.search(target, k=4)
        assert len(set(res.tables) & siblings) >= 1

    def test_numeric_only_table_no_textual_answer(self, spark):
        """A table with only numeric attributes is invisible to TUS."""
        cells = tables.cells_df(
            spark,
            {
                "nums_a": pd.DataFrame({"x": [1, 2, 3], "y": [4.0, 5.0, 6.0]}),
                "nums_b": pd.DataFrame({"x": [1, 2, 3], "y": [4.0, 5.0, 6.0]}),
                "text": pd.DataFrame({"s": ["a", "b", "c"]}),
            },
        )
        t = TUS.build(spark, cells)
        res = t.search("nums_a", k=5)
        assert res.ranking == []
        t.unpersist()

    def test_search_many_jobs_independent_of_target_count(self, spark, tus_clean, clean_lake):
        """A batch costs the same Spark jobs as one target: no per-target
        job (e.g. counting each target's arity) sneaks into the loop."""
        names = sorted(clean_lake.tables)
        scheduler = spark.sparkContext._jsc.sc().dagScheduler()

        def jobs(targets):
            start = scheduler.nextJobId()
            tus_clean.search_many(targets, k=3)
            return scheduler.nextJobId() - start

        jobs(names[:1])  # warm-up
        assert jobs(names[:4]) <= jobs(names[:1])

    def test_search_many_matches_single(self, tus_clean, clean_lake):
        names = sorted(clean_lake.tables)
        batched = tus_clean.search_many([names[0], names[5]], k=3)
        assert batched[names[0]].tables == tus_clean.search(names[0], k=3).tables

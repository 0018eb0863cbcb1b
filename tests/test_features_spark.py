"""Feature extraction as DataFrame transforms (Alg. 1 / Example 2),
including the paper's worked examples and DuckDB oracle checks."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.baselines.kb import WORD_SPLIT
from repro.core import features
from repro.embedding.wem import WordEmbeddingModel
from repro.lake import tables
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def example2_cells(spark):
    """Paper Example 2: attribute 'Address' with three street values."""
    pdf = pd.DataFrame(
        {
            "Address": [
                "18 Portland Street, M1 3BE",
                "41 Oxford Road, M13 9PL",
                "9 Mirabel Street, M3 1NN",
            ]
        }
    )
    return tables.cells_df(spark, {"ex": pdf}).cache()


@pytest.fixture(scope="module")
def example2_attrs(example2_cells):
    return tables.attrs_df(example2_cells)


class TestNameQgrams:
    def test_paper_example(self, example2_attrs):
        got = {
            r["feature"]
            for r in features.name_qgrams(example2_attrs).collect()
        }
        assert got == {"addr", "ddre", "dres", "ress"}

    def test_short_name_is_own_gram(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"id": ["x"]})})
        got = {r["feature"] for r in features.name_qgrams(tables.attrs_df(cells)).collect()}
        assert got == {"id"}

    def test_name_cleaning(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"Post Code": ["x"]})})
        got = {r["feature"] for r in features.name_qgrams(tables.attrs_df(cells)).collect()}
        assert got == {"post", "ostc", "stco", "tcod", "code"}

    def test_q_configurable(self, example2_attrs):
        got = {r["feature"] for r in features.name_qgrams(example2_attrs, q=3).collect()}
        assert got == {"add", "ddr", "dre", "res", "ess"}

    def test_distinct(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"aaaa": ["x"]})})
        rows = features.name_qgrams(tables.attrs_df(cells)).collect()
        assert len(rows) == 1  # 'aaaa' -> single distinct gram


class TestTokens:
    def test_infrequent_picks_rare_word_per_part(self, example2_cells):
        tset = {
            r["feature"] for r in features.informative_tokens(example2_cells).collect()
        }
        # 'street' appears twice, the street names once each -> the names win.
        assert {"portland", "oxford", "mirabel"} <= tset
        assert "street" not in tset

    def test_frequent_picks_common_word_per_part(self, example2_cells):
        eset = {
            r["feature"] for r in features.frequent_tokens(example2_cells).collect()
        }
        assert "street" in eset

    def test_postcode_parts_tokenised(self, example2_cells):
        tset = {
            r["feature"] for r in features.informative_tokens(example2_cells).collect()
        }
        # Postcodes follow a comma -> their own part; both words are unique
        # in the extent so the tie-break (alphabetical) picks one of them.
        assert any(t in tset for t in ("m1", "3be", "m13", "9pl"))

    def test_numeric_attrs_excluded(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"n": [1, 2, 3], "s": ["a b", "a c", "a d"]})}
        )
        tok_attrs = {
            r["attr_id"] for r in features.informative_tokens(cells).collect()
        }
        assert tok_attrs == {"t||s"}

    @pytest.mark.parametrize("lake", ["clean", "noisy"])
    @pytest.mark.parametrize(
        "pick, order",
        [(features.informative_tokens, "cnt ASC"), (features.frequent_tokens, "cnt DESC")],
        ids=["fewest", "most"],
    )
    def test_token_pick_oracle(self, request, lake, pick, order):
        """Over every attribute of the test lakes, the one-aggregate pick
        equals DuckDB's ``row_number()`` pick over Algorithm 1's histogram
        H of the same words: per part, first by count, then letter-bearing
        words, then alphabetically."""
        cells = request.getfixturevalue(f"{lake}_cells")
        assert_equivalent(
            pick(cells),
            f"""
            WITH h AS (
              SELECT *, count(*) OVER (PARTITION BY attr_id, word) AS cnt,
                     CASE WHEN regexp_matches(word, '[a-z]') THEN 0 ELSE 1 END AS digit_only
              FROM words),
            ranked AS (
              SELECT attr_id, word, row_number() OVER (
                PARTITION BY attr_id, row_idx, part_idx ORDER BY {order}, digit_only, word) AS rn
              FROM h)
            SELECT DISTINCT attr_id, word AS feature FROM ranked WHERE rn = 1
            """,
            words=features.words(cells),
        )

    @pytest.mark.parametrize("lake", ["clean", "noisy"])
    def test_words_match_kb_split(self, request, lake):
        """The KB's Python split (TUS's semantic evidence), lower-cased and
        without empty tokens, gives ``words`` for every non-numeric value
        of the test lakes."""
        cells = request.getfixturevalue(f"{lake}_cells")
        got = (
            features.words(cells)
            .groupBy("attr_id", "row_idx")
            .agg(F.sort_array(F.collect_list("word")).alias("words"))
            .toPandas()
        )
        values = cells.where(~F.col("is_numeric")).select("attr_id", "row_idx", "value").toPandas()
        expected = values.assign(
            words=[sorted(w.lower() for w in WORD_SPLIT.split(v) if w) for v in values["value"]]
        )
        expected = expected[expected["words"].map(len) > 0]
        merged = expected.merge(got, on=["attr_id", "row_idx"], how="outer", suffixes=("", "_spark"))
        assert len(merged) == len(expected) == len(got)
        assert [list(w) for w in merged["words_spark"]] == list(merged["words"])

    def test_lowercasing(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"s": ["Hello World"]})})
        tset = {r["feature"] for r in features.informative_tokens(cells).collect()}
        assert tset <= {"hello", "world"}


class TestFormatStringsSpark:
    def test_rset_of_example(self, example2_cells):
        rset = {
            r["feature"]
            for r in features.format_strings(example2_cells)
            .where(F.col("attr_id") == "ex||Address")
            .collect()
        }
        assert rset == {"NC+PA+"}

    def test_numeric_attrs_included(self, spark):
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"n": [10, 20]})})
        rows = features.format_strings(cells).collect()
        assert {r["feature"] for r in rows} == {"N"}

    def test_distinct_formats(self, spark):
        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"s": ["M1 3BE", "BT7 1JL", "hello"]})}
        )
        rset = {r["feature"] for r in features.format_strings(cells).collect()}
        assert rset == {"A+", "L"}


class TestEmbeddingVectors:
    def test_vector_per_textual_attr(self, spark):
        wem = WordEmbeddingModel()
        cells = tables.cells_df(
            spark,
            {"t": pd.DataFrame({"s": ["Oxford Road", "Church Street"], "n": [1, 2]})},
        )
        rows = features.embedding_vectors(cells, wem).collect()
        assert {r["attr_id"] for r in rows} == {"t||s"}
        assert len(rows[0]["vec"]) == wem.dim

    def test_same_domain_attrs_close(self, spark):
        import numpy as np

        wem = WordEmbeddingModel()
        cells = tables.cells_df(
            spark,
            {
                "t1": pd.DataFrame({"addr": ["1 Oxford Road", "2 Mill Road", "3 Park Road"]}),
                "t2": pd.DataFrame({"loc": ["9 Church Street", "4 King Street"]}),
                "t3": pd.DataFrame({"sector": ["retail", "finance", "logistics"]}),
            },
        )
        vecs = {r["attr_id"]: np.array(r["vec"]) for r in features.embedding_vectors(cells, wem).collect()}

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        assert cos(vecs["t1||addr"], vecs["t2||loc"]) > cos(vecs["t1||addr"], vecs["t3||sector"])

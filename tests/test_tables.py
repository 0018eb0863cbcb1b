"""Lake <-> Spark representation, with DuckDB oracle checks on the
relational aggregates derived from it."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.lake import tables
from repro.oracle import assert_equivalent


class TestAttrIds:
    def test_roundtrip(self):
        aid = tables.attr_id("crimes__000", "crime_type")
        assert tables.split_attr_id(aid) == ("crimes__000", "crime_type")

    def test_separator_in_value_safe(self):
        t, c = tables.split_attr_id("a||b||c")
        assert t == "a" and c == "b||c"

    def test_separator_in_table_name_rejected(self, spark):
        """Ids of a table named "a||b" would split to table "a"; the lake
        is refused at the entry instead of misattributing its pairs."""
        with pytest.raises(ValueError, match=r"'a\|\|b'"):
            tables.cells_df(spark, {"a||b": pd.DataFrame({"c": ["x", "y"]})})


class TestCellsPandas:
    def test_drops_nulls(self):
        pdf = tables.cells_pandas(
            {"t": pd.DataFrame({"a": ["x", None, "y"], "b": [1, 2, None]})}
        )
        assert len(pdf) == 4  # 2 + 2 non-null cells

    def test_numeric_detection_dtype(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"n": [1, 2], "s": ["a", "b"]})})
        by_col = pdf.groupby("col_name")["is_numeric"].first()
        assert bool(by_col["n"]) and not bool(by_col["s"])

    def test_numeric_detection_stringified(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"n": ["1", "2", "3.5"]})})
        assert pdf["is_numeric"].all()
        assert pdf["num_value"].tolist() == [1.0, 2.0, 3.5]

    def test_mixed_mostly_text_not_numeric(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"s": ["a", "b", "c", "1"]})})
        assert not pdf["is_numeric"].any()

    def test_integer_rendering_no_decimal(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"n": [10, 20]})})
        assert set(pdf["value"]) == {"10", "20"}

    def test_float_rendering_compact(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"n": [1.5, 2.0]})})
        assert set(pdf["value"]) == {"1.5", "2"}

    def test_attr_id_composition(self):
        pdf = tables.cells_pandas({"t1": pd.DataFrame({"a": ["x"]})})
        assert pdf["attr_id"].iloc[0] == "t1||a"

    def test_row_idx_preserved(self):
        pdf = tables.cells_pandas({"t": pd.DataFrame({"a": ["x", None, "z"]})})
        assert sorted(pdf["row_idx"]) == [0, 2]


class TestCellsSpark:
    def test_schema(self, clean_cells):
        names = set(clean_cells.columns)
        assert {
            "table",
            "col_idx",
            "col_name",
            "attr_id",
            "row_idx",
            "value",
            "is_numeric",
            "num_value",
        } <= names

    def test_attrs_df_unique(self, clean_attrs):
        n = clean_attrs.count()
        assert clean_attrs.select("attr_id").distinct().count() == n

    def test_attrs_match_lake(self, clean_attrs, clean_lake):
        assert clean_attrs.count() == clean_lake.n_attributes

    def test_oracle_cells_per_table(self, clean_cells, clean_lake):
        """Spark row counts per table agree with DuckDB over the same cells."""
        got = clean_cells.groupBy("table").agg(F.count("*").alias("n_cells"))
        cells_pdf = tables.cells_pandas(clean_lake.tables)
        assert_equivalent(
            got,
            'SELECT "table", count(*) AS n_cells FROM cells GROUP BY "table"',
            cells=cells_pdf,
        )

    def test_oracle_numeric_attr_count(self, clean_cells, clean_lake):
        got = (
            clean_cells.where(F.col("is_numeric"))
            .groupBy("attr_id")
            .agg(F.count("*").alias("n"))
        )
        cells_pdf = tables.cells_pandas(clean_lake.tables)
        assert_equivalent(
            got,
            "SELECT attr_id, count(*) AS n FROM cells WHERE is_numeric GROUP BY attr_id",
            cells=cells_pdf,
        )

    def test_oracle_distinct_values(self, clean_cells, clean_lake):
        got = clean_cells.groupBy("table").agg(
            F.countDistinct("value").alias("n_distinct")
        )
        cells_pdf = tables.cells_pandas(clean_lake.tables)
        assert_equivalent(
            got,
            'SELECT "table", count(DISTINCT value) AS n_distinct FROM cells GROUP BY "table"',
            cells=cells_pdf,
        )

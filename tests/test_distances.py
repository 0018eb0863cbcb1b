"""KS statistic and the Algorithm 2 guard logic."""
import numpy as np
import pandas as pd
import pytest

from repro.core.distances import EVIDENCE_TYPES, EXTENT_CAP, ks_statistic, numeric_extents


class TestKS:
    def test_identical_samples_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports_one(self):
        assert ks_statistic(np.array([1.0, 2.0]), np.array([10.0, 11.0])) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(0, 1, 40), rng.normal(0.5, 1, 60)
        assert ks_statistic(x, y) == pytest.approx(ks_statistic(y, x))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.normal(0, 1, 30), rng.normal(0, 2, 30)
            assert 0.0 <= ks_statistic(x, y) <= 1.0

    def test_same_distribution_small(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 1, 500), rng.normal(0, 1, 500)
        assert ks_statistic(x, y) < 0.12

    def test_shifted_distribution_large(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(0, 1, 500), rng.normal(3, 1, 500)
        assert ks_statistic(x, y) > 0.8

    def test_empty_sample_maximal(self):
        assert ks_statistic(np.array([]), np.array([1.0])) == 1.0

    def test_known_value(self):
        # F_x jumps to 1 at 1; F_y jumps to 1 at 2 -> sup diff at t in [1,2) = 1/2...
        # x={1,3}, y={2,4}: at t=1: |0.5-0| = .5; t=2: |0.5-0.5|=0; t=3: |1-.5|=.5
        assert ks_statistic(np.array([1.0, 3.0]), np.array([2.0, 4.0])) == 0.5

    def test_reference_implementation(self):
        """Cross-check against a brute-force sup over a dense grid."""
        rng = np.random.default_rng(4)
        x, y = rng.normal(0, 1, 37), rng.normal(1, 2, 23)
        grid = np.linspace(-10, 10, 20001)
        fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
        fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
        brute = float(np.max(np.abs(fx - fy)))
        assert ks_statistic(x, y) == pytest.approx(brute, abs=1e-9)


class TestNumericExtents:
    def test_numeric_only(self, spark):
        from repro.lake import tables

        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"n": [1, 2, 3], "s": ["a", "b", "c"]})}
        )
        rows = numeric_extents(cells).collect()
        assert {r["attr_id"] for r in rows} == {"t||n"}
        assert sorted(rows[0]["vals"]) == [1.0, 2.0, 3.0]

    def test_long_columns_capped_within_ks_bound(self, spark):
        """A 100k-value column keeps at most EXTENT_CAP values, and KS on
        two capped columns stays within 1/EXTENT_CAP of KS on all values."""
        from repro.lake import tables

        rng = np.random.default_rng(5)
        n = 100_000
        x = rng.normal(0.0, 1.0, n)
        y = np.round(rng.normal(0.1, 1.2, n), 1)  # ties, too
        cells = tables.cells_df(spark, {"t": pd.DataFrame({"x": x, "y": y})})
        vals = {r["attr_id"]: np.array(r["vals"]) for r in numeric_extents(cells).collect()}
        assert all(len(v) <= EXTENT_CAP for v in vals.values())
        exact = ks_statistic(x, y)
        assert abs(ks_statistic(vals["t||x"], vals["t||y"]) - exact) <= 1.0 / EXTENT_CAP


class TestEvidenceTypes:
    def test_five_types(self):
        assert EVIDENCE_TYPES == ("n", "v", "f", "e", "d")


class TestGuards:
    """Algorithm 2 behaviour, observed through the full D3L pipeline."""

    def test_numeric_pairs_with_shared_names_get_ks(self, d3l_clean):
        pairs = d3l_clean.candidate_pairs(["gp_staff__000"]).toPandas()
        num = pairs[pairs["q_numeric"] & pairs["s_numeric"]]
        # gp_staff numeric columns (gps/nurses/admin_staff) share names with
        # their siblings -> guard 2 fires -> some d_d < 1.
        assert (num["d_d"] < 1.0).any()

    def test_textual_pairs_have_dd_one(self, d3l_clean):
        pairs = d3l_clean.candidate_pairs(["gp_practices__000"]).toPandas()
        text = pairs[~pairs["q_numeric"] | ~pairs["s_numeric"]]
        assert (text["d_d"] == 1.0).all()

    def test_all_distances_bounded(self, d3l_clean):
        pairs = d3l_clean.candidate_pairs(["schools__000"]).toPandas()
        for t in EVIDENCE_TYPES:
            assert pairs[f"d_{t}"].between(0.0, 1.0).all(), t

    def test_no_self_table_pairs(self, d3l_clean):
        pairs = d3l_clean.candidate_pairs(["crimes__000"]).toPandas()
        assert (pairs["q_table"] != pairs["s_table"]).all()
        assert (pairs["q_table"] == "crimes__000").all()

    def test_subject_guard_extends_candidates(self, spark):
        """Guard 1: numeric pairs between subject-related tables get a KS
        measurement even when both I_N and I_F missed the pair itself.

        'x' (ints, format N) vs 'y' (decimal floats, format NPN) share
        neither name q-grams nor formats — only the identical subject
        columns relate the tables, so any d_d < 1 proves guard 1 fired.
        """
        import numpy as np

        from repro.core.ranking import D3L
        from repro.lake import tables as lt

        names = [f"entity {i} unique" for i in range(30)]
        rng = np.random.default_rng(0)
        a = pd.DataFrame({"name": names, "x": rng.integers(0, 100, 30)})
        b = pd.DataFrame({"title": names, "y": (rng.random(30) * 100 + 0.123).round(3)})
        cells = lt.cells_df(spark, {"A": a, "B": b})
        d3l = D3L.build(spark, cells)
        pairs = d3l.candidate_pairs(["A"]).toPandas()
        num = pairs[
            (pairs["query_attr"] == "A||x") & (pairs["attr_id"] == "B||y")
        ]
        assert len(num) == 1
        assert num["d_d"].iloc[0] < 1.0  # KS was computed
        assert num["d_n"].iloc[0] == 1.0 and num["d_f"].iloc[0] == 1.0
        d3l.unpersist()

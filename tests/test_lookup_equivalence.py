"""Pin of the one-join lookup path against the per-index composition it
replaced, over every table of the clean and the noisy lake in one batch.

(a) ``lsh.lookup`` over the four D3L indexes returns exactly the union of
    the four single-index lookups, tagged by evidence type;
(b) ``candidate_pairs``' ``d_n..d_e`` equal a pandas outer merge of those
    four lookups: 1 - similarity, cosine clamped to [0, 1], and 1.0 where
    an index did not retrieve the pair;
(c) Aurum's edge similarities equal the pandas max over its three
    single-index lookups at ``edge_threshold``.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.aurum import EDGE_THRESHOLD, N_BANDS_COSINE, N_BANDS_JACCARD, Aurum
from repro.core import lsh

LAKES = ["clean", "noisy"]
PAIR = ["query_attr", "attr_id"]


@pytest.fixture(scope="module", params=LAKES)
def d3l(request):
    return request.getfixturevalue(f"d3l_{request.param}")


def _sorted(df: pd.DataFrame, key: list[str]) -> pd.DataFrame:
    return df.sort_values(key).reset_index(drop=True)


def _single_lookups(d3l) -> dict[str, pd.DataFrame]:
    q_attrs = d3l.attrs.select("attr_id")
    floor = d3l.config.min_similarity
    return {
        ev: index.lookup(q_attrs, min_similarity=floor).toPandas()
        for ev, index in d3l._indexes().items()
    }


def _cross_table(attrs: pd.DataFrame, merged: pd.DataFrame) -> pd.DataFrame:
    """``merged`` with ``q_table``/``s_table``, same-table pairs dropped."""
    tables = attrs.set_index("attr_id")["table"]
    out = merged.assign(
        q_table=merged["query_attr"].map(tables), s_table=merged["attr_id"].map(tables)
    )
    return out[out["q_table"] != out["s_table"]]


def test_one_lookup_is_union_of_single_lookups(d3l):
    got = lsh.lookup(
        d3l._indexes(), d3l.attrs.select("attr_id"), min_similarity=d3l.config.min_similarity
    ).toPandas()
    expected = pd.concat(
        [df.assign(evidence=ev) for ev, df in _single_lookups(d3l).items()], ignore_index=True
    )
    key = ["evidence", *PAIR]
    assert not got.duplicated(key).any()
    cols = [*key, "similarity"]
    pd.testing.assert_frame_equal(
        _sorted(got[cols], key), _sorted(expected[cols], key), check_exact=True
    )


def test_candidate_pairs_match_pandas_outer_merge(d3l):
    merged = None
    for ev, df in _single_lookups(d3l).items():
        sim = df["similarity"].to_numpy()
        d = np.clip(1.0 - sim, 0.0, 1.0) if ev == "e" else 1.0 - sim
        part = pd.DataFrame({"query_attr": df["query_attr"], "attr_id": df["attr_id"], f"d_{ev}": d})
        merged = part if merged is None else merged.merge(part, on=PAIR, how="outer")
    dists = ["d_n", "d_v", "d_f", "d_e"]
    expected = _cross_table(d3l.attrs.toPandas(), merged.fillna(1.0))

    tables = sorted(r["table"] for r in d3l.attrs.select("table").distinct().collect())
    got = d3l.candidate_pairs(tables).toPandas()
    joined = got.merge(expected[PAIR + dists], on=PAIR, how="left", suffixes=("", "_ref"))
    retrieved = joined["d_n_ref"].notna()
    # Every pair some index retrieved is a candidate, with its distances.
    assert retrieved.sum() == len(expected)
    for d in dists:
        np.testing.assert_array_equal(
            joined.loc[retrieved, d].to_numpy(), joined.loc[retrieved, f"{d}_ref"].to_numpy()
        )
    # The rest are Algorithm 2 guard-1 additions, which no index retrieved.
    assert (joined.loc[~retrieved, dists] == 1.0).all().all()


@pytest.mark.parametrize("lake", LAKES)
def test_aurum_edges_are_max_of_single_lookups(request, spark, lake):
    if lake == "clean":
        aurum = request.getfixturevalue("aurum_clean")
    else:
        aurum = Aurum.build(spark, request.getfixturevalue("noisy_cells"))
    kinds = {
        "name": ("jaccard", N_BANDS_JACCARD),
        "content": ("jaccard", N_BANDS_JACCARD),
        "tfidf": ("cosine", N_BANDS_COSINE),
    }
    q_attrs = aurum.attrs.select("attr_id")
    parts = []
    for ev, (kind, n_bands) in kinds.items():
        index = lsh.LshIndex.build(aurum.profile_sigs[ev], kind=kind, n_bands=n_bands)
        parts.append(index.lookup(q_attrs, min_similarity=EDGE_THRESHOLD).toPandas())
    best = pd.concat(parts).groupby(PAIR, as_index=False)["similarity"].max()
    expected = _cross_table(aurum.attrs.toPandas(), best)

    cols = [*PAIR, "q_table", "s_table", "similarity"]
    got = aurum.edges.toPandas()[cols]
    pd.testing.assert_frame_equal(
        _sorted(got, PAIR), _sorted(expected[cols], PAIR), check_exact=True
    )
    if lake == "noisy":
        aurum.unpersist()

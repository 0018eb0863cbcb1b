"""MinHash numpy kernel: estimator accuracy and invariants (no Spark)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import HashFamily, stable_hash64
from repro.core.minhash import estimate_jaccard, exact_jaccard, signature

FAM = HashFamily.create(256, seed=7)


def _hashes(items) -> np.ndarray:
    return np.array([stable_hash64(v) for v in items], dtype=np.uint64)


def _sig(items) -> np.ndarray:
    return signature(_hashes(sorted(items)), FAM)


class TestSignature:
    def test_length(self):
        assert _sig({"a", "b"}).shape == (256,)

    def test_deterministic(self):
        assert np.array_equal(_sig({"a", "b", "c"}), _sig({"a", "b", "c"}))

    def test_order_invariant(self):
        s1 = signature(_hashes(["a", "b", "c"]), FAM)
        s2 = signature(_hashes(["c", "a", "b"]), FAM)
        assert np.array_equal(s1, s2)

    def test_identical_sets_estimate_one(self):
        assert estimate_jaccard(_sig({"x", "y"}), _sig({"x", "y"})) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        a = {f"a{i}" for i in range(200)}
        b = {f"b{i}" for i in range(200)}
        assert estimate_jaccard(_sig(a), _sig(b)) < 0.05

    def test_empty_set_sentinel(self):
        s = signature(np.array([], dtype=np.uint64), FAM)
        assert np.all(s == np.iinfo(np.uint64).max)

    def test_singleton(self):
        s = _sig({"only"})
        assert len(np.unique(s)) > 1  # different perms, different values

    @pytest.mark.parametrize("overlap", [0, 25, 50, 75, 100])
    def test_estimate_tracks_exact(self, overlap):
        a = {f"x{i}" for i in range(100)}
        b = {f"x{i}" for i in range(100 - overlap, 200 - overlap)}
        est = estimate_jaccard(_sig(a), _sig(b))
        exact = exact_jaccard(a, b)
        assert abs(est - exact) < 0.12  # 256 perms => s.e. ~= 0.03

    @given(
        st.sets(st.integers(0, 500), min_size=1, max_size=80),
        st.sets(st.integers(0, 500), min_size=1, max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_within_bounds(self, xs, ys):
        a = {f"k{i}" for i in xs}
        b = {f"k{i}" for i in ys}
        est = estimate_jaccard(_sig(a), _sig(b))
        exact = exact_jaccard(a, b)
        assert 0.0 <= est <= 1.0
        assert abs(est - exact) < 0.25  # generous 4+ sigma bound


class TestExactJaccard:
    def test_identical(self):
        assert exact_jaccard({"a"}, {"a"}) == 1.0

    def test_disjoint(self):
        assert exact_jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert exact_jaccard(set(), set()) == 1.0

    def test_half(self):
        assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

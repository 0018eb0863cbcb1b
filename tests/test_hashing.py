"""Unit tests for the hashing substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import HashFamily, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("hello") == stable_hash64("hello")

    def test_different_inputs_differ(self):
        assert stable_hash64("hello") != stable_hash64("world")

    def test_empty_string_ok(self):
        assert isinstance(stable_hash64(""), int)

    def test_unsigned_64_bit_range(self):
        for s in ["a", "b", "qwerty", "日本語"]:
            h = stable_hash64(s)
            assert 0 <= h < 2**64

    @given(st.text(max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_process_independent_shape(self, s):
        h = stable_hash64(s)
        assert 0 <= h < 2**64


class TestHashFamily:
    def test_create_sizes(self):
        fam = HashFamily.create(128, seed=1)
        assert fam.n == 128
        assert fam.a.shape == (128,)
        assert fam.b.shape == (128,)

    def test_a_is_odd(self):
        fam = HashFamily.create(256, seed=2)
        assert np.all(fam.a % 2 == 1)

    def test_deterministic_in_seed(self):
        f1 = HashFamily.create(64, seed=3)
        f2 = HashFamily.create(64, seed=3)
        assert np.array_equal(f1.a, f2.a) and np.array_equal(f1.b, f2.b)

    def test_seeds_differ(self):
        f1 = HashFamily.create(64, seed=3)
        f2 = HashFamily.create(64, seed=4)
        assert not np.array_equal(f1.a, f2.a)

    def test_apply_shape(self):
        fam = HashFamily.create(16, seed=5)
        x = np.arange(10, dtype=np.uint64)
        out = fam.apply(x)
        assert out.shape == (10, 16)
        assert out.dtype == np.uint64

    def test_apply_deterministic(self):
        fam = HashFamily.create(8, seed=6)
        x = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(fam.apply(x), fam.apply(x))

    def test_distinct_elements_get_distinct_hashes_mostly(self):
        fam = HashFamily.create(1, seed=7)
        x = np.arange(1000, dtype=np.uint64)
        out = fam.apply(x)[:, 0]
        assert len(np.unique(out)) == 1000  # bijection per member


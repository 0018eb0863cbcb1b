"""Stable 64-bit hashing and universal hash families.

Everything downstream (MinHash signatures, LSH band keys, the synthetic
WEM's per-token noise) needs hashes that are (a) deterministic across
processes — Python's builtin ``hash`` is salted per process — and (b)
vectorisable. We use blake2b-derived 64-bit digests for strings on the
driver and ``xxhash64`` inside Spark (MinHash element hashes and band keys,
:mod:`repro.core.lsh`); the two never need to agree because each index is
built and queried through the same path.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def stable_hash64(value: str) -> int:
    """Deterministic unsigned 64-bit hash of a string (process-independent)."""
    return int.from_bytes(hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest(), "little")


@dataclass(frozen=True)
class HashFamily:
    """A family of ``n`` multiply-shift universal hashes h_i(x) = a_i*x + b_i mod 2^64.

    ``a`` is forced odd so each map is a bijection on Z_2^64 — the standard
    multiply-shift construction, adequate for MinHash in practice (accuracy
    is verified empirically in the tests rather than assumed).
    """

    a: np.ndarray  # (n,) uint64, odd
    b: np.ndarray  # (n,) uint64

    @property
    def n(self) -> int:
        return len(self.a)

    @staticmethod
    def create(n: int, seed: int) -> "HashFamily":
        rng = np.random.default_rng(seed)
        a = rng.integers(1, 1 << 63, size=n, dtype=np.uint64) * _U64(2) + _U64(1)
        b = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        return HashFamily(a=a, b=b)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Hash each element of ``x`` (uint64, shape (m,)) with every family
        member; returns shape (m, n) uint64."""
        x = np.asarray(x, dtype=np.uint64).reshape(-1, 1)
        with np.errstate(over="ignore"):
            return (x * self.a + self.b) & _MASK64


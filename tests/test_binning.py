"""Unit tests for key→bin assignment (§4.2)."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.binning import (
    bin_of_key,
    bin_of_keys,
    hash_keys,
    range_bin_bounds,
    range_bin_of_keys,
)

INT64 = np.iinfo(np.int64)


def reference_hash_keys(keys):
    """splitmix64 finaliser as plain (non in-place) NumPy expressions."""
    z = np.asarray(keys).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


class TestHashKeys:
    def test_deterministic(self):
        k = np.arange(100)
        assert np.array_equal(hash_keys(k), hash_keys(k))

    def test_spreads_bits(self):
        h = hash_keys(np.arange(10_000))
        # top byte should be roughly uniform
        top = (h >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        assert counts.min() > 0
        assert counts.max() < 5 * counts.mean()

    def test_dtype(self):
        assert hash_keys(np.arange(4)).dtype == np.uint64

    def test_matches_reference_on_1d(self):
        k = np.array([INT64.min, -(2**40), -1, 0, 1, 2**40, INT64.max])
        rand = np.random.default_rng(0).integers(INT64.min, INT64.max, 1000)
        k = np.concatenate([k, rand])
        assert np.array_equal(hash_keys(k), reference_hash_keys(k))

    def test_matches_reference_on_0d(self):
        for key in (INT64.min, -1, 0, 7, INT64.max):
            got = hash_keys(np.array(key))
            assert got.shape == ()
            assert got == reference_hash_keys(np.array(key))

    def test_empty(self):
        got = hash_keys(np.array([], dtype=np.int64))
        assert got.dtype == np.uint64 and got.shape == (0,)

    def test_does_not_modify_input(self):
        k = np.arange(5)
        hash_keys(k)
        assert np.array_equal(k, np.arange(5))

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hash_keys(np.array(INT64.max))
            hash_keys(np.array([INT64.min, -1, INT64.max]))
            bin_of_keys(np.array([INT64.min, INT64.max]), 1024)


class TestBinOfKeys:
    @pytest.mark.parametrize("n_bins", [1, 2, 16, 4096])
    def test_range(self, n_bins):
        b = bin_of_keys(np.arange(5000), n_bins)
        assert b.min() >= 0 and b.max() < n_bins

    def test_power_of_two_enforced(self):
        with pytest.raises(AssertionError):
            bin_of_keys(np.arange(4), 3)

    def test_static_equivalence_classes(self):
        k = np.arange(1000)
        assert np.array_equal(bin_of_keys(k, 64), bin_of_keys(k, 64))

    def test_uses_most_significant_bits(self):
        # keys sharing low bits (HashMap-collision-prone, footnote 2) must
        # still spread across bins
        k = np.arange(0, 1 << 20, 1 << 10)  # same low 10 bits
        bins = bin_of_keys(k, 64)
        assert len(np.unique(bins)) > 32

    @given(st.integers(1, 10))
    def test_balanced(self, log_bins):
        n_bins = 2**log_bins
        bins = bin_of_keys(np.arange(20_000), n_bins)
        counts = np.bincount(bins, minlength=n_bins)
        assert counts.max() < 4 * max(1.0, counts.mean())


class TestBinOfKey:
    @given(
        st.integers(int(INT64.min), int(INT64.max)),
        st.integers(0, 20),
    )
    def test_matches_vectorised(self, key, log_bins):
        n_bins = 2**log_bins
        assert bin_of_key(key, n_bins) == bin_of_keys(np.array([key]), n_bins)[0]

    @pytest.mark.parametrize("key", [int(INT64.min), -1, 0, int(INT64.max)])
    @pytest.mark.parametrize("n_bins", [1, 2, 1024, 2**20])
    def test_extremes(self, key, n_bins):
        assert bin_of_key(key, n_bins) == bin_of_keys(np.array([key]), n_bins)[0]

    def test_returns_python_int(self):
        assert type(bin_of_key(5, 64)) is int

    def test_power_of_two_enforced(self):
        with pytest.raises(AssertionError):
            bin_of_key(4, 3)


class TestRangeBinning:
    def test_bounds_partition_domain(self):
        domain, n_bins = 1000, 8
        covered = []
        for b in range(n_bins):
            lo, hi = range_bin_bounds(b, n_bins, domain)
            covered.extend(range(lo, hi))
        assert covered == list(range(domain))

    def test_bin_matches_bounds(self):
        domain, n_bins = 1 << 12, 16
        keys = np.arange(domain)
        bins = range_bin_of_keys(keys, n_bins, domain)
        for b in range(n_bins):
            lo, hi = range_bin_bounds(b, n_bins, domain)
            assert np.all(bins[lo:hi] == b)

    def test_non_divisible_domain(self):
        bins = range_bin_of_keys(np.arange(10), 4, 10)
        assert bins.max() <= 3

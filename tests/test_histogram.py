"""Unit tests for the log-binned latency histogram (§5 methodology)."""
import numpy as np

from repro.latency.histogram import LatencyHistogram, percentile_table


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.percentile(90) == 0.0
        assert h.max == 0.0
        assert h.total == 0

    def test_max_exact(self):
        h = LatencyHistogram()
        h.record(np.array([1e-3, 5e-3, 2e-3]))
        assert h.max == 5e-3

    def test_percentile_within_bin_resolution(self):
        h = LatencyHistogram()
        h.record(np.full(1000, 3e-3))
        p = h.percentile(90)
        assert 3e-3 <= p <= 3e-3 * 1.06

    def test_percentiles_monotone(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(0)
        h.record(rng.lognormal(-6, 1, 10_000))
        ps = [h.percentile(q) for q in [50, 90, 99, 99.9]]
        assert ps == sorted(ps)

    def test_percentile_capped_by_max(self):
        h = LatencyHistogram()
        h.record(np.array([1e-3]))
        assert h.percentile(99.99) <= h.max

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(np.array([1e-3] * 10))
        b.record(np.array([1e-1] * 10))
        a.merge(b)
        assert a.total == 20
        assert a.max == 1e-1

    def test_record_vectorised_total(self):
        h = LatencyHistogram()
        h.record(np.linspace(1e-4, 1e-2, 500))
        assert h.total == 500

    def test_ccdf_shape(self):
        h = LatencyHistogram()
        h.record(np.random.default_rng(1).uniform(1e-4, 1e-2, 2000))
        x, p = h.ccdf()
        assert len(x) == len(p)
        assert np.all(np.diff(x) > 0)
        # CCDF decreasing
        assert np.all(np.diff(p) <= 1e-12)

    def test_accuracy_against_numpy(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(2)
        vals = rng.exponential(2e-3, 50_000)
        h.record(vals)
        for q in [50, 90, 99]:
            ref = np.percentile(vals, q)
            got = h.percentile(q)
            assert ref * 0.9 <= got <= ref * 1.15, (q, ref, got)

    def test_percentile_table_units_ms(self):
        h = LatencyHistogram()
        h.record(np.full(100, 2e-3))
        row = percentile_table(h)
        assert set(row) == {"p90_ms", "p99_ms", "p9999_ms", "max_ms"}
        assert abs(row["max_ms"] - 2.0) < 1e-9


class TestSharedIndexRecording:
    """``record(values, *also)`` computes the bin index once and adds it to
    every histogram; the result must equal separate ``record`` calls."""

    BATCHES = [
        np.array([1e-7, 5e-8, 0.0, 1e-9]),  # at or below the 100 ns floor
        np.array([1e3, 2e3, 1e6]),  # at or above the 1000 s ceiling
        np.array([]),
        np.random.default_rng(3).lognormal(-6, 2, 500),
        np.array([2.5e-3]),
    ]

    def test_matches_separate_records(self):
        shared = [LatencyHistogram() for _ in range(3)]
        separate = [LatencyHistogram() for _ in range(3)]
        for i, vals in enumerate(self.BATCHES):
            # a window that opens late sees only the later batches
            open_ = shared[: 2 + (i >= 2)]
            open_[0].record(vals, *open_[1:])
            for h in separate[: len(open_)]:
                h.record(vals)
        for a, b in zip(shared, separate):
            assert np.array_equal(a.counts, b.counts)
            assert a.max == b.max
            assert a.total == b.total
        # the floor and overflow bins catch the out-of-range values
        assert shared[0].counts[0] == 4 and shared[0].counts[-1] == 2

    def test_empty_changes_nothing(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(np.array([]), b)
        assert a.total == b.total == 0 and a.max == b.max == 0.0
        assert not a.counts.any() and not b.counts.any()

"""Histogram correctness: percentiles vs numpy, merge, round trip."""

import numpy as np
import pytest

from repro.obs.histo import RATIO, Histogram, bucket_bounds, bucket_index


def _reference_samples(seed: int = 7, n: int = 5000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Lognormal spread resembling walk latencies: a tight body plus a
    # long tail spanning several octaves.
    return np.exp(rng.normal(loc=4.0, scale=0.6, size=n))


class TestBuckets:
    def test_index_and_bounds_agree(self):
        for value in (0.5, 1.0, 47.0, 1e6):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi

    def test_bucket_width_is_one_eighth_octave(self):
        lo, hi = bucket_bounds(16)
        assert hi / lo == pytest.approx(RATIO)

    def test_nonpositive_values_underflow(self):
        lo, hi = bucket_bounds(bucket_index(0.0))
        assert (lo, hi) == (0.0, 0.0)
        assert bucket_index(-3.0) == bucket_index(0.0)


class TestPercentilesVsNumpy:
    def test_within_one_bucket_of_numpy_linear(self):
        samples = _reference_samples()
        histogram = Histogram("walk_latency_cycles", unit="cycles")
        histogram.record_many(samples)
        for q in (50.0, 90.0, 95.0, 99.0):
            expected = float(np.percentile(samples, q))
            measured = histogram.percentile(q)
            # one geometric bucket is ~9% wide; that bounds the error
            assert measured == pytest.approx(expected, rel=RATIO - 1.0)

    def test_extremes_clamp_to_observed_min_max(self):
        samples = _reference_samples(seed=11, n=500)
        histogram = Histogram("h")
        histogram.record_many(samples)
        assert histogram.percentile(0.0) == pytest.approx(float(samples.min()))
        assert histogram.percentile(100.0) <= float(samples.max()) * RATIO

    def test_single_sample_is_exact(self):
        histogram = Histogram("h")
        histogram.record(123.0)
        assert histogram.percentile(50.0) == 123.0

    def test_empty_histogram_reports_zero(self):
        assert Histogram("h").percentile(99.0) == 0.0


class TestRecordCounts:
    def test_record_counts_equals_record_loop(self):
        rng = np.random.default_rng(3)
        # integer samples (walk cycles), a zero for the underflow
        # bucket, and a zero count that must record nothing
        samples = np.concatenate([rng.integers(20, 900, size=4000), [0]])
        values, counts = np.unique(samples, return_counts=True)
        looped = Histogram("walk_latency_cycles", unit="cycles")
        for value in samples.tolist():
            looped.record(value)
        batched = Histogram("walk_latency_cycles", unit="cycles")
        batched.record_counts(values.tolist() + [77], counts.tolist() + [0])
        assert batched.as_dict() == looped.as_dict()
        assert batched.counts == looped.counts

    def test_record_counts_accumulates_onto_prior_samples(self):
        looped = Histogram("h")
        batched = Histogram("h")
        for value in (5, 40, 40, 3):
            looped.record(value)
        batched.record(5)
        batched.record_counts([3, 40], [1, 2])
        assert batched.as_dict() == looped.as_dict()


class TestMergeAndSerialization:
    def test_merge_equals_recording_everything(self):
        samples = _reference_samples(seed=3, n=2000)
        whole = Histogram("h", unit="us")
        whole.record_many(samples)
        left, right = Histogram("h"), Histogram("h")
        left.record_many(samples[:700])
        right.record_many(samples[700:])
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        assert left.min == whole.min and left.max == whole.max
        for q in (50.0, 95.0, 99.0):
            assert left.percentile(q) == whole.percentile(q)

    def test_dict_round_trip(self):
        histogram = Histogram("h", unit="cycles")
        histogram.record_many([1.0, 10.0, 100.0, 1000.0, 0.0])
        doc = histogram.as_dict()
        rebuilt = Histogram.from_dict("h", doc)
        assert rebuilt.counts == histogram.counts
        assert rebuilt.count == histogram.count
        assert rebuilt.unit == "cycles"
        assert rebuilt.percentiles() == histogram.percentiles()

    def test_as_dict_is_json_safe_and_sorted(self):
        import json

        histogram = Histogram("h")
        histogram.record_many([5.0, 50.0, 0.0])
        doc = histogram.as_dict()
        json.dumps(doc)
        lows = [bucket[0] for bucket in doc["buckets"]]
        assert lows == sorted(lows)

    def test_mean_and_count_track_every_sample(self):
        histogram = Histogram("h")
        histogram.record_many([2.0, 4.0, 6.0])
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(4.0)

"""Tests for the one-way min-filter clock-offset estimator.

The math under test: every sample is ``receive - send = offset + latency``
with ``latency >= 0``, so the minimum sample over a run upper-bounds the
true offset by the smallest latency any message saw.  The estimator must
therefore only ever tighten (never loosen), track peers independently,
and translate worker clock readings by simple addition.
"""

from repro.observability import ClockOffsetEstimator


class TestObserve:
    def test_first_sample_is_the_estimate(self):
        est = ClockOffsetEstimator()
        assert est.observe(1, sent_mono=10.0, received_mono=12.5) == 2.5
        assert est.offset(1) == 2.5

    def test_minimum_sample_wins(self):
        """offset=2.0 with latencies 0.5, 0.25, 0.75 -> estimate 2.25."""
        est = ClockOffsetEstimator()
        est.observe(1, 10.0, 12.5)   # offset + 0.5
        est.observe(1, 20.0, 22.25)  # offset + 0.25  <- tightest
        est.observe(1, 30.0, 32.75)  # offset + 0.75
        assert est.offset(1) == 2.25

    def test_estimate_never_loosens(self):
        est = ClockOffsetEstimator()
        est.observe(1, 10.0, 12.25)
        loosened = est.observe(1, 20.0, 29.0)  # huge latency spike
        assert loosened == 2.25
        assert est.offset(1) == 2.25

    def test_negative_offsets_supported(self):
        """A worker whose clock is AHEAD of the master yields offset < 0."""
        est = ClockOffsetEstimator()
        est.observe(1, sent_mono=100.0, received_mono=97.5)
        assert est.offset(1) == -2.5

    def test_peers_are_independent(self):
        est = ClockOffsetEstimator()
        est.observe(1, 10.0, 12.0)
        est.observe(2, 10.0, 15.0)
        assert est.offset(1) == 2.0
        assert est.offset(2) == 5.0

    def test_sample_counts(self):
        est = ClockOffsetEstimator()
        assert est.samples(1) == 0
        est.observe(1, 10.0, 12.0)
        est.observe(1, 20.0, 22.0)
        assert est.samples(1) == 2
        assert est.samples(2) == 0


class TestCorrect:
    def test_unknown_peer_returns_none(self):
        est = ClockOffsetEstimator()
        assert est.offset(9) is None
        assert est.correct(9, 50.0) is None

    def test_translation_is_additive(self):
        est = ClockOffsetEstimator()
        est.observe(1, 10.0, 12.0)
        assert est.correct(1, 50.0) == 52.0

    def test_round_trip_recovers_master_time(self):
        """Zero-latency samples recover master timestamps exactly."""
        true_offset = 3.25
        est = ClockOffsetEstimator()
        for worker_time in (5.0, 6.0, 7.0):
            est.observe(1, worker_time, worker_time + true_offset)
        # An event stamped at worker time w happened at master time
        # w + true_offset; the estimator must reproduce it.
        assert est.correct(1, 8.5) == 8.5 + true_offset

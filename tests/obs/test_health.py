"""Sweep health telemetry: straggler detection."""

import pytest

from repro.obs.health import StragglerDetector


# ----------------------------------------------------------------------
# StragglerDetector
# ----------------------------------------------------------------------
def test_detector_silent_before_min_samples():
    detector = StragglerDetector(k=4.0, min_samples=3)
    detector.record(1.0)
    detector.record(1.0)
    assert detector.median is None
    assert detector.horizon is None
    assert detector.check({0: 100.0}) == []


def test_detector_flags_past_k_times_median():
    detector = StragglerDetector(k=4.0, min_samples=3)
    for seconds in (1.0, 2.0, 3.0):
        detector.record(seconds)
    assert detector.median == pytest.approx(2.0)
    assert detector.horizon == pytest.approx(8.0)
    assert detector.check({"slow": 8.5, "fine": 7.5}) == ["slow"]


def test_detector_flags_each_key_once():
    detector = StragglerDetector(k=2.0, min_samples=1)
    detector.record(1.0)
    assert detector.check({7: 5.0}) == [7]
    assert detector.check({7: 6.0}) == []  # already called out
    assert detector.check({8: 6.0}) == [8]


def test_detector_rejects_non_multiplier_k():
    with pytest.raises(ValueError, match="exceed 1.0"):
        StragglerDetector(k=1.0)


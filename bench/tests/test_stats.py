import pytest

from bench.stats import spread, summarize, tail_percentile, timing_summary


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, None), (39, None),   # p75 needs 40 samples
    (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_summary_reports_p50_and_supported_tail():
    small = timing_summary(range(19))
    assert small["n"] == 19 and small["p50"] == 9 and small["tail"] is None
    big = timing_summary(range(1, 101))
    assert big["p50"] == 50.5
    assert big["tail"] == {"percentile": 90.0, "value": 90.0}


def test_summarize_and_spread():
    s = summarize([10.0, 11.0, 12.0, 13.0, 14.0])
    assert (s["n"], s["median"]) == (5, 12.0)
    assert s["q1"] < s["median"] < s["q3"]
    assert spread(s) == pytest.approx((s["q3"] - s["q1"]) / 12.0)
    one = summarize([3.0])
    assert (one["q1"], one["q3"], spread(one)) == (3.0, 3.0, 0.0)

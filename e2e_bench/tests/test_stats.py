import pytest

import stats


def test_median_and_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert stats.percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_pct(39) is None
    assert stats.tail_pct(40) == 75
    assert stats.tail_pct(100) == 90
    assert stats.tail_pct(200) == 95
    assert stats.tail_pct(1000) == 99


def test_summarize_reports_count_median_and_tail():
    samples = [float(i) for i in range(1, 101)]
    summary = stats.summarize(samples)
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["tail_pct"] == 90
    assert summary["tail"] == pytest.approx(stats.percentile(samples, 90))


def test_summarize_without_samples_or_tail():
    assert stats.summarize([]) == {"count": 0, "p50": None, "tail_pct": None, "tail": None}
    assert stats.summarize([1.0, 2.0])["tail"] is None


def test_pct_if_supported():
    assert stats.pct_if_supported([1.0] * 99, 90) is None
    assert stats.pct_if_supported([1.0] * 100, 90) == 1.0

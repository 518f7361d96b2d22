"""The ">= 10 samples beyond" rule and the per-metric summary."""

import stats


def test_ten_samples_beyond_rule():
    assert not stats.supported(99, 90)      # 9.9 samples beyond p90
    assert stats.supported(100, 90)
    assert not stats.supported(199, 95)
    assert stats.supported(200, 95)
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)


def test_summary_is_median_with_min_and_max():
    s = stats.summary([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3}
    assert stats.summary([1.0, 2.0])["median"] == 1.5

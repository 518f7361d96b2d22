"""Filter-ratio accounting tests."""

import numpy as np
import pytest

from repro.core.metrics import FilterStats


def test_no_filtering_full_k_ratio():
    """All keys scored + all retrieved -> ratio 2N / (N + 2N) = 2/3... the
    definition: sparse still wins when k << N."""
    stats = FilterStats(1, 1)
    stats.update(0, 0, candidates=100, passed=100, retrieved=100)
    assert np.isclose(stats.filter_ratio, 200 / 300)


def test_paper_consistency_sparsity():
    """Section 5.4: 12.4x filter ratio ~= 91.9% sparsity."""
    stats = FilterStats(1, 1)
    # Construct pass/retrieve counts giving ratio ~12.4.
    stats.update(0, 0, candidates=12400, passed=1500, retrieved=250)
    assert np.isclose(stats.filter_ratio, 24800 / 2000)
    assert np.isclose(stats.sparsity, 1 - 2000 / 24800)


def test_empty_stats_ratio_one():
    stats = FilterStats(2, 2)
    assert stats.filter_ratio == 1.0
    assert stats.sparsity == 0.0
    assert stats.pass_rate == 1.0


def test_per_head_ratio_isolated():
    stats = FilterStats(2, 2)
    stats.update(0, 0, candidates=100, passed=10, retrieved=5)
    ratios = stats.per_head_filter_ratio
    assert ratios.shape == (2, 2)
    assert np.isclose(ratios[0, 0], 200 / 20)
    assert ratios[1, 1] == 1.0  # unused heads report neutral ratio


def test_validation():
    stats = FilterStats(1, 1)
    with pytest.raises(ValueError):
        stats.update(0, 0, candidates=5, passed=6, retrieved=0)
    with pytest.raises(ValueError):
        stats.update(0, 0, candidates=5, passed=2, retrieved=3)


def test_pass_rate():
    stats = FilterStats(1, 1)
    stats.update(0, 0, candidates=100, passed=25, retrieved=10)
    assert np.isclose(stats.pass_rate, 0.25)

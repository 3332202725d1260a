"""Percentiles and the sample-count rule."""

import pytest

from layers import tail_ms
from stats import MIN_BEYOND, min_samples, percentile, quartile_spread, samples_beyond


def test_p99_needs_a_thousand_samples():
    assert min_samples(0.99) == 1000
    assert samples_beyond(1000, 0.99) == MIN_BEYOND
    assert samples_beyond(999, 0.99) < MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 0.99) == 990
    assert percentile(values, 0.50) == 500
    assert percentile([3.0, 1.0, 2.0], 0.50) == 2.0


def test_thin_tail_is_refused():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)


def test_tail_ms_reads_zero_without_enough_samples():
    assert tail_ms(list(range(999)), 0.99) == 0.0
    assert tail_ms([], 0.50) == 0.0
    assert tail_ms(list(range(1, 1001)), 0.99) == 990


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)

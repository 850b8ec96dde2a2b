"""The statistics the noise rules allow."""

import pytest

from perfbench import stats


def test_fast_half_mean_drops_the_slow_half():
    # Eight rounds, three of them hit by a slow burst: the fast half is
    # untouched by how slow the slow ones were.
    quiet = [0.100, 0.101, 0.102, 0.103, 0.104]
    assert stats.fast_half_mean(quiet + [0.150, 0.160, 0.300]) \
        == pytest.approx(sum(quiet[:4]) / 4)
    assert stats.fast_half_mean(quiet + [0.950, 0.960, 0.990]) \
        == pytest.approx(sum(quiet[:4]) / 4)


def test_fast_half_mean_of_few_values_and_of_none():
    assert stats.fast_half_mean([4.0]) == 4.0
    assert stats.fast_half_mean([9.0, 1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        stats.fast_half_mean([])


@pytest.mark.parametrize("n, expected", [
    (10, 50.0),      # nothing beyond any tail percentile
    (40, 75.0),      # 10 samples beyond p75
    (100, 90.0),     # 10 beyond p90, only 5 beyond p95
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_supported_tail_needs_ten_samples_beyond(n, expected):
    p, value, count = stats.supported_tail(list(range(n)))
    assert (p, count) == (expected, n)
    assert value == pytest.approx((n - 1) * p / 100.0)


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([5.0], 99) == 5.0


def test_spread_is_iqr_over_median_and_zero_for_constants():
    assert stats.spread([1.0] * 8) == 0.0
    assert stats.spread([0.0] * 8) == 0.0
    values = [98, 99, 100, 100, 100, 101, 102, 110]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_slope():
    assert stats.slope([0, 1, 2, 3], [5, 7, 9, 11]) == pytest.approx(2.0)
    assert stats.slope([1], [1]) == 0.0
    assert stats.slope([2, 2], [1, 3]) == 0.0

import statistics

import pytest

from spread import relative_spread, seed_list


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert relative_spread([5.0] * 10) == 0.0


def test_seed_list_is_inclusive():
    assert seed_list("1-10") == list(range(1, 11))
    assert seed_list("97") == [97]

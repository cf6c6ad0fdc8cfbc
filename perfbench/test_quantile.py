"""The Harrell-Davis quantile estimate behind the latency metrics.

    python3 -m pytest -q perfbench/test_quantile.py
"""

from __future__ import annotations

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from quantile import beta_cdf, harrell_davis  # noqa: E402


def test_beta_cdf_matches_closed_forms():
    # I_x(1, 1) = x; I_x(2, 3) = 6x^2 - 8x^3 + 3x^4.
    for x in (0.1, 0.4, 0.75, 0.95):
        assert beta_cdf(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert beta_cdf(2, 3, x) == pytest.approx(
            6 * x**2 - 8 * x**3 + 3 * x**4, abs=1e-12)


@pytest.mark.parametrize("n,p", [(3, 0.9), (112, 0.5), (130, 0.9)])
def test_weights_sum_to_one(n, p):
    assert harrell_davis([2.5] * n, p) == pytest.approx(2.5, abs=1e-9)


def test_close_to_the_interpolated_quantile():
    values = list(range(1, 102))
    assert harrell_davis(values, 0.5) == pytest.approx(51.0, abs=1e-9)
    assert harrell_davis(values, 0.9) == pytest.approx(
        statistics.quantiles(values, n=10)[8], abs=0.5)
    assert harrell_davis([3.0, 1.0, 2.0], 0.9) <= 3.0

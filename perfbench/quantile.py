"""Harrell-Davis quantile estimates, standard library only.

The latency quantiles of a run are taken over one time per distinct call.
The usual estimate interpolates between the two order statistics next to
the quantile, so near the tail of a run's ~120 calls it follows the noise
of one or two single calls.  The Harrell-Davis estimate is a weighted mean
of every order statistic, with Beta(p(n+1), (1-p)(n+1)) weights that
concentrate around the quantile; it estimates the same quantile with less
run-to-run spread (Harrell and Davis, Biometrika 69, 1982).
"""

from __future__ import annotations

import math


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        num_even = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        num_odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        for num in (num_even, num_odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))

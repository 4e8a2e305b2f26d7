"""Reference regularized lower incomplete gamma: the per-element scalar loops
for P(s, x), kept as the oracle the package's float and array loops are
pinned to, bit for bit, the radius table the ball sampler once built from
them one grid point at a time, and the chi-square quantile's bisection."""

import math

import numpy as np


def lower_gamma_series(s: float, x: float) -> float:
    """P(s,x) by power series; converges fast for x < s + 1."""
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(10000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def upper_gamma_cf(s: float, x: float) -> float:
    """Q(s,x) by Lentz continued fraction; converges fast for x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0, 0 <= x < inf."""
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return lower_gamma_series(s, x)
    return 1.0 - upper_gamma_cf(s, x)


def chi_ball_cdf(k: int, eps: float):
    """(grid, cdf): the chi_k radius CDF on 4097 points of [0, eps], one
    scalar call per grid point."""
    grid = np.linspace(0.0, eps, 4097)
    cdf = np.array([reg_lower_gamma(0.5 * k, 0.5 * t * t) if t > 0 else 0.0 for t in grid])
    return grid, cdf


def chi_square_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF by bisection, one scalar CDF call per halving."""
    hi = k + 20.0 * math.sqrt(k) + 40.0
    while reg_lower_gamma(0.5 * k, 0.5 * hi) < p:
        hi *= 2.0
    lo = 0.0
    mid = 0.5 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = reg_lower_gamma(0.5 * k, 0.5 * mid)
        if abs(c - p) <= 1e-9:
            break
        if c < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return mid

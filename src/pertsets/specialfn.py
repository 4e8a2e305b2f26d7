"""Special functions backing the certification math.

Everything here runs in 64-bit floats regardless of what the network side
uses: these values feed bound computations where 1e-3 of slack matters.
Lambert W takes a float or an array and iterates every element at once.
The regularized lower incomplete gamma takes a float, which runs one scalar
loop, or an array, which runs elementwise loops with the same bits. The
normal and chi-square functions are scalar, and the binomial bounds work on
arrays over the outcomes of one binomial.
Implementations are self-contained (no scipy at runtime) so the test suite
can use library routines as genuinely independent oracles.
"""

import math

import numpy as np

_INV_E = math.exp(-1.0)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Lambert W


def _lambert_start(x: np.ndarray, branch: str) -> np.ndarray:
    """Initial iterates: branch-point series near -1/e, asymptotic forms elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # series around the branch point w(-1/e) = -1, p = +/- sqrt(2(ex+1))
        p = np.sqrt(2.0 * (math.e * x + 1.0))
        if branch == "lower":
            p = -p
        series = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
        l1 = np.log(np.abs(x))
        if branch == "lower":
            # x in [-0.25, 0): w -> -inf as x -> 0-, use log asymptotics
            l2 = np.log(-l1)
            far = l1 - l2 + l2 / l1
        else:
            # first terms of the Taylor series at 0 below 1, log asymptotics above
            far = np.where(x < 1.0, x * (1.0 - x), np.where(l1 > 1.0, l1 - np.log(l1), l1))
    return np.where(x < -0.25, series, far)


def lambert_w(x, branch: str = "principal"):
    """Solve w * exp(w) = x on the requested real branch, elementwise.

    branch "principal" (W0, w >= -1) accepts x >= -1/e; branch "lower"
    (W-1, w <= -1) accepts -1/e <= x < 0. x is a float or an array of any
    shape (a float gives a float, an array an array of its shape). One Halley
    loop runs over every element from a branch-aware start, and each element
    stops on its own one step after |w*exp(w) - x| <= 1e-13 |x|, a relative
    residual that holds down to the smallest normal |x|: the residual test
    passes roots thousands of ulp off, and the one further step brings them
    to within a few ulp.
    """
    if branch not in ("principal", "lower"):
        raise ValueError(f"unknown branch {branch!r}")
    shape = np.shape(x)
    # a flat copy: numpy computes on 0-d arrays as scalars, whose rounding
    # can differ from its array loops
    x = np.array(x, dtype=np.float64).reshape(-1)
    below = x < -_INV_E
    if below.any():
        bad = x < -_INV_E - 1e-12
        if bad.any():
            raise ValueError(f"lambert_w domain: x={float(x[bad][0])} < -1/e")
        x[below] = -_INV_E
    if branch == "lower" and (x >= 0.0).any():
        raise ValueError(f"lower branch domain: x={float(x[x >= 0.0][0])} not in [-1/e, 0)")

    w = _lambert_start(x, branch)
    w[x == -_INV_E] = -1.0
    w[x == 0.0] = 0.0
    # the elements still iterating: index, iterate and argument
    idx = np.flatnonzero((x != -_INV_E) & (x != 0.0))
    wi, xi = w[idx], x[idx]
    # a zero Halley denominator (a subnormal x on the lower branch) raises
    # FloatingPointError rather than return a wrong root
    with np.errstate(divide="raise"):
        for _ in range(100):
            if not idx.size:
                break
            ew = np.exp(wi)
            f = wi * ew - xi
            done = np.abs(f) <= 1e-13 * np.abs(xi)
            wp1 = wi + 1.0
            denom = ew * wp1 - (wi + 2.0) * f / (2.0 * wp1)
            wi = wi - f / denom
            # keep the iterates on their branch
            if branch == "principal":
                wi[wi < -1.0] = -1.0 + 1e-12
            else:
                wi[wi > -1.0] = -1.0 - 1e-12
            if done.any():
                w[idx[done]] = wi[done]
                left = ~done
                idx, wi, xi = idx[left], wi[left], xi[left]
    w[idx] = wi
    return float(w[0]) if shape == () else w.reshape(shape)


# ---------------------------------------------------------------------------
# Standard normal


def std_normal_cdf(x: float) -> float:
    """Phi(x), accurate in both tails via erfc."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def _normal_quantile_approx(p: float) -> float:
    """Rational approximation (Acklam), |error| ~ 1e-9, for p in (0, 0.5]."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Rational start plus Newton refinement; round-trips through the CDF to
    ~1e-12 for |result| <= 6 and respects quantile(1-p) == -quantile(p).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile domain: p={p} not in (0, 1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -std_normal_quantile(1.0 - p)
    x = _normal_quantile_approx(p)
    for _ in range(3):
        err = std_normal_cdf(x) - p
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        if pdf == 0.0:
            break
        x -= err / pdf
    return x


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma and the chi-square family


def _lower_gamma_series(s: float, x):
    """sum_n x^n / (s (s+1) ... (s+n)), the series behind P(s, x); converges
    fast for x < s + 1. x is a float, or an array whose elements each stop
    at their own term."""
    if isinstance(x, float):
        term = total = 1.0 / s
        denom = s
        for _ in range(10000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total
    total = np.full(x.shape, 1.0 / s)
    # the elements still summing: index, argument, last term and sum
    idx, xi, term, acc = np.arange(x.size), x, total.copy(), total.copy()
    denom = s
    for _ in range(10000):
        if not idx.size:
            break
        denom += 1.0
        term *= xi / denom
        acc += term
        done = np.abs(term) < np.abs(acc) * 1e-16
        if done.any():
            total[idx[done]] = acc[done]
            left = ~done
            idx, xi, term, acc = idx[left], xi[left], term[left], acc[left]
    total[idx] = acc
    return total


def _upper_gamma_cf(s: float, x):
    """Lentz continued fraction for Q(s, x) before its prefactor; converges
    fast for x >= s + 1. x is a float, or an array whose elements each stop
    at their own step."""
    tiny = 1e-300
    b = x + 1.0 - s
    if isinstance(x, float):
        c, d = 1.0 / tiny, 1.0 / b
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
        return h
    h = 1.0 / b
    # the elements still iterating: index, b, c, d and the running product
    idx, c, d, hi = np.arange(x.size), np.full(x.shape, 1.0 / tiny), h, h.copy()
    for i in range(1, 10000):
        if not idx.size:
            break
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        hi = hi * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            h[idx[done]] = hi[done]
            left = ~done
            idx, b, c, d, hi = idx[left], b[left], c[left], d[left], hi[left]
    h[idx] = hi
    return h


def reg_lower_gamma(s: float, x):
    """Regularized lower incomplete gamma P(s, x) for finite s > 0, x >= 0.

    x is a float or an array of any shape (a float gives a float, an array
    an array of its shape). The power series (x < s + 1) and the Lentz
    continued fraction (otherwise) run as one scalar loop on a float, and
    as elementwise loops on an array, where each element stops on its own;
    both give the same bits. The prefactor exp(-x + s ln x - lgamma(s)) is
    taken per element through `math`, whose exp and log can round
    differently from numpy's vector loops. P(s, inf) is 1.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"gamma shape s must be finite and positive, got {s}")
    if np.shape(x) == ():
        x = float(x)
        if math.isnan(x):
            raise ValueError("gamma argument x must not be NaN")
        if x < 0.0:
            raise ValueError(f"gamma argument x must be >= 0, got {x}")
        if x == 0.0 or x == math.inf:
            return 0.0 if x == 0.0 else 1.0
        pre = math.exp(-x + s * math.log(x) - math.lgamma(s))
        if x < s + 1.0:
            return _lower_gamma_series(s, x) * pre
        return 1.0 - _upper_gamma_cf(s, x) * pre
    shape = np.shape(x)
    x = np.array(x, dtype=np.float64).reshape(-1)
    if np.isnan(x).any():
        raise ValueError("gamma argument x must not be NaN")
    if (x < 0.0).any():
        raise ValueError(f"gamma argument x must be >= 0, got {float(x[x < 0.0][0])}")
    out = np.where(x == math.inf, 1.0, 0.0)
    lg = math.lgamma(s)
    series = (x > 0.0) & (x < s + 1.0)
    if series.any():
        xs = x[series]
        out[series] = [t * math.exp(-v + s * math.log(v) - lg)
                       for t, v in zip(_lower_gamma_series(s, xs).tolist(), xs.tolist())]
    frac = (x >= s + 1.0) & (x < math.inf)
    if frac.any():
        xs = x[frac]
        out[frac] = [1.0 - h * math.exp(-v + s * math.log(v) - lg)
                     for h, v in zip(_upper_gamma_cf(s, xs).tolist(), xs.tolist())]
    return out.reshape(shape)


def chi_square_cdf(x: float, k: int) -> float:
    """CDF of the chi-square distribution with k degrees of freedom."""
    if k <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {k}")
    if x <= 0.0:
        return 0.0
    return reg_lower_gamma(0.5 * k, 0.5 * x)


def chi_square_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF by bisection, one CDF call per halving, until
    the CDF is within 1e-9 of p or the bracket is resolved to 1e-15 of hi.

    Monotone, and checked against scipy for k up to 784, the widest latent
    the package trains (the mnist-linf profile); `bounds` asks it for
    k = 784 there.
    """
    if k <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {k}")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile domain: p={p} not in (0, 1)")
    hi = k + 20.0 * math.sqrt(k) + 40.0
    while chi_square_cdf(hi, k) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = chi_square_cdf(mid, k)
        if abs(c - p) <= 1e-9:
            break
        if c < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return mid


# ---------------------------------------------------------------------------
# Exact binomial machinery


def _log_binom_table(n: int):
    """(n, outcomes 0..n as floats, log C(n, i) over them): the part of the
    Binomial(n, p) log pmf that does not depend on p."""
    i = np.arange(n + 1, dtype=np.float64)
    lg = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1, dtype=np.float64)))))
    return n, i, lg[n] - lg - lg[::-1]


def _log_binom_pmf(table, p: float) -> np.ndarray:
    """log pmf of Binomial(n, p) over the outcomes of a _log_binom_table(n)."""
    n, i, log_nck = table
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = i * (np.log(p) if p > 0 else -np.inf)
        lq = (n - i) * (np.log1p(-p) if p < 1 else -np.inf)
    out = log_nck + np.where(i == 0, 0.0, lp) + np.where(i == n, 0.0, lq)
    return out


def clopper_pearson_lower(successes: int, trials: int, confidence: float) -> float:
    """Exact one-sided lower confidence bound for a binomial proportion.

    Solves P(Binomial(trials, p) >= successes) = 1 - confidence for p.
    Returns 0 when successes == 0. For successes == trials the solution is
    (1 - confidence)**(1/trials).
    """
    if not 0 <= successes <= trials or trials <= 0:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    if successes == trials:
        return alpha ** (1.0 / trials)
    # the outcomes i >= successes of the table: P(Binomial(trials, mid) >=
    # successes) is their pmf, summed in log space. i, n - i and log C(n, i)
    # do not depend on mid; mid stays in (0, 1) and i >= 1, so both logs are
    # finite and no outcome needs _log_binom_pmf's guards: at i = n the
    # (n - i) term is -0.0, which leaves every sum as the guard's 0.0 does
    n, i, log_nck = _log_binom_table(trials)
    i, log_nck = i[successes:], log_nck[successes:]
    n_i = n - i
    lp, lq = np.empty_like(i), np.empty_like(i)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        np.multiply(i, np.log(mid), out=lp)
        lp += log_nck
        lp += np.multiply(n_i, np.log1p(-mid), out=lq)
        m = lp.max()
        lp -= m
        if float(np.exp(m) * np.exp(lp, out=lp).sum()) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def binom_two_sided_pvalue(successes: int, trials: int, p: float) -> float:
    """Two-sided exact binomial test p-value, minimum-likelihood convention.

    Sums the probability of every outcome whose pmf does not exceed the pmf
    of the observed count (with the customary 1+1e-7 relative guard against
    float ties). Matches R's binom.test.
    """
    if not 0 <= successes <= trials or trials <= 0:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"null proportion must be in [0, 1], got {p}")
    lp = _log_binom_pmf(_log_binom_table(trials), p)
    cut = lp[successes] + math.log1p(1e-7)
    keep = lp[lp <= cut]
    m = keep.max()
    return float(min(1.0, np.exp(m) * np.exp(keep - m).sum()))

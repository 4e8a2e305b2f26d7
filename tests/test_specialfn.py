"""Oracle tests for the special functions.

Expected values here were produced by the independent oracles defined in this
file (bisection solvers, Monte Carlo, exhaustive pmf sums) and then frozen.
scipy serves as a second, library-grade oracle where it implements the same
object; the production code never imports it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps
from scipy import stats as sstats

import refbinom
import refgamma
from pertsets.specialfn import (
    binom_two_sided_pvalue,
    chi_square_cdf,
    chi_square_quantile,
    clopper_pearson_lower,
    lambert_w,
    reg_lower_gamma,
    std_normal_cdf,
    std_normal_quantile,
)


# ---------------------------------------------------------------------------
# Oracles


def bisect_lambert(x, branch, lo, hi, tol=1e-14):
    """Solve w*exp(w) = x by bisection on a bracket known to contain the root."""
    f = lambda w: w * math.exp(w) - x
    assert f(lo) * f(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def bisect_beta_quantile(p, a, b):
    """Inverse regularized incomplete beta via bisection on scipy's betainc."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sps.betainc(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Lambert W


def test_lambert_principal_at_one():
    # bisection oracle on [0, 1]: w e^w = 1
    oracle = bisect_lambert(1.0, "principal", 0.0, 1.0)
    assert abs(oracle - 0.5671432904097838) < 1e-12  # frozen oracle output
    assert abs(lambert_w(1.0) - oracle) < 1e-12


def test_lambert_both_branches_at_minus_tenth():
    w0 = bisect_lambert(-0.1, "principal", -1.0, 0.0)
    wm1 = bisect_lambert(-0.1, "lower", -10.0, -1.0)
    assert abs(w0 - (-0.11183255915896297)) < 1e-12
    assert abs(wm1 - (-3.5771520639572962)) < 1e-11
    assert abs(lambert_w(-0.1, "principal") - w0) < 1e-12
    assert abs(lambert_w(-0.1, "lower") - wm1) < 1e-11


def test_lambert_branch_point():
    assert lambert_w(-math.exp(-1.0)) == -1.0
    assert lambert_w(-math.exp(-1.0), "lower") == -1.0


def test_lambert_residual_on_domain():
    # spec-level residual invariant on the usage domain [-1/e, 0) plus the
    # moderate positive range for the principal branch
    rng = np.random.default_rng(7)
    inv_e = math.exp(-1.0)
    for x in rng.uniform(-inv_e, -1e-12, size=10000):
        w = lambert_w(x, "lower")
        assert abs(w * math.exp(w) - x) <= 1e-12
        assert w <= -1.0
    xs = np.concatenate([rng.uniform(-inv_e, -1e-12, 5000), rng.uniform(0.0, 10.0, 5000)])
    for x in xs:
        w = lambert_w(x, "principal")
        assert abs(w * math.exp(w) - x) <= 1e-12
        assert w >= -1.0


def test_lambert_matches_scipy():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-math.exp(-1.0) + 1e-9, 5.0, size=200):
        assert lambert_w(x) == pytest.approx(sps.lambertw(x).real, abs=1e-12)
    for x in rng.uniform(-math.exp(-1.0) + 1e-9, -1e-6, size=200):
        assert lambert_w(x, "lower") == pytest.approx(sps.lambertw(x, -1).real, abs=1e-10)


@pytest.mark.parametrize("branch,k", [("principal", 0), ("lower", -1)])
def test_lambert_within_32_ulp_of_scipy_on_lemma3_arguments(branch, k):
    # the arguments -e^-(K+1) that Lemma 3 solves, over K in [0.01, 0.1] and
    # [1, 60]; scipy is within 6 ulp of a 40-digit reference there, and a
    # root that stopped on the residual test alone could be thousands off
    K = np.concatenate([np.linspace(0.01, 0.1, 1000), np.linspace(1.0, 60.0, 3000)])
    x = -np.exp(-(K + 1.0))
    want = sps.lambertw(x, k).real
    ulps = np.abs(lambert_w(x, branch) - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 32


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w(-0.4)
    with pytest.raises(ValueError):
        lambert_w(0.1, "lower")
    with pytest.raises(ValueError):
        lambert_w(1.0, "upper")


# ---------------------------------------------------------------------------
# Standard normal


def test_normal_cdf_known_points():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert std_normal_cdf(-8.0) == pytest.approx(sstats.norm.cdf(-8.0), rel=1e-12)


def test_normal_quantile_unanimity_point():
    # value frozen from the Newton-on-CDF oracle; scipy.stats.norm.ppf agrees
    assert std_normal_quantile(0.9993095) == pytest.approx(3.1985929631, abs=1e-6)
    assert std_normal_quantile(0.9993095) == pytest.approx(sstats.norm.ppf(0.9993095), abs=1e-9)


def test_normal_roundtrip_and_symmetry():
    # For x > 0 the CDF value sits next to 1.0 where float64 rounding alone
    # moves the quantile by up to ~2e-16/pdf(x); allow exactly that floor.
    for x in np.linspace(-6.0, 6.0, 241):
        p = std_normal_cdf(x)
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        tol = 1e-9 if x <= 0 else max(1e-9, 2.3e-16 / pdf)
        assert abs(std_normal_quantile(p) - x) <= tol
    for p in np.linspace(1e-6, 0.5, 100):
        assert std_normal_quantile(1.0 - p) == pytest.approx(-std_normal_quantile(p), abs=1e-9)


@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
@settings(max_examples=200, deadline=None)
def test_normal_quantile_matches_scipy(p):
    assert std_normal_quantile(p) == pytest.approx(sstats.norm.ppf(p), abs=1e-8)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


# ---------------------------------------------------------------------------
# Chi-square


def test_chi_square_quantile_closed_form_k2():
    # k=2 is exponential: quantile(p) = -2 ln(1-p)
    assert chi_square_quantile(0.9, 2) == pytest.approx(-2.0 * math.log(0.1), abs=1e-7)
    assert chi_square_quantile(0.99, 2) == pytest.approx(-2.0 * math.log(0.01), abs=1e-7)


def test_chi_square_quantile_k1_normal_symmetry():
    # P(chi2_1 <= 1) = 2 Phi(1) - 1
    p = 2.0 * std_normal_cdf(1.0) - 1.0
    assert chi_square_quantile(p, 1) == pytest.approx(1.0, abs=1e-3)


def test_chi_square_quantile_k128_against_mc_median():
    rng = np.random.default_rng(1234)
    draws = rng.chisquare(128, size=1_000_000)
    mc_median = float(np.median(draws))
    q = chi_square_quantile(0.5, 128)
    assert abs(q - mc_median) / mc_median < 0.01


def test_chi_square_against_scipy():
    for k in (1, 2, 5, 32, 128, 512, 784):
        for p in (0.01, 0.5, 0.9, 0.99, 0.999):
            assert chi_square_quantile(p, k) == pytest.approx(
                sstats.chi2.ppf(p, k), rel=1e-6
            )
    for k in (1, 3, 64, 512, 784):
        for x in (0.5, float(k), 2.0 * k):
            assert chi_square_cdf(x, k) == pytest.approx(sstats.chi2.cdf(x, k), abs=1e-10)


def test_reg_lower_gamma_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = float(rng.uniform(0.1, 300.0))
        x = float(rng.uniform(0.0, 2.0 * s + 10.0))
        assert reg_lower_gamma(s, x) == pytest.approx(sps.gammainc(s, x), abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 392.0),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.floats(1.0, 1e6))
def test_reg_lower_gamma_array_matches_the_scalar_reference(s, fractions, far):
    # zero, both sides of the series / continued-fraction switch at s + 1,
    # the switch itself, and large x: every element of the array call and
    # every float call gets the bits of the reference loops, so the array
    # and float loops cannot drift apart; a float gets a float
    edge = s + 1.0
    xs = np.array([0.0, np.nextafter(edge, 0.0), edge, far * edge, 1e300]
                  + [f * edge for f in fractions] + [(1.0 + 2.0 * f) * edge for f in fractions])
    got = reg_lower_gamma(s, xs)
    want = np.array([refgamma.reg_lower_gamma(s, float(x)) for x in xs])
    assert got.tobytes() == want.tobytes()
    assert reg_lower_gamma(s, xs.reshape(1, -1)).shape == (1, xs.size)
    for x, element, ref in zip(xs.tolist(), got.tolist(), want.tolist()):
        value = reg_lower_gamma(s, x)
        assert type(value) is float and value == element == ref, x


def test_reg_lower_gamma_is_one_at_infinity():
    assert reg_lower_gamma(4.0, math.inf) == 1.0
    got = reg_lower_gamma(4.0, np.array([0.0, 4.0, math.inf]))
    assert got[0] == 0.0 and 0.0 < got[1] < 1.0 and got[2] == 1.0
    assert chi_square_cdf(math.inf, 3) == 1.0


@pytest.mark.parametrize("s,x,name", [
    (4.0, math.nan, "x"), (4.0, np.array([1.0, math.nan]), "x"),
    (4.0, -1.0, "x"), (4.0, np.array([1.0, -1.0]), "x"),
    (math.nan, 1.0, "s"), (math.inf, np.array([1.0]), "s"), (0.0, 1.0, "s"),
])
def test_reg_lower_gamma_domain_errors(s, x, name):
    with pytest.raises(ValueError, match=f"gamma (shape|argument) {name} "):
        reg_lower_gamma(s, x)


def test_chi_square_quantile_cdf_residual():
    for k in (1, 2, 7, 64, 512, 784):
        for p in (0.001, 0.05, 0.5, 0.95, 0.9999):
            q = chi_square_quantile(p, k)
            assert abs(chi_square_cdf(q, k) - p) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 8, 128, 784])
def test_chi_square_quantile_matches_one_call_per_halving(k):
    # the quantile returns the bits of the reference bisection, which takes
    # one scalar CDF call per halving
    for p in (1e-12, 0.001, 0.05, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-9):
        assert chi_square_quantile(p, k) == refgamma.chi_square_quantile(p, k), (k, p)


def test_chi_square_domain_errors():
    with pytest.raises(ValueError):
        chi_square_quantile(0.5, 0)
    with pytest.raises(ValueError):
        chi_square_quantile(1.0, 3)


# ---------------------------------------------------------------------------
# Clopper-Pearson


def test_clopper_pearson_unanimous_closed_form():
    assert clopper_pearson_lower(10000, 10000, 0.999) == pytest.approx(
        0.001 ** (1.0 / 10000), abs=1e-12
    )
    assert clopper_pearson_lower(10000, 10000, 0.999) == pytest.approx(0.99930945, abs=1e-7)


def test_clopper_pearson_against_beta_bisection():
    # lower bound == BetaInv(1-confidence; k, n-k+1)
    for k, n, conf in [(7, 10, 0.95), (1, 10, 0.95), (50, 100, 0.999), (9999, 10000, 0.999)]:
        oracle = bisect_beta_quantile(1.0 - conf, k, n - k + 1)
        assert clopper_pearson_lower(k, n, conf) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 50, 256, 2000, 10000])
def test_clopper_pearson_equals_the_guarded_loop_bit_for_bit(n):
    # the loop with i, n - i and log C(n, i) hoisted and no guards gives the
    # bits of the one that evaluates the guarded log pmf at every halving
    rng = np.random.default_rng(n)
    ks = sorted({1, n // 2, n - 1, n, *(int(k) for k in rng.integers(1, n + 1, size=8))})
    for conf in (0.95, 0.99, 0.999):
        for k in ks:
            assert clopper_pearson_lower(k, n, conf) == refbinom.clopper_pearson_lower(k, n, conf)


def test_clopper_pearson_zero_and_monotone():
    assert clopper_pearson_lower(0, 50, 0.999) == 0.0
    vals = [clopper_pearson_lower(k, 50, 0.99) for k in range(51)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # higher confidence -> smaller bound
    assert clopper_pearson_lower(40, 50, 0.999) < clopper_pearson_lower(40, 50, 0.9)


def test_clopper_pearson_coverage():
    # simulated coverage: the bound undershoots the true p in >= 99.8% of draws
    rng = np.random.default_rng(99)
    n = 200
    misses = 0
    trials = 10000
    for _ in range(trials):
        p = rng.uniform(0.05, 0.95)
        k = rng.binomial(n, p)
        if clopper_pearson_lower(int(k), n, 0.999) > p:
            misses += 1
    assert misses / trials <= 0.002


def rebuilt_log_binom_pmf(n, p):
    # reference log pmf that builds its own log C(n, i) table on every call
    i = np.arange(n + 1, dtype=np.float64)
    lg = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1, dtype=np.float64)))))
    log_nck = lg[n] - lg - lg[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = i * (np.log(p) if p > 0 else -np.inf)
        lq = (n - i) * (np.log1p(-p) if p < 1 else -np.inf)
    return log_nck + np.where(i == 0, 0.0, lp) + np.where(i == n, 0.0, lq)


def rebuilt_clopper_pearson_lower(k, n, confidence):
    alpha = 1.0 - confidence
    if k == 0:
        return 0.0
    if k == n:
        return alpha ** (1.0 / n)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lp = rebuilt_log_binom_pmf(n, mid)[k:]
        m = lp.max()
        if float(np.exp(m) * np.exp(lp - m).sum()) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 256, 2000, 10000])
def test_binomial_table_built_once_gives_the_same_bits(n):
    # the log C(n, i) table is built once per call; every bound and p-value
    # equals the one from a table rebuilt at each bisection step
    ks = sorted({0, 1, n // 3, n // 2, (9 * n) // 10, n - 1, n})
    for conf in (0.999, 0.95):
        for k in ks:
            assert clopper_pearson_lower(k, n, conf) == rebuilt_clopper_pearson_lower(k, n, conf)
    for k in ks:
        for p in (0.1, 0.5, 0.9):
            lp = rebuilt_log_binom_pmf(n, p)
            keep = lp[lp <= lp[k] + math.log1p(1e-7)]
            want = float(min(1.0, np.exp(keep.max()) * np.exp(keep - keep.max()).sum()))
            assert binom_two_sided_pvalue(k, n, p) == want


# ---------------------------------------------------------------------------
# Two-sided binomial test


def exhaustive_minlike_pvalue(k, n, p):
    pmf = sstats.binom.pmf(np.arange(n + 1), n, p)
    return min(1.0, float(pmf[pmf <= pmf[k] * (1 + 1e-7)].sum()))


def test_binom_pvalue_against_exhaustive_oracle():
    oracle = exhaustive_minlike_pvalue(60, 100, 0.5)
    assert abs(oracle - 0.056887933) < 1e-8  # frozen oracle output
    assert binom_two_sided_pvalue(60, 100, 0.5) == pytest.approx(oracle, rel=1e-10)
    for k, n, p in [(3, 10, 0.5), (0, 10, 0.5), (10, 10, 0.5), (17, 40, 0.3), (55, 101, 0.5)]:
        assert binom_two_sided_pvalue(k, n, p) == pytest.approx(
            exhaustive_minlike_pvalue(k, n, p), rel=1e-10
        )


def test_binom_pvalue_edge_cases():
    assert binom_two_sided_pvalue(20, 20, 0.5) == pytest.approx(2.0 * 0.5 ** 20, rel=1e-12)
    assert binom_two_sided_pvalue(50, 100, 0.5) == 1.0


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_binom_pvalue_in_unit_interval(n):
    rng = np.random.default_rng(n)
    k = int(rng.integers(0, n + 1))
    v = binom_two_sided_pvalue(k, n, 0.5)
    assert 0.0 < v <= 1.0

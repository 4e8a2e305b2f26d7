"""Tests for the guarantee calculators and threshold measurement."""

import math
import sys
import warnings

import numpy as np
import pytest

from pertsets.cvae import CvaeModel
from pertsets.specialfn import lambert_w
from pertsets.theory import (
    LN_2PI,
    ObjectiveEstimate,
    TheoryBounds,
    estimate_R_K,
    lemma3_interval,
    mahalanobis_radius,
    theorem1_bounds,
    theorem2_bound,
)

M, K_DIM, HID = 6, 2, 8


def bisect_x_minus_lnx(target, lo, hi):
    """Solve x - ln x = target on a bracket, independent of lambert_w."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid - math.log(mid) - target) * (lo - math.log(lo) - target) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Mahalanobis radius


def test_mahalanobis_radius_chi2_closed_form():
    # chi^2 with 2 dof: quantile(1 - alpha) = -2 ln(alpha)
    got = mahalanobis_radius(2, 0.1)
    assert math.isclose(got, math.sqrt(-2.0 * math.log(0.1)), rel_tol=1e-9)
    assert math.isclose(got, 2.1460, rel_tol=1e-4)


def test_mahalanobis_radius_normal_symmetry():
    # P(|Z| <= 1) = 0.6827 for a single dimension
    assert abs(mahalanobis_radius(1, 0.3173) - 1.0) <= 1e-3


def test_mahalanobis_radius_monotone_in_k():
    vals = [mahalanobis_radius(k, 0.05) for k in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mahalanobis_radius_domain():
    # 1 - alpha rounds to 1 at and below 2^-54: rejected up front, naming alpha
    for alpha in (0.0, 1.0, -0.2, 1.5, 1e-17, 2.0 ** -54):
        with pytest.raises(ValueError, match="^alpha must be in"):
            mahalanobis_radius(3, alpha)


# ---------------------------------------------------------------------------
# Variance-ratio intervals


def test_lemma3_collapses_at_zero():
    a, b = lemma3_interval(0.0)
    assert abs(a - 1.0) <= 1e-6 and abs(b - 1.0) <= 1e-6
    assert a <= 1.0 <= b


def test_lemma3_endpoints_solve_equation():
    a, b = lemma3_interval(1.0)
    assert abs(a - math.log(a) - 2.0) <= 1e-10
    assert abs(b - math.log(b) - 2.0) <= 1e-10
    assert math.isclose(a, bisect_x_minus_lnx(2.0, 1e-6, 1.0), rel_tol=1e-9)
    assert math.isclose(b, bisect_x_minus_lnx(2.0, 1.0, 10.0), rel_tol=1e-9)


def test_lemma3_monotone_and_bracketing():
    prev_a, prev_b = 1.0, 1.0
    for K in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        a, b = lemma3_interval(K)
        assert a <= 1.0 <= b
        assert a < prev_a and b > prev_b
        # interior points satisfy the defining inequality
        for x in (a, 0.5 * (a + b), b):
            assert x - math.log(x) <= K + 1.0 + 1e-9
        prev_a, prev_b = a, b


@pytest.mark.parametrize("K", [0.5, 5.0, 15.0, 20.0, 28.0, 100.0, 700.0])
def test_lemma3_endpoints_relative_accuracy(K):
    # where e^-(K+1) is far below 1, an absolute stopping rule in lambert_w
    # would accept any iterate; both endpoints must still solve the equation
    a, b = lemma3_interval(K)
    assert math.isclose(a - math.log(a), K + 1.0, rel_tol=1e-12)
    assert math.isclose(b - math.log(b), K + 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("K", [744.0, 745.0, 800.0, 1e4])
def test_lemma3_past_underflow(K):
    # e^-(K+1) is subnormal or 0 here; a collapses to 0 and H to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = lemma3_interval(K)
        got = theorem1_bounds([ObjectiveEstimate(R=-10.0, K=np.array([K, 1.0]), m=4)])[0]
    assert a == 0.0
    assert math.isclose(b - math.log(b), K + 1.0, rel_tol=1e-12)
    assert math.isfinite(got.eps)
    assert got.ln_h == math.inf
    assert theorem2_bound(got) == math.inf


def test_lemma3_domain():
    with pytest.raises(ValueError):
        lemma3_interval(-0.1)


# ---------------------------------------------------------------------------
# Array forms against the scalar code they replaced


_INV_E = math.exp(-1.0)


def scalar_lambert_w(x, branch):
    """lambert_w's Halley iteration one element at a time, as it ran before
    it took arrays, with its one step past the residual test."""
    x = float(x)
    if x < -_INV_E:
        x = -_INV_E
    if x == -_INV_E:
        return -1.0
    if x == 0.0:
        return 0.0
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        if branch == "lower":
            p = -p
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif branch == "lower":
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    elif x < 1.0:
        w = x * (1.0 - x)
    else:
        l1 = math.log(x)
        w = l1 - math.log(l1) if l1 > 1.0 else l1
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        done = abs(f) <= 1e-13 * abs(x)
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if branch == "principal" and w < -1.0:
            w = -1.0 + 1e-12
        if branch == "lower" and w > -1.0:
            w = -1.0 - 1e-12
        if done:
            break
    return w


def scalar_lemma3_interval(K):
    """The per-dimension Lemma-3 interval before it took arrays."""
    arg = -math.exp(-(K + 1.0))
    if -arg < sys.float_info.min:
        b = K + 1.0
        for _ in range(10):
            b = K + 1.0 + math.log(b)
        return 0.0, b
    return (min(-scalar_lambert_w(arg, "principal"), 1.0),
            max(-scalar_lambert_w(arg, "lower"), 1.0))


def lemma3_ks():
    # K = 0, a normal K too small to move K + 1, the working range, both
    # sides of the subnormal boundary, far past it, and random draws
    rng = np.random.default_rng(17)
    return np.concatenate([[0.0, 1e-300], np.linspace(0.01, 50.0, 500),
                           np.linspace(700.0, 745.0, 181), [5000.0],
                           rng.exponential(3.0, 500), 10.0 ** rng.uniform(-6, 2.5, 500)])


def w_tolerance(x, w):
    """4 ulp of w plus 4 ulp of x carried through W'(x) = 1/(e^w (1 + w)):
    the rounding in exp, which numpy and libm do differently, moves an
    iterate by that much, and W' grows without bound at the branch point."""
    x, w = np.asarray(x), np.asarray(w)
    with np.errstate(divide="ignore"):
        slope = np.abs(1.0 / (np.exp(w) * (1.0 + w)))
    return 4.0 * (np.spacing(np.abs(w)) + np.spacing(np.abs(x)) * slope)


@pytest.mark.parametrize("branch", ["principal", "lower"])
def test_lambert_array_matches_scalar_code(branch):
    ks = lemma3_ks()
    x = -np.exp(-(ks + 1.0))
    x = x[-x >= sys.float_info.min]
    if branch == "principal":
        x = np.concatenate([x, np.random.default_rng(18).uniform(0.0, 50.0, 500), [1.0, math.e]])
    got = lambert_w(x, branch)
    want = np.array([scalar_lambert_w(v, branch) for v in x])
    assert got.shape == x.shape and got.dtype == np.float64
    assert (np.abs(got - want) <= w_tolerance(x, want)).all()
    # well away from the branch point the tolerance is 4 ulp of w alone
    far = x > -0.3
    assert (np.abs(got - want)[far] <= 4 * np.spacing(np.abs(want[far]))).all()
    # a float gives a float, equal to its element of the array; any shape goes
    assert all(type(lambert_w(float(v), branch)) is float
               and lambert_w(float(v), branch) == g for v, g in zip(x[::50], got[::50]))
    assert np.array_equal(lambert_w(x[:24].reshape(2, 3, 4), branch), got[:24].reshape(2, 3, 4))


def test_lemma3_array_matches_scalar_code():
    ks = lemma3_ks()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = lemma3_interval(ks)
        a2, b2 = lemma3_interval(ks.reshape(1, -1))
    want = np.array([scalar_lemma3_interval(k) for k in ks])
    assert np.array_equal(a2[0], a) and np.array_equal(b2[0], b)
    arg = -np.exp(-(ks + 1.0))
    for got, ref, branch in ((a, want[:, 0], "principal"), (b, want[:, 1], "lower")):
        # the tolerance of the W the endpoint was taken from
        w = np.array([scalar_lambert_w(v, branch) if -v >= sys.float_info.min else 0.0
                      for v in arg])
        assert (np.abs(got - ref) <= w_tolerance(arg, w) + 4 * np.spacing(ref)).all()
    assert a[0] == b[0] == 1.0                          # K = 0
    past = -arg < sys.float_info.min
    assert past.sum() >= 2 and (a[past] == 0.0).all()   # 745 and 5000 at least
    assert (np.abs(b - want[:, 1])[past] <= 4 * np.spacing(want[past, 1])).all()
    assert all(type(v) is float for v in lemma3_interval(1.0))


def test_lemma3_and_lambert_arrays_raise_the_scalar_errors():
    for K in (-0.1, -5.0):
        with pytest.raises(ValueError) as scalar:
            lemma3_interval(K)
        with pytest.raises(ValueError) as array:
            lemma3_interval(np.array([[1.0, 2.0], [K, 3.0]]))
        assert str(array.value) == str(scalar.value)
    for x, branch in ((-0.4, "principal"), (0.1, "lower"), (0.0, "lower")):
        with pytest.raises(ValueError) as scalar:
            lambert_w(x, branch)
        with pytest.raises(ValueError) as array:
            lambert_w(np.array([-0.2, x, -0.1]), branch)
        assert str(array.value) == str(scalar.value)
    with pytest.raises(ValueError, match="unknown branch"):
        lambert_w(np.array([0.5]), "upper")
    # the smallest subnormal zeroes a Halley denominator on the lower branch:
    # an error, as the scalar code's float division was, not a wrong root
    for x in (-5e-324, np.array([-0.1, -5e-324])):
        with pytest.raises(ArithmeticError):
            lambert_w(x, "lower")


# ---------------------------------------------------------------------------
# Theorem 1


def test_theorem1_degenerate_case():
    m = 20
    est = ObjectiveEstimate(R=-0.5 * m * LN_2PI, K=np.zeros(3), m=m)
    got = theorem1_bounds([est], alpha=0.05)[0]
    assert math.isclose(got.eps, got.r, rel_tol=1e-9)
    assert got.delta_sse == 0.0 and got.delta_per_pixel == 0.0
    assert math.isclose(got.B, 1.0, abs_tol=1e-6)
    assert got.ln_h <= 1e-6 and math.isclose(math.exp(got.ln_h), 1.0, abs_tol=1e-5)


def test_theorem1_composed_oracle():
    # k=1 with K=1, alpha chosen so r=1: eps = sqrt(b) + 1, delta = 1/(1-alpha)
    alpha = 1.0 - 0.6826894921370859
    m = 10
    est = ObjectiveEstimate(R=-0.5 * m * LN_2PI - 0.5, K=np.array([1.0]), m=m)
    got = theorem1_bounds([est], alpha=alpha)[0]
    assert abs(got.r - 1.0) <= 1e-6
    b = bisect_x_minus_lnx(2.0, 1.0, 10.0)
    assert math.isclose(got.eps, math.sqrt(b) * got.r + 1.0, rel_tol=1e-6)
    assert math.isclose(got.delta_sse, 1.0 / (1.0 - alpha), rel_tol=1e-9)
    assert math.isclose(got.delta_per_pixel, got.delta_sse / m, rel_tol=1e-12)


def test_theorem1_delta_linear_in_gap():
    m = 8
    gaps = np.array([0.5, 1.0, 2.0, 4.0])
    deltas = []
    for g in gaps:
        est = ObjectiveEstimate(R=-0.5 * (m * LN_2PI + g), K=np.zeros(2), m=m)
        deltas.append(theorem1_bounds([est], alpha=0.01)[0].delta_sse)
    deltas = np.array(deltas)
    np.testing.assert_allclose(deltas / gaps, deltas[0] / gaps[0], rtol=1e-9)


def test_theorem1_invariants_on_grid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        est = ObjectiveEstimate(R=-0.5 * 12 * LN_2PI - rng.uniform(0, 50),
                                K=rng.uniform(0, 4, k), m=12)
        got = theorem1_bounds([est], alpha=float(rng.uniform(0.001, 0.5)))[0]
        assert got.eps >= got.r - 1e-12
        assert got.delta_sse >= 0.0
        a, b = lemma3_interval(est.K)
        assert (a <= 1.0 + 1e-12).all() and (b >= 1.0 - 1e-12).all()
        assert got.ln_h >= -1e-12
        assert got.B >= 1.0 - 1e-9


def test_theorem1_batch_equals_single_calls():
    # a stage's estimates bounded together give each one the bits it gets
    # alone, whatever the batch: zeros, the working range, past underflow
    rng = np.random.default_rng(21)
    k = 7
    ests = [ObjectiveEstimate(R=-0.5 * 12 * LN_2PI - rng.uniform(0, 50), K=K, m=12)
            for K in [np.zeros(k), np.full(k, 1.0), np.r_[800.0, np.zeros(k - 1)],
                      np.r_[720.0, 600.0, rng.uniform(0, 4, k - 2)]]
            + [rng.exponential(2.0, k) for _ in range(12)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = theorem1_bounds(ests, alpha=0.02)
        single = [theorem1_bounds([est], alpha=0.02)[0] for est in ests]
        halves = theorem1_bounds(ests[:5], alpha=0.02) + theorem1_bounds(ests[5:], alpha=0.02)
    assert len(batch) == len(ests)
    for got, alone, half in zip(batch, single, halves):
        for other in (alone, half):
            for field in ("r", "alpha", "eps", "delta_sse", "delta_per_pixel", "B", "ln_h"):
                assert np.float64(getattr(got, field)).tobytes() == \
                    np.float64(getattr(other, field)).tobytes(), field
    assert batch[2].ln_h == math.inf and math.isfinite(batch[0].ln_h)


def test_theorem1_ln_h_adds_dimensions_left_to_right():
    # ln H is a running sum over the dimensions in order, at the paper's
    # width as at small ones
    rng = np.random.default_rng(22)
    for k in (3, 784):
        est = ObjectiveEstimate(R=-900.0, K=rng.exponential(2.0, k), m=784)
        got = theorem1_bounds([est], alpha=0.01)[0]
        a, b = lemma3_interval(est.K)
        r, K = got.r, est.K
        terms = 0.5 * np.log(b) + np.maximum((b - 1.0) * r * r - K,
                                             ((1.0 - a) * r * r + 2.0 * r * np.sqrt(K) + K) / a)
        running = 0.0
        for t in terms.tolist():
            running += t
        assert got.ln_h == running


def test_theorem1_takes_one_latent_width():
    with pytest.raises(ValueError):
        theorem1_bounds([])
    with pytest.raises(ValueError):
        theorem1_bounds([ObjectiveEstimate(R=-1.0, K=np.zeros(2), m=3),
                         ObjectiveEstimate(R=-1.0, K=np.zeros(3), m=3)])


# ---------------------------------------------------------------------------
# Theorem 2


def test_theorem2_equals_delta_without_kl():
    # H = 1 when every K_i is 0, so the log bound is ln delta
    est = ObjectiveEstimate(R=-0.5 * 9 * LN_2PI - 2.0, K=np.zeros(4), m=9)
    t1 = theorem1_bounds([est], alpha=0.02)[0]
    assert math.isclose(theorem2_bound(t1), math.log(t1.delta_sse), rel_tol=1e-6)


def test_theorem2_hand_composed_oracle():
    alpha = 1.0 - 0.6826894921370859      # r = 1 in one dimension
    m = 10
    est = ObjectiveEstimate(R=-0.5 * m * LN_2PI - 0.5, K=np.array([1.0]), m=m)
    a = bisect_x_minus_lnx(2.0, 1e-6, 1.0)
    b = bisect_x_minus_lnx(2.0, 1.0, 10.0)
    r = 1.0
    c1 = (b - 1.0) * r * r - 1.0
    c2 = ((1.0 - a) * r * r + 2.0 * r + 1.0) / a
    want = (1.0 / (1.0 - alpha)) * math.sqrt(b) * math.exp(max(c1, c2))
    t1 = theorem1_bounds([est], alpha=alpha)[0]
    # r carries the quantile solver tolerance into the exponent
    assert math.isclose(theorem2_bound(t1), math.log(want), rel_tol=1e-6)


def test_theorem2_never_below_delta():
    rng = np.random.default_rng(1)
    for _ in range(15):
        k = int(rng.integers(1, 5))
        est = ObjectiveEstimate(R=-0.5 * 7 * LN_2PI - rng.uniform(0.1, 20),
                                K=rng.uniform(0, 3, k), m=7)
        alpha = float(rng.uniform(0.01, 0.3))
        t1 = theorem1_bounds([est], alpha)[0]
        assert theorem2_bound(t1) >= math.log(t1.delta_sse) - 1e-12


def test_theorem2_overflow_reports_ln_scale():
    est = ObjectiveEstimate(R=-0.5 * 4 * LN_2PI - 1.0,
                            K=np.array([600.0, 600.0]), m=4)
    t1 = theorem1_bounds([est], alpha=0.01)[0]
    # H itself is past float64 range; its log, and the bound's, are not
    assert math.log(sys.float_info.max) < t1.ln_h < math.inf
    assert theorem2_bound(t1) == math.log(t1.delta_sse) + t1.ln_h


@pytest.mark.parametrize("delta, ln_h, want", [
    (0.0, 3.0, -math.inf), (0.0, math.inf, -math.inf), (2.0, math.inf, math.inf),
    (2.0, 1e9, math.log(2.0) + 1e9)])
def test_theorem2_log_bound_at_its_edges(delta, ln_h, want):
    # delta = 0 is a zero bound, whatever H is; an infinite H an infinite one
    tb = TheoryBounds(r=1.0, alpha=0.01, eps=2.0, delta_sse=delta, delta_per_pixel=delta / 4,
                      B=1.5, ln_h=ln_h)
    assert theorem2_bound(tb) == want


def test_objective_estimate_validation():
    with pytest.raises(ValueError):
        ObjectiveEstimate(R=0.0, K=np.array([-0.5]), m=3)
    with pytest.raises(ValueError):
        ObjectiveEstimate(R=0.0, K=np.zeros((2, 2)), m=3)
    est = ObjectiveEstimate(R=0.0, K=np.array([-1e-9, 0.2]), m=3)
    assert (est.K >= 0).all() and est.K.size == 2


# ---------------------------------------------------------------------------
# Threshold measurement


def zeroed_model(bq=None, bp=None):
    model = CvaeModel(M, K_DIM, HID, rng=np.random.default_rng(0))
    for name in list(model.params.values):
        model.params.values[name][:] = 0.0
    if bq is not None:
        model.params.values["posterior_mean/b0"][:] = bq
    if bp is not None:
        model.params.values["prior_mean/b0"][:] = bp
    return model


def one_pair(fill=None, seed=2):
    rng = np.random.default_rng(seed)
    if fill is None:
        x = rng.uniform(0, 1, (1, M)).astype(np.float32)
        y = rng.uniform(0, 1, (1, M)).astype(np.float32)
    else:
        x = y = np.full((1, M), fill, dtype=np.float32)
    return x, y


def estimate(model, x, y, rng, samples=64):
    """estimate_R_K on one pair, its rows encoded as a one-row block."""
    return estimate_R_K(model, x, model.encode_posterior(x, y), model.condition(y), rng,
                        samples=samples)


def test_estimate_k_zero_when_heads_tie():
    model = zeroed_model()
    est = estimate(model, *one_pair(), np.random.default_rng(0), samples=8)
    np.testing.assert_allclose(est.K, 0.0, atol=1e-12)


def test_estimate_r_at_perfect_reconstruction():
    # constant decoder emits 0.5 exactly; a 0.5-valued pair has zero SSE
    model = zeroed_model()
    est = estimate(model, *one_pair(fill=0.5), np.random.default_rng(0))
    assert math.isclose(est.R, -0.5 * M * LN_2PI, rel_tol=1e-12)


@pytest.mark.parametrize("m,k,hidden", [(256, 8, 128), (784, 784, 784), (64, 16, 64)])
def test_estimate_through_condition_equals_raw_rows(m, k, hidden):
    # estimate_R_K decodes against y's Condition and reads its prior; that
    # gives the bits of the prior encoded from y's raw row and of the decode
    # through the decoder's projection of that row
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    x, y = (rng.uniform(0, 1, (1, m)).astype(np.float32) for _ in range(2))
    est = estimate(model, x, y, np.random.default_rng(3), samples=64)
    q, p = model.encode_posterior(x, y), model.encode_prior(y)
    noise = np.random.default_rng(3).standard_normal((64, k)).astype(np.float32)
    out = model.decoder.apply(model.params, [np.asarray(q.mean) + q.std() * noise],
                              proj=model.decoder.project(model.params, y))
    diff = out.astype(np.float64) - x
    R = float(np.mean(-0.5 * np.sum(diff * diff, axis=1))) - 0.5 * m * LN_2PI
    ratio = (q.std()[0].astype(np.float64) / p.std()[0]) ** 2
    gap = (np.asarray(q.mean[0], dtype=np.float64) - np.asarray(p.mean[0])) ** 2
    K = np.maximum(ratio + gap / p.var()[0] - 1.0 - np.log(ratio), 0.0)
    assert est.R == R and est.K.tobytes() == K.tobytes()


def test_estimate_is_the_same_from_any_block_of_two_or_more_rows():
    # bounds encodes its pairs in blocks and hands each pair its rows; at
    # smoke widths a pair's R and K do not depend on how many rows its block
    # encode took (2, 7 or 256; one row is numpy's gemv path and may differ)
    m, k, hidden, n = 256, 8, 128, 256
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x, y = (rng.uniform(0, 1, (n, m)).astype(np.float32) for _ in range(2))
    seeds = np.random.SeedSequence(9).spawn(n)
    got = {}
    for block in (2, 7, 256):
        got[block] = []
        for lo in range(0, n, block):
            xb, yb = x[lo:lo + block], y[lo:lo + block]
            q, cond = model.encode_posterior(xb, yb), model.condition(yb)
            for j in range(len(xb)):
                one = slice(j, j + 1)
                est = estimate_R_K(model, xb[one], q.rows(one), cond.rows(one),
                                   np.random.default_rng(seeds[lo + j]), samples=16)
                got[block].append((est.R, est.K.tobytes()))
    assert got[2] == got[7] == got[256]
    # a decode against one row's Condition broadcasts that row: the bytes of
    # decoding against the row repeated once per latent
    cond = model.condition(y)
    z = rng.standard_normal((16, k)).astype(np.float32)
    for i in (0, 5, n - 1):
        want = model.decode(z, cond.rows(np.full(16, i)))
        assert model.decode(z, cond.rows(slice(i, i + 1))).tobytes() == want.tobytes()


def test_estimate_r_matches_high_sample_oracle():
    model = CvaeModel(M, K_DIM, HID, rng=np.random.default_rng(3))
    x, y = one_pair(seed=4)
    est = estimate(model, x, y, np.random.default_rng(5), samples=64)

    # independent high-sample recomputation straight from the model
    rng = np.random.default_rng(6)
    q = model.encode_posterior(x, y)
    z = np.asarray(q.mean, dtype=np.float64) + q.std() * rng.standard_normal((10_000, K_DIM))
    out = model.decoder.apply(model.params, [z, np.repeat(y, 10_000, axis=0)])
    half_sse = 0.5 * np.sum((out - x[0].astype(np.float64)) ** 2, axis=1)
    oracle = float(np.mean(-half_sse)) - 0.5 * M * LN_2PI
    se64 = float(np.std(half_sse)) / math.sqrt(64)
    assert abs(est.R - oracle) <= 2.0 * se64

    # K matches the closed form computed by hand from the heads
    p = model.encode_prior(y)
    ratio = (q.std()[0].astype(np.float64) / p.std()[0]) ** 2
    gap = (np.asarray(q.mean[0], dtype=np.float64) - np.asarray(p.mean[0])) ** 2
    want_K = ratio + gap / p.var()[0] - 1.0 - np.log(ratio)
    np.testing.assert_allclose(est.K, want_K, rtol=1e-12)
    # un-halved convention: sum K equals exactly twice the KL
    from pertsets.cvae import kl_diag
    kl = float(np.asarray(kl_diag(q, p))[0])
    assert math.isclose(est.K.sum(), 2.0 * kl, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# Expectation-vs-max demonstration


def delta_a_demo(a: float, eps: float, rng: np.random.Generator = None,
                 samples: int = 200_000) -> tuple:
    """Tent function of height a and half-width 1/a^2 at the origin: its max
    over any ball |z| <= eps is a, while E_{N(0,1)} stays below 1/a. Low
    expected error therefore never bounds the worst case in the set."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if rng is None:
        rng = np.random.default_rng()
    z = rng.standard_normal(samples)
    mc = float(np.mean(a * np.clip(1.0 - a * a * np.abs(z), 0.0, 1.0)))
    return a, mc


def test_delta_a_demo_peak_and_expectation():
    mx, mc = delta_a_demo(10.0, 1.0, rng=np.random.default_rng(7))
    assert mx == 10.0
    assert mc <= 0.1 + 0.01


def test_delta_a_demo_zero_radius():
    mx, _ = delta_a_demo(5.0, 0.0, rng=np.random.default_rng(8))
    assert mx == 5.0


def test_delta_a_demo_unbounded_max_vanishing_mean():
    rng = np.random.default_rng(9)
    maxes, means = [], []
    for a in (10.0, 100.0, 1000.0):
        mx, mc = delta_a_demo(a, 1.0, rng=rng)
        maxes.append(mx)
        means.append(mc)
        assert mc <= 1.0 / a + 0.05
    assert maxes == [10.0, 100.0, 1000.0]
    assert means[-1] < 0.01


def test_delta_a_demo_domain():
    with pytest.raises(ValueError):
        delta_a_demo(0.0, 1.0)
    with pytest.raises(ValueError):
        delta_a_demo(1.0, -1.0)

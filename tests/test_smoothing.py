"""Tests for vote counting, certification and the noise back-solve."""

import math
import tracemalloc

import numpy as np
import pytest

from pertsets.cvae import CvaeModel
from pertsets.robust import Classifier, clean_train_epoch
from pertsets.smoothing import (
    ABSTAIN,
    certify,
    noise_train_epoch,
    sample_under_noise,
    sigma_for_radius,
)
from pertsets.specialfn import clopper_pearson_lower, std_normal_cdf, std_normal_quantile

M, K = 4, 2


def rand_model(seed=0, m=M, k=K):
    return CvaeModel(m, k, 6, rng=np.random.default_rng(seed))


def rand_clf(seed=1, m=M, n_classes=3):
    return Classifier(m, n_classes, (8,), rng=np.random.default_rng(seed))


def const_clf(cls, m=M, n_classes=3):
    h = Classifier(m, n_classes, (), rng=np.random.default_rng(2))
    h.params.values["classifier/w0"][:] = 0.0
    h.params.values["classifier/b0"][:] = 0.0
    h.params.values["classifier/b0"][cls] = 1.0
    return h


def threshold_setup(t, m=3):
    """Exact threshold classifier over a 1-D latent: class 1 iff u > t.

    The decoder is strictly increasing in u on every pixel, and the linear
    head compares the pixel sum against its value at u = t, so the smoothed
    prediction at the clean input is class 0 with true robust radius exactly
    t (the majority class flips once the latent mean passes t)."""
    model = CvaeModel(m, 1, 4, rng=np.random.default_rng(0))
    for name in list(model.params.values):
        model.params.values[name][:] = 0.0
    model.params.values["decoder/w0"][0, 0] = 1.0
    model.params.values["decoder/b0"][0] = 2.0
    model.params.values["decoder/w1"][0, :] = 1.0
    x = np.full(m, 0.5, dtype=np.float32)
    prior = model.encode_prior(x[None])
    z_t = np.array([[t]]) * prior.std().astype(np.float64) + np.asarray(prior.mean, np.float64)
    thr = np.asarray(model.decode(z_t, model.condition(x[None]))).sum()
    h = Classifier(m, 2, (), rng=np.random.default_rng(1))
    h.params.values["classifier/w0"][:] = 0.0
    h.params.values["classifier/w0"][:, 1] = 1.0
    h.params.values["classifier/b0"][:] = [0.0, -float(thr)]
    return model, h, x


# ---------------------------------------------------------------------------
# Vote counting


def test_counts_constant_classifier():
    model, h = rand_model(), const_clf(1)
    counts = sample_under_noise(h, model, model.condition(np.full((1, M), 0.5, np.float32)), 50,
                                1.0, np.random.default_rng(3))
    np.testing.assert_array_equal(counts, [0, 50, 0])


def test_counts_sigma_zero_is_prior_mean_vote():
    model, h = rand_model(4), rand_clf(5)
    x = np.random.default_rng(6).uniform(0, 1, M).astype(np.float32)
    counts = sample_under_noise(h, model, model.condition(x[None]), 17, 0.0,
                                np.random.default_rng(7))
    prior = model.encode_prior(x[None])
    dec = np.asarray(model.decode(np.asarray(prior.mean, np.float64), model.condition(x[None])))
    want = int(h.predict(dec.astype(np.float32))[0])
    assert counts[want] == 17 and counts.sum() == 17


def test_counts_match_binomial_dispersion():
    # threshold geometry pins the class-0 mass at Phi(0.6) = 0.726
    model, h, x = threshold_setup(0.3)
    rng = np.random.default_rng(11)
    n, runs = 200, 40
    cond = model.condition(x[None])
    freqs = np.stack([sample_under_noise(h, model, cond, n, 0.5, rng) / n
                      for _ in range(runs)])
    p = freqs[:, 0].mean()
    assert 0.6 < p < 0.85
    theory = math.sqrt(p * (1 - p) / n)
    assert theory / 3 <= freqs[:, 0].std() <= 3 * theory


class Recorder:
    """A classifier that keeps a copy of every batch it votes on."""

    def __init__(self, h):
        self.h, self.n_classes, self.seen = h, h.n_classes, []

    def predict(self, x):
        self.seen.append(np.array(x))
        return self.h.predict(x)


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
def test_noise_buffer_draws_what_fresh_chunks_draw(n):
    # one noise buffer per call gives the batches, counts and final generator
    # state of drawing a fresh array per 512-row chunk and decoding
    # u * sigma(y) + mu(y) as one expression
    model, h, x = threshold_setup(0.3)
    cond = model.condition(x[None])
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    rec = Recorder(h)
    got = sample_under_noise(rec, model, cond, n, 0.5, got_rng)
    want, batches = np.zeros(h.n_classes, dtype=np.int64), []
    for done in range(0, n, 512):
        u = 0.5 * want_rng.standard_normal((min(512, n - done), model.k))
        batches.append(np.asarray(model.decode(
            np.asarray(u, dtype=np.float32) * cond.std + cond.prior.mean, cond)))
        want += np.bincount(h.predict(batches[-1]), minlength=h.n_classes)
    assert got.tobytes() == want.tobytes() and (n == 1 or got.min() > 0)
    assert [b.tobytes() for b in rec.seen] == [b.tobytes() for b in batches]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def traced_peak(call):
    """Peak traced bytes of one call, after a first call that warms it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_and_vote_hold_no_temporary_of_the_output_size():
    # smoke width, 256 rows: a decode holds z, the hidden layer and the
    # output, which its last layers form in place; a vote adds its float64
    # noise buffer. 64 KiB more is allowed for numpy's iterator buffers and
    # small objects; a (rows, m) float32 temporary is 256 KiB.
    m, k, hidden, rows = 256, 8, 128, 256
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(0))
    h = Classifier(m, 2, (64,), rng=np.random.default_rng(1))
    cond = model.condition(np.full((1, m), 0.5, np.float32))
    u = np.random.default_rng(2).standard_normal((rows, k))
    decode = 4 * rows * (k + hidden + m) + (64 << 10)
    assert traced_peak(lambda: model.decode_u(u, cond)) < decode
    assert traced_peak(lambda: sample_under_noise(h, model, cond, rows, 0.5,
                                                  np.random.default_rng(3))) < decode + 8 * rows * k


def test_counts_validation():
    model, h = rand_model(), rand_clf()
    cond = model.condition(np.full((1, M), 0.5, np.float32))
    with pytest.raises(ValueError):
        sample_under_noise(h, model, cond, 0, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_under_noise(h, model, cond, 5, -1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Certification


class VoteStub:
    """A classifier stand-in: its first predict call returns the votes
    `first`, and every later call votes `then` on every row."""

    n_classes = 3

    def __init__(self, first, then):
        self.first, self.then, self.calls = np.asarray(first), then, 0

    def predict(self, x):
        self.calls += 1
        if self.calls == 1:
            assert len(x) == len(self.first)
            return self.first
        return np.full(len(x), self.then)


def test_certify_tie_goes_to_lowest_class():
    # the n0 round ties classes 1 and 2, and the n round votes class 1: a
    # guess of 2 would get p_a 0 and abstain
    model = rand_model()
    h = VoteStub([2, 1, 2, 1, 0], then=1)
    cert = certify(h, model, model.condition(np.full((1, M), 0.5, np.float32)), 1.0,
                   np.random.default_rng(0), n0=5, n=100, alpha=0.001)
    assert h.calls == 2
    assert cert.prediction == 1 and cert.p_a > 0.5


def test_certify_unanimous_closed_form():
    model, h = rand_model(), const_clf(0)
    x = np.full(M, 0.5, np.float32)
    cert = certify(h, model, model.condition(x[None]), 1.0, np.random.default_rng(13),
                   n0=20, n=10_000,
                   alpha=0.001)
    assert cert.prediction == 0
    # all 10^4 votes agree: p_a = 0.001^(1/10000), radius its normal quantile
    want_pa = 0.001 ** (1.0 / 10_000)
    assert math.isclose(cert.p_a, want_pa, rel_tol=1e-12)
    assert math.isclose(cert.radius, 3.1985775147383384, rel_tol=1e-9)
    cap = 1.0 * std_normal_quantile(clopper_pearson_lower(10_000, 10_000, 0.999))
    assert cert.radius <= cap + 1e-12


def test_certify_coin_flip_abstains():
    model, h, x = threshold_setup(0.0)
    cert = certify(h, model, model.condition(x[None]), 0.5, np.random.default_rng(14),
                   n0=20, n=400,
                   alpha=0.05)
    assert cert.prediction == ABSTAIN and cert.radius == 0.0
    assert cert.p_a <= 0.5


def test_certified_radius_sound_on_exact_threshold():
    # true robust radius is exactly t; Clopper-Pearson keeps the fraction of
    # over-certified runs at or below alpha
    t, sigma, alpha = 0.3, 0.5, 0.05
    model, h, x = threshold_setup(t)
    rng = np.random.default_rng(15)
    cond = model.condition(x[None])
    runs, violations, certified = 1000, 0, 0
    for _ in range(runs):
        cert = certify(h, model, cond, sigma, rng, n0=20, n=300, alpha=alpha)
        if cert.prediction != ABSTAIN:
            certified += 1
            if cert.radius > t:
                violations += 1
    assert certified > runs // 2
    assert violations <= alpha * runs
    # sanity: the true top-class mass matches the threshold geometry
    p_true = std_normal_cdf(t / sigma)
    counts = sample_under_noise(h, model, model.condition(x.reshape(1, -1)), 4000, sigma,
                                np.random.default_rng(16))
    assert abs(counts[0] / 4000 - p_true) < 0.03


def test_certify_validation():
    model, h = rand_model(), rand_clf()
    cond = model.condition(np.full((1, M), 0.5, np.float32))
    with pytest.raises(ValueError):
        certify(h, model, cond, 1.0, np.random.default_rng(0), n0=0)
    with pytest.raises(ValueError):
        certify(h, model, cond, 1.0, np.random.default_rng(0), n=0)


# ---------------------------------------------------------------------------
# Noise-level back-solve


def test_sigma_for_radius_reproduces_reported_levels():
    assert abs(sigma_for_radius(10.2, 10_000, 0.001) - 3.19) <= 0.02
    assert abs(sigma_for_radius(2.7, 10_000, 0.001) - 0.84) <= 0.01
    assert abs(sigma_for_radius(3.9, 10_000, 0.001) - 1.22) <= 0.01


def test_sigma_for_radius_linear():
    a = sigma_for_radius(1.0, 500, 0.01)
    b = sigma_for_radius(2.0, 500, 0.01)
    assert math.isclose(b, 2 * a, rel_tol=1e-12)
    with pytest.raises(ValueError):
        sigma_for_radius(0.0)


# ---------------------------------------------------------------------------
# Noise training


def test_noise_epoch_deterministic_and_sigma_zero():
    model = rand_model(17)
    rng = np.random.default_rng(18)
    x = rng.uniform(0, 1, (30, M)).astype(np.float32)
    labels = rng.integers(0, 3, 30)
    h1, h2 = rand_clf(19), rand_clf(19)
    for h in (h1, h2):
        noise_train_epoch(h, model, x, labels, 0.7, 1e-3,
                          np.random.default_rng(20), batch_size=10)
    for name in h1.params.values:
        np.testing.assert_array_equal(h1.params.values[name], h2.params.values[name])

    hz, hc = rand_clf(21), rand_clf(21)
    noise_train_epoch(hz, model, x, labels, 0.0, 1e-3,
                      np.random.default_rng(22), batch_size=10)
    prior = model.encode_prior(x)
    dec = np.asarray(model.decode(np.asarray(prior.mean), model.condition(x)))
    clean_train_epoch(hc, dec, labels, 1e-3,
                      np.random.default_rng(22), batch_size=10)
    for name in hz.params.values:
        np.testing.assert_array_equal(hz.params.values[name], hc.params.values[name])
    with pytest.raises(ValueError):
        noise_train_epoch(hz, model, x, labels, -0.1, 1e-3,
                          np.random.default_rng(0))

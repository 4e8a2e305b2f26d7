"""Tests for radius selection, the six set-quality metrics and reporting."""

import json
import math

import numpy as np
import pytest

import refeval
from pertsets import nn
from pertsets.cli import ArtifactDir
from pertsets.cvae import CvaeModel, PairSet, kl_diag, latent_pgd, sample_truncated_ball
from pertsets.evalmetrics import (
    METRICS,
    _encoder_points,
    _mse_rows,
    _recon_objective,
    evaluate_set,
    select_radius,
)

M, K, HID = 6, 2, 8


def pgd_ae(model: CvaeModel, x, y, eps: float, steps: int = 50, step: float = None):
    """Best per-pixel MSE found by projected gradient descent in the ball, for
    one pair given as (1, m) rows x (perturbed) and y (conditioned).

    Warm-started at the projected encoder point, so the result never exceeds
    the error there (evaluate_set's enc_ae)."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if step is None:
        step = eps / 20.0
    cond = model.condition(y)
    u0, _ = _encoder_points(model.encode_posterior(x, y).mean, cond.prior)
    err, _ = latent_pgd(_recon_objective(model, x, cond), u0, eps, steps, step, maximize=False)
    return float(err[0])


def rand_model(seed=0):
    return CvaeModel(M, K, HID, rng=np.random.default_rng(seed))


def const_model(bq=None, bp=None):
    """All-zero weights: constant heads. Decoder outputs 0.5 everywhere,
    both logvar heads sit at their clamp midpoint (variance 0.1 exactly)."""
    model = rand_model()
    for name in list(model.params.values):
        model.params.values[name][:] = 0.0
    if bq is not None:
        model.params.values["posterior_mean/b0"][:] = bq
    if bp is not None:
        model.params.values["prior_mean/b0"][:] = bp
    return model


def rand_pairs(n, seed=1):
    rng = np.random.default_rng(seed)
    return PairSet(rng.uniform(0, 1, (n, M)).astype(np.float32),
                   rng.uniform(0, 1, (n, M)).astype(np.float32))


# ---------------------------------------------------------------------------
# Radius selection


def test_select_radius_closed_form():
    # constant heads: u = (bq - bp) / sqrt(0.1) for every pair
    model = const_model(bq=[0.6, 0.8], bp=[0.0, 0.0])
    eps = select_radius(model, rand_pairs(20))
    assert math.isclose(eps, 1.0 / math.sqrt(0.1), rel_tol=1e-5)


def test_select_radius_zero_when_heads_tie():
    model = const_model(bq=[0.3, -0.2], bp=[0.3, -0.2])
    assert select_radius(model, rand_pairs(5)) == 0.0


def test_select_radius_is_max_over_pairs():
    model = rand_model(3)
    pairs = rand_pairs(40, seed=4)
    want = 0.0
    for i in range(len(pairs)):
        x, y = pairs.perturbed[i:i + 1], pairs.conditioned[i:i + 1]
        q = model.encode_posterior(x, y)
        pr = model.encode_prior(y)
        u = (np.asarray(q.mean) - np.asarray(pr.mean)) / pr.std()
        want = max(want, float(np.linalg.norm(u)))
    got = select_radius(model, pairs, batch_size=7)
    assert math.isclose(got, want, rel_tol=1e-6)


def test_select_radius_rejects_empty():
    pairs = rand_pairs(3).subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        select_radius(rand_model(), pairs)


# ---------------------------------------------------------------------------
# Per-pair metrics, each read off evaluate_set


def gap_to_half(pairs):
    """Per-pixel MSE against a decoder that emits 0.5 everywhere."""
    return np.mean((pairs.perturbed.astype(np.float64) - 0.5) ** 2, axis=1)


def test_encoder_ae_constant_decoder():
    # decoder emits 0.5; error is the per-pixel gap to 0.5 regardless of u
    pairs = rand_pairs(3, seed=7)
    report = evaluate_set(const_model(bq=[5.0, 0.0]), pairs, 1.0,
                          np.random.default_rng(0), steps=3)
    np.testing.assert_allclose(report.records["enc_ae"], gap_to_half(pairs), rtol=1e-6)


def test_encoder_ae_zero_on_exact_match():
    x = np.full((1, M), 0.5, dtype=np.float32)
    report = evaluate_set(const_model(), PairSet(x, x), 1.0, np.random.default_rng(0),
                          steps=3)
    assert report.records["enc_ae"][0] == 0.0


def test_pgd_never_exceeds_encoder():
    model = rand_model(11)
    pairs = rand_pairs(6, seed=12)
    enc = evaluate_set(model, pairs, 2.0, np.random.default_rng(0), steps=1).records["enc_ae"]
    for i in range(len(pairs)):
        pgd = pgd_ae(model, pairs.perturbed[i:i + 1], pairs.conditioned[i:i + 1], 2.0,
                     steps=20)
        assert pgd <= enc[i] + 1e-12
        assert pgd >= 0.0


def test_pgd_restarted_at_planted_optimum():
    model = rand_model(13)
    rng = np.random.default_rng(14)
    cond = model.condition(rng.uniform(0, 1, (1, M)).astype(np.float32))
    u_star = sample_truncated_ball(K, 1.0, 1, rng)
    x = np.clip(np.asarray(model.decode_u(u_star, cond)), 0, 1)
    err, _ = latent_pgd(_recon_objective(model, x, cond), u_star.astype(np.float32), 1.0, 5,
                        1.0 / 20, maximize=False)
    assert err[0] <= 1e-6


def test_pgd_nested_radius_monotone():
    # a larger ball warm-started at the smaller ball's best point never ends
    # above it
    model = rand_model(15)
    pairs = rand_pairs(1, seed=16)
    objective = _recon_objective(model, pairs.perturbed, model.condition(pairs.conditioned))
    small, u_small = latent_pgd(objective, np.zeros((1, K), np.float32), 0.5, 25, 0.5 / 20,
                                maximize=False)
    large, _ = latent_pgd(objective, u_small, 1.5, 25, 1.5 / 20, maximize=False)
    assert large[0] <= small[0]


def test_pgd_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        pairs = rand_pairs(1)
        pgd_ae(rand_model(), pairs.perturbed, pairs.conditioned, 0.0)


def test_expected_ae_constant_decoder_matches_encoder():
    pairs = rand_pairs(3, seed=20)
    report = evaluate_set(const_model(), pairs, 1.0, np.random.default_rng(0), steps=3,
                          n_expected=3)
    np.testing.assert_allclose(report.records["eae"], gap_to_half(pairs), rtol=1e-6)
    np.testing.assert_allclose(report.records["eae"], report.records["enc_ae"], rtol=1e-6)


def test_expected_ae_variance_shrinks_with_n():
    model = rand_model(21)
    pairs = rand_pairs(1, seed=22)
    rng = np.random.default_rng(23)

    def eae(n):
        return evaluate_set(model, pairs, 1.5, rng, steps=0, n_expected=n).records["eae"][0]

    lo = [eae(2) for _ in range(80)]
    hi = [eae(40) for _ in range(80)]
    assert np.var(hi) < np.var(lo) / 3.0


def test_expected_ae_eps_zero_is_prior_mean_error():
    # evaluate_set needs eps > 0; at eps = 1e-14 every draw decodes the
    # prior mean to within float rounding
    model = rand_model(24)
    pairs = rand_pairs(3, seed=25)
    got = evaluate_set(model, pairs, 1e-14, np.random.default_rng(0), steps=0,
                       n_expected=5).records["eae"]
    want = _mse_rows(model, np.zeros((3, K)), model.condition(pairs.conditioned),
                     pairs.perturbed.astype(np.float64))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_over_ae_at_least_init_error():
    # the ascent oae runs in evaluate_set: the best iterate never falls
    # below the error at its random start
    model = rand_model(26)
    pairs = rand_pairs(4, seed=27)
    u0 = sample_truncated_ball(K, 1.0, 4, np.random.default_rng(28))
    cond = model.condition(pairs.conditioned)
    x = pairs.perturbed.astype(np.float64)
    init_err = _mse_rows(model, u0, cond, x)
    got, u = latent_pgd(_recon_objective(model, pairs.perturbed, cond), u0.astype(np.float32),
                        1.0, 15, 0.05, maximize=True)
    assert (got >= init_err - 1e-12).all()
    assert (np.linalg.norm(u, axis=1) <= 1.0 + 1e-12).all()
    np.testing.assert_array_equal(got, _mse_rows(model, u, cond, x))


def test_recon_error_constant_decoder():
    pairs = rand_pairs(3, seed=30)
    report = evaluate_set(const_model(), pairs, 1.0, np.random.default_rng(0), steps=3)
    np.testing.assert_allclose(report.records["recon_err"], gap_to_half(pairs), rtol=1e-6)


def test_kl_metric_closed_form():
    # equal clamped variances, mean gap norm 1: KL = 0.5 * 1 / 0.1 = 5
    rng = lambda: np.random.default_rng(0)
    report = evaluate_set(const_model(bq=[0.6, 0.8], bp=[0.0, 0.0]), rand_pairs(2), 1.0,
                          rng(), steps=3)
    np.testing.assert_allclose(report.records["kl"], 5.0, rtol=1e-5)
    tied = evaluate_set(const_model(bq=[0.4, 0.4], bp=[0.4, 0.4]), rand_pairs(2), 1.0,
                        rng(), steps=3)
    assert (np.abs(tied.records["kl"]) < 1e-12).all()


# ---------------------------------------------------------------------------
# Dataset-level report


def small_report(n=5, seed=40, **kw):
    model = rand_model(41)
    pairs = rand_pairs(n, seed=seed)
    rng = np.random.default_rng(42)
    return evaluate_set(model, pairs, 1.0, rng, steps=8, **kw), model, pairs


def test_evaluate_set_invariants():
    report, _, _ = small_report(6)
    for name in METRICS:
        v = report.records[name]
        assert v.shape == (6,)
        assert np.isfinite(v).all()
        assert (v >= 0).all() or name == "kl"
    assert (report.records["pgd_ae"] <= report.records["enc_ae"] + 1e-12).all()
    assert (report.records["kl"] >= -1e-9).all()


def test_evaluate_set_single_pair_matches_ops():
    report, model, pairs = small_report(1)
    x, y = pairs.perturbed, pairs.conditioned
    q, prior = model.encode_posterior(x, y), model.encode_prior(y)
    u = (np.asarray(q.mean) - np.asarray(prior.mean)) / prior.std()
    u = u * min(1.0, 1.0 / float(np.linalg.norm(u, axis=1)[0]))
    dec = model.decoder.apply(model.params, [u * prior.std() + np.asarray(prior.mean), y])
    enc = float(np.mean((dec - x) ** 2))
    assert math.isclose(report.records["enc_ae"][0], enc, rel_tol=1e-10)
    assert math.isclose(report.records["kl"][0],
                        float(np.asarray(kl_diag(q, prior))[0]), rel_tol=1e-6)
    s = report.summary()
    assert s["metrics"]["enc_ae"]["mean"] == pytest.approx(report.records["enc_ae"][0])
    assert s["metrics"]["oae"]["std"] == 0.0


def test_evaluate_set_duplicates_and_permutation():
    model = rand_model(41)
    pairs = rand_pairs(4, seed=43)
    doubled = PairSet(np.concatenate([pairs.perturbed] * 2),
                      np.concatenate([pairs.conditioned] * 2))
    rng = lambda: np.random.default_rng(44)
    rep1 = evaluate_set(model, pairs, 1.0, rng(), steps=6)
    rep2 = evaluate_set(model, doubled, 1.0, rng(), steps=6)
    perm = pairs.subset(np.array([2, 0, 3, 1]))
    rep3 = evaluate_set(model, perm, 1.0, rng(), steps=6)
    for name in METRICS:
        np.testing.assert_array_equal(rep2.records[name][:4], rep1.records[name])
        np.testing.assert_array_equal(rep2.records[name][4:], rep1.records[name])
        np.testing.assert_array_equal(np.sort(rep3.records[name]),
                                      np.sort(rep1.records[name]))
        assert rep2.summary()["metrics"][name]["mean"] == pytest.approx(
            rep1.summary()["metrics"][name]["mean"])


def test_evaluate_set_deterministic_and_batch_invariant():
    model = rand_model(41)
    pairs = rand_pairs(5, seed=45)
    a = evaluate_set(model, pairs, 1.0, np.random.default_rng(1), steps=6)
    b = evaluate_set(model, pairs, 1.0, np.random.default_rng(1), steps=6,
                     batch_size=2)
    for name in METRICS + ("latent_norm",):
        np.testing.assert_array_equal(a.records[name], b.records[name])


@pytest.mark.parametrize("m, k, hidden, n, steps, batch_size", [
    (M, K, HID, 7, 8, 3),
    (784, 784, 784, 8, 3, 256),     # mnist-linf widths, one block
])
def test_evaluate_set_matches_the_two_search_reference(m, k, hidden, n, steps, batch_size):
    # the stacked search gives the bytes of separate descent and ascent
    # searches over each block
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(50))
    rng = np.random.default_rng(51)
    pairs = PairSet(rng.uniform(0, 1, (n, m)).astype(np.float32),
                    rng.uniform(0, 1, (n, m)).astype(np.float32))
    got = evaluate_set(model, pairs, 1.0, np.random.default_rng(52), steps=steps,
                       batch_size=batch_size)
    want = refeval.evaluate_set(model, pairs, 1.0, np.random.default_rng(52), steps=steps,
                                batch_size=batch_size)
    for name in METRICS + ("latent_norm",):
        assert got.records[name].tobytes() == want.records[name].tobytes(), name
    assert got.summary() == want.summary()
    assert (got.records["pgd_ae"] <= got.records["enc_ae"]).all()
    # the stacked search runs against cond.rows of each row twice; rows takes
    # a slice or an integer array, each field picked alike
    cond = model.condition(pairs.conditioned)
    q = model.encode_posterior(pairs.perturbed, pairs.conditioned)
    for index in (slice(1, 3), slice(n - 1, n), np.array([2, 0, 2]), np.tile(np.arange(n), 2)):
        sub, qsub = cond.rows(index), q.rows(index)
        for field, whole in ((sub.prior.mean, cond.prior.mean),
                             (sub.prior.logvar, cond.prior.logvar),
                             (sub.std, cond.std), (sub.proj, cond.proj),
                             (qsub.mean, q.mean), (qsub.logvar, q.logvar)):
            assert field.tobytes() == whole[index].tobytes()


def test_evaluate_set_block_size_moves_only_the_searches_in_the_last_bit():
    # smoke widths: the decoder's reverse pass into k = 8 latents multiplies
    # through a transposed weight view, and the BLAS may round that product
    # differently for a different number of rows, so a block of 256 pairs
    # and blocks of 64 can differ in the last bit of the two searches; every
    # other column is exactly equal
    model = CvaeModel(256, 8, 128, rng=np.random.default_rng(53))
    rng = np.random.default_rng(54)
    pairs = PairSet(rng.uniform(0, 1, (300, 256)).astype(np.float32),
                    rng.uniform(0, 1, (300, 256)).astype(np.float32))
    a = evaluate_set(model, pairs, 2.0, np.random.default_rng(55), batch_size=256)
    b = evaluate_set(model, pairs, 2.0, np.random.default_rng(55), batch_size=64)
    for name in METRICS + ("latent_norm",):
        if name in ("pgd_ae", "oae"):
            np.testing.assert_allclose(a.records[name], b.records[name], rtol=1e-6, atol=0)
        else:
            np.testing.assert_array_equal(a.records[name], b.records[name])


def test_evaluate_set_encodes_prior_once_per_batch():
    model = rand_model(41)
    encode, rows = model.encode_prior, []

    def counted(y):
        rows.append(len(y))
        return encode(y)

    model.encode_prior = counted
    evaluate_set(model, rand_pairs(5, seed=45), 1.0, np.random.default_rng(1), steps=2,
                 batch_size=2)
    assert rows == [2, 2, 1]


def test_evaluate_set_rejects_empty_and_bad_eps():
    model = rand_model()
    with pytest.raises(ValueError):
        evaluate_set(model, rand_pairs(3).subset(np.array([], dtype=int)), 1.0,
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate_set(model, rand_pairs(3), 0.0, np.random.default_rng(0))


def test_report_serialization(tmp_path):
    report, _, _ = small_report(3)
    csv_path = tmp_path / "per_pair.csv"
    json_path = tmp_path / "summary.json"
    report.to_csv(str(csv_path))
    ArtifactDir(str(tmp_path)).write_json("summary.json", report.summary())
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "pair," + ",".join(METRICS + ("latent_norm",))
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(report.records["enc_ae"][0])
    summary = json.loads(json_path.read_text(encoding="utf-8"))
    assert summary["eps"] == 1.0
    assert summary["pairs"] == 3
    assert len(summary["config_hash"]) == 16
    assert summary["metrics"]["kl"]["mean"] == pytest.approx(
        float(report.records["kl"].mean()))

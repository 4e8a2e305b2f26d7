"""Tests for latent PGD attacks, training epochs and robust accuracy."""

import hashlib
import math

import numpy as np
import pytest

from params import param_set
from pertsets import nn
from pertsets.cvae import (
    CvaeModel,
    PairSet,
    TrainConfig,
    latent_pgd,
    load_cvae,
    sample_truncated_ball,
    train_cvae,
)
from pertsets.robust import (
    AttackConfig,
    Classifier,
    _attack_objective,
    _train_step,
    accuracy,
    adv_train_epoch,
    augment_train_epoch,
    clean_train_epoch,
    latent_pgd_attack,
    load_classifier,
    robust_accuracy,
)
from pertsets.smoothing import noise_train_epoch, sample_under_noise

M, K, HID = 4, 2, 6


def rand_model(seed=0, m=M, k=K):
    return CvaeModel(m, k, HID, rng=np.random.default_rng(seed))


def rand_clf(seed=1, m=M, n_classes=3, hidden=(8,)):
    return Classifier(m, n_classes, hidden, rng=np.random.default_rng(seed))


def rand_data(n, seed=2, m=M, n_classes=3):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0, 1, (n, m)).astype(np.float32),
            rng.integers(0, n_classes, n))


def ce_at(h, model, x, labels, u):
    prior = model.encode_prior(x)
    z = u * prior.std().astype(np.float64) + np.asarray(prior.mean, np.float64)
    adv = np.asarray(model.decode(z, model.condition(x)))
    logits = np.asarray(h.logits(adv.astype(np.float32)), dtype=np.float64)
    return nn.cross_entropy(logits, labels)[0]


# ---------------------------------------------------------------------------
# Config and classifier plumbing


def test_attack_config_validation():
    cfg = AttackConfig(2.0)
    assert cfg.steps == 7 and math.isclose(cfg.step, 0.4)
    assert AttackConfig(0.0).eps == 0.0
    with pytest.raises(ValueError):
        AttackConfig(-1.0)
    with pytest.raises(ValueError):
        AttackConfig(1.0, steps=0)


def test_classifier_shapes_and_roundtrip(tmp_path):
    h = rand_clf()
    x, _ = rand_data(5)
    lg = np.asarray(h.logits(x))
    assert lg.shape == (5, 3) and np.isfinite(lg).all()
    assert h.predict(x).shape == (5,)
    stem = str(tmp_path / "clf")
    h.save(stem)
    assert list(h.meta()) == list(Classifier.META)
    assert set(nn.read_json(stem + ".meta.json")) == set(Classifier.META)
    h2 = load_classifier(stem)
    np.testing.assert_array_equal(np.asarray(h2.logits(x)), lg)
    with pytest.raises(ValueError):
        Classifier(M, 1, rng=np.random.default_rng(0))


def test_classifier_save_load_save_is_byte_identical(tmp_path):
    rand_clf().save(str(tmp_path / "a"))
    load_classifier(str(tmp_path / "a")).save(str(tmp_path / "b"))
    for suffix in nn.CHECKPOINT_SUFFIXES:
        assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()


def _checkpoint_digest(stem):
    h = hashlib.sha256()
    for suffix in (".json", ".bin"):
        with open(stem + suffix, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def test_trained_checkpoints_are_frozen(tmp_path):
    # a tiny train_cvae run, and a tiny classifier adv-trained through that
    # generator loaded back: every parameter bit and the checkpoint layout
    # are pinned by the sha256 of the manifest and blob
    rng = np.random.default_rng(20)
    y = rng.uniform(0.1, 0.9, size=(40, 10)).astype(np.float32)
    x = np.clip(y + rng.uniform(-0.1, 0.1, size=(40, 10)).astype(np.float32), 0, 1)
    cfg = TrainConfig(k=3, hidden=12, epochs=3, batch_size=16, seed=5,
                      lr=nn.Schedule([0, 3], [0.01, 0.002]),
                      beta=nn.Schedule([0, 3], [0.0, 0.01]))
    model, _ = train_cvae(PairSet(x, y), cfg)
    model.save(str(tmp_path / "cvae"))
    assert _checkpoint_digest(str(tmp_path / "cvae")) == (
        "87b98df49031ed3eaadf904db0af091fdc224eb0813f3bfe8a20b432360a5727")
    frozen = load_cvae(str(tmp_path / "cvae"))
    h = Classifier(10, 3, (8,), rng=np.random.default_rng(6))
    labels, fit = np.random.default_rng(7).integers(0, 3, 40), np.random.default_rng(8)
    for _ in range(2):
        adv_train_epoch(h, frozen, x, labels, AttackConfig(0.8, steps=3), 5e-3, fit, 16)
    h.save(str(tmp_path / "clf"))
    assert _checkpoint_digest(str(tmp_path / "clf")) == (
        "17d5067ebed04f03ed3a6261cd88794503a1d15150ab5ec71059e918a0973554")
    # training allocates gradient and moment buffers; the frozen generator
    # the attacks ran through has none
    assert all(state is not None for state in (h.params.grad, h.params.m, h.params.v))
    assert frozen.params.grad is None and frozen.params.m is None


def test_classifier_from_mismatched_params_raises_naming_tensor():
    params = rand_clf(hidden=(8,)).params
    with pytest.raises(ValueError, match="'classifier/b0' has shape"):
        Classifier(M, 3, (9,), params=params)
    params = param_set({**params.values, "classifier/w2": params.values["classifier/w1"]})
    with pytest.raises(ValueError, match="'classifier/w2' is not a parameter"):
        Classifier(M, 3, (8,), params=params)


def test_classifier_no_hidden_is_linear():
    h = Classifier(M, 2, hidden=(), rng=np.random.default_rng(3))
    x, _ = rand_data(4, n_classes=2)
    w = h.params.values["classifier/w0"].astype(np.float64)
    b = h.params.values["classifier/b0"].astype(np.float64)
    np.testing.assert_allclose(np.asarray(h.logits(x)), x @ w + b, rtol=1e-5)


# ---------------------------------------------------------------------------
# Attack


def monotone_setup(label):
    """1-D latent driving every pixel up; a linear head makes the loss
    strictly monotone in u, so the optimum sits at eps * sign."""
    model = CvaeModel(3, 1, 4, rng=np.random.default_rng(0))
    for name in list(model.params.values):
        model.params.values[name][:] = 0.0
    model.params.values["decoder/w0"][0, 0] = 1.0
    model.params.values["decoder/b0"][:] = [5.0, 0.0, 0.0, 0.0]
    model.params.values["decoder/w1"][0, :] = 1.0
    h = Classifier(3, 2, hidden=(), rng=np.random.default_rng(1))
    h.params.values["classifier/w0"][:] = 0.0
    h.params.values["classifier/w0"][:, 1] = 1.0
    h.params.values["classifier/b0"][:] = 0.0
    x = np.full((1, 3), 0.5, dtype=np.float32)
    return model, h, x, np.array([label])


@pytest.mark.parametrize("label,sign", [(0, 1.0), (1, -1.0)])
def test_attack_recovers_linear_optimum(label, sign):
    model, h, x, labels = monotone_setup(label)
    _, u = latent_pgd_attack(h, model, x, labels, AttackConfig(2.0, steps=12))
    assert abs(u[0, 0] - sign * 2.0) <= 1e-4


def test_attack_zero_radius_returns_prior_mean_decode():
    model, h = rand_model(), rand_clf()
    x, labels = rand_data(4)
    adv, u = latent_pgd_attack(h, model, x, labels, AttackConfig(0.0))
    np.testing.assert_array_equal(u, 0.0)
    prior = model.encode_prior(x)
    want = np.asarray(model.decode(np.zeros((4, K)) * prior.std()
                                   + np.asarray(prior.mean, np.float64), model.condition(x)))
    np.testing.assert_allclose(adv, want.astype(np.float32), atol=1e-7)


def test_attack_best_iterate_and_feasibility():
    model, h = rand_model(4), rand_clf(5)
    x, labels = rand_data(6, seed=6)
    for eps in (0.5, 1.0, 3.0):
        cfg = AttackConfig(eps, steps=10)
        adv, u = latent_pgd_attack(h, model, x, labels, cfg)
        assert (np.linalg.norm(u, axis=1) <= eps + 1e-6).all()
        base = ce_at(h, model, x, labels, np.zeros((6, K)))
        got = ce_at(h, model, x, labels, u)
        assert (got >= base - 1e-10).all()
        assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_attack_budget_monotonicity():
    # the attack's objective over a larger ball, warm-started at the smaller
    # ball's best point, never ends below it
    model, h = rand_model(7), rand_clf(8)
    x, labels = rand_data(5, seed=9)
    _, u_small = latent_pgd_attack(h, model, x, labels, AttackConfig(0.5, steps=10))
    objective = _attack_objective(h, model, model.condition(x), labels)
    _, u_large = latent_pgd(objective, u_small, 1.5, 10, 1.5 / 5, maximize=True)
    small = ce_at(h, model, x, labels, u_small)
    large = ce_at(h, model, x, labels, u_large)
    assert (large >= small - 1e-10).all()


def test_attack_zero_gradient_rows_stay_put():
    model = rand_model(10)
    h = rand_clf(11)
    for name in list(h.params.values):
        h.params.values[name][:] = 0.0
    x, labels = rand_data(3, seed=12)
    adv, u = latent_pgd_attack(h, model, x, labels, AttackConfig(1.0, steps=5))
    np.testing.assert_array_equal(u, 0.0)
    assert np.isfinite(adv).all()


def test_attack_transcript():
    model, h = rand_model(13), rand_clf(14)
    x, labels = rand_data(4, seed=15)
    rows = []
    latent_pgd_attack(h, model, x, labels, AttackConfig(1.0, steps=6),
                      transcript=rows)
    assert [r["iteration"] for r in rows] == list(range(7))
    assert all(np.isfinite(r["loss"]) and r["u_norm"] >= 0 for r in rows)
    assert rows[0]["u_norm"] == 0.0


_ENTRY_POINTS = {
    "latent_pgd_attack": lambda h, model, x, labels, rng: latent_pgd_attack(
        h, model, x, labels, AttackConfig(1.0, steps=2)),
    "adv_train_epoch": lambda h, model, x, labels, rng: adv_train_epoch(
        h, model, x, labels, AttackConfig(1.0, steps=2), 1e-3, rng, batch_size=2),
    "augment_train_epoch": lambda h, model, x, labels, rng: augment_train_epoch(
        h, model, x, labels, 1.0, 1e-3, rng, batch_size=2),
    "noise_train_epoch": lambda h, model, x, labels, rng: noise_train_epoch(
        h, model, x, labels, 0.5, 1e-3, rng, batch_size=2),
    "robust_accuracy": lambda h, model, x, labels, rng: robust_accuracy(
        h, model, x, labels, AttackConfig(1.0, steps=2)),
    "sample_under_noise": lambda h, model, x, labels, rng: sample_under_noise(
        h, model, model.condition(x[:1]), 5, 0.5, rng),
}


@pytest.mark.parametrize("wrong", ["input", "generator", "classifier"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_width_mismatch_raises_before_any_update(entry, wrong):
    # one of inputs, generator and classifier is a pixel wider than the rest
    model = rand_model(m=M + (wrong == "generator"))
    h = rand_clf(m=M + (wrong == "classifier"))
    x, labels = rand_data(4, m=M + (wrong == "input"))
    before = {name: value.copy() for name, value in h.params.values.items()}
    with pytest.raises(ValueError, match=r"input of shape \(\d+, \d+\), expected \(rows, \d+\)"):
        _ENTRY_POINTS[entry](h, model, x, labels, np.random.default_rng(0))
    assert h.params.step == 0
    for name, value in before.items():
        np.testing.assert_array_equal(h.params.values[name], value)


# ---------------------------------------------------------------------------
# Training epochs


def test_adv_epoch_deterministic():
    model = rand_model(16)
    x, labels = rand_data(40, seed=17)
    h1, h2 = rand_clf(18), rand_clf(18)
    for h, seed in ((h1, 19), (h2, 19)):
        adv_train_epoch(h, model, x, labels, AttackConfig(1.0, steps=3),
                        1e-3, np.random.default_rng(seed), batch_size=16)
    for name in h1.params.values:
        np.testing.assert_array_equal(h1.params.values[name], h2.params.values[name])


def test_adv_epoch_zero_eps_equals_clean_on_decoded():
    model = rand_model(20)
    x, labels = rand_data(30, seed=21)
    ha, hc = rand_clf(22), rand_clf(22)
    adv_train_epoch(ha, model, x, labels, AttackConfig(0.0), 1e-3,
                    np.random.default_rng(23), batch_size=10)
    prior = model.encode_prior(x)
    dec = np.asarray(model.decode(np.asarray(prior.mean), model.condition(x)))
    clean_train_epoch(hc, dec, labels, 1e-3,
                      np.random.default_rng(23), batch_size=10)
    for name in ha.params.values:
        np.testing.assert_array_equal(ha.params.values[name], hc.params.values[name])


def test_augment_epoch_runs_and_is_deterministic():
    model = rand_model(24)
    x, labels = rand_data(30, seed=25)
    h1, h2 = rand_clf(26), rand_clf(26)
    for h in (h1, h2):
        augment_train_epoch(h, model, x, labels, 1.0, 1e-3,
                            np.random.default_rng(27), batch_size=10)
    for name in h1.params.values:
        np.testing.assert_array_equal(h1.params.values[name], h2.params.values[name])
        assert np.isfinite(h1.params.values[name]).all()
    with pytest.raises(ValueError):
        augment_train_epoch(h1, model, x, labels, -0.5, 1e-3,
                            np.random.default_rng(0))


# One epoch of each mode as three separate loops, each drawing its batches
# and building its inputs in its own body; the public epochs share one loop.


def _reference_adv_epoch(h, model, x, labels, cfg, lr, rng, batch_size):
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    for idx in nn.epoch_batches(len(x), batch_size, rng):
        adv, _ = latent_pgd_attack(h, model, x[idx], labels[idx], cfg)
        _train_step(h, adv, labels[idx], lr)


def _reference_augment_epoch(h, model, x, labels, eps, lr, rng, batch_size):
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    for idx in nn.epoch_batches(len(x), batch_size, rng):
        u = sample_truncated_ball(model.k, eps, len(idx), rng)
        aug = np.asarray(model.decode_u(u, model.condition(x[idx])))
        _train_step(h, aug, labels[idx], lr)


def _reference_clean_epoch(h, x, labels, lr, rng, batch_size):
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    for idx in nn.epoch_batches(len(x), batch_size, rng):
        _train_step(h, x[idx], labels[idx], lr)


_EPOCH_PAIRS = {
    "adv": (lambda h, m, x, y, rng, bs: adv_train_epoch(
                h, m, x, y, AttackConfig(1.0, steps=3), 1e-3, rng, bs),
            lambda h, m, x, y, rng, bs: _reference_adv_epoch(
                h, m, x, y, AttackConfig(1.0, steps=3), 1e-3, rng, bs)),
    "augment": (lambda h, m, x, y, rng, bs: augment_train_epoch(h, m, x, y, 1.0, 1e-3, rng, bs),
                lambda h, m, x, y, rng, bs: _reference_augment_epoch(
                    h, m, x, y, 1.0, 1e-3, rng, bs)),
    "clean": (lambda h, m, x, y, rng, bs: clean_train_epoch(h, x, y, 1e-3, rng, bs),
              lambda h, m, x, y, rng, bs: _reference_clean_epoch(h, x, y, 1e-3, rng, bs)),
}


@pytest.mark.parametrize("mode", sorted(_EPOCH_PAIRS))
def test_epoch_matches_its_reference_loop_bit_for_bit(mode):
    # 23 examples in batches of 5 leave a short last batch of 3; two epochs
    # so the second starts from moments and an rng the first left behind
    model = rand_model(40)
    x, labels = rand_data(23, seed=41)
    epoch, reference = _EPOCH_PAIRS[mode]
    h, h_ref = rand_clf(42), rand_clf(42)
    rng, rng_ref = np.random.default_rng(43), np.random.default_rng(43)
    for _ in range(2):
        assert epoch(h, model, x, labels, rng, 5) is h
        reference(h_ref, model, x, labels, rng_ref, 5)
    assert h.params.step == h_ref.params.step == 10
    for state in ("flat", "m", "v"):
        got, want = getattr(h.params, state), getattr(h_ref.params, state)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), state
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_training_step_rejects_non_finite_loss():
    h = rand_clf(30)
    h.params.values["classifier/w0"][0, 0] = np.nan
    x, labels = rand_data(10, seed=31)
    with pytest.raises(FloatingPointError):
        clean_train_epoch(h, x, labels, 1e-3, np.random.default_rng(0))


def test_clean_training_learns_separable_task():
    rng = np.random.default_rng(28)
    n = 200
    labels = rng.integers(0, 2, n)
    x = rng.uniform(0, 0.3, (n, M)).astype(np.float32)
    x[labels == 1] += 0.6
    h = Classifier(M, 2, hidden=(8,), rng=np.random.default_rng(29))
    for _ in range(15):
        clean_train_epoch(h, x, labels, 5e-3, np.random.default_rng(30))
    assert accuracy(h, x, labels) >= 0.95


# ---------------------------------------------------------------------------
# Accuracy semantics


def test_robust_accuracy_never_exceeds_clean():
    model = rand_model(31)
    h = rand_clf(32)
    x, labels = rand_data(25, seed=33)
    acc = accuracy(h, x, labels)
    rob = robust_accuracy(h, model, x, labels, AttackConfig(1.0, steps=5),
                          batch_size=9)
    assert 0.0 <= rob <= acc <= 1.0


def test_robust_accuracy_counts_conjunction():
    # classifier that always answers class 0: robust accuracy equals the
    # fraction of true zeros no matter what the attack does
    model = rand_model(34)
    h = rand_clf(35, n_classes=2)
    for name in list(h.params.values):
        h.params.values[name][:] = 0.0
    h.params.values["classifier/b1"][:] = [1.0, 0.0]
    x, labels = rand_data(20, seed=36, n_classes=2)
    rob = robust_accuracy(h, model, x, labels, AttackConfig(0.5, steps=3))
    assert rob == pytest.approx((labels == 0).mean())

"""Tests for the conditional VAE: KL, reparameterization, truncated sampling,
the latent-ball PGD engine, the variational objective and its gradients, and
training determinism."""

import hashlib
import math
import os

import numpy as np
import pytest

import refeval as ref_pgd
import refgamma
import reftape as ref
from params import param_set
from pertsets import nn
from pertsets.cvae import (
    Condition,
    CvaeModel,
    GaussianDiag,
    PairSet,
    TrainConfig,
    _chi_ball_cdf,
    elbo_loss,
    kl_diag,
    latent_pgd,
    load_cvae,
    project_ball,
    sample_truncated_ball,
    train_cvae,
)
from pertsets.evalmetrics import _recon_objective


def tiny_pairs(rng, n=48, m=12):
    y = rng.uniform(0.1, 0.9, size=(n, m)).astype(np.float32)
    x = np.clip(y + rng.uniform(-0.1, 0.1, size=(n, m)).astype(np.float32), 0, 1)
    return PairSet(x, y)


# ---------------------------------------------------------------------------
# KL


def test_kl_unit_shift_closed_form():
    q = GaussianDiag(np.array([[1.0]]), np.array([[0.0]]))
    p = GaussianDiag(np.array([[0.0]]), np.array([[0.0]]))
    assert kl_diag(q, p).shape == (1,)
    assert float(kl_diag(q, p)[0]) == pytest.approx(0.5, abs=1e-12)


def test_kl_identical_is_zero_and_nonnegative():
    rng = np.random.default_rng(0)
    g = GaussianDiag(rng.normal(size=(1, 5)), rng.normal(size=(1, 5)))
    assert float(kl_diag(g, g)[0]) == pytest.approx(0.0, abs=1e-12)
    q = GaussianDiag(rng.normal(size=(50, 6)), rng.uniform(-2, 2, (50, 6)))
    p = GaussianDiag(rng.normal(size=(50, 6)), rng.uniform(-2, 2, (50, 6)))
    assert (kl_diag(q, p) >= 0.0).all()


def test_kl_against_monte_carlo():
    # MC oracle: E_q[log q - log p] over 1e6 draws, within 1%
    rng = np.random.default_rng(21)
    mu_q, lv_q = np.array([[1.0, -0.5]]), np.array([[0.3, -0.8]])
    mu_p, lv_p = np.array([[0.0, 0.4]]), np.array([[-0.2, 0.5]])
    z = mu_q + rng.standard_normal((1_000_000, 2)) * np.exp(0.5 * lv_q)

    def logpdf(z, mu, lv):
        return (-0.5 * ((z - mu) ** 2) / np.exp(lv) - 0.5 * lv - 0.5 * math.log(2 * math.pi)).sum(axis=1)

    mc = float(np.mean(logpdf(z, mu_q, lv_q) - logpdf(z, mu_p, lv_p)))
    closed = float(kl_diag(GaussianDiag(mu_q, lv_q), GaussianDiag(mu_p, lv_p))[0])
    assert closed == pytest.approx(mc, rel=0.01)


def test_kl_batched_matches_rowwise():
    rng = np.random.default_rng(4)
    q = GaussianDiag(rng.normal(size=(7, 3)), rng.uniform(-1, 1, (7, 3)))
    p = GaussianDiag(rng.normal(size=(7, 3)), rng.uniform(-1, 1, (7, 3)))
    batched = kl_diag(q, p)
    assert batched.shape == (7,)
    for i in range(7):
        single = float(kl_diag(GaussianDiag(q.mean[i:i + 1], q.logvar[i:i + 1]),
                               GaussianDiag(p.mean[i:i + 1], p.logvar[i:i + 1]))[0])
        assert batched[i] == pytest.approx(single, rel=1e-12)


# ---------------------------------------------------------------------------
# Reparameterization and standardization


def test_reparameterize_zero_noise_returns_mean():
    # z = mean + u * std(), as elbo_loss and evaluate_set's recon_err draw it
    g = GaussianDiag(np.array([2.0, -1.0]), np.array([0.7, -0.3]))
    assert (g.mean + np.zeros(2) * g.std()).tobytes() == g.mean.tobytes()


def test_reparameterize_matches_formula_and_inverts():
    # std() has the bits of exp(logvar * 0.5), the factor elbo_loss writes
    # out, in float64 and float32; standardizing a draw gives its noise back
    rng = np.random.default_rng(8)
    for dtype, tol in ((np.float64, 1e-9), (np.float32, 1e-5)):
        g = GaussianDiag(rng.normal(size=4).astype(dtype), rng.uniform(-1, 1, 4).astype(dtype))
        std = g.std()
        assert std.dtype == dtype and std.tobytes() == np.exp(g.logvar * 0.5).tobytes()
        u = rng.normal(size=4).astype(dtype)
        z = g.mean + u * std
        np.testing.assert_allclose(z, g.mean + u * np.exp(0.5 * g.logvar.astype(np.float64)),
                                   rtol=tol)
        np.testing.assert_allclose((z - g.mean) / std, u, rtol=tol, atol=tol)


# ---------------------------------------------------------------------------
# Truncated ball sampling


def test_truncated_ball_norms_bounded():
    rng = np.random.default_rng(5)
    u = sample_truncated_ball(8, 2.5, 2000, rng)
    assert u.shape == (2000, 8)
    assert np.linalg.norm(u, axis=1).max() <= 2.5 + 1e-9


def test_truncated_ball_radius_distribution_k2():
    # closed form for k=2: P(r <= t | r <= eps) = (1 - exp(-t^2/2)) / (1 - exp(-eps^2/2))
    rng = np.random.default_rng(99)
    eps = 1.0
    u = sample_truncated_ball(2, eps, 100_000, rng)
    r = np.sort(np.linalg.norm(u, axis=1))
    cdf_true = (1.0 - np.exp(-0.5 * r ** 2)) / (1.0 - math.exp(-0.5 * eps ** 2))
    emp = np.arange(1, r.size + 1) / r.size
    ks = np.abs(emp - cdf_true).max()
    assert ks < 0.01


def test_truncated_ball_directions_uniform():
    # mean direction of many draws should vanish; covariances isotropic
    rng = np.random.default_rng(17)
    u = sample_truncated_ball(3, 2.0, 50_000, rng)
    d = u / np.linalg.norm(u, axis=1, keepdims=True)
    assert np.abs(d.mean(axis=0)).max() < 0.02
    cov = d.T @ d / d.shape[0]
    np.testing.assert_allclose(cov, np.eye(3) / 3, atol=0.02)


@pytest.mark.parametrize("k", [1, 2, 8, 128, 784])
def test_radius_table_matches_the_per_point_reference(k):
    # the one-pass table gives the bytes of one scalar call per grid point
    for eps in (0.05, 0.3, 1.0, 2.5, 7.0, 31.0, 60.0):
        grid, cdf = _chi_ball_cdf(k, eps)
        ref_grid, ref_cdf = refgamma.chi_ball_cdf(k, eps)
        assert grid.tobytes() == ref_grid.tobytes()
        assert cdf.tobytes() == ref_cdf.tobytes(), (k, eps)


@pytest.mark.parametrize("k,eps,n,seed,digest", [
    (1, 0.05, 64, 0, "5cd0efa562ca1db5"),
    (2, 1.0, 64, 1, "28976b0cca0fb4e8"),
    (8, 2.5, 64, 2, "2636f6304806caed"),
    (128, 12.0, 16, 3, "38a7a1407f89be83"),
    (784, 31.0, 4, 4, "174ec03c1adc4cff"),
])
def test_truncated_ball_draws_are_frozen(k, eps, n, seed, digest):
    # digests of draws made when the radius table was built point by point
    u = sample_truncated_ball(k, eps, n, np.random.default_rng(seed))
    assert hashlib.sha256(u.tobytes()).hexdigest()[:16] == digest


def test_truncated_ball_domain_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_truncated_ball(4, 0.0, 10, rng)
    with pytest.raises(ValueError):
        sample_truncated_ball(0, 1.0, 10, rng)


# ---------------------------------------------------------------------------
# Latent-ball PGD engine


def test_project_ball():
    u = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    p = project_ball(u, 1.0)
    np.testing.assert_allclose(p[0], [0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(p[1], u[1])
    np.testing.assert_allclose(p[2], 0.0)
    np.testing.assert_allclose(project_ball(p, 1.0), p, atol=1e-12)
    np.testing.assert_array_equal(project_ball(u, 0.0), 0.0)


def test_project_ball_float32_rows_stay_inside():
    # eps / norm rounds in float32; the projection still leaves no row with
    # a float32 norm above eps
    rng = np.random.default_rng(31)
    u = rng.standard_normal((100_000, 8)).astype(np.float32)
    u *= rng.uniform(1.0, 3.0, (100_000, 1)).astype(np.float32) / np.linalg.norm(u, axis=1,
                                                                                 keepdims=True)
    for eps in (1.0, 0.3, 5.053247):
        p = project_ball(u * np.float32(eps), eps)
        assert p.dtype == np.float32
        norms = np.linalg.norm(p, axis=1)
        assert (norms.astype(np.float64) <= eps).all()
        # the shrink is a few ulps at most
        assert norms.min() >= np.float32(eps) * np.float32(1 - 1e-6)
    inside = u[:10] / np.float32(4.0)
    assert project_ball(inside, 1.0).tobytes() == inside.tobytes()


def sq_dist(target):
    """Per-row squared distance to target rows and, when asked, the gradient
    of their sum."""
    def objective(u, want_grad):
        d = u - target
        return (d * d).sum(axis=1), (d + d if want_grad else None)
    return objective


@pytest.mark.parametrize("maximize", [False, True])
def test_latent_pgd_never_worse_than_start(maximize):
    rng = np.random.default_rng(40)
    target = rng.normal(0.0, 2.0, (12, 3))
    u0 = rng.normal(0.0, 1.0, (12, 3))
    start, _ = sq_dist(target)(project_ball(u0, 1.5), False)
    best, u = latent_pgd(sq_dist(target), u0, 1.5, 10, 0.3, maximize)
    assert (np.linalg.norm(u, axis=1) <= 1.5 + 1e-12).all()
    np.testing.assert_array_equal(best, sq_dist(target)(u, False)[0])
    if maximize:
        assert (best >= start).all() and (best > start).any()
    else:
        assert (best <= start).all() and (best < start).any()


def test_latent_pgd_reaches_ball_boundary_optimum():
    # nearest point of the ball to an outside target is eps * target / |target|
    target = np.array([[3.0, 4.0], [0.0, -2.0]])
    _, u = latent_pgd(sq_dist(target), np.zeros((2, 2)), 1.0, 40, 0.05, maximize=False)
    want = target / np.linalg.norm(target, axis=1, keepdims=True)
    np.testing.assert_allclose(u, want, atol=0.05)


def test_latent_pgd_keeps_start_and_skips_last_backward():
    # steps overshoot the optimum at the start point, so the start stays best;
    # the last iterate is scored but never differentiated
    calls = []
    target = np.array([[0.5, 0.0], [0.0, 0.5]])
    objective = sq_dist(target)
    u0 = target + 1e-3
    rows = []
    best, u = latent_pgd(lambda u, want_grad: calls.append(want_grad) or objective(u, want_grad),
                         u0, 1.0, 4, 0.5, maximize=False, transcript=rows)
    np.testing.assert_array_equal(u, u0)
    np.testing.assert_allclose(best, 2e-6, rtol=1e-9)
    assert calls == [True] * 4 + [False]
    assert [r["iteration"] for r in rows] == list(range(5))


def test_latent_pgd_zero_steps_scores_projected_start():
    target = np.zeros((1, 2))
    best, u = latent_pgd(sq_dist(target), np.array([[3.0, 4.0]]), 2.0, 0, 1.0, maximize=True)
    np.testing.assert_allclose(u, [[1.2, 1.6]])
    np.testing.assert_allclose(best, [4.0])


def _quadratic_search():
    # float64 rows; rows 2 and 7 start on their target inside the ball, so
    # their gradient is zero and they never move
    rng = np.random.default_rng(41)
    target = rng.normal(0.0, 2.0, (10, 3))
    target[[2, 7]] *= 0.1
    u0 = rng.normal(0.0, 1.0, (10, 3))
    u0[[2, 7]] = target[[2, 7]]
    return sq_dist(target), u0, 1.5, 0.3


def _decoder_search():
    # float32 rows through a small decoder's reconstruction error
    model = make_model(m=12, k=4, hidden=16, seed=7)
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, (10, 12)).astype(np.float32)
    cond = model.condition(rng.uniform(0, 1, (10, 12)).astype(np.float32))
    u0 = rng.standard_normal((10, 4)).astype(np.float32)
    return _recon_objective(model, x, cond), u0, 1.2, 0.06


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("search", [_quadratic_search, _decoder_search])
@pytest.mark.parametrize("steps", [0, 9])
def test_latent_pgd_mask_runs_each_row_as_its_own_search(search, steps):
    # a mixed mask gives every row, bit for bit, what the one-direction
    # reference loop gives it, run over the same rows in that row's
    # direction; the bool runs match the reference loop too
    objective, u0, eps, step = search()
    mask = np.array([False, True, True, False, False, True, False, True, True, False])
    ref = {b: ref_pgd.latent_pgd(objective, u0, eps, steps, step, b) for b in (False, True)}
    got = latent_pgd(objective, u0, eps, steps, step, maximize=mask)
    for i, row in enumerate(mask):
        assert _same_bytes(got[0][i], ref[row][0][i]) and _same_bytes(got[1][i], ref[row][1][i])
    if steps:
        assert not np.array_equal(ref[False][0], ref[True][0])
    for b in (False, True):
        want = []
        ref_pgd.latent_pgd(objective, u0, eps, steps, step, b, transcript=want)
        for maximize in (b, np.full(10, b)):
            t = []
            best, u = latent_pgd(objective, u0, eps, steps, step, maximize, transcript=t)
            assert _same_bytes(best, ref[b][0]) and _same_bytes(u, ref[b][1]) and t == want


# ---------------------------------------------------------------------------
# Pairs


def test_pairset_accessors():
    rng = np.random.default_rng(1)
    ps = tiny_pairs(rng, n=10, m=4)
    assert len(ps) == 10 and ps.dim == 4
    sub = ps.subset(np.array([0, 2]))
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.perturbed[1], ps.perturbed[2])


# ---------------------------------------------------------------------------
# Objective


def make_model(m=6, k=3, hidden=10, seed=0, dtype=np.float32):
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(seed))
    if dtype is not np.float32:
        model.params = param_set({n: v.astype(dtype) for n, v in model.params.values.items()})
    return model


def test_elbo_beta_zero_is_half_sse():
    rng = np.random.default_rng(2)
    model = make_model()
    x = rng.uniform(0, 1, (4, 6)).astype(np.float32)
    y = rng.uniform(0, 1, (4, 6)).astype(np.float32)
    u = rng.standard_normal((4, 3)).astype(np.float32)
    loss, sse, kl, _ = elbo_loss(model, x, y, u, beta=0.0)
    assert float(loss) == pytest.approx(0.5 * sse.mean(), rel=1e-6)
    # and reconstruct sse by hand
    q = model.encode_posterior(x, y)
    z = q.mean + u * q.std()
    g = model.decoder.apply(model.params, [z, y])
    np.testing.assert_allclose(sse, ((x - g) ** 2).sum(axis=1), rtol=1e-5)


def test_elbo_gradients_match_finite_differences():
    # float64 graph; every head (posterior, prior, decoder) gets FD-checked
    rng = np.random.default_rng(13)
    model = make_model(m=5, k=2, hidden=7, dtype=np.float64)
    x = rng.uniform(0.2, 0.8, (3, 5))
    y = rng.uniform(0.2, 0.8, (3, 5))
    u = rng.standard_normal((3, 2))

    def numeric_loss():
        return float(elbo_loss(model, x, y, u, beta=0.37)[0])

    grads = nn.backprop_gradients(model.params, elbo_loss(model, x, y, u, beta=0.37)[3])
    step = 1e-5
    worst = 0.0
    for name, value in model.params.values.items():
        fd = np.zeros_like(value)
        flat, fdf = value.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = numeric_loss()
            flat[i] = orig - step
            lo = numeric_loss()
            flat[i] = orig
            fdf[i] = (hi - lo) / (2 * step)
        denom = max(np.abs(fd).max(), np.abs(grads[name]).max(), 1e-8)
        worst = max(worst, np.abs(grads[name] - fd).max() / denom)
    assert worst <= 1e-3


def test_decode_u_gradient_flows_to_latent():
    model = make_model()
    y = np.full((1, 6), 0.5, dtype=np.float32)
    cond = model.condition(y)
    acts = []
    out = model.decode_u(np.zeros((1, 3), dtype=np.float32), cond, acts)
    g = model.decode_u_grad(cond, acts, 2 * out)
    assert g.shape == (1, 3) and g.dtype == np.float32 and np.abs(g).max() > 0


def test_decode_u_is_decode_of_standardized_latent():
    model = make_model()
    rng = np.random.default_rng(4)
    y = rng.uniform(0, 1, (5, 6)).astype(np.float32)
    u = rng.standard_normal((5, 3)).astype(np.float32)
    cond = model.condition(y)
    prior = model.encode_prior(y)
    assert cond.std.dtype == np.float32
    np.testing.assert_array_equal(cond.std, prior.std())
    # the decoder over both streams adds y's share onto b0 first, as the
    # Condition's cached projection does
    want = model.decoder.apply(model.params, [u * prior.std() + np.asarray(prior.mean), y])
    got = np.asarray(model.decode_u(u, cond))
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    # float64 latents are taken in float32, the dtype of the network math
    assert np.asarray(model.decode_u(u.astype(np.float64), cond)).tobytes() == want.tobytes()


def one_row_and_repeated_decodes(m, k, hidden):
    """decode(z, cond) and decode_u(z, cond) for the Condition of one row y,
    after checking that they agree bit for bit, plus the same two decodes
    through the decoder's two input streams with y repeated once per latent
    row."""
    model = CvaeModel(m, k, hidden, rng=np.random.default_rng(0))
    rng = np.random.default_rng(5)
    y = rng.uniform(0, 1, (1, m)).astype(np.float32)
    z = rng.standard_normal((7, k)).astype(np.float32)
    cond = model.condition(y)
    zu = z * cond.std + cond.prior.mean
    got = np.asarray(model.decode(z, cond))
    got_u = np.asarray(model.decode_u(z, cond))
    assert got_u.tobytes() == np.asarray(model.decode(zu, cond)).tobytes()
    rows = np.repeat(y, 7, axis=0)
    return (got, got_u), tuple(model.decoder.apply(model.params, [v, rows]) for v in (z, zu))


def test_one_row_condition_is_shared_by_every_latent_row():
    got, want = one_row_and_repeated_decodes(6, 3, 10)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m,k,hidden", [(256, 8, 128), (784, 784, 784)])
def test_one_row_condition_at_pipeline_widths(m, k, hidden):
    # a repeated y is projected inside a (7, m) product, which BLAS rounds
    # differently from the one-row product at these widths: equal within a
    # few float32 roundings, not bit for bit
    got, want = one_row_and_repeated_decodes(m, k, hidden)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=16 * np.finfo(np.float32).eps)


# ---------------------------------------------------------------------------
# The split first decoder layer against the concatenated-input reference


def concat_decode(model, z, y):
    """g(z, y) as one dense layer over concat([z, y]), in float64."""
    v = {n: a.astype(np.float64) for n, a in model.params.values.items()}
    y = np.broadcast_to(y, (len(z), y.shape[1]))
    h = np.maximum(np.concatenate([z, y], axis=1) @ v["decoder/w0"] + v["decoder/b0"], 0.0)
    return 0.5 * (np.tanh(h @ v["decoder/w1"] + v["decoder/b1"]) + 1.0)


@pytest.mark.parametrize("rows", [1, 2, 7, 64])
@pytest.mark.parametrize("y_rows", ["one", "many"])
def test_decode_matches_concat_reference(rows, y_rows):
    model = make_model(m=12, k=4, hidden=16, seed=3)
    rng = np.random.default_rng(rows)
    z = rng.standard_normal((rows, 4)).astype(np.float32)
    y = rng.uniform(0, 1, (1 if y_rows == "one" else rows, 12)).astype(np.float32)
    want = concat_decode(model, z, y)
    # the two input streams take y once per latent row; a Condition takes
    # one row of y for any number of latents
    y_each = np.broadcast_to(y, (rows, 12))
    for got in (model.decoder.apply(model.params, [z, y_each]),
                model.decode(z, model.condition(y))):
        assert got.dtype == np.float32 and got.shape == (rows, 12)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_one_row_condition_decode_u_equals_per_row_decodes():
    model = make_model(m=12, k=4, hidden=16, seed=4)
    rng = np.random.default_rng(9)
    y = rng.uniform(0, 1, (1, 12)).astype(np.float32)
    u = rng.standard_normal((9, 4)).astype(np.float32)
    cond = model.condition(y)
    assert cond.proj.shape == (1, 16) and cond.proj.dtype == np.float32
    got = np.asarray(model.decode_u(u, cond))
    z = u * cond.std + cond.prior.mean
    # the cached projection is the one the two-stream pass computes from
    # the same row
    assert cond.proj.tobytes() == model.decoder.project(model.params, y).tobytes()
    for i in range(len(u)):
        np.testing.assert_allclose(got[i], model.decoder.apply(model.params, [z[i:i + 1], y])[0],
                                   rtol=0, atol=1e-6)


def _concat_elbo(model, rec, x, y, u, beta):
    # the reference tape's elbo_loss with the decoder's first layer over a
    # recorded concat([z, y])
    def concat(z):
        return ref.Var(np.concatenate([z.value, y], axis=1), (z,),
                       lambda g: ref._accum(z, g[:, :z.value.shape[1]]))

    decoder = nn.Network("decoder", model.k + model.m, model.decoder.layers)
    return ref.elbo_loss(model, rec, x, y, u, beta,
                         decode=lambda z: ref.apply(decoder, model.params, concat(z), rec))[0]


def test_elbo_decoder_w0_gradient_matches_concat_reference():
    model = make_model(m=12, k=4, hidden=16, seed=5)
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (32, 12)).astype(np.float32)
    y = rng.uniform(0, 1, (32, 12)).astype(np.float32)
    u = rng.standard_normal((32, 4)).astype(np.float32)
    loss, _, _, reverse = elbo_loss(model, x, y, u, beta=0.1)
    got = nn.backprop_gradients(model.params, reverse)
    ref_rec = ref.Rec(model.params)
    ref_loss = _concat_elbo(model, ref_rec, x, y, u, beta=0.1)
    want = ref.backprop_gradients(ref_rec, ref_loss)
    np.testing.assert_allclose(float(loss), float(ref_loss.value), rtol=1e-6)
    assert got["decoder/w0"].shape == (16, 16) and got["decoder/w0"].dtype == np.float32
    scale = np.abs(want["decoder/w0"]).max()
    for rows in (slice(0, 4), slice(4, 16)):     # the latent block and the y block
        np.testing.assert_allclose(got["decoder/w0"][rows], want["decoder/w0"][rows],
                                   rtol=0, atol=1e-5 * scale)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0,
                                   atol=1e-5 * max(np.abs(want[name]).max(), 1e-6))


def test_presplit_checkpoint_loads_and_decodes():
    # written by the concat-decoder code before the first layer was split:
    # same tensor names and shapes, outputs equal up to float32 rounding
    stem = os.path.join(os.path.dirname(__file__), "data", "presplit_cvae", "model")
    model = load_cvae(stem)
    assert model.params.values["decoder/w0"].shape == (4 + 12, 16)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 4)).astype(np.float32)
    y = rng.uniform(0, 1, (5, 12)).astype(np.float32)
    want = np.load(stem.replace("model", "decode.npy"))
    np.testing.assert_allclose(model.decoder.apply(model.params, [z, y]), want, rtol=0, atol=1e-6)
    np.testing.assert_allclose(np.asarray(model.decode(z, model.condition(y))), want,
                               rtol=0, atol=1e-6)


def test_condition_projects_y_once(monkeypatch):
    # y's share of the decoder's first layer, y @ W0[k:], is computed by
    # condition() and by no decode through the Condition
    model = make_model(m=12, k=4, hidden=16, seed=6)
    w0 = model.params.values["decoder/w0"]
    y_shares = []
    dense = nn.dense

    def counted(parts, w, b):
        widths = [p.shape[-1] for p in parts]
        if np.shares_memory(w, w0) and widths[-1] == model.m and w.shape[0] == sum(widths):
            y_shares.append(widths)
        return dense(parts, w, b)

    monkeypatch.setattr(nn, "dense", counted)
    rng = np.random.default_rng(11)
    y = rng.uniform(0, 1, (3, 12)).astype(np.float32)
    cond = model.condition(y)
    assert len(y_shares) == 1
    for _ in range(4):
        model.decode_u(rng.standard_normal((3, 4)), cond)
    latent_pgd(_recon_objective(model, np.zeros((3, 12), np.float32), cond),
               np.zeros((3, 4), np.float32), 1.0, 3, 0.2, maximize=True)
    assert len(y_shares) == 1
    model.decoder.apply(model.params, [np.zeros((3, 4), np.float32), y])  # computed again
    assert len(y_shares) == 2


def test_non_finite_decode_raises():
    model = make_model()
    # finite weights whose first layer overflows to inf; mixed-sign w1 turns
    # that into NaN, which the squash would carry to the output
    model.params.values["decoder/w0"][:] = np.float32(3e38)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="decoded"):
        model.decode(np.ones((2, 3), np.float32), model.condition(np.ones((2, 6), np.float32)))


# ---------------------------------------------------------------------------
# Training


def test_train_cvae_overfits_tiny_corpus():
    rng = np.random.default_rng(3)
    pairs = tiny_pairs(rng, n=32, m=8)
    cfg = TrainConfig(k=4, hidden=32, epochs=40, batch_size=16, seed=1,
                      lr=nn.Schedule([0, 1], [0.004, 0.004]),
                      beta=nn.Schedule([0, 1], [0.0, 0.0]))
    model, history = train_cvae(pairs, cfg)
    assert history[-1]["recon_sse"] < 0.25 * history[0]["recon_sse"]
    assert all(np.isfinite(h["loss"]) for h in history)


def test_train_cvae_deterministic_bit_identical(tmp_path):
    rng = np.random.default_rng(10)
    pairs = tiny_pairs(rng, n=24, m=6)
    cfg = TrainConfig(k=3, hidden=12, epochs=3, batch_size=8, seed=42)
    m1, h1 = train_cvae(pairs, cfg)
    m2, h2 = train_cvae(pairs, cfg)
    m1.save(str(tmp_path / "a"))
    m2.save(str(tmp_path / "b"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert h1 == h2


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    model = make_model(m=6, k=3, hidden=10, seed=5)
    stem = str(tmp_path / "model")
    model.save(stem, extra_meta={"selected_eps": 1.25})
    loaded = load_cvae(stem)
    meta = nn.load_params(stem)[1]
    assert list(model.meta()) == list(CvaeModel.META)
    assert set(meta) == set(CvaeModel.META) | {"selected_eps"}
    assert meta["selected_eps"] == 1.25
    y = rng.uniform(0, 1, (1, 6)).astype(np.float32)
    z = rng.standard_normal((1, 3)).astype(np.float32)
    np.testing.assert_array_equal(model.decode(z, model.condition(y)),
                                  loaded.decode(z, loaded.condition(y)))


@pytest.mark.parametrize("source", ["fresh", "presplit"])
def test_save_load_save_is_byte_identical(tmp_path, source):
    # every checkpoint file, including the meta's key set and float reprs
    if source == "fresh":
        stem = str(tmp_path / "a")
        make_model(m=6, k=3, hidden=10, seed=5).save(stem, extra_meta={"train_pairs": 24})
    else:
        stem = os.path.join(os.path.dirname(__file__), "data", "presplit_cvae", "model")
    model, meta = load_cvae(stem), nn.load_params(stem)[1]
    model.save(str(tmp_path / "b"), extra_meta=meta)
    for suffix in nn.CHECKPOINT_SUFFIXES:
        with open(stem + suffix, "rb") as f:
            assert (tmp_path / ("b" + suffix)).read_bytes() == f.read(), suffix


def test_model_from_mismatched_params_raises_naming_tensor():
    params = make_model(m=6, k=3, hidden=10, seed=5).params
    with pytest.raises(ValueError, match="'decoder/b0' has shape"):
        CvaeModel(6, 3, 11, params=params)
    params = param_set({n: v for n, v in params.values.items() if n != "prior_mean/w0"})
    with pytest.raises(ValueError, match="'prior_mean/w0' missing"):
        CvaeModel(6, 3, 10, params=params)


def test_decoder_output_in_unit_interval():
    model = make_model()
    rng = np.random.default_rng(0)
    out = model.decode(rng.standard_normal((50, 3)).astype(np.float32) * 10,
                       model.condition(rng.uniform(0, 1, (50, 6)).astype(np.float32)))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_logvar_heads_respect_clamp():
    model = make_model()
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (20, 6)).astype(np.float32)
    y = rng.uniform(0, 1, (20, 6)).astype(np.float32)
    q = model.encode_posterior(x, y)
    p = model.encode_prior(y)
    for lv in (q.logvar, p.logvar):
        assert lv.min() >= math.log(1e-3) - 1e-6
        assert lv.max() <= math.log(10.0) + 1e-6


def test_train_rejects_nan_loss():
    rng = np.random.default_rng(3)
    pairs = tiny_pairs(rng, n=16, m=4)
    cfg = TrainConfig(k=2, hidden=8, epochs=3, batch_size=8, seed=0,
                      lr=nn.Schedule([0, 1], [1e9, 1e9]))  # diverges immediately
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            train_cvae(pairs, cfg)

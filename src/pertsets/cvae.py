"""Conditional VAE over perturbation pairs.

A pair couples a perturbed example x with the example y it was derived from.
The model learns a posterior q(z|x,y), a prior p(z|y) and a decoder g(z,y),
all diagonal-Gaussian / deterministic dense networks. After training, the
perturbation set of y is the decoder image of an l2 ball in the standardized
latent space of the prior: g(u * sigma(y) + mu(y), y), ||u|| <= eps.
CvaeModel.condition encodes y's prior once and CvaeModel.decode_u applies
that formula; every latent attack, sample and metric decodes through them.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .specialfn import reg_lower_gamma

log = logging.getLogger(__name__)

# variance clamp for every logvar head: sigma^2 in [1e-3, 10]
LOGVAR_LO = math.log(1e-3)
LOGVAR_HI = math.log(10.0)


@dataclass
class GaussianDiag:
    """Diagonal Gaussian; fields are (B, k) arrays."""

    mean: np.ndarray
    logvar: np.ndarray

    def std(self):
        return np.exp(0.5 * self.logvar)

    def var(self):
        return np.exp(self.logvar)

    def rows(self, index) -> "GaussianDiag":
        """The rows `index` (a slice or an integer array) picks."""
        return GaussianDiag(self.mean[index], self.logvar[index])


@dataclass
class Condition:
    """What every decode against conditioning rows y shares, from
    CvaeModel.condition: the prior p(z|y), its std, and proj = y @ W0[k:] +
    b0, the decoder first layer's share of y, so a decode multiplies only
    the latents by W0[:k]. All are float32 for float32 y; one row of y
    conditions any number of latents."""

    prior: GaussianDiag
    std: np.ndarray
    proj: np.ndarray

    def rows(self, index) -> "Condition":
        """The Condition of the rows `index` (a slice or an integer array)
        picks, so a block of rows is conditioned once for every subset."""
        return Condition(self.prior.rows(index), self.std[index], self.proj[index])


class PairSet:
    """A batch of perturbation pairs as two (N, m) float32 arrays."""

    def __init__(self, perturbed, conditioned, labels=None):
        self.perturbed = np.asarray(perturbed, dtype=np.float32)
        self.conditioned = np.asarray(conditioned, dtype=np.float32)
        if self.perturbed.ndim != 2 or self.perturbed.shape != self.conditioned.shape:
            raise ValueError("PairSet needs two equal (N, m) arrays")
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        if self.labels is not None and len(self.labels) != len(self.perturbed):
            raise ValueError("labels length mismatch")

    def __len__(self):
        return self.perturbed.shape[0]

    @property
    def dim(self):
        return self.perturbed.shape[1]

    def subset(self, idx) -> "PairSet":
        lbl = None if self.labels is None else self.labels[idx]
        return PairSet(self.perturbed[idx], self.conditioned[idx], lbl)


# ---------------------------------------------------------------------------
# Model


class CvaeModel:
    """Posterior/prior/decoder triple with shared ParamSet.

    Encoders are one-hidden-layer dense trunks with separate linear mean and
    clamped log-variance heads; the decoder mirrors the trunk shape and
    squashes its output onto [0, 1].
    """

    # checkpoint meta: each constructor argument, in order, and its kind
    META = {"m": "int", "k": "int", "hidden": "int"}

    def __init__(self, m: int, k: int, hidden: int,
                 params: nn.ParamSet = None, rng: np.random.Generator = None):
        self.m, self.k, self.hidden = int(m), int(k), int(hidden)
        clamp = ("scaled_tanh", LOGVAR_LO, LOGVAR_HI)
        self.post_trunk = nn.Network("posterior", [m, m], [("dense", hidden), ("relu",)])
        self.post_mean = nn.Network("posterior_mean", hidden, [("dense", k)])
        self.post_logvar = nn.Network("posterior_logvar", hidden, [("dense", k), clamp])
        self.prior_trunk = nn.Network("prior", m, [("dense", hidden), ("relu",)])
        self.prior_mean = nn.Network("prior_mean", hidden, [("dense", k)])
        self.prior_logvar = nn.Network("prior_logvar", hidden, [("dense", k), clamp])
        self.decoder = nn.Network("decoder", [k, m], [("dense", hidden), ("relu",),
                                                      ("dense", m), ("scaled_tanh", 0.0, 1.0)])
        self.nets = [self.post_trunk, self.post_mean, self.post_logvar,
                     self.prior_trunk, self.prior_mean, self.prior_logvar, self.decoder]
        self.params = nn.model_params(self.nets, params, rng)

    def encode_posterior(self, x, y) -> GaussianDiag:
        h = self.post_trunk.apply(self.params, [x, y])
        return GaussianDiag(self.post_mean.apply(self.params, h),
                            self.post_logvar.apply(self.params, h))

    def encode_prior(self, y) -> GaussianDiag:
        h = self.prior_trunk.apply(self.params, y)
        return GaussianDiag(self.prior_mean.apply(self.params, h),
                            self.prior_logvar.apply(self.params, h))

    def decode(self, z, cond: Condition, acts: list = None):
        """g(z, y) for (B, k) latents z against the Condition of rows y:
        relu(z @ W0[:k] + cond.proj) through the decoder. A non-finite output
        raises FloatingPointError. `acts` keeps the decoder's activations for
        its reverse pass (nn.Network.apply)."""
        out = self.decoder.apply(self.params, [z], proj=cond.proj, acts=acts)
        return nn.finite_or_raise(out, "decoded outputs")

    def condition(self, y) -> Condition:
        """The Condition of rows y: their prior p(z|y) and first-layer
        projection, computed once for any number of decodes."""
        prior = self.encode_prior(y)
        return Condition(prior, prior.std(), self.decoder.project(self.params, y))

    def decode_u(self, u, cond: Condition, acts: list = None):
        """The perturbation-set map g(u * sigma(y) + mu(y), y) of standardized
        latents u, taken in float32. `acts` keeps what decode_u_grad reads.
        z is formed in one array: a float32 copy of u, scaled and shifted in
        place (a float64 Condition widens it, as the expression would)."""
        z = nn.into(np.multiply, np.array(u, dtype=np.float32), cond.std)
        return self.decode(nn.into(np.add, z, cond.prior.mean), cond, acts)

    def decode_u_grad(self, cond: Condition, acts: list, g):
        """The gradient in u of the decode_u(u, cond, acts) call, from g, the
        gradient in its output: the decoder's reverse pass into the latents,
        times sigma(y). No weight gradient is formed."""
        return nn.backward(self.decoder, self.params, acts, g, input_grad=True) * cond.std

    # -- persistence ---------------------------------------------------------

    def meta(self) -> dict:
        return {key: getattr(self, key) for key in self.META}

    def save(self, stem: str, extra_meta: dict = None):
        nn.save_params(self.params, stem, {**self.meta(), **(extra_meta or {})})


def load_cvae(stem: str) -> CvaeModel:
    params, meta = nn.load_params(stem)
    return CvaeModel(*nn.meta_values(stem, meta, CvaeModel.META), params=params)


# ---------------------------------------------------------------------------
# Distributional pieces


def kl_diag(q: GaussianDiag, p: GaussianDiag):
    """KL(q || p) for diagonal Gaussians, summed over latent dims: (B,) from
    (B, k) fields."""
    return _kl_terms(q, p)[0]


def _kl_terms(q: GaussianDiag, p: GaussianDiag):
    # KL(q || p) per row, plus the terms its gradient reads: the variance
    # ratio var_q / var_p, the mean gap mu_q - mu_p and 1 / var_p
    dl = q.logvar - p.logvar
    ratio, dm, inv_var_p = np.exp(dl), q.mean - p.mean, np.exp(-p.logvar)
    kl = ((ratio + (dm * dm) * inv_var_p) + (-dl - 1.0)).sum(axis=-1) * 0.5
    return kl, ratio, dm, inv_var_p


def sample_truncated_ball(k: int, eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n standard-normal latents conditioned on ||u||_2 <= eps.

    Uniform direction times a radius from the chi_k distribution truncated at
    eps; the radius inverse CDF is tabulated on a dense grid (4096 cells keep
    the CDF error orders below the 0.01 KS tolerance the tests require).
    """
    if eps <= 0:
        raise ValueError(f"ball radius must be positive, got {eps}")
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    dirs = rng.standard_normal((n, k))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs /= norms
    grid, cdf = _chi_ball_cdf(k, float(eps))
    v = rng.uniform(0.0, 1.0, size=n) * cdf[-1]
    radius = np.interp(v, cdf, grid)
    return dirs * radius[:, None]


@functools.lru_cache(maxsize=64)
def _chi_ball_cdf(k: int, eps: float):
    # radius CDF table P(k/2, t^2/2), built in one array pass on first use;
    # cached because evaluation draws per pair with one eps
    grid = np.linspace(0.0, eps, 4097)
    cdf = reg_lower_gamma(0.5 * k, 0.5 * grid * grid)
    grid.setflags(write=False)
    cdf.setflags(write=False)
    return grid, cdf


def project_ball(u, eps: float) -> np.ndarray:
    """Project each row of u onto the l2 ball of radius eps, keeping u's dtype.

    Every returned row's norm, measured in that dtype, is at most eps: eps /
    norm rounds, so a scaled row can land a rounding step outside the ball,
    and its scale then steps down one ulp at a time until it is inside."""
    u, eps = np.asarray(u), float(eps)
    limit = np.float64(eps)     # eps itself, not eps rounded to u's dtype
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    scale = np.where(norms > eps, eps / np.where(norms == 0, 1.0, norms), 1.0)
    out = u * scale
    over = np.linalg.norm(out, axis=1, keepdims=True) > limit
    while over.any():
        scale = np.where(over, np.nextafter(scale, 0), scale)
        out = u * scale
        over = np.linalg.norm(out, axis=1, keepdims=True) > limit
    return out


def latent_pgd(objective, u0, eps: float, steps: int, step: float, maximize,
               transcript: list = None):
    """Projected gradient search over the l2 ball of radius eps, one problem
    per row of u0.

    objective(u, want_grad) takes the (B, k) latents and returns the per-row
    values (B,) to compare and, when want_grad, the gradient of their sum in
    u (else None): each objective writes out the reverse pass of its own
    graph. maximize is a bool for every row or a (B,) boolean mask, one
    search direction per row. The search starts at u0 projected into the
    ball and takes `steps` steps of length `step` along each row's
    normalized gradient (ascent where maximize), rows with zero gradient
    staying put; the signed step is rounded to the gradient's dtype, so a
    row's arithmetic does not depend on the other rows' directions. The
    best iterate per row is kept and the start counts as one, so no row
    ends worse than its start; the last iterate is scored but not
    differentiated. Returns (best values, best u); transcript, when given,
    gets one entry per iterate, its loss and u_norm the means over all rows.
    """
    u = project_ball(u0, eps)
    ascend = np.broadcast_to(np.asarray(maximize, dtype=bool), u.shape[:1])
    for t in range(steps + 1):
        val, g = objective(u, t < steps)
        if t == 0:
            best_val, best_u = val.copy(), u.copy()
        else:
            better = np.where(ascend, val > best_val, val < best_val)
            best_val[better] = val[better]
            best_u[better] = u[better]
        if transcript is not None:
            transcript.append({"iteration": t, "loss": float(val.mean()),
                               "u_norm": float(np.linalg.norm(u, axis=1).mean())})
        if t == steps:
            break
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        direction = np.where(gn > 0, g / np.where(gn == 0, 1.0, gn), 0.0)
        signed = np.where(ascend, step, -step).astype(direction.dtype)[:, None]
        u = project_ball(u + signed * direction, eps)
    return best_val, best_u


# ---------------------------------------------------------------------------
# Objective


def elbo_loss(model: CvaeModel, x, y, u, beta: float):
    """Negative ELBO with constants dropped: mean over the batch of
    0.5*||x - g(z,y)||^2 + beta * KL(q || p), one posterior sample z per pair.

    x, y: (B, m) arrays; u: (B, k) standard normal draws. Returns the scalar
    loss, per-pair reconstruction SSE and KL arrays for logging, and
    reverse(grads), which writes the loss's gradient in every parameter into
    grads (nn.backprop_gradients). No output check runs here: the caller
    checks the loss.
    """
    params = model.params
    acts = {net.name: [] for net in model.nets}

    def run(net, inputs):
        return net.apply(params, inputs, acts=acts[net.name])

    hq = run(model.post_trunk, [x, y])
    q = GaussianDiag(run(model.post_mean, hq), run(model.post_logvar, hq))
    hp = run(model.prior_trunk, y)
    p = GaussianDiag(run(model.prior_mean, hp), run(model.prior_logvar, hp))
    std_q = np.exp(q.logvar * 0.5)
    z = q.mean + u * std_q
    diff = run(model.decoder, [z, y]) - x
    sse = (diff * diff).sum(axis=-1)
    kl, ratio, dm, inv_var_p = _kl_terms(q, p)
    loss = (sse * 0.5 + kl * float(beta)).sum() * (1.0 / len(sse))

    def reverse(grads):
        def back(net, g, input_grad=True):
            return nn.backward(net, params, acts[net.name], g, grads, input_grad)

        # d loss / d (each pair's term); the squared error and the KL sum
        # over columns, so their row weights broadcast
        g_pair = np.full(len(sse), 1.0 / len(sse), dtype=sse.dtype)
        t = (g_pair * 0.5)[:, None] * diff
        g_z = back(model.decoder, t + t)
        # z = mu_q + u * exp(logvar_q / 2)
        g_lq = ((g_z * u) * std_q) * 0.5
        # KL rows: sum of ratio + dm^2 / var_p - (logvar_q - logvar_p) - 1, halved
        gi = ((g_pair * float(beta)) * 0.5)[:, None]
        g_dl = gi * ratio + gi * -1.0
        g_nlp = (gi * (dm * dm)) * inv_var_p      # in -logvar_p, through 1 / var_p
        t = (gi * inv_var_p) * dm
        g_dm = t + t
        back(model.post_trunk, back(model.post_mean, g_z + g_dm)
             + back(model.post_logvar, g_lq + g_dl), input_grad=False)
        back(model.prior_trunk, back(model.prior_mean, -g_dm)
             + back(model.prior_logvar, -g_nlp - g_dl), input_grad=False)

    return loss, sse, kl, reverse


# ---------------------------------------------------------------------------
# Training


# the learning-rate and KL-weight schedules a run takes when it sets none
DEFAULT_LR = nn.Schedule([0, 10, 15, 20], [0.0, 0.001, 0.0005, 0.0001])
DEFAULT_BETA = nn.Schedule([0, 5, 20], [0.0, 0.001, 0.01])


@dataclass
class TrainConfig:
    k: int
    hidden: int
    epochs: int
    batch_size: int = 128
    lr: nn.Schedule = DEFAULT_LR
    beta: nn.Schedule = DEFAULT_BETA
    seed: int = 0


def train_cvae(pairs: PairSet, cfg: TrainConfig) -> tuple[CvaeModel, list[dict]]:
    """Train a CvaeModel on perturbation pairs.

    Deterministic given cfg.seed: identical runs produce bit-identical
    parameters. Schedules are evaluated at fractional epochs so a zero-valued
    first knot still ramps within epoch 0. Raises FloatingPointError naming
    the epoch if the loss goes non-finite.
    """
    root = np.random.SeedSequence(cfg.seed)
    init_seed, shuffle_seed, noise_seed = root.spawn(3)
    model = CvaeModel(pairs.dim, cfg.k, cfg.hidden, rng=np.random.default_rng(init_seed))
    shuffle_rng = np.random.default_rng(shuffle_seed)
    noise_rng = np.random.default_rng(noise_seed)
    n = len(pairs)
    history = []
    for epoch in range(cfg.epochs):
        batches = nn.epoch_batches(n, cfg.batch_size, shuffle_rng)
        tot_loss = tot_sse = tot_kl = 0.0
        for b, idx in enumerate(batches):
            frac = epoch + b / len(batches)
            lr = cfg.lr.value(frac)
            beta = cfg.beta.value(frac)
            u = noise_rng.standard_normal((len(idx), cfg.k), dtype=np.float32)
            loss, sse, kl, reverse = elbo_loss(model, pairs.perturbed[idx],
                                               pairs.conditioned[idx], u, beta)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
            nn.backprop_gradients(model.params, reverse)
            nn.adam_step(model.params, lr)
            tot_loss += float(loss) * len(idx)
            tot_sse += float(sse.sum())
            tot_kl += float(kl.sum())
        entry = {"epoch": epoch, "loss": tot_loss / n, "recon_sse": tot_sse / n,
                 "kl": tot_kl / n, "lr": cfg.lr.value(epoch + 1.0), "beta": cfg.beta.value(epoch + 1.0)}
        history.append(entry)
        log.info("epoch %d loss %.5f recon_sse %.4f kl %.4f", epoch, entry["loss"],
                 entry["recon_sse"], entry["kl"])
    return model, history

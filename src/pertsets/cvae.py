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
    """Diagonal Gaussian; fields are (B, k) arrays or recorded Vars."""

    mean: object
    logvar: object

    def std(self):
        return np.exp(0.5 * np.asarray(nn._val(self.logvar)))

    def var(self):
        return np.exp(np.asarray(nn._val(self.logvar)))


@dataclass
class Condition:
    """Conditioning rows y, from CvaeModel.condition, with what every decode
    against them shares: the prior GaussianDiag (for kl_diag), its mean and
    std as arrays, and proj = y @ W0[k:] + b0, the decoder first layer's
    share of y, so a decode multiplies only the latents by W0[:k]. All are
    float32 for float32 y; one row of y conditions any number of latents."""

    y: np.ndarray
    prior: GaussianDiag
    mean: np.ndarray
    std: np.ndarray
    proj: np.ndarray


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
    META = {"m": "int", "k": "int", "hidden": "int", "logvar_lo": "float", "logvar_hi": "float"}

    def __init__(self, m: int, k: int, hidden: int,
                 logvar_lo: float = LOGVAR_LO, logvar_hi: float = LOGVAR_HI,
                 params: nn.ParamSet = None, rng: np.random.Generator = None):
        self.m, self.k, self.hidden = int(m), int(k), int(hidden)
        self.logvar_lo, self.logvar_hi = float(logvar_lo), float(logvar_hi)
        clamp = ("scaled_tanh", self.logvar_lo, self.logvar_hi)
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

    def encode_posterior(self, x, y, rec=None) -> GaussianDiag:
        h = self.post_trunk.apply(self.params, [x, y], rec=rec)
        return GaussianDiag(self.post_mean.apply(self.params, h, rec=rec),
                            self.post_logvar.apply(self.params, h, rec=rec))

    def encode_prior(self, y, rec=None) -> GaussianDiag:
        h = self.prior_trunk.apply(self.params, y, rec=rec)
        return GaussianDiag(self.prior_mean.apply(self.params, h, rec=rec),
                            self.prior_logvar.apply(self.params, h, rec=rec))

    def decode(self, z, y, rec=None):
        """g(z, y) for (B, k) latents z: relu(z @ W0[:k] + proj) through the
        decoder, where proj is y's share of the first layer, taken from y when
        it is a Condition and computed from the (B, m) or (1, m) rows y
        otherwise; a single row of y conditions every row of z. Outside
        training (rec None, whose loss check covers it) a non-finite output
        raises FloatingPointError."""
        if isinstance(y, Condition):
            out = self.decoder.apply(self.params, [z], rec=rec, proj=y.proj)
        else:
            out = self.decoder.apply(self.params, [z, y], rec=rec)
        if rec is None:
            nn.finite_or_raise(nn._val(out), "decoded outputs")
        return out

    def condition(self, y) -> Condition:
        """y with its prior p(z|y) and first-layer projection, computed once
        for any number of decodes."""
        y = np.asarray(y)
        prior = self.encode_prior(y)
        return Condition(y, prior, np.asarray(prior.mean), prior.std(),
                         self.decoder.project(self.params, y))

    def decode_u(self, u, cond: Condition):
        """The perturbation-set map g(u * sigma(y) + mu(y), y) of standardized
        latents u: arrays, taken in float32, or a Var (gradients flow into u
        only)."""
        if not isinstance(u, nn.Var):
            u = np.asarray(u, dtype=np.float32)
        return self.decode(nn.add(nn.mul(u, cond.std), cond.mean), cond)

    # -- persistence ---------------------------------------------------------

    def meta(self) -> dict:
        return {key: getattr(self, key) for key in self.META}

    def save(self, stem: str, extra_meta: dict = None):
        nn.save_params(self.params, stem, {**self.meta(), **(extra_meta or {})})


def load_cvae(stem: str) -> tuple[CvaeModel, dict]:
    params, meta = nn.load_params(stem)
    return CvaeModel(*nn.meta_values(stem, meta, CvaeModel.META), params=params), meta


# ---------------------------------------------------------------------------
# Distributional pieces


def kl_diag(q: GaussianDiag, p: GaussianDiag):
    """KL(q || p) for diagonal Gaussians, summed over latent dims: (B,) from
    (B, k) fields. Works on recorded Vars as well as arrays.
    """
    dl = nn.add(q.logvar, nn.mul(p.logvar, -1.0))          # logvar_q - logvar_p
    ratio = nn.exp(dl)                                      # var_q / var_p
    dm = nn.add(q.mean, nn.mul(p.mean, -1.0))
    maha = nn.mul(nn.mul(dm, dm), nn.exp(nn.mul(p.logvar, -1.0)))
    inner = nn.add(nn.add(ratio, maha), nn.add(nn.mul(dl, -1.0), -1.0))
    return nn.mul(nn.row_sum(inner), 0.5)


def reparameterize(q: GaussianDiag, u):
    """z = mean + u * std for standard-normal u; recordable."""
    return nn.add(q.mean, nn.mul(u, nn.exp(nn.mul(q.logvar, 0.5))))


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
    return (dirs * radius[:, None]).astype(np.float64)


@functools.lru_cache(maxsize=64)
def _chi_ball_cdf(k: int, eps: float):
    # radius CDF table; cached because evaluation draws per pair with one eps
    grid = np.linspace(0.0, eps, 4097)
    cdf = np.array([reg_lower_gamma(0.5 * k, 0.5 * t * t) if t > 0 else 0.0 for t in grid])
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


def latent_pgd(objective, u0, eps: float, steps: int, step: float, maximize: bool,
               transcript: list = None):
    """Projected gradient search over the l2 ball of radius eps, one problem
    per row of u0.

    objective(u) takes the (B, k) latents as a Var and returns the per-row
    values (B,) to compare and the scalar Var to differentiate. The search
    starts at u0 projected into the ball and takes `steps` steps of length
    `step` along each row's normalized gradient (ascent when maximize), rows
    with zero gradient staying put. The best iterate per row is kept and the
    start counts as one, so no row ends worse than its start. Returns
    (best values, best u); transcript, when given, gets one entry per iterate.
    """
    u = project_ball(u0, eps)
    sign = 1.0 if maximize else -1.0
    for t in range(steps + 1):
        uvar = nn.Var(u)
        val, loss = objective(uvar)
        if t == 0:
            best_val, best_u = val.copy(), u.copy()
        else:
            better = val > best_val if maximize else val < best_val
            best_val[better] = val[better]
            best_u[better] = u[better]
        if transcript is not None:
            transcript.append({"iteration": t, "loss": float(val.mean()),
                               "u_norm": float(np.linalg.norm(u, axis=1).mean())})
        if t == steps:
            break
        nn.backward(loss)
        g = uvar.grad
        del uvar, loss      # free this iterate's tape before the next is built
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        direction = np.where(gn > 0, g / np.where(gn == 0, 1.0, gn), 0.0)
        u = project_ball(u + sign * step * direction, eps)
    return best_val, best_u


# ---------------------------------------------------------------------------
# Objective


def elbo_loss(model: CvaeModel, rec: nn.Rec, x, y, u, beta: float):
    """Negative ELBO with constants dropped: mean over the batch of
    0.5*||x - g(z,y)||^2 + beta * KL(q || p), one posterior sample z per pair.

    x, y: (B, m) arrays; u: (B, k) standard normal draws. Returns the scalar
    loss Var plus per-pair reconstruction SSE and KL arrays for logging.
    """
    q = model.encode_posterior(x, y, rec=rec)
    p = model.encode_prior(y, rec=rec)
    z = reparameterize(q, u)
    g = model.decode(z, y, rec=rec)
    diff = nn.add(g, nn.mul(x, -1.0))
    sse = nn.row_sum(nn.mul(diff, diff))
    kl = kl_diag(q, p)
    loss = nn.mean_all(nn.add(nn.mul(sse, 0.5), nn.mul(kl, float(beta))))
    return loss, np.asarray(nn._val(sse)), np.asarray(nn._val(kl))


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
            rec = nn.Rec(model.params)
            loss, sse, kl = elbo_loss(model, rec, pairs.perturbed[idx],
                                      pairs.conditioned[idx], u, beta)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
            grads = nn.backprop_gradients(rec, loss)
            nn.adam_step(model.params, grads, lr)
            tot_loss += float(loss.value) * len(idx)
            tot_sse += float(sse.sum())
            tot_kl += float(kl.sum())
        entry = {"epoch": epoch, "loss": tot_loss / n, "recon_sse": tot_sse / n,
                 "kl": tot_kl / n, "lr": cfg.lr.value(epoch + 1.0), "beta": cfg.beta.value(epoch + 1.0)}
        history.append(entry)
        log.info("epoch %d loss %.5f recon_sse %.4f kl %.4f", epoch, entry["loss"],
                 entry["recon_sse"], entry["kl"])
    return model, history

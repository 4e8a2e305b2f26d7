"""Set-quality evaluation for a trained perturbation-set model.

Radius selection plus six per-pair metrics: encoder, PGD, expected and over
approximation errors, one-sample reconstruction error, and KL. All errors are
per-pixel mean squared values (SSE / m); KL is in nats. Reports aggregate
mean/std and serialize to CSV (one row per pair) and a JSON summary.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .cvae import (CvaeModel, Condition, GaussianDiag, PairSet, kl_diag, latent_pgd,
                   project_ball, sample_truncated_ball)

METRICS = ("enc_ae", "pgd_ae", "eae", "oae", "recon_err", "kl")


# ---------------------------------------------------------------------------
# Batched internals


def _encoder_points(post_mean, prior: GaussianDiag):
    """Standardized posterior-mean latents (float32) and their norms
    (float64, since they set the reported radius)."""
    u = (post_mean - prior.mean) / prior.std()
    return u, np.linalg.norm(u.astype(np.float64), axis=1)


def _sse_rows(out, x):
    # per-row SSE of decodes against float32 targets, and the differences;
    # the metrics and the PGD objective share it, so the best-iterate
    # invariants compare exactly equal arithmetic
    diff = out + -np.asarray(x, dtype=np.float32)
    return (diff * diff).sum(axis=-1), diff


def _mse_rows(model: CvaeModel, u, cond: Condition, x):
    return _sse_rows(model.decode_u(u, cond), x)[0] / x.shape[1]


def _recon_objective(model: CvaeModel, x, cond: Condition):
    """latent_pgd's objective on reconstruction error: each row's per-pixel
    squared error against x of the decode of u and, when asked, the gradient
    of the rows' SSE sum in u, through the decoder's reverse pass (no weight
    gradient is formed)."""
    def recon_error(u, want_grad):
        acts = [] if want_grad else None
        sse, diff = _sse_rows(model.decode_u(u, cond, acts), x)
        if not want_grad:
            return sse / x.shape[1], None
        return sse / x.shape[1], model.decode_u_grad(cond, acts, diff + diff)
    return recon_error


# ---------------------------------------------------------------------------
# Public operations


def select_radius(model: CvaeModel, pairs: PairSet, batch_size: int = 512) -> float:
    """Smallest ball radius containing every standardized mean encoding:
    eps = max over pairs of ||(mu_q - mu_p) / sigma_p||_2. Only the two
    means and the prior's variance are encoded: no posterior variance and no
    decoder projection."""
    if len(pairs) == 0:
        raise ValueError("radius selection needs a non-empty pair set")
    params = model.params
    best = 0.0
    for lo in range(0, len(pairs), batch_size):
        x = pairs.perturbed[lo:lo + batch_size]
        y = pairs.conditioned[lo:lo + batch_size]
        post_mean = model.post_mean.apply(params, model.post_trunk.apply(params, [x, y]))
        _, norms = _encoder_points(post_mean, model.encode_prior(y))
        best = max(best, float(norms.max()))
    return best


# ---------------------------------------------------------------------------
# Dataset-level report


@dataclass
class EvalReport:
    eps: float
    records: dict            # metric name -> (N,) array, plus "latent_norm"
    config: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.records["enc_ae"])

    def summary(self) -> dict:
        out = {"eps": self.eps, "pairs": len(self), "metrics": {},
               "config_hash": self.config_hash()}
        for name in METRICS + ("latent_norm",):
            v = self.records[name]
            out["metrics"][name] = {"mean": float(v.mean()), "std": float(v.std())}
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_csv(self, path: str):
        names = METRICS + ("latent_norm",)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(("pair",) + names)
            for i in range(len(self)):
                w.writerow([i] + [repr(float(self.records[n][i])) for n in names])


def _pair_seeds(x, y, base: int):
    """Content-keyed per-pair seeds: metrics travel with the pair, so the
    aggregates are invariant to dataset permutation."""
    seeds = []
    for i in range(x.shape[0]):
        h = hashlib.blake2b(x[i].tobytes() + y[i].tobytes(), digest_size=8)
        seeds.append(np.random.SeedSequence([base, int.from_bytes(h.digest(), "big")]))
    return seeds


def evaluate_set(model: CvaeModel, pairs: PairSet, eps: float,
                 rng: np.random.Generator, steps: int = 50, n_expected: int = 5,
                 batch_size: int = 256) -> EvalReport:
    """All six metrics for every pair, plus latent norms and aggregates.

    Pairs go in blocks of batch_size. A block's two latent-PGD searches run
    as one latent_pgd call over its rows stacked twice: descent from the
    projected encoder point (pgd_ae), then ascent from a random ball draw
    (oae)."""
    if len(pairs) == 0:
        raise ValueError("evaluation needs a non-empty pair set")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    step = eps / 20.0
    base = int(rng.integers(0, 2 ** 62))
    out = {name: [] for name in METRICS + ("latent_norm",)}
    for lo in range(0, len(pairs), batch_size):
        x = pairs.perturbed[lo:lo + batch_size]
        y = pairs.conditioned[lo:lo + batch_size]
        B = x.shape[0]
        cond = model.condition(y)
        q = model.encode_posterior(x, y)
        u_enc, norms = _encoder_points(q.mean, cond.prior)
        out["latent_norm"].append(norms)
        out["kl"].append(kl_diag(q, cond.prior))

        u_proj = project_ball(u_enc, eps)
        out["enc_ae"].append(_mse_rows(model, u_proj, cond, x))

        rngs = [np.random.default_rng(s) for s in _pair_seeds(x, y, base)]

        noise = np.stack([r.standard_normal(model.k) for r in rngs])
        z = q.mean + noise * q.std()
        out["recon_err"].append(_mse_rows(model, (z - cond.prior.mean) / cond.std, cond, x))

        draws = np.stack([sample_truncated_ball(model.k, eps, n_expected, r)
                          for r in rngs])
        eae = np.zeros(B)
        for j in range(n_expected):
            eae += _mse_rows(model, draws[:, j], cond, x)
        out["eae"].append(eae / n_expected)

        # pgd_ae descends over the first B rows of one search, oae ascends
        # over the second B
        u0 = np.stack([sample_truncated_ball(model.k, eps, 1, r)[0] for r in rngs])
        twice = np.tile(np.arange(B), 2)
        err, _ = latent_pgd(_recon_objective(model, x[twice], cond.rows(twice)),
                            np.concatenate([u_proj, u0.astype(np.float32)]), eps, steps, step,
                            maximize=np.arange(2 * B) >= B)
        out["pgd_ae"].append(err[:B])
        out["oae"].append(err[B:])

    # float32 network values, widened so the summary and CSV reduce in float64
    records = {name: np.concatenate(v).astype(np.float64) for name, v in out.items()}
    config = {"eps": eps, "steps": steps, "n_expected": n_expected,
              "model": model.meta()}
    return EvalReport(eps=eps, records=records, config=config)

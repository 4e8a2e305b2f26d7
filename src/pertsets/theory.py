"""Closed-form guarantee calculators for learned perturbation sets.

Given training thresholds (R, K_i) measured from a model, these produce the
latent radius bound eps = B*r + sqrt(sum K_i) with its paired reconstruction
error bound delta, and the truncated-expectation bound delta * H where H
multiplies per-dimension density-ratio constants. theorem1_bounds takes a
stage's estimates together and computes their per-dimension intervals and
ln H terms as float64 arrays; the rest is plain float arithmetic. H, and so
delta * H, is handled in log scale only, because it overflows float64 for
trained models almost immediately.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cvae import Condition, CvaeModel, GaussianDiag
from .specialfn import chi_square_quantile, lambert_w

LN_2PI = math.log(2.0 * math.pi)


@dataclass
class ObjectiveEstimate:
    """Measured training thresholds for one pair.

    R is the expected log-likelihood term (the -(m/2) ln 2pi constant
    included); K holds the per-dimension un-halved KL expressions
    K_i = s + d - 1 - ln s with s the variance ratio and d the squared
    mean gap over the prior variance, so K_i = 2 * per-dim KL.
    """

    R: float
    K: np.ndarray
    m: int

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64)
        if self.K.ndim != 1 or self.K.size < 1:
            raise ValueError("K must be a non-empty 1-D sequence")
        if (self.K < -1e-6).any():
            raise ValueError("K_i must be non-negative")
        self.K = np.maximum(self.K, 0.0)


@dataclass
class TheoryBounds:
    r: float                 # Mahalanobis radius at tail mass alpha
    alpha: float
    eps: float               # latent radius bound, eps >= r
    delta_sse: float         # reconstruction error bound, SSE units
    delta_per_pixel: float
    B: float                 # max_i sqrt(b_i)
    ln_h: float              # ln of the truncated-expectation constant


def mahalanobis_radius(k: int, alpha: float) -> float:
    """Radius of the ball holding 1 - alpha of a standard k-dim Gaussian."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1) with 1 - alpha < 1, got {alpha}")
    return math.sqrt(chi_square_quantile(1.0 - alpha, k))


def lemma3_interval(K):
    """Interval [a, b] containing every x > 0 with x - ln x <= K + 1, for
    each element of K (a float gives floats, an array two arrays of its
    shape).

    a = -W_0(-e^-(K+1)), b = -W_-1(-e^-(K+1)); the endpoints collapse to 1
    at K = 0. Past K ~ 707, e^-(K+1) is subnormal (and past ~744 it is 0),
    where lambert_w loses precision: there a (about e^-(K+1)) is taken as
    0 and b solves b - ln b = K + 1 directly.
    """
    K = np.asarray(K, dtype=np.float64)
    if (K < 0).any():
        raise ValueError(f"K must be non-negative, got {float(K[K < 0][0])}")
    arg = -np.exp(-(K + 1.0))
    tiny = -arg < sys.float_info.min
    a, b = np.zeros_like(K), np.empty_like(K)
    if tiny.any():
        # b <- K + 1 + ln b contracts by 1/b < 1/700 per pass
        Kt = K[tiny]
        bt = Kt + 1.0
        for _ in range(10):
            bt = Kt + 1.0 + np.log(bt)
        b[tiny] = bt
    normal = ~tiny
    a[normal] = np.minimum(-lambert_w(arg[normal], branch="principal"), 1.0)
    b[normal] = np.maximum(-lambert_w(arg[normal], branch="lower"), 1.0)
    return (float(a), float(b)) if K.ndim == 0 else (a, b)


def theorem1_bounds(estimates, alpha: float = 0.01) -> list:
    """(eps, delta) guarantee for each estimate, in order: within latent
    radius eps = B*r + sqrt(sum K_i) there is a point whose reconstruction
    SSE is at most delta = -(2R + m ln 2pi) / (1 - alpha).

    The estimates share one k, so r = mahalanobis_radius(k, alpha) is
    computed once, and the Lemma-3 intervals and ln H terms of every
    estimate and dimension in one array pass. Every step is elementwise or
    within one row, so an estimate's bounds do not depend on the others."""
    K = np.stack([est.K for est in estimates])     # ValueError unless one k
    r = mahalanobis_radius(K.shape[1], alpha)
    a, b = lemma3_interval(K)
    # a c2 past float range (a tiny or 0) is inf, not a warning
    with np.errstate(divide="ignore", over="ignore"):
        c1 = (b - 1.0) * r * r - K
        c2 = ((1.0 - a) * r * r + 2.0 * r * np.sqrt(K) + K) / a
        terms = 0.5 * np.log(b) + np.maximum(c1, c2)
    # cumsum adds along each row left to right, as a running sum would
    ln_h = np.cumsum(terms, axis=1)[:, -1].tolist()
    B = np.sqrt(b).max(axis=1).tolist()
    out = []
    for i, est in enumerate(estimates):
        eps = B[i] * r + math.sqrt(float(est.K.sum()))
        delta = max(0.0, -(2.0 * est.R + est.m * LN_2PI) / (1.0 - alpha))
        out.append(TheoryBounds(r=r, alpha=alpha, eps=eps, delta_sse=delta,
                                delta_per_pixel=delta / est.m, B=B[i], ln_h=ln_h[i]))
    return out


def theorem2_bound(bounds: TheoryBounds) -> float:
    """The log of the bound on the truncated expected reconstruction SSE
    under the prior: ln(delta * H) = ln(delta) + ln H, from theorem1_bounds'
    result. H overflows float64 for trained models, so the bound is only
    ever reported in log scale. -inf at delta = 0, inf when ln H is."""
    if bounds.delta_sse == 0.0:
        return -math.inf
    return math.log(bounds.delta_sse) + bounds.ln_h


def estimate_R_K(model: CvaeModel, x, q: GaussianDiag, cond: Condition,
                 rng: np.random.Generator, samples: int = 64) -> ObjectiveEstimate:
    """Measure (R, K_i) for one pair: x its (1, m) perturbed row, q its
    posterior and cond its conditioned row's Condition, each one row (a
    stage encodes a block of pairs at once and passes each pair its rows,
    GaussianDiag.rows and Condition.rows).

    R is a Monte-Carlo mean of -SSE/2 - (m/2) ln 2pi over full posterior
    samples decoded against cond; K_i comes from the closed-form
    per-dimension expression against cond's prior."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    p = cond.prior
    noise = rng.standard_normal((samples, model.k)).astype(np.float32)
    q_std = q.std()
    z = np.asarray(q.mean) + q_std * noise
    out = np.asarray(model.decode(z, cond))
    # R and K in float64 from the float32 network outputs
    diff = out.astype(np.float64) - x
    sse = np.sum(diff * diff, axis=1)
    R = float(np.mean(-0.5 * sse)) - 0.5 * model.m * LN_2PI

    # cond.std is p.std(); p.var() is not its square bit for bit
    ratio = (q_std[0].astype(np.float64) / cond.std[0]) ** 2
    gap = (np.asarray(q.mean[0], dtype=np.float64) - np.asarray(p.mean[0])) ** 2
    K = ratio + gap / p.var()[0] - 1.0 - np.log(ratio)
    return ObjectiveEstimate(R=R, K=K, m=model.m)

"""Randomized smoothing over a learned perturbation set.

The smoothed classifier votes over decodes of Gaussian latents u ~ N(0, s^2 I)
in the standardized prior space (the same space the attacks use).
Certification lower-bounds the top-class probability with a Clopper-Pearson
interval and converts it to a certified l2 latent radius sigma * quantile(p_a).
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .cvae import Condition, CvaeModel
from .robust import Classifier, _train_step
from .specialfn import clopper_pearson_lower, std_normal_quantile

log = logging.getLogger(__name__)

ABSTAIN = -1


@dataclass
class Certificate:
    prediction: int          # class id, or ABSTAIN
    radius: float            # certified l2 radius in latent units, 0 on abstain
    p_a: float               # lower confidence bound on the top-class mass


def sample_under_noise(h: Classifier, model: CvaeModel, cond: Condition, n: int,
                       sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Class counts over n decodes at latent noise level sigma, against one
    example's Condition. The noise is drawn 512 rows at a time into one
    buffer, which draws the stream's values in the order that one fresh
    array per chunk would."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    counts = np.zeros(h.n_classes, dtype=np.int64)
    noise = np.empty((min(512, n), model.k))
    done = 0
    while done < n:
        u = noise[:min(512, n - done)]
        rng.standard_normal(out=u)
        u *= sigma
        counts += np.bincount(h.predict(model.decode_u(u, cond)), minlength=h.n_classes)
        done += len(u)
    return counts


def certify(h: Classifier, model: CvaeModel, cond: Condition, sigma: float,
            rng: np.random.Generator, n0: int = 100, n: int = 10_000,
            alpha: float = 0.001) -> Certificate:
    """Guess the top class from n0 samples, then lower-bound its probability
    with n fresh samples; certify radius sigma * quantile(p_a) when
    p_a > 1/2, otherwise abstain. The guess is the first most-voted class,
    so a tie goes to the lowest class id. cond is the example's one-row
    Condition (Condition.rows of a block's); the two stages use independent
    streams and decode against it."""
    if n0 < 1 or n < 1:
        raise ValueError("need n0 >= 1 and n >= 1")
    rng0, rng1 = rng.spawn(2)
    guess = int(np.argmax(sample_under_noise(h, model, cond, n0, sigma, rng0)))
    counts = sample_under_noise(h, model, cond, n, sigma, rng1)
    p_a = clopper_pearson_lower(int(counts[guess]), n, 1.0 - alpha)
    if p_a > 0.5:
        return Certificate(prediction=guess, radius=sigma * std_normal_quantile(p_a), p_a=p_a)
    return Certificate(prediction=ABSTAIN, radius=0.0, p_a=p_a)


def sigma_for_radius(eps_target: float, n: int = 10_000, alpha: float = 0.001) -> float:
    """Noise level whose best achievable certified radius (unanimous votes)
    equals eps_target: sigma = eps / quantile(clopper_pearson_lower(n, n))."""
    if eps_target <= 0:
        raise ValueError(f"eps_target must be > 0, got {eps_target}")
    best_p = clopper_pearson_lower(n, n, 1.0 - alpha)
    return eps_target / std_normal_quantile(best_p)


def noise_train_epoch(h: Classifier, model: CvaeModel, x, labels, sigma: float,
                      lr: float, rng: np.random.Generator,
                      batch_size: int = 128) -> Classifier:
    """One epoch on Gaussian latent noise: each example is replaced by a
    decode at u ~ N(0, sigma^2 I) before a standard training step."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    losses = []
    for idx in nn.epoch_batches(len(x), batch_size, rng):
        u = sigma * rng.standard_normal((len(idx), model.k))
        dec = model.decode_u(u, model.condition(x[idx]))
        losses.append(_train_step(h, dec, labels[idx], lr))
    log.info("noise epoch: mean loss %.4f over %d batches", np.mean(losses), len(losses))
    return h

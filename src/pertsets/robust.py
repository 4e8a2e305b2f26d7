"""Latent-space attacks and classifier training over a learned perturbation set.

The adversary moves in the standardized latent ball of a frozen generative
model: u with ||u||_2 <= eps, decoded through z = u * sigma(x) + mu(x). The
attack is projected gradient ascent on the classifier loss with normalized
steps and best-iterate output. Training epochs wire that attack (or
truncated-prior augmentation, or nothing) in front of a standard Adam step.
"""

import logging

import numpy as np

from . import nn
from .cvae import CvaeModel, latent_pgd, sample_truncated_ball

log = logging.getLogger(__name__)


class AttackConfig:
    """Latent PGD budget: radius eps, T steps of size eps/5, for training and
    for the attack stage alike."""

    def __init__(self, eps: float, steps: int = 7):
        if eps < 0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.eps, self.steps = float(eps), int(steps)
        self.step = self.eps / 5.0


class Classifier:
    """Dense classifier: flattened image -> class logits."""

    # checkpoint meta: each constructor argument, in order, and its kind
    META = {"m": "int", "n_classes": "int", "hidden": "ints"}

    def __init__(self, m: int, n_classes: int, hidden=(200,),
                 params: nn.ParamSet = None, rng: np.random.Generator = None):
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        self.m, self.n_classes = int(m), int(n_classes)
        self.hidden = tuple(int(h) for h in hidden)
        layers = []
        for h in self.hidden:
            layers += [("dense", h), ("relu",)]
        layers.append(("dense", self.n_classes))
        self.net = nn.Network("classifier", self.m, layers)
        self.params = nn.model_params([self.net], params, rng)

    def logits(self, x, acts: list = None):
        """Class logits; a non-finite logit raises FloatingPointError. `acts`
        keeps the activations of the reverse pass (nn.Network.apply)."""
        return nn.finite_or_raise(self.net.apply(self.params, x, acts=acts), "classifier logits")

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def meta(self) -> dict:
        return {key: getattr(self, key) for key in self.META}

    def save(self, stem: str):
        nn.save_params(self.params, stem, self.meta())


def load_classifier(stem: str) -> Classifier:
    params, meta = nn.load_params(stem)
    return Classifier(*nn.meta_values(stem, meta, Classifier.META), params=params)


# ---------------------------------------------------------------------------
# Attack


def latent_pgd_attack(h: Classifier, model: CvaeModel, x, labels,
                      cfg: AttackConfig, transcript: list = None):
    """Loss-maximizing perturbation in the latent ball for a batch.

    Starts at u = 0, takes cfg.steps normalized
    gradient-ascent steps on the cross-entropy with projection, and returns
    the best iterate: (adversarial examples (B, m), latent points (B, k)).
    Rows with zero gradient skip their step and the loop continues.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float32))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    cond = model.condition(x)
    u0 = np.zeros((x.shape[0], model.k), dtype=np.float32)
    steps = cfg.steps if cfg.eps > 0 else 0
    _, best_u = latent_pgd(_attack_objective(h, model, cond, labels), u0, cfg.eps, steps,
                           cfg.step, maximize=True, transcript=transcript)
    return model.decode_u(best_u, cond), best_u


def _attack_objective(h: Classifier, model: CvaeModel, cond, labels):
    """latent_pgd's objective for the attack: each row's cross-entropy of
    its decode under h and, when asked, the gradient of their sum in u,
    through the classifier's and the decoder's reverse passes (no weight
    gradient is formed). Every decode and logit is checked finite."""
    def cross_entropy(u, want_grad):
        dec, clf = ([], []) if want_grad else (None, None)
        ce, g = nn.cross_entropy(h.logits(model.decode_u(u, cond, dec), clf), labels)
        if not want_grad:
            return ce, None
        g = nn.backward(h.net, h.params, clf, g, input_grad=True)
        return ce, model.decode_u_grad(cond, dec, g)
    return cross_entropy


# ---------------------------------------------------------------------------
# Training epochs


def _train_step(h: Classifier, inputs, labels, lr: float):
    """One Adam step on the mean cross-entropy of a batch. The inputs are
    data, so no gradient in them is formed; a non-finite loss raises."""
    acts = []
    ce, g = nn.cross_entropy(h.net.apply(h.params, inputs, acts=acts), labels)
    loss = ce.sum() * (1.0 / len(ce))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite classifier training loss")

    def reverse(grads):
        nn.backward(h.net, h.params, acts, g * (1.0 / len(ce)), grads)

    nn.backprop_gradients(h.params, reverse)
    nn.adam_step(h.params, lr)
    return float(loss)


def _train_epoch(mode: str, h: Classifier, x, labels, lr: float,
                 rng: np.random.Generator, batch_size: int, make_inputs) -> Classifier:
    """One epoch over shuffled batches: make_inputs(xb, yb) turns each batch
    into the inputs of a standard training step."""
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    losses = []
    for idx in nn.epoch_batches(len(x), batch_size, rng):
        losses.append(_train_step(h, make_inputs(x[idx], labels[idx]), labels[idx], lr))
    log.info("%s epoch: mean loss %.4f over %d batches", mode, np.mean(losses), len(losses))
    return h


def adv_train_epoch(h: Classifier, model: CvaeModel, x, labels,
                    cfg: AttackConfig, lr: float, rng: np.random.Generator,
                    batch_size: int = 128) -> Classifier:
    """One epoch of adversarial training: attack each batch in the frozen
    generator's latent ball, then take a standard step on the attacked
    examples."""
    return _train_epoch("adv", h, x, labels, lr, rng, batch_size,
                        lambda xb, yb: latent_pgd_attack(h, model, xb, yb, cfg)[0])


def augment_train_epoch(h: Classifier, model: CvaeModel, x, labels, eps: float,
                        lr: float, rng: np.random.Generator,
                        batch_size: int = 128) -> Classifier:
    """One epoch on truncated-prior samples: each example is replaced by a
    decode of a random latent from the eps ball (eps > 0) before the
    training step."""
    def decode_ball(xb, yb):
        u = sample_truncated_ball(model.k, eps, len(xb), rng)
        return model.decode_u(u, model.condition(xb))
    return _train_epoch("augment", h, x, labels, lr, rng, batch_size, decode_ball)


def clean_train_epoch(h: Classifier, x, labels, lr: float,
                      rng: np.random.Generator, batch_size: int = 128) -> Classifier:
    """One standard training epoch on the raw examples."""
    return _train_epoch("clean", h, x, labels, lr, rng, batch_size, lambda xb, yb: xb)


# ---------------------------------------------------------------------------
# Accuracy


def accuracy(h: Classifier, x, labels) -> float:
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    hits, batch = 0, 512
    for lo in range(0, len(x), batch):
        hits += int((h.predict(x[lo:lo + batch]) == labels[lo:lo + batch]).sum())
    return hits / len(x)


def robust_accuracy(h: Classifier, model: CvaeModel, x, labels,
                    cfg: AttackConfig, batch_size: int = 256) -> float:
    """Fraction of examples classified correctly both clean and under the
    latent attack; never exceeds plain accuracy by construction."""
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    hits = 0
    for lo in range(0, len(x), batch_size):
        xb, yb = x[lo:lo + batch_size], labels[lo:lo + batch_size]
        clean_ok = h.predict(xb) == yb
        adv, _ = latent_pgd_attack(h, model, xb, yb, cfg)
        adv_ok = h.predict(adv) == yb
        hits += int((clean_ok & adv_ok).sum())
    return hits / len(x)

"""The package's three gradients against the reference tape, bit for bit.

Each graph writes out its own reverse pass around nn.backward: the negative
ELBO (cvae.elbo_loss), the classifier cross-entropy step (robust._train_step)
and the latent-PGD objectives (robust._attack_objective through a classifier,
evalmetrics._recon_objective on reconstruction error). On random shapes each
must give exactly the bytes the general tape in reftape.py gives for the same
float32 graph: the same ops, in the same order, on the same operand layouts.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reftape as ref
from pertsets import nn, robust
from pertsets.cvae import CvaeModel, elbo_loss
from pertsets.evalmetrics import _recon_objective
from pertsets.robust import Classifier, _attack_objective


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


shapes = st.fixed_dictionaries({
    "m": st.integers(1, 24), "k": st.integers(1, 9), "hidden": st.integers(1, 24),
    "rows": st.integers(1, 40), "seed": st.integers(0, 2 ** 32 - 1)})


def draw_model(s):
    rng = np.random.default_rng(s["seed"])
    model = CvaeModel(s["m"], s["k"], s["hidden"], rng=rng)
    x = rng.uniform(0, 1, (s["rows"], s["m"])).astype(np.float32)
    y = rng.uniform(0, 1, (s["rows"], s["m"])).astype(np.float32)
    return model, x, y, rng


@given(s=shapes, beta=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_elbo_gradients_equal_the_tape(s, beta):
    model, x, y, rng = draw_model(s)
    u = rng.standard_normal((s["rows"], s["k"]), dtype=np.float32)
    loss, sse, kl, reverse = elbo_loss(model, x, y, u, beta)
    got = nn.backprop_gradients(model.params, reverse)
    rec = ref.Rec(model.params)
    ref_loss, ref_sse, ref_kl = ref.elbo_loss(model, rec, x, y, u, beta)
    want = ref.backprop_gradients(rec, ref_loss)
    assert_same_bytes(loss, ref_loss.value, "loss")
    assert_same_bytes(sse, ref_sse, "sse")
    assert_same_bytes(kl, ref_kl, "kl")
    assert list(got) == list(want)
    for name in want:
        assert_same_bytes(got[name], want[name], name)


@given(s=shapes, hidden=st.lists(st.integers(1, 16), max_size=2), classes=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_cross_entropy_gradients_equal_the_tape(s, hidden, classes):
    _, x, _, rng = draw_model(s)
    h = Classifier(s["m"], classes, hidden, rng=rng)
    labels = rng.integers(0, classes, s["rows"])
    rec = ref.Rec(h.params)
    ref_loss = ref.classifier_loss(h, rec, x, labels)
    want = ref.backprop_gradients(rec, ref_loss)
    steps = []
    with mock.patch.object(nn, "adam_step",
                           lambda params, lr: steps.append(params.views(params.grad))):
        loss = robust._train_step(h, x, labels, 1e-3)
    assert loss == float(ref_loss.value)
    (got,) = steps
    assert list(got) == list(want)
    for name in want:
        assert_same_bytes(got[name], want[name], name)


@given(s=shapes, hidden=st.lists(st.integers(1, 16), max_size=2), classes=st.integers(2, 5),
       one_row=st.booleans(), scale=st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_latent_pgd_gradients_equal_the_tape(s, hidden, classes, one_row, scale):
    # through a Condition of the batch's rows (or of one row for every
    # latent), into the classifier loss and into the reconstruction error
    model, x, y, rng = draw_model(s)
    h = Classifier(s["m"], classes, hidden, rng=rng)
    labels = rng.integers(0, classes, s["rows"])
    cond = model.condition(y[:1] if one_row else y)
    u = (scale * rng.standard_normal((s["rows"], s["k"]))).astype(np.float32)
    for objective, tape_objective in (
            (_attack_objective(h, model, cond, labels),
             ref.attack_objective(h, model, cond, labels)),
            (_recon_objective(model, x, cond), ref.recon_objective(model, x, cond))):
        val, g = objective(u, True)
        ref_val, ref_g = ref.pgd_objective(tape_objective)(u, True)
        assert_same_bytes(val, ref_val, "values")
        assert_same_bytes(g, ref_g, "gradient in u")
        scored, none = objective(u, False)
        assert none is None
        assert_same_bytes(scored, val, "values without gradient")

"""Contract tests for networks and their reverse pass, Adam, schedules, and
checkpoints."""

import itertools
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import reftape as ref
from params import param_set
from pertsets import nn
from pertsets.cvae import CvaeModel, elbo_loss


def make_net(name, in_dims, layers, rng, dtype=np.float64):
    net = nn.Network(name, in_dims, layers)
    params = nn.model_params([net], rng=rng)
    if dtype is not np.float32:
        params = param_set({k: v.astype(dtype) for k, v in params.values.items()})
    return net, params


def set_gradients(params, grads):
    """Write one step's gradients into params.grad, as a graph's reverse
    pass would, through backprop_gradients."""
    def reverse(views):
        for name, g in grads.items():
            views[name][...] = g
    return nn.backprop_gradients(params, reverse)


def adam_on(params, grads, lr, **kw):
    """adam_step on the given gradients."""
    set_gradients(params, grads)
    nn.adam_step(params, lr, **kw)


# ---------------------------------------------------------------------------
# Forward contracts


def test_dense_identity():
    net = nn.Network("f", 4, [("dense", 4)])
    params = param_set({"f/w0": np.eye(4, dtype=np.float32),
                          "f/b0": np.zeros(4, dtype=np.float32)})
    x = np.array([[1.0, -2.0, 3.5, 0.0]], dtype=np.float32)
    np.testing.assert_array_equal(net.apply(params, x), x)


def test_relu_forward():
    net = nn.Network("f", 3, [("relu",)])
    out = net.apply(param_set({}), np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_scaled_tanh_range():
    net = nn.Network("f", 1, [("scaled_tanh", -7.0, 0.5)])
    xs = np.linspace(-10, 10, 1001).reshape(-1, 1)
    out = net.apply(param_set({}), xs)
    assert out.min() > -7.0 and out.max() < 0.5
    # midpoint at 0
    assert net.apply(param_set({}), np.array([[0.0]]))[0, 0] == pytest.approx((-7.0 + 0.5) / 2)


def test_first_dense_layer_splits_over_streams():
    # each stream meets its own block of weight rows: the result is the dense
    # layer of the concatenated input, and a projection of the last stream
    # reused through apply(proj=) gives the same rows
    rng = np.random.default_rng(3)
    net, params = make_net("f", [2, 3], [("dense", 4)], rng)
    assert net.param_shapes() == {"f/w0": (5, 4), "f/b0": (4,)}
    a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
    want = np.concatenate([a, b], axis=1) @ params.values["f/w0"] + params.values["f/b0"]
    np.testing.assert_allclose(net.apply(params, [a, b]), want, rtol=1e-12)
    proj = net.project(params, b)
    assert proj.shape == (6, 4)
    np.testing.assert_array_equal(net.apply(params, [a], proj=proj), net.apply(params, [a, b]))
    # one projected row conditions every row of the other streams, but input
    # streams must match in rows: the reverse pass could not undo a broadcast
    one = net.project(params, b[:1])
    np.testing.assert_allclose(net.apply(params, [a], proj=one),
                               net.apply(params, [a, np.repeat(b[:1], 6, axis=0)]), rtol=1e-12)
    with pytest.raises(ValueError, match="^f: input streams of 6 and 1 rows"):
        net.apply(params, [a, b[:1]])


def test_network_validation_errors():
    with pytest.raises(ValueError):
        nn.Network("f", [2, 3], [("relu",), ("dense", 4)])  # streams meet a non-dense layer
    with pytest.raises(ValueError):
        nn.Network("f", 2, [("swish",)])
    with pytest.raises(ValueError):
        nn.Network("f", 2, [("scaled_tanh", 1.0, 1.0)])
    with pytest.raises(ValueError):
        nn.Network("f", 2, [("dense", 0)])
    net = nn.Network("f", 3, [("dense", 2)])
    params = nn.model_params([net], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="^f: "):
        net.apply(params, np.zeros((1, 4)))
    # inputs are (rows, d): a single (d,) vector is rejected, naming the network
    with pytest.raises(ValueError, match=r"^f: input of shape \(3,\)"):
        net.apply(params, np.zeros(3))
    with pytest.raises(ValueError, match="^f: "):
        net.project(params, np.zeros(3))


# ---------------------------------------------------------------------------
# Gradients vs central finite differences (float64 graphs)


def fd_param_grads(loss_fn, params, step=1e-4):
    out = {}
    for name, value in params.values.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        out[name] = g
    return out


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def param_grads(net, params, inputs, loss_grad):
    """Parameter gradients of one net.apply pass through backward, from
    loss_grad(out), the gradient in the output."""
    acts = []
    out = net.apply(params, inputs, acts=acts)
    return nn.backprop_gradients(
        params, lambda grads: nn.backward(net, params, acts, loss_grad(out), grads))


@pytest.mark.parametrize("layers,in_dims", [
    ([("dense", 3)], 4),
    ([("dense", 5), ("relu",), ("dense", 2)], 3),
    ([("dense", 4), ("scaled_tanh", -1.0, 2.0)], 3),
    ([("dense", 3), ("relu",), ("dense", 1)], [2, 3]),
])
def test_gradcheck_layer_stacks(layers, in_dims):
    rng = np.random.default_rng(42)
    net, params = make_net("g", in_dims, layers, rng)
    dims = net.in_dims
    for trial in range(25):
        xs = [rng.normal(size=(4, d)) for d in dims]
        # offset inputs away from relu kinks so the FD comparison is clean
        xs = [np.where(np.abs(x) < 1e-2, x + 0.05, x) for x in xs]

        def loss_fn():
            out = net.apply(params, xs if len(dims) > 1 else xs[0])
            return float((out * out).sum())

        grads = param_grads(net, params, xs if len(dims) > 1 else xs[0], lambda out: 2 * out)
        fd = fd_param_grads(loss_fn, params)
        for name in params.values:
            assert rel_err(grads[name], fd[name]) <= 1e-3, (name, trial)


def test_gradcheck_input_side():
    rng = np.random.default_rng(5)
    net, params = make_net("g", 3, [("dense", 4), ("relu",), ("dense", 2)], rng)
    x = rng.normal(size=(2, 3)) + 0.05
    acts = []
    out = net.apply(params, x, acts=acts)
    gx = nn.backward(net, params, acts, 2 * out, input_grad=True)
    step = 1e-5
    fd = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        hi = float((net.apply(params, xp) ** 2).sum())
        lo = float((net.apply(params, xm) ** 2).sum())
        fd[i] = (hi - lo) / (2 * step)
    assert rel_err(gx, fd) <= 1e-3


@pytest.mark.parametrize("rows", [5, 1])
def test_dense_vjp_over_streams(rows):
    # the weight gradient is the concatenated input's, one block per stream,
    # and the input gradient is the first stream's
    rng = np.random.default_rng(12)
    net, params = make_net("f", [2, 3], [("dense", 4)], rng)
    z, y = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 3))
    w, b = params.values["f/w0"], params.values["f/b0"]
    acts = []
    out = net.apply(params, [z, y], acts=acts)
    xcat = np.concatenate([z, y], axis=1)
    np.testing.assert_allclose(out, xcat @ w + b, rtol=1e-12)
    g = rng.normal(size=(rows, 4))
    grads = {name: np.full_like(v, np.nan) for name, v in params.values.items()}
    gz = nn.backward(net, params, acts, g, grads, input_grad=True)
    np.testing.assert_allclose(grads["f/w0"], xcat.T @ g, rtol=1e-12)
    np.testing.assert_allclose(grads["f/b0"], g.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(gz, g @ w[:2].T, rtol=1e-12)
    # a pass through proj took b0's place and leaves rows of w0 unread: it
    # has an input gradient and refuses parameter gradients
    acts = []
    net.apply(params, [z], proj=net.project(params, y), acts=acts)
    np.testing.assert_array_equal(nn.backward(net, params, acts, g, input_grad=True), gz)
    with pytest.raises(ValueError, match="proj"):
        nn.backward(net, params, acts, g, {}, input_grad=True)


def test_reference_dense_zeroes_weight_rows_past_the_streams():
    # the reference tape's dense: rows of w past the streams (their share is
    # in b) get a zero gradient, the others the stream's product
    rng = np.random.default_rng(12)
    z, g = ref.Var(rng.normal(size=(5, 2))), rng.normal(size=(5, 4))
    w = ref.Var(rng.normal(size=(5, 4)))
    ref.dense([z], w, np.zeros((1, 4)))._vjp(g)
    np.testing.assert_array_equal(w.grad[2:], 0.0)
    np.testing.assert_allclose(w.grad[:2], z.value.T @ g, rtol=1e-12)


def test_scaled_tanh_is_one_node_with_the_chained_arithmetic():
    # output and reverse pass give the bits of the chained tanh, add and
    # scale ops on the reference tape
    rng = np.random.default_rng(13)
    h = rng.normal(size=(4, 3)).astype(np.float32)
    for lo, hi in ((0.0, 1.0), (math.log(1e-3), math.log(10.0))):
        net = nn.Network("f", 3, [("scaled_tanh", lo, hi)])
        acts = []
        out = net.apply(param_set({}), h, acts=acts)
        chained = ref.Var(h)
        want = ref.add(ref.mul(ref.add(tanh(chained), 1.0), 0.5 * (hi - lo)), lo)
        assert out.dtype == np.float32 and out.tobytes() == want.value.tobytes()
        g = nn.backward(net, param_set({}), acts, np.ones_like(out), input_grad=True)
        ref.backward(ref.sum_all(want))
        assert g.dtype == np.float32 and g.tobytes() == chained.grad.tobytes()


def test_gradcheck_elementwise_composition():
    # the reference tape's exp/mul/add/row_sum composition, the shape the
    # variational loss takes, against finite differences; scaled_tanh onto
    # (-0.5, 0.5) is tanh(a) * 0.5
    rng = np.random.default_rng(9)
    a = ref.Var(rng.normal(size=(3, 4)))
    b = ref.Var(rng.normal(size=(3, 4)))
    loss = ref.mean_all(ref.row_sum(ref.add(ref.add(ref.mul(ref.exp(a), b),
                                                    ref.scaled_tanh(a, -0.5, 0.5)),
                                            ref.mul(b, -1.0))))
    ref.backward(loss)
    ga, gb = a.grad.copy(), b.grad.copy()
    av, bv = a.value, b.value

    def f(avv, bvv):
        return float(np.mean((np.exp(avv) * bvv + np.tanh(avv) * 0.5 - bvv).sum(axis=-1)))

    step = 1e-6
    for tgt, val, other, g in ((0, av, bv, ga), (1, bv, av, gb)):
        fd = np.zeros_like(val)
        for i in np.ndindex(val.shape):
            p = val.copy(); p[i] += step
            m = val.copy(); m[i] -= step
            fd[i] = ((f(p, bv) - f(m, bv)) if tgt == 0 else (f(av, p) - f(av, m))) / (2 * step)
        assert rel_err(g, fd) <= 1e-3


def test_cross_entropy_matches_manual_gradient():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    ce, grad = nn.cross_entropy(logits, labels)
    z = logits - logits.max(axis=1, keepdims=True)
    sm = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    manual = sm.copy()
    manual[np.arange(6), labels] -= 1.0
    assert rel_err(grad, manual) <= 1e-10
    # value check against logsumexp form
    lse = np.log(np.exp(z).sum(axis=1)) + logits.max(axis=1)
    np.testing.assert_allclose(ce, lse - logits[np.arange(6), labels], rtol=1e-12)


def test_backward_rejects_non_scalar():
    # the reference tape differentiates scalar losses only
    v = ref.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ref.backward(ref.mul(v, 2.0))


def test_unused_parameter_gets_zero_gradient():
    rng = np.random.default_rng(0)
    net, params = make_net("g", 2, [("dense", 2)], rng)
    params = param_set({"orphan": np.ones(3, dtype=np.float64), **params.values})
    params.grad = np.full_like(params.flat, np.nan)     # a stale step's gradients
    grads = param_grads(net, params, np.ones((1, 2)), np.ones_like)
    assert list(grads) == list(params.values) == ["g/b0", "g/w0", "orphan"]
    np.testing.assert_array_equal(grads["orphan"], np.zeros(3))
    np.testing.assert_array_equal(grads["g/w0"], np.ones((2, 2)))


def test_float32_params_keep_network_outputs_float32():
    model = CvaeModel(6, 3, 5, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    y = rng.uniform(0, 1, (4, 6)).astype(np.float32)
    z = rng.normal(size=(4, 3)).astype(np.float32)
    prior = model.encode_prior(y)
    post = model.encode_posterior(y, y)
    loss, _, _, reverse = elbo_loss(model, y, y, z, 0.5)
    for out in (model.decode(z, model.condition(y)), prior.std(), prior.logvar, post.logvar, loss,
                *nn.backprop_gradients(model.params, reverse).values()):
        assert out.dtype == np.float32
    # a float64 graph stays float64
    model.params = param_set({k: v.astype(np.float64) for k, v in model.params.values.items()})
    y64, z64 = y.astype(np.float64), z.astype(np.float64)
    for out in (model.decode(z64, model.condition(y64)), model.encode_prior(y64).std(),
                model.encode_posterior(y64, y64).logvar):
        assert out.dtype == np.float64


class _UfuncLog(np.ndarray):
    """Array that logs every ufunc call it takes part in."""

    calls = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _UfuncLog.calls.append((ufunc.__name__, method))
        inputs = [np.asarray(x) for x in inputs]
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("weights, inputs", [(True, False), (False, True), (True, True)])
def test_backward_forms_only_the_products_asked_for(weights, inputs):
    # a classifier step on a raw batch asks for weight gradients only, and a
    # latent-PGD pass for the input gradient only: the first dense layer
    # forms one product per gradient asked for and no other
    rng = np.random.default_rng(4)
    net, params = make_net("f", 3, [("dense", 2)], rng)
    acts = []
    out = net.apply(params, rng.normal(size=(5, 3)), acts=acts)
    grads = {name: np.zeros_like(v) for name, v in params.values.items()} if weights else None
    _UfuncLog.calls = []
    gx = nn.backward(net, params, acts, np.ones_like(out).view(_UfuncLog), grads, inputs)
    assert (gx is not None) == inputs
    want = ([("matmul", "__call__"), ("add", "reduce")] if weights else []) \
        + ([("matmul", "__call__")] if inputs else [])
    assert _UfuncLog.calls == want


# ---------------------------------------------------------------------------
# Ownership: an op overwrites only what it created


# nets whose passes take every in-place branch and every branch that must
# not be: a two-stream dense layer, a relu on a dense output and one on a
# relu's (kept as an activation), relu and scaled_tanh on the caller's
# input, scaled_tanh with and without an offset
OWNERSHIP_NETS = {
    "streams": ([3, 4], [("dense", 6), ("relu",), ("relu",), ("dense", 5),
                         ("scaled_tanh", -1.0, 2.0)]),
    "trunk": (4, [("dense", 5), ("relu",)]),
    "relu-first": (4, [("relu",), ("scaled_tanh", 0.0, 1.0)]),
    "tanh-first": (4, [("scaled_tanh", -1.0, 2.0)]),
}


def byte_copies(*arrays):
    return [np.array(a).tobytes() for a in arrays]


def reference_acts(net, params, streams, proj):
    """What Network.apply keeps per layer, formed by the reference tape's
    ops: a dense layer's input streams, a relu's output, a scaled_tanh's
    tanh."""
    acts, h = [], list(streams)
    for i, (layer, names) in enumerate(zip(net.layers, net._dense_names)):
        if names is not None:
            acts.append(h if isinstance(h, list) else [h])
            w, b = (params.values[n] for n in names)
            h = ref.dense(acts[-1], w, proj if i == 0 and proj is not None else b)
            continue
        h = h[0] if isinstance(h, list) else h
        if layer[0] == "relu":
            h = ref.relu(h)
            acts.append(h)
        else:
            acts.append(np.tanh(h))
            h = ref.scaled_tanh(h, layer[1], layer[2])
    return acts


def flat_acts(acts):
    return [a for act in acts for a in (act if isinstance(act, list) else [act])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", list(OWNERSHIP_NETS))
def test_passes_write_only_into_arrays_they_create(kind, dtype):
    # apply, with and without acts and through a B-row or a one-row proj,
    # and backward, with and without grads and input_grad, leave every
    # argument, the parameter buffer and every saved activation as they
    # were, and give the bits of the reference tape's out-of-place ops
    rng = np.random.default_rng(21)
    net, params = make_net("f", *OWNERSHIP_NETS[kind], rng, dtype)
    rows = 5
    inputs = [rng.normal(size=(rows, d)).astype(dtype) for d in net.in_dims]
    calls = [(inputs, None)]
    if len(inputs) > 1:
        calls += [(inputs[:-1], net.project(params, inputs[-1])),
                  (inputs[:-1], net.project(params, inputs[-1][:1])),
                  ([x[:1] for x in inputs[:-1]], net.project(params, inputs[-1]))]
    flat = params.flat.tobytes()
    for streams, proj in calls:
        args = [*streams] + ([] if proj is None else [proj])
        before = byte_copies(*args)
        want = ref.apply(net, params, streams, proj=proj)
        out = net.apply(params, streams, proj=proj)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        acts = []
        out = net.apply(params, streams, proj=proj, acts=acts)
        assert out.tobytes() == want.tobytes()
        saved = byte_copies(*flat_acts(acts))
        assert saved == byte_copies(*flat_acts(reference_acts(net, params, streams, proj)))
        assert byte_copies(*args) == before and params.flat.tobytes() == flat
        if len(streams[0]) != len(out):
            continue        # a broadcast forward pass has no reverse pass
        g = rng.normal(size=out.shape).astype(dtype)
        g_bytes = g.tobytes()
        for weights, input_grad in ((True, True), (True, False), (False, True)):
            if weights and proj is not None:
                continue    # a pass through proj has no parameter gradients
            grads = ({n: np.full_like(v, np.nan) for n, v in params.values.items()}
                     if weights else None)
            got = nn.backward(net, params, acts, g, grads, input_grad)
            assert g.tobytes() == g_bytes
            assert byte_copies(*flat_acts(acts)) == saved
            assert byte_copies(*args) == before and params.flat.tobytes() == flat
            rec = ref.Rec(params) if weights else None
            xs = [ref.Var(x) for x in streams]
            ref.backward(ref.sum_all(ref.mul(ref.apply(net, params, xs, rec, proj), g)))
            if input_grad:
                assert got.dtype == dtype and got.tobytes() == xs[0].grad.tobytes()
            else:
                assert got is None
            if weights:
                for name, value in rec.grads().items():
                    assert grads[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_and_decode_u_write_only_into_arrays_they_create(dtype):
    rng = np.random.default_rng(22)
    logits = rng.normal(size=(6, 4)).astype(dtype)
    labels = rng.integers(0, 4, size=6)
    before = byte_copies(logits, labels)
    ce, grad = nn.cross_entropy(logits, labels)
    assert byte_copies(logits, labels) == before
    var = ref.Var(logits)
    want = ref.cross_entropy(var, labels)
    ref.backward(ref.sum_all(want))
    assert ce.tobytes() == want.value.tobytes() and grad.tobytes() == var.grad.tobytes()

    model = CvaeModel(6, 3, 5, rng=rng)
    model.params = param_set({k: v.astype(dtype) for k, v in model.params.values.items()})
    flat = model.params.flat.tobytes()
    y = rng.uniform(0, 1, (4, 6)).astype(dtype)
    for cond in (model.condition(y), model.condition(y[:1])):
        fields = (cond.std, cond.prior.mean, cond.prior.logvar, cond.proj)
        for u in (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)).astype(np.float32)):
            before = byte_copies(u, *fields)
            want = model.decode(np.asarray(u, dtype=np.float32) * cond.std + cond.prior.mean,
                                cond)
            acts = []
            assert model.decode_u(u, cond).tobytes() == want.tobytes()
            assert model.decode_u(u, cond, acts).tobytes() == want.tobytes()
            saved = byte_copies(*flat_acts(acts))
            g = np.ones_like(want)
            model.decode_u_grad(cond, acts, g)
            assert byte_copies(*flat_acts(acts)) == saved and g.tobytes() == np.ones_like(g).tobytes()
            assert byte_copies(u, *fields) == before and model.params.flat.tobytes() == flat


def matmul(a, b):
    """A bare product a @ b through the reference tape's dense: one stream,
    no bias."""
    return ref.dense([a], b, 0.0)


def tanh(a):
    """The recorded tanh that scaled_tanh folds into one node, kept as its
    reference."""
    out = np.tanh(a.value)
    return ref.Var(out, (a,), lambda g: ref._accum(a, g * (1.0 - out * out)))


@pytest.mark.parametrize("op, frozen_first", [
    (matmul, False), (matmul, True), (ref.mul, False), (ref.add, False)])
def test_vjp_forms_no_term_for_plain_array_operand(op, frozen_first, monkeypatch):
    # the reference tape's VJP computes one term per recorded operand only:
    # no gradient for a frozen weight, a constant scale or bias, or a raw
    # input batch
    rng = np.random.default_rng(4)
    shapes = {matmul: ((5, 3), (3, 2)), ref.mul: ((5, 3), (3,)), ref.add: ((5, 3), (3,))}[op]
    frozen_shape, var_shape = shapes if frozen_first else shapes[::-1]
    frozen, var = rng.normal(size=frozen_shape), ref.Var(rng.normal(size=var_shape))
    out = op(frozen, var) if frozen_first else op(var, frozen)
    reduced_to = []
    unbroadcast = ref._unbroadcast
    monkeypatch.setattr(ref, "_unbroadcast",
                        lambda g, shape: reduced_to.append(shape) or unbroadcast(g, shape))
    _UfuncLog.calls = []
    out._vjp(np.ones_like(out.value).view(_UfuncLog))
    assert var.grad.shape == var.value.shape
    expected = {matmul: [("matmul", "__call__")], ref.mul: [("multiply", "__call__")],
                ref.add: []}[op]
    assert _UfuncLog.calls == expected
    # dense reduces an input stream's gradient (a one-row stream conditions
    # every row); a recorded weight's gradient is formed at its shape
    assert reduced_to == ([] if op is matmul and frozen_first else [var.value.shape])


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_lr():
    params = param_set({"w": np.array([1.0, -2.0, 3.0])})
    g = {"w": np.array([0.3, -0.7, 0.0])}
    adam_on(params, g, lr=0.05, eps=1e-12)
    # bias-corrected first step is lr * sign(g) up to eps rounding
    np.testing.assert_allclose(params.values["w"], [1.0 - 0.05, -2.0 + 0.05, 3.0], atol=1e-9)
    assert params.step == 1


def test_adam_zero_gradient_keeps_params():
    params = param_set({"w": np.array([1.5, 2.5])})
    adam_on(params, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(params.values["w"], [1.5, 2.5])


def test_adam_parabola_matches_scalar_oracle():
    # oracle: independent pure-python Adam on (w-5)^2; value frozen below
    w, m, v = 0.0, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    for t in range(1, 101):
        g = 2.0 * (w - 5.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    assert w == pytest.approx(5.03900403122392, abs=1e-12)
    assert abs(w - 5.0) < 0.5

    params = param_set({"w": np.zeros(1)})
    for _ in range(100):
        grad = {"w": 2.0 * (params.values["w"] - 5.0)}
        adam_on(params, grad, lr=0.1)
    assert float(params.values["w"][0]) == pytest.approx(w, abs=1e-9)
    assert abs(float(params.values["w"][0]) - 5.0) < 0.5
    assert params.step == 100


def test_adam_contract_errors():
    # the gradients share the parameters' layout, so none can be missing or
    # misshapen; a step before any gradient changes nothing
    params = param_set({"w": np.zeros(2)})
    with pytest.raises(TypeError):
        nn.adam_step(params, lr=0.1)
    assert params.step == 0 and params.m is None and params.v is None
    np.testing.assert_array_equal(params.values["w"], [0.0, 0.0])
    # a frozen model carries no gradient or moment buffer; a trained one
    # carries one of each, in the parameters' layout and dtype
    assert params.grad is None
    adam_on(params, {"w": np.ones(2)}, lr=0.1)
    for state in (params.grad, params.m, params.v):
        assert state.shape == params.flat.shape and state.dtype == params.flat.dtype


def formula_adam_step(values, ms, vs, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # the whole-tensor update formula, tensor by tensor, on plain arrays
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, value in values.items():
        g, m, v = grads[name], ms[name], vs[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        value -= (lr / c1) * m / (np.sqrt(v / c2) + eps)


_B = nn._BLOCK
# tensor shapes by name, so by flat-buffer order, and where the block edges fall
_ADAM_LAYOUTS = [
    {"w": (_B // 512, 512)},                            # exactly one block
    {"w": (3 * _B // 1000 + 5, 1000), "b": (1000,)},    # edges inside a tensor, short last block
    {"a": (_B - 1,), "b": (7,), "c": ()},               # an edge one element into "b"
    {"a": (_B,), "b": (7,), "w": (_B // 7 + 1, 7)},     # an edge on the a|b boundary
    {"a": (_B + 1,), "b": (7,), "e": (0, 3)},           # an edge one element before it
    {"a": (5,), "w": (2 * _B // 7, 7), "z": (_B - 3,)},  # edges inside "w" and inside "z"
]


def test_adam_blocks_match_the_formula_bit_for_bit():
    # the flat buffers are walked in blocks of _BLOCK elements: block edges
    # inside a tensor and on or next to the boundary of two tensors give the
    # formula's bits for every parameter and moment, in float32 and float64;
    # one tensor gets a zero gradient on one step
    rng = np.random.default_rng(23)
    for shapes, dtype in itertools.product(_ADAM_LAYOUTS, (np.float32, np.float64)):
        values = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
        got = param_set(values)
        ms = {n: np.zeros_like(v) for n, v in values.items()}
        vs = {n: np.zeros_like(v) for n, v in values.items()}
        for step in range(3):
            grads = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
            if step == 1:
                grads[min(shapes)][...] = 0
            adam_on(got, grads, lr=3e-3, beta1=0.8, beta2=0.99)
            formula_adam_step(values, ms, vs, grads, step + 1, lr=3e-3, beta1=0.8, beta2=0.99)
        assert got.step == 3 and got.flat.dtype == dtype
        for state, want in (("values", values), ("m", ms), ("v", vs)):
            table = got.values if state == "values" else got.views(getattr(got, state))
            for n in shapes:
                assert table[n].tobytes() == want[n].tobytes(), (shapes, dtype, state, n)


def test_adam_step_forms_no_full_size_temporary():
    shape = (1568, 784)
    rng = np.random.default_rng(0)
    params = param_set({"w": rng.standard_normal(shape, dtype=np.float32)})
    adam_on(params, {"w": rng.standard_normal(shape, dtype=np.float32)}, lr=1e-3)
    tracemalloc.start()     # the gradient and moment buffers exist by now
    try:
        nn.adam_step(params, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.values["w"].nbytes / 4


# ---------------------------------------------------------------------------
# Schedules


def test_schedule_pinned_points():
    s = nn.Schedule([0, 10, 15, 20], [0.0, 0.001, 0.0005, 0.0001])
    assert s.value(10) == 0.001
    assert s.value(5) == pytest.approx(0.0005)
    assert s.value(25) == 0.0001
    assert s.value(0) == 0.0
    assert s.value(17.5) == pytest.approx(0.0003)


def test_schedule_exact_at_knots_and_clamped():
    s = nn.Schedule([0, 5, 20], [0.0, 0.01, 1.0])
    for e, v in zip(s.epochs, s.values):
        assert s.value(e) == v
    assert s.value(-3) == 0.0
    assert s.value(100) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        nn.Schedule([0, 5, 5], [1, 2, 3])
    with pytest.raises(ValueError):
        nn.Schedule([0, 5], [1.0])
    with pytest.raises(ValueError):
        nn.Schedule([], [])


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(123)
    net, params = make_net("ck", [3, 2], [("dense", 7), ("relu",), ("dense", 2)],
                           rng, dtype=np.float32)
    stem = str(tmp_path / "model")
    nn.save_params(params, stem, {"widths": [3, 2]})
    with open(stem + ".json", encoding="utf-8") as f:
        assert json.load(f)["extra"] == {}
    loaded, meta = nn.load_params(stem)
    assert meta == {"widths": [3, 2]}
    assert sorted(loaded.values) == sorted(params.values)
    for name in params.values:
        assert loaded.values[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.values[name], params.values[name])
    # identical bytes when saved again
    nn.save_params(loaded, str(tmp_path / "model2"), meta)
    nn.save_params(params, str(tmp_path / "model3"), meta)
    assert (tmp_path / "model2.bin").read_bytes() == (tmp_path / "model3.bin").read_bytes()


def test_checkpoint_streams_each_tensor(tmp_path):
    # every tensor is written as little-endian float32 in name order, and
    # read back as a view into one flat float32 buffer: a 0-d, an empty, a
    # transposed float32 and a float64 tensor
    rng = np.random.default_rng(5)
    values = {"a/s": np.array(2.5, np.float32),
              "b/w": rng.normal(size=(4, 6)).astype(np.float32).T,
              "c/e": np.zeros((0, 3), np.float32), "d/w": rng.normal(size=(7, 5)),
              "e/b": rng.normal(size=33).astype(np.float32)}
    stem = str(tmp_path / "m")
    nn.save_params(param_set(values), stem, {})
    want = b"".join(np.ascontiguousarray(values[n], dtype="<f4").tobytes() for n in sorted(values))
    assert (tmp_path / "m.bin").read_bytes() == want
    loaded, _ = nn.load_params(stem)
    assert list(loaded.values) == sorted(values)
    assert loaded.flat.dtype == np.float32 and loaded.flat.tobytes() == want
    assert loaded.flat.flags.owndata and loaded.flat.flags.aligned
    for name, value in loaded.values.items():
        assert value.dtype == np.float32 and value.shape == np.shape(values[name])
        assert value.base is loaded.flat and value.flags.c_contiguous
        assert value.tobytes() == np.ascontiguousarray(values[name], dtype="<f4").tobytes()
    # the float64 set is written from one float32 cast of its buffer
    assert param_set(values).flat.dtype == np.float64


def test_checkpoint_load_holds_no_copy_of_the_blob(tmp_path):
    # loading a 1568x784 float32 checkpoint allocates its tensors and little
    # else: no whole-blob buffer next to them; saving it allocates no copy
    rng = np.random.default_rng(6)
    params = param_set({"w": rng.standard_normal((1568, 784), dtype=np.float32),
                          "b": rng.standard_normal(784, dtype=np.float32)})
    size = sum(v.nbytes for v in params.values.values())
    stem = str(tmp_path / "big")
    tracemalloc.start()
    try:
        nn.save_params(params, stem, {})
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded, _ = nn.load_params(stem)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < size / 4
    assert load_peak < 1.5 * size
    assert all(loaded.values[n].tobytes() == params.values[n].tobytes() for n in params.values)


def test_checkpoint_error_cases(tmp_path):
    with pytest.raises(FileNotFoundError):
        nn.load_params(str(tmp_path / "nope"))
    params = param_set({"w": np.ones(3, dtype=np.float32)})
    stem = str(tmp_path / "m")
    nn.save_params(params, stem, {})
    with open(stem + ".bin", "ab") as f:
        f.write(b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="too long: 16 bytes, its manifest 12"):
        nn.load_params(stem)
    # a tail shorter than one float, and a blob one float short
    whole = open(stem + ".bin", "rb").read()
    for blob, match in ((whole[:14], "too long: 14 bytes"), (whole[:8], "too short: 8 bytes")):
        with open(stem + ".bin", "wb") as f:
            f.write(blob)
        with pytest.raises(ValueError, match=match):
            nn.load_params(stem)


def _write_checkpoint(tmp_path, manifest=None, meta=None):
    """A saved two-tensor checkpoint whose manifest and meta files are then
    overwritten by the given JSON text, when given."""
    stem = str(tmp_path / "m")
    nn.save_params(param_set({"a": np.ones(2, np.float32), "b": np.zeros((2, 3), np.float32)}),
                   stem, {"hidden": 3})
    for suffix, text in ((".json", manifest), (".meta.json", meta)):
        if text is not None:
            (tmp_path / ("m" + suffix)).write_text(text, encoding="utf-8")
    return stem


_ENTRY_B = '{"name": "b", "shape": [2, 3]}'


@pytest.mark.parametrize("manifest, meta, match", [
    ("[]", None, "expected a JSON object"),
    ("{", None, "Expecting"),
    ('{"format": "other", "tensors": []}', None, "manifest"),
    ('{"format": "pertsets-params-v1", "tensors": {}}', None, "manifest"),
    ('{"format": "pertsets-params-v1", "tensors": [{"name": "a", "shape": null}, '
     + _ENTRY_B + ']}', None, "malformed"),
    ('{"format": "pertsets-params-v1", "tensors": [{"shape": [2]}, ' + _ENTRY_B + ']}',
     None, "malformed"),
    ('{"format": "pertsets-params-v1", "tensors": [{"name": "a", "shape": [-2]}, '
     + _ENTRY_B + ']}', None, "malformed"),
    ('{"format": "pertsets-params-v1", "tensors": [{"name": "a", "shape": [true, 2]}, '
     + _ENTRY_B + ']}', None, "malformed"),
    ('{"format": "pertsets-params-v1", "tensors": [7, ' + _ENTRY_B + ']}', None, "malformed"),
    ('{"format": "pertsets-params-v1", "tensors": [{"name": "a", "shape": [1]}, '
     '{"name": "a", "shape": [7]}]}', None, "repeated"),
    ('{"format": "pertsets-params-v1", "tensors": [' + _ENTRY_B + ', '
     '{"name": "a", "shape": [2]}]}', None, "unsorted"),
    ('{"format": "pertsets-params-v1", "tensors": [{"name": "a", "shape": [1000000000000]}]}',
     None, "too short"),
    (None, "[]", "expected a JSON object"),
    (None, "null", "expected a JSON object"),
    (None, "{", "Expecting"),
])
def test_malformed_manifest_or_meta_raises_value_error(tmp_path, manifest, meta, match):
    stem = _write_checkpoint(tmp_path, manifest, meta)
    with pytest.raises(ValueError, match=match):
        nn.load_params(stem)


def test_missing_meta_raises_file_not_found(tmp_path):
    stem = _write_checkpoint(tmp_path)
    os.remove(stem + ".meta.json")
    with pytest.raises(FileNotFoundError, match="meta.json"):
        nn.load_params(stem)


def test_non_finite_tensor_raises_naming_it(tmp_path):
    stem = _write_checkpoint(tmp_path)
    raw = np.fromfile(stem + ".bin", dtype="<f4")
    raw[4] = np.nan                 # "a" holds floats 0-1, "b" floats 2-7
    raw.tofile(stem + ".bin")
    with pytest.raises(FloatingPointError, match="tensor 'b'"):
        nn.load_params(stem)


def test_model_params_draws_fresh_or_checks_given():
    nets = [nn.Network("n", 3, [("dense", 2)]), nn.Network("o", [2, 3], [("dense", 4), ("relu",)])]
    # fresh: each net's init in turn from the one rng, laid out in name order
    rng = np.random.default_rng(9)
    want = {n: v for net in nets for n, v in nn.model_params([net], rng=rng).values.items()}
    fresh = nn.model_params(nets, rng=np.random.default_rng(9))
    assert list(fresh.values) == sorted(want) and fresh.flat.dtype == np.float32
    for name, value in want.items():
        assert fresh.values[name].tobytes() == value.tobytes(), name
    with pytest.raises(ValueError, match="need params or an rng"):
        nn.model_params(nets)
    # given: returned as they are when they fit, else the first misfit is named
    assert nn.model_params(nets, fresh) is fresh
    good = {"n/w0": np.zeros((3, 2), np.float32), "n/b0": np.zeros(2, np.float32)}
    for values, match in (({"n/w0": good["n/w0"]}, "'n/b0' missing"),
                          ({**good, "m/b0": good["n/b0"]}, "'m/b0' is not a parameter"),
                          ({**good, "n/w0": np.zeros((2, 3), np.float32)},
                           r"'n/w0' has shape \(2, 3\)")):
        with pytest.raises(ValueError, match=match):
            nn.model_params(nets[:1], param_set(values), rng=np.random.default_rng(0))


def test_init_deterministic_given_seed():
    net = nn.Network("d", 5, [("dense", 4), ("relu",), ("dense", 3)])
    p1 = nn.model_params([net], rng=np.random.default_rng(77))
    p2 = nn.model_params([net], rng=np.random.default_rng(77))
    for name in p1.values:
        np.testing.assert_array_equal(p1.values[name], p2.values[name])
    bound = math.sqrt(6.0 / (5 + 4))
    w = p1.values["d/w0"]
    assert w.dtype == np.float32
    assert np.abs(w).max() <= bound
    assert not p1.values["d/b0"].any() and not p1.values["d/b1"].any()


@pytest.mark.parametrize("in_dim,out_dim", [(1568, 784), (300, 700), (5, 4), (1, 1 << 17)])
def test_init_row_blocks_equal_one_float64_draw(in_dim, out_dim):
    # many blocks with a short last one, a few with a short last one, one
    # block, and a row wider than a block
    net = nn.Network("d", in_dim, [("dense", out_dim), ("relu",), ("dense", 3)])
    params = nn.model_params([net], rng=np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for name, shape in net.param_shapes().items():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            want = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            assert params.values[name].tobytes() == want.tobytes(), name


def test_finite_guard():
    with pytest.raises(FloatingPointError):
        nn.finite_or_raise(np.array([1.0, np.nan]), "loss")
    nn.finite_or_raise(np.array([1.0, 2.0]), "loss")


def test_meta_values_check_each_kind():
    meta = {"m": 4, "hidden": [8, 2], "k": 3}
    kinds = {"k": "int", "m": "int", "hidden": "ints"}
    assert nn.meta_values("c", meta, kinds) == [3, 4, [8, 2]]
    for key, value, shown in (("m", True, "true (bool)"), ("m", 4.0, "4.0 (float)"),
                              ("m", "4", '"4" (str)'), ("hidden", [8, True], "[8, true] (list)"),
                              ("hidden", 8, "8 (int)"), ("k", -math.inf, "-infinity"),
                              ("k", math.inf, "infinity"), ("k", math.nan, "NaN"),
                              ("k", None, "null (NoneType)")):
        with pytest.raises(ValueError, match=re.escape(f"c.meta.json: '{key}' is {shown}, ")):
            nn.meta_values("c", {**meta, key: value}, kinds)
    with pytest.raises(ValueError, match=re.escape("c.meta.json: key 'k' missing")):
        nn.meta_values("c", {k: v for k, v in meta.items() if k != "k"}, kinds)

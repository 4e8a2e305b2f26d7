"""Reference reverse-mode tape: the general recorder the package once used
for its three gradients, kept as the oracle the fixed-graph reverse passes
are pinned to, bit for bit.

Every op records a Var with its parents and a VJP; `backward` runs the VJPs
in reverse topological order, summing the gradients that reach a node. Only
recorded operands get a term: a plain array (a frozen weight, a raw input
batch) gets none. Python int and float operands stay weak scalars, so a
float32 graph stays float32.

Below the tape are the package's graphs written on it: a network forward
pass (`apply`), the negative ELBO, the classifier cross-entropy step, and
the two latent-PGD objectives, each as the package computed it before the
reverse passes were written out by hand.
"""

import numpy as np

from pertsets.cvae import GaussianDiag


class Var:
    """Node in a recorded computation: value, accumulated grad, backward rule."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def __repr__(self):
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"


def _val(x):
    # python scalars pass through unconverted: np.asarray would make them
    # 0-d float64 arrays, which promote float32 operands to float64
    if isinstance(x, Var):
        return x.value
    return x if isinstance(x, (int, float)) else np.asarray(x)


def _is_rec(*xs):
    return any(isinstance(x, Var) for x in xs)


def _accum(node, g):
    if isinstance(node, Var):
        node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    av, bv = _val(a), _val(b)
    out = av + bv
    if not _is_rec(a, b):
        return out

    def vjp(g):
        if isinstance(a, Var):
            _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Var):
            _accum(b, _unbroadcast(g, bv.shape))

    return Var(out, (a, b), vjp)


def mul(a, b):
    av, bv = _val(a), _val(b)
    out = av * bv
    if not _is_rec(a, b):
        return out

    def vjp(g):
        if isinstance(a, Var):
            _accum(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Var):
            _accum(b, _unbroadcast(g * av, bv.shape))

    return Var(out, (a, b), vjp)


def relu(a):
    av = _val(a)
    out = np.maximum(av, 0)
    if not _is_rec(a):
        return out

    def vjp(g):
        _accum(a, g * (av > 0))

    return Var(out, (a,), vjp)


def scaled_tanh(a, lo: float, hi: float):
    """Squash onto (lo, hi): (tanh(a) + 1) * (hi - lo) / 2 + lo, one node."""
    av = _val(a)
    c = 0.5 * (hi - lo)
    t = np.tanh(av)
    out = (t + 1.0) * c
    if lo != 0.0:
        out = out + lo
    if not _is_rec(a):
        return out

    def vjp(g):
        _accum(a, (g * c) * (1.0 - t * t))

    return Var(out, (a,), vjp)


def exp(a):
    av = _val(a)
    out = np.exp(av)
    if not _is_rec(a):
        return out

    def vjp(g):
        _accum(a, g * out)

    return Var(out, (a,), vjp)


def dense(parts, w, b):
    """Dense layer over input streams: sum_i parts[i] @ w[rows_i] + b, where
    stream i feeds the i-th block of rows of w. Shares are added last stream
    first onto b, so b plus the last stream's share is exactly the projection
    Network.project caches. Rows of w past the streams belong to inputs
    whose share is already in b. A one-row stream conditions every row of the
    others. The weight gradient is formed as one array."""
    wv, bv = _val(w), _val(b)
    blocks, width = [], 0
    for p in parts:
        v = _val(p)
        blocks.append((v, width, width + v.shape[-1]))
        width += v.shape[-1]
    out = bv
    for v, s, e in reversed(blocks):
        out = v @ wv[s:e] + out
    if not _is_rec(w, b, *parts):
        return out

    def vjp(g):
        for p, (v, s, e) in zip(parts, blocks):
            if isinstance(p, Var):
                _accum(p, _unbroadcast(g @ wv[s:e].T, v.shape))
        if isinstance(w, Var):
            gw = np.empty(wv.shape, dtype=np.result_type(g, *(v for v, _, _ in blocks)))
            for v, s, e in blocks:
                np.matmul(v.T, g if len(v) == len(g) else g.sum(axis=0, keepdims=True),
                          out=gw[s:e])
            gw[width:] = 0
            _accum(w, gw)
        if isinstance(b, Var):
            _accum(b, _unbroadcast(g, bv.shape))

    return Var(out, (*parts, w, b), vjp)


def sum_all(a):
    av = _val(a)
    out = av.sum()
    if not _is_rec(a):
        return out

    def vjp(g):
        _accum(a, np.broadcast_to(np.asarray(g, dtype=av.dtype), av.shape))

    return Var(out, (a,), vjp)


def row_sum(a):
    """Sum over the last axis: (B, m) -> (B,)."""
    av = _val(a)
    out = av.sum(axis=-1)
    if not _is_rec(a):
        return out

    def vjp(g):
        _accum(a, np.broadcast_to(np.expand_dims(g, -1), av.shape).astype(av.dtype))

    return Var(out, (a,), vjp)


def mean_all(a):
    av = _val(a)
    return mul(sum_all(a), 1.0 / av.size)


def cross_entropy(logits, labels):
    """Per-example softmax cross-entropy: (B, C) x (B,) int -> (B,)."""
    lv = _val(logits)
    labels = np.asarray(labels)
    m = lv.max(axis=-1, keepdims=True)
    z = lv - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(lv, labels[:, None], axis=-1)[:, 0]
    out = lse - picked
    if not _is_rec(logits):
        return out

    softmax = np.exp(z)
    softmax /= softmax.sum(axis=-1, keepdims=True)

    def vjp(g):
        gg = softmax.copy()
        gg[np.arange(gg.shape[0]), labels] -= 1.0
        _accum(logits, gg * np.expand_dims(g, -1))

    return Var(out, (logits,), vjp)


def backward(loss):
    """Reverse pass from a scalar Var; fills .grad on every reachable node."""
    if not isinstance(loss, Var):
        raise ValueError("loss is not a recorded value")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Var) and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.asarray(1.0, dtype=loss.value.dtype)
    for node in reversed(order):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)



class Rec:
    """Recording context tying one loss graph to a ParamSet's leaves."""

    def __init__(self, params):
        self.params = params
        self._vars: dict[str, Var] = {}

    def param(self, name: str) -> Var:
        if name not in self._vars:
            self._vars[name] = Var(self.params.values[name])
        return self._vars[name]

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients for every parameter; zeros where the graph never used one."""
        out = {}
        for name, value in self.params.values.items():
            node = self._vars.get(name)
            if node is None or node.grad is None:
                out[name] = np.zeros_like(value)
            else:
                out[name] = np.asarray(node.grad, dtype=value.dtype).reshape(value.shape)
        return out


def backprop_gradients(rec: Rec, loss: Var) -> dict[str, np.ndarray]:
    backward(loss)
    return rec.grads()


# ---------------------------------------------------------------------------
# The package's graphs on the tape


def apply(net, params, inputs, rec: Rec = None, proj=None):
    """net's forward pass on the tape: parameters are recorded leaves when
    rec is given, and any Var input records the pass."""
    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]

    def param(name):
        return rec.param(f"{net.name}/{name}") if rec else params.values[f"{net.name}/{name}"]

    h, dense_i = list(inputs), 0
    for layer in net.layers:
        if layer[0] == "dense":
            b = proj if dense_i == 0 and proj is not None else param(f"b{dense_i}")
            h = dense(h if dense_i == 0 else [h], param(f"w{dense_i}"), b)
            dense_i += 1
        elif layer[0] == "relu":
            h = relu(h[0] if isinstance(h, list) else h)
        else:
            h = scaled_tanh(h[0] if isinstance(h, list) else h, layer[1], layer[2])
    return h


def kl_diag(q, p):
    dl = add(q.logvar, mul(p.logvar, -1.0))
    ratio = exp(dl)
    dm = add(q.mean, mul(p.mean, -1.0))
    maha = mul(mul(dm, dm), exp(mul(p.logvar, -1.0)))
    inner = add(add(ratio, maha), add(mul(dl, -1.0), -1.0))
    return mul(row_sum(inner), 0.5)


def elbo_loss(model, rec, x, y, u, beta, decode=None):
    """The negative ELBO of a batch as a recorded scalar, plus the per-pair
    SSE and KL values; decode(z) replaces the decoder pass when given."""
    def encode(trunk, mean, logvar, inputs):
        h = apply(trunk, model.params, inputs, rec)
        return GaussianDiag(apply(mean, model.params, h, rec), apply(logvar, model.params, h, rec))

    q = encode(model.post_trunk, model.post_mean, model.post_logvar, [x, y])
    p = encode(model.prior_trunk, model.prior_mean, model.prior_logvar, y)
    z = add(q.mean, mul(u, exp(mul(q.logvar, 0.5))))
    g = decode(z) if decode else apply(model.decoder, model.params, [z, y], rec)
    diff = add(g, mul(x, -1.0))
    sse = row_sum(mul(diff, diff))
    kl = kl_diag(q, p)
    loss = mean_all(add(mul(sse, 0.5), mul(kl, float(beta))))
    return loss, np.asarray(_val(sse)), np.asarray(_val(kl))


def classifier_loss(h, rec, inputs, labels):
    """Mean cross-entropy of a classifier batch as a recorded scalar."""
    return mean_all(cross_entropy(apply(h.net, h.params, inputs, rec), labels))


def decode_u(model, u, cond):
    """The perturbation-set map of recorded latents u."""
    z = add(mul(u, cond.std), cond.prior.mean)
    return apply(model.decoder, model.params, [z], proj=cond.proj)


def attack_objective(h, model, cond, labels):
    """latent_pgd_attack's objective on the tape: (per-row values, loss)."""
    def objective(u):
        ce = cross_entropy(apply(h.net, h.params, decode_u(model, u, cond)), labels)
        return _val(ce), sum_all(ce)
    return objective


def recon_objective(model, x, cond):
    """eval-set's reconstruction objective on the tape: (per-row per-pixel
    errors, loss)."""
    def objective(u):
        diff = add(decode_u(model, u, cond), -np.asarray(x, dtype=np.float32))
        sse = row_sum(mul(diff, diff))
        return np.asarray(_val(sse)) / x.shape[1], sum_all(sse)
    return objective


def pgd_objective(tape_objective):
    """A tape objective (u Var -> per-row values, scalar loss Var) in
    latent_pgd's form: (u, want_grad) -> (values, gradient in u or None)."""
    def objective(u, want_grad):
        uvar = Var(u)
        val, loss = tape_objective(uvar)
        if not want_grad:
            return val, None
        backward(loss)
        return val, uvar.grad
    return objective

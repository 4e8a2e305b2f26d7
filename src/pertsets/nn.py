"""Minimal reverse-mode autodiff and training utilities on numpy arrays.

Networks are flat stacks of three layer kinds: dense, relu and scaled_tanh,
each one recorded op. A network over several input streams starts with a
dense layer that multiplies each stream by its own block of weight rows, so
a fixed stream's share can be computed once (Network.project) and reused.
The recorded graph additionally supports the elementwise ops that the
variational objective and the latent attacks compose on top of network
outputs (add/mul/exp/sums/cross-entropy).

Dtype rule: network math runs in float32, and every op preserves its array
operands' dtype. Python int and float operands stay Python numbers, so they
are weak under NumPy's promotion rules and never widen a float32 array; a
graph fed float64 arrays stays float64 (the tests drive the same ops that
way). Gradients flow only into recorded operands: a VJP forms no term for a
plain-array parent such as a frozen weight or a raw input batch.

Adam updates parameters and moments in place, one cache-sized block of rows
at a time through two small scratch buffers, so no full-size temporary is
formed and the result is bit for bit the whole-tensor formula's.
"""

import json
import math
import os

import numpy as np


def finite_or_raise(x, what: str):
    """Raise when an array picked up NaN or inf; returns the array unchanged."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"non-finite values in {what}")
    return x


# ---------------------------------------------------------------------------
# Recorded computation


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


# ---------------------------------------------------------------------------
# Parameters and the Adam optimizer


class ParamSet:
    """Named parameter tensors plus Adam moment state and a shared step count."""

    def __init__(self, values=None):
        self.values: dict[str, np.ndarray] = dict(values or {})
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


class Rec:
    """Recording context tying one loss graph to a ParamSet's leaves."""

    def __init__(self, params: ParamSet):
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


# elements in one row block of an Adam update: a block of each array the
# update touches (value, g, m, v and two scratch buffers) fits in L2 cache
_BLOCK = 1 << 16


def adam_step(params: ParamSet, grads: dict, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update (Kingma & Ba) over every parameter, in
    place. Each tensor is updated block by block, each block about _BLOCK
    elements of whole rows (a bias vector is one block), through two scratch
    buffers in the tensor's dtype, in the op order of

        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        value -= (lr / c1) * m / (sqrt(v / c2) + eps)

    so no full-size temporary is formed, and every element, hence every
    parameter and moment, is bit for bit what that formula gives with
    Python-float hyperparameters (weak scalars: float32 tensors stay float32).
    Every gradient is checked before any tensor changes."""
    for name, value in params.values.items():
        if name not in grads:
            raise ValueError(f"missing gradient for parameter {name!r}")
        if grads[name].shape != value.shape:
            raise ValueError(f"gradient shape {grads[name].shape} != parameter shape "
                             f"{value.shape} for {name!r}")
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    scalars = (1.0 - beta1, 1.0 - beta2, lr / c1, c2, eps)
    # the scalars as 0-d arrays of each tensor dtype: a ufunc takes them
    # faster than Python floats and rounds them the same way
    typed = {}
    for name, value in params.values.items():
        g = grads[name].astype(value.dtype, copy=False)
        if name not in params.m:
            params.m[name] = np.zeros_like(value)
            params.v[name] = np.zeros_like(value)
        m, v = params.m[name], params.v[name]
        if value.dtype not in typed:
            typed[value.dtype] = [np.array(x, dtype=value.dtype) for x in scalars]
        a, b, lr_c1, c2_, eps_ = typed[value.dtype]
        rows = max(1, _BLOCK // max(1, math.prod(value.shape[1:])))
        tmp = np.empty((min(rows, len(value)),) + value.shape[1:], dtype=value.dtype)
        tmp2 = np.empty_like(tmp)
        for s in range(0, len(value), rows):
            pb, gb, mb, vb = value[s:s + rows], g[s:s + rows], m[s:s + rows], v[s:s + rows]
            t1, t2 = tmp[:len(pb)], tmp2[:len(pb)]
            np.subtract(gb, mb, out=t1)
            t1 *= a
            mb += t1
            np.multiply(gb, gb, out=t1)
            t1 -= vb
            t1 *= b
            vb += t1
            np.multiply(mb, lr_c1, out=t1)
            np.divide(vb, c2_, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps_
            t1 /= t2
            pb -= t1


# ---------------------------------------------------------------------------
# Networks


_LAYER_KINDS = ("dense", "relu", "scaled_tanh")


class Network:
    """A named stack of layers over one or more input streams.

    Layers are tuples: ("dense", out_dim), ("relu",), ("scaled_tanh", lo, hi).
    Several input streams feed the first layer, which must then be dense: its
    weight stacks one block of rows per stream, in stream order, and `dense`
    adds each stream's share, so no concatenated input is ever formed.
    `project` computes the last stream's share once for any number of `apply`
    calls on the others.
    """

    def __init__(self, name: str, in_dims, layers):
        self.name = name
        self.in_dims = [int(d) for d in (in_dims if isinstance(in_dims, (list, tuple)) else [in_dims])]
        if any(d < 1 for d in self.in_dims):
            raise ValueError(f"{name}: input widths must be positive, got {self.in_dims}")
        self.layers = [tuple(l) for l in layers]
        if len(self.in_dims) > 1 and (not self.layers or self.layers[0][0] != "dense"):
            raise ValueError(f"{name}: {len(self.in_dims)} input streams need a dense first layer")
        self._shapes = {}
        width = sum(self.in_dims)
        dense_i = 0
        for layer in self.layers:
            kind = layer[0]
            if kind not in _LAYER_KINDS:
                raise ValueError(f"{name}: unknown layer kind {kind!r}")
            if kind == "dense":
                out = int(layer[1])
                if out < 1:
                    raise ValueError(f"{name}: dense width must be positive, got {out}")
                self._shapes[f"{name}/w{dense_i}"] = (width, out)
                self._shapes[f"{name}/b{dense_i}"] = (out,)
                dense_i += 1
                width = out
            elif kind == "scaled_tanh":
                lo, hi = float(layer[1]), float(layer[2])
                if not lo < hi:
                    raise ValueError(f"{name}: scaled_tanh needs lo < hi, got ({lo}, {hi})")
        self.out_dim = width

    def param_shapes(self) -> dict:
        return dict(self._shapes)

    def init(self, params: ParamSet, rng: np.random.Generator):
        """Add this network's parameters: Glorot-uniform weights, zero biases.
        A weight is drawn in row blocks straight into float32; the generator
        fills values in order, so they equal one float64 draw cast down."""
        for pname, shape in self._shapes.items():
            if len(shape) == 2:
                bound = math.sqrt(6.0 / (shape[0] + shape[1]))
                w = params.values[pname] = np.empty(shape, dtype=np.float32)
                rows = max(1, _BLOCK // shape[1])
                for s in range(0, shape[0], rows):
                    w[s:s + rows] = rng.uniform(-bound, bound, size=w[s:s + rows].shape)
            else:
                params.values[pname] = np.zeros(shape, dtype=np.float32)

    def _streams(self, inputs, dims):
        # input streams are (B, d) rows
        if len(inputs) != len(dims):
            raise ValueError(f"{self.name}: expected {len(dims)} inputs, got {len(inputs)}")
        for x, d in zip(inputs, dims):
            shape = _val(x).shape
            if len(shape) != 2 or shape[1] != d:
                raise ValueError(f"{self.name}: input of shape {shape}, expected (rows, {d})")
        return list(inputs)

    def project(self, params: ParamSet, x):
        """The first layer's bias plus the last input stream's share,
        x @ W0[-d:] + b0, shaped (rows, out). `apply` takes it as `proj` and
        adds only the other streams' share."""
        d = self.in_dims[-1]
        return dense(self._streams([x], [d]), params.values[f"{self.name}/w0"][-d:],
                     params.values[f"{self.name}/b0"])

    def apply(self, params: ParamSet, inputs, rec: Rec = None, proj=None):
        """Forward pass. `inputs` is an array or list of arrays/Vars, shaped
        (B, d); with `proj` from `project`, every stream but the last.
        Returns ndarray, or a Var when recording (rec given or any input is a
        Var)."""
        if not isinstance(inputs, (list, tuple)):
            inputs = [inputs]
        streams = self._streams(inputs, self.in_dims if proj is None else self.in_dims[:-1])

        def param(name):
            return rec.param(f"{self.name}/{name}") if rec else params.values[f"{self.name}/{name}"]

        h = streams[0]      # several streams only ever meet a dense first layer
        dense_i = 0
        for layer in self.layers:
            kind = layer[0]
            if kind == "dense":
                b = proj if dense_i == 0 and proj is not None else param(f"b{dense_i}")
                h = dense(streams if dense_i == 0 else [h], param(f"w{dense_i}"), b)
                dense_i += 1
            elif kind == "relu":
                h = relu(h)
            else:
                h = scaled_tanh(h, layer[1], layer[2])
        return h


def model_params(nets, params: ParamSet = None, rng: np.random.Generator = None) -> ParamSet:
    """The parameters of a model made of nets: drawn fresh from rng, net by
    net in order, when params is None; otherwise params itself, checked to
    hold exactly the tensors that nets declare, each in its declared shape.
    ValueError names the first tensor, by name, that differs."""
    if params is None:
        if rng is None:
            raise ValueError("need params or an rng to initialize them")
        params = ParamSet()
        for net in nets:
            net.init(params, rng)
        return params
    shapes = {name: shape for net in nets for name, shape in net.param_shapes().items()}
    values = params.values
    for name in sorted(set(shapes) | set(values)):
        if name not in values:
            raise ValueError(f"tensor {name!r} missing")
        if name not in shapes:
            raise ValueError(f"tensor {name!r} is not a parameter of the declared architecture")
        if values[name].shape != shapes[name]:
            raise ValueError(f"tensor {name!r} has shape {values[name].shape}, "
                             f"the declared architecture needs {shapes[name]}")
    return params


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list:
    """One epoch's batches: a permutation of range(n) drawn from rng, cut
    into consecutive index arrays of batch_size (the last may be shorter)."""
    order = rng.permutation(n)
    return [order[lo:lo + batch_size] for lo in range(0, n, batch_size)]


# ---------------------------------------------------------------------------
# Schedules


class Schedule:
    """Piecewise-linear schedule over training epochs.

    Exact at the knots, linear between them, clamped to the end values
    outside the knot range. Knot positions must strictly increase.
    """

    def __init__(self, epochs, values):
        self.epochs = [float(e) for e in epochs]
        self.values = [float(v) for v in values]
        if len(self.epochs) != len(self.values) or not self.epochs:
            raise ValueError("schedule needs matching, non-empty knot lists")
        if any(b <= a for a, b in zip(self.epochs, self.epochs[1:])):
            raise ValueError(f"schedule epochs must strictly increase, got {self.epochs}")

    def value(self, epoch: float) -> float:
        return float(np.interp(epoch, self.epochs, self.values))


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_SUFFIXES = (".json", ".bin", ".meta.json")
_FORMAT = "pertsets-params-v1"


def write_json(path: str, obj: dict):
    """Write obj as strict JSON (no NaN or infinity literals): sorted keys,
    indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def read_json(path: str) -> dict:
    """The JSON object in path. OSError when it cannot be opened; ValueError
    naming the file when it is not valid JSON or not an object."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except ValueError as e:     # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


# kind -> (description, test) of a checkpoint meta value
_META_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "ints": ("a list of integers", lambda v: type(v) is list and all(type(d) is int for d in v)),
    "float": ("a finite float", lambda v: type(v) is float and math.isfinite(v)),
}


def _shown(v) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return "NaN" if math.isnan(v) else ("-" if v < 0 else "") + "infinity"
    return f"{json.dumps(v)} ({type(v).__name__})"


def meta_values(stem: str, meta: dict, kinds: dict) -> list:
    """The values of the checkpoint meta read from `<stem>.meta.json` under
    each key of kinds, in its order. A kind is "int" (not a bool), "ints" (a
    list of them) or "float" (finite); a value missing or of another kind
    raises ValueError naming the key and the file."""
    values = []
    for key, kind in kinds.items():
        if key not in meta:
            raise ValueError(f"{stem}.meta.json: key {key!r} missing")
        what, ok = _META_KINDS[kind]
        if not ok(meta[key]):
            raise ValueError(f"{stem}.meta.json: {key!r} is {_shown(meta[key])}, "
                             f"expected {what}")
        values.append(meta[key])
    return values


def save_params(params: ParamSet, stem: str, meta: dict):
    """Write the checkpoint at stem: the manifest `<stem>.json` naming each
    tensor and its shape in name order, so the byte layout is deterministic;
    `<stem>.bin`, the tensors as little-endian float32 in that order, each
    written straight to the file (a float32 one without a copy); and meta,
    the architecture a model is rebuilt from, as `<stem>.meta.json`."""
    names = sorted(params.values)
    write_json(stem + ".json",
               {"format": _FORMAT, "extra": {},
                "tensors": [{"name": n, "shape": list(params.values[n].shape)} for n in names]})
    with open(stem + ".bin", "wb") as f:
        for n in names:
            f.write(np.ascontiguousarray(params.values[n], dtype="<f4"))
    write_json(stem + ".meta.json", meta)


def load_params(stem: str) -> tuple[ParamSet, dict]:
    """Inverse of save_params; returns (ParamSet, meta). Each tensor is read
    into its own fresh array, with no copy of the whole blob. Raises
    FileNotFoundError for a missing part, ValueError for a malformed part,
    and FloatingPointError naming a tensor that is not finite."""
    for suffix in CHECKPOINT_SUFFIXES:
        if not os.path.isfile(stem + suffix):
            raise FileNotFoundError(f"checkpoint part missing: {stem}{suffix}")
    manifest, meta = read_json(stem + ".json"), read_json(stem + ".meta.json")
    if manifest.get("format") != _FORMAT or not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{stem}.json: not a {_FORMAT} manifest")
    params = ParamSet()
    with open(stem + ".bin", "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for entry in manifest["tensors"]:
            name, shape = ((entry.get("name"), entry.get("shape")) if isinstance(entry, dict)
                           else (None, None))
            if (not isinstance(name, str) or name in params.values or not isinstance(shape, list)
                    or not all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"{stem}.json: malformed or repeated tensor entry {entry!r}")
            # sized against the blob first, so no shape allocates past it
            fits = 4 * math.prod(shape) <= size - f.tell()
            value = np.empty(shape, dtype="<f4") if fits else None
            if not fits or f.readinto(value) != value.nbytes:
                raise ValueError(f"checkpoint blob too short for tensor {name!r}")
            params.values[name] = finite_or_raise(value, f"checkpoint {stem}: tensor {name!r}")
        left = size - f.tell()
    if left:
        raise ValueError(f"checkpoint blob has {left / 4:g} trailing floats")
    return params, meta

"""Dense networks, their reverse pass, and training utilities on numpy arrays.

Networks are flat stacks of three layer kinds: dense, relu and scaled_tanh.
A network over several input streams starts with a dense layer that
multiplies each stream by its own block of weight rows, so a fixed stream's
share can be computed once (Network.project) and reused.

The package differentiates three fixed graphs: the negative ELBO, the
classifier cross-entropy and the latent-PGD objectives. There is no general
tape. Network.apply keeps the activations a reverse pass reads when given a
list, and `backward` runs one network's reverse pass from the gradient in
its output: a relu or scaled_tanh step is one elementwise product on the
gradient, each parameter gradient is written into the array it is given,
and the gradient in the first input stream is formed only when asked for.
Each graph writes out its own glue (KL, reparameterization, squared error,
cross-entropy) around these passes.

Dtype rule: network math runs in float32, and every op preserves its array
operands' dtype. Python int and float operands stay Python numbers, so they
are weak under NumPy's promotion rules and never widen a float32 array; a
graph fed float64 arrays stays float64 (the tests drive the same ops that
way).

Ownership rule: an op overwrites only arrays it created in the same call. A
dense layer adds its bias or projection into its own product; a relu, and a
scaled_tanh whose tanh no reverse pass will read, overwrite the dense output
they follow; the reverse pass multiplies the relu mask and the tanh
derivative into the gradient it formed itself. No op ever writes into an
input, a parameter, a saved activation or the caller's gradient, and each
in-place step gives the bits of its out-of-place form.

A ParamSet keeps the parameters, Adam's moments and one step's gradients
(`backprop_gradients`) in flat buffers of one layout, the checkpoint's.
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
# Parameters and the Adam optimizer


class ParamSet:
    """Named parameter tensors, their shapes in name order in `shapes`, each a
    view into one flat buffer, `flat`, laid out in that order: the
    checkpoint's byte order. Adam's moments m and v and one step's gradients,
    `grad`, are flat buffers of that layout, allocated by the first step that
    needs them; `step` counts Adam steps. ParamSet(shapes, dtype) holds zero
    tensors of those shapes, by name, in that dtype, and no Adam state."""

    def __init__(self, shapes: dict, dtype):
        self.shapes = {name: tuple(shapes[name]) for name in sorted(shapes)}
        self.flat = np.zeros(sum(map(math.prod, self.shapes.values())), dtype)
        self.values = self.views(self.flat)
        self.m = self.v = self.grad = None
        self.step = 0

    def views(self, flat) -> dict[str, np.ndarray]:
        """The tensors of a flat buffer of this layout, by name."""
        out, end = {}, 0
        for name, shape in self.shapes.items():
            start, end = end, end + math.prod(shape)
            out[name] = flat[start:end].reshape(shape)
        return out


# elements in one block of an Adam update: six such blocks fit in L2 cache
_BLOCK = 1 << 16


def adam_step(params: ParamSet, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update (Kingma & Ba) of every parameter from
    params.grad, the gradients backprop_gradients wrote, in place. The flat
    buffers are updated _BLOCK elements at a time, through two scratch
    buffers, in the op order of

        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        value -= (lr / c1) * m / (sqrt(v / c2) + eps)

    so no full-size temporary is formed, and every element, hence every
    parameter and moment, is bit for bit what that formula gives with
    Python-float hyperparameters (weak scalars: float32 tensors stay float32)."""
    g = params.grad
    tmp = np.empty(min(_BLOCK, len(g)), dtype=g.dtype)
    tmp2 = np.empty_like(tmp)
    if params.m is None:
        params.m, params.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    params.step += 1
    t = params.step
    # the scalars as 0-d arrays of the buffer dtype: a ufunc takes them
    # faster than Python floats and rounds them the same way
    a, b, lr_c1, c2, eps_ = (np.array(x, dtype=g.dtype) for x in (
        1.0 - beta1, 1.0 - beta2, lr / (1.0 - beta1 ** t), 1.0 - beta2 ** t, eps))
    for s in range(0, len(g), _BLOCK):
        pb, gb, mb, vb = (x[s:s + _BLOCK] for x in (params.flat, g, params.m, params.v))
        t1, t2 = tmp[:len(pb)], tmp2[:len(pb)]
        np.subtract(gb, mb, out=t1)
        t1 *= a
        mb += t1
        np.multiply(gb, gb, out=t1)
        t1 -= vb
        t1 *= b
        vb += t1
        np.multiply(mb, lr_c1, out=t1)
        np.divide(vb, c2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += eps_
        t1 /= t2
        pb -= t1


# ---------------------------------------------------------------------------
# Networks


_LAYER_KINDS = ("dense", "relu", "scaled_tanh")


def into(op, own, x):
    """op(own, x) for an array `own` the caller created and an x of its
    width: written into own when that has the same bits, that is when x is
    one row or own's rows in own's dtype (op commutes, so own op= x is
    x op own), else formed as a new array."""
    if (x.dtype == own.dtype and x.ndim <= own.ndim
            and x.shape[:-1] in ((), (1,), own.shape[:-1])):
        return op(own, x, out=own)
    return op(own, x)


def dense(parts, w, b):
    """Dense layer over input streams: sum_i parts[i] @ w[rows_i] + b, where
    stream i feeds the i-th block of rows of w. Shares are added last stream
    first onto b, so b plus the last stream's share is exactly the projection
    Network.project caches; each sum is formed in the new product. Rows of w
    past the streams belong to inputs whose share is already in b."""
    out, end = b, sum(v.shape[-1] for v in parts)
    for v in reversed(parts):
        out = into(np.add, v @ w[end - v.shape[-1]:end], out)
        end -= v.shape[-1]
    return out


def scaled_tanh(a, lo: float, hi: float, overwrite: bool = False):
    """Squash onto (lo, hi): (tanh(a) + 1) * (hi - lo) / 2 + lo. Returns the
    output and tanh(a), which the reverse pass reads. With overwrite, for an
    `a` the caller created and needs no more, the output is formed in a and
    no tanh is returned."""
    t = np.tanh(a, out=a if overwrite else None)
    out = np.add(t, 1.0, out=t if overwrite else None)
    out *= 0.5 * (hi - lo)
    if lo != 0.0:
        out += lo
    return out, None if overwrite else t


def cross_entropy(logits, labels):
    """Per-example softmax cross-entropy, (B, C) x (B,) int -> (B,), and its
    gradient in the logits: each row's softmax minus its one-hot label."""
    labels = np.asarray(labels)
    m = logits.max(axis=-1, keepdims=True)
    grad = logits - m
    np.exp(grad, out=grad)
    s = grad.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(logits, labels[:, None], axis=-1)[:, 0]
    out = (np.log(s[..., 0]) + m[..., 0]) - picked
    grad /= s
    grad[np.arange(len(grad)), labels] -= 1.0
    return out, grad


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
        self._dense_names = []      # per layer: (weight, bias) names of a dense one, else None
        width = sum(self.in_dims)
        dense_i = 0
        for layer in self.layers:
            kind = layer[0]
            if kind not in _LAYER_KINDS:
                raise ValueError(f"{name}: unknown layer kind {kind!r}")
            names = None
            if kind == "dense":
                out = int(layer[1])
                if out < 1:
                    raise ValueError(f"{name}: dense width must be positive, got {out}")
                names = (f"{name}/w{dense_i}", f"{name}/b{dense_i}")
                self._shapes[names[0]] = (width, out)
                self._shapes[names[1]] = (out,)
                dense_i += 1
                width = out
            elif kind == "scaled_tanh":
                lo, hi = float(layer[1]), float(layer[2])
                if not lo < hi:
                    raise ValueError(f"{name}: scaled_tanh needs lo < hi, got ({lo}, {hi})")
            self._dense_names.append(names)
        self.out_dim = width

    def param_shapes(self) -> dict:
        return dict(self._shapes)

    def _streams(self, inputs, dims):
        # input streams are (B, d) rows, B the same for every stream: a
        # forward pass must not broadcast what its reverse pass cannot undo
        if len(inputs) != len(dims):
            raise ValueError(f"{self.name}: expected {len(dims)} inputs, got {len(inputs)}")
        for x, d in zip(inputs, dims):
            shape = np.shape(x)
            if len(shape) != 2 or shape[1] != d:
                raise ValueError(f"{self.name}: input of shape {shape}, expected (rows, {d})")
            if shape[0] != len(inputs[0]):
                raise ValueError(f"{self.name}: input streams of {len(inputs[0])} and "
                                 f"{shape[0]} rows")
        return [np.asarray(x) for x in inputs]

    def project(self, params: ParamSet, x):
        """The first layer's bias plus the last input stream's share,
        x @ W0[-d:] + b0, shaped (rows, out). `apply` takes it as `proj` and
        adds only the other streams' share."""
        d = self.in_dims[-1]
        return dense(self._streams([x], [d]), params.values[f"{self.name}/w0"][-d:],
                     params.values[f"{self.name}/b0"])

    def apply(self, params: ParamSet, inputs, proj=None, acts: list = None):
        """Forward pass. `inputs` is an array or list of arrays, shaped
        (B, d); with `proj` from `project`, every stream but the last.
        With `acts`, a list, appends per layer what `backward` reads: a dense
        layer's input streams, a relu's output, a scaled_tanh's tanh."""
        if not isinstance(inputs, (list, tuple)):
            inputs = [inputs]
        streams = self._streams(inputs, self.in_dims if proj is None else self.in_dims[:-1])
        h = streams[0]      # several streams only ever meet a dense first layer
        own = False         # whether h is an array this pass made and kept nowhere
        for i, (layer, names) in enumerate(zip(self.layers, self._dense_names)):
            if names is not None:
                saved = streams if i == 0 else [h]
                w, b = (params.values[n] for n in names)
                h = dense(saved, w, proj if i == 0 and proj is not None else b)
                own = True
            elif layer[0] == "relu":
                h = saved = np.maximum(h, 0, out=h if own else None)
                own = acts is None
            else:
                h, saved = scaled_tanh(h, layer[1], layer[2], own and acts is None)
                own = True
            if acts is not None:
                acts.append(saved)
        return h


def backward(net: Network, params: ParamSet, acts: list, g, grads: dict = None,
             input_grad: bool = False):
    """Reverse pass of the net.apply call that filled `acts`, from g, the
    gradient in its output. With `grads`, writes each of the net's parameter
    gradients into the array grads[name]: a weight's block v.T @ g per input
    stream v and a bias's row sum. A pass through `proj` has no parameter
    gradients: given grads, it raises ValueError. Returns the gradient in the
    first input stream when input_grad, else None: a first dense layer forms
    no product that is not asked for."""
    own = False         # whether g is an array this pass made
    for i in reversed(range(len(net.layers))):
        layer, names, saved = net.layers[i], net._dense_names[i], acts[i]
        if layer[0] == "relu":
            g = np.multiply(g, saved > 0, out=g if own else None)
            own = True
        elif layer[0] == "scaled_tanh":
            g = np.multiply(g, 0.5 * (layer[2] - layer[1]), out=g if own else None)
            own = True
            d = saved * saved
            g = into(np.multiply, g, np.subtract(1.0, d, out=d))
        else:
            wname, bname = names
            w = params.values[wname]
            if grads is not None:
                if sum(v.shape[1] for v in saved) != len(w):
                    raise ValueError(f"{net.name}: a pass through proj has no parameter gradients")
                s = 0
                for v in saved:
                    np.matmul(v.T, g, out=grads[wname][s:s + v.shape[1]])
                    s += v.shape[1]
                grads[bname][...] = g.sum(axis=0)
            if i == 0 and not input_grad:
                return None
            g = g @ w[:saved[0].shape[1]].T
            own = True
    return g if input_grad else None


def backprop_gradients(params: ParamSet, reverse) -> dict[str, np.ndarray]:
    """One step's parameter gradients, in params.grad (allocated by the first
    call): the buffer is zero-filled, so a parameter no pass reaches gets a
    zero gradient, and reverse(grads) fills its views, by name, through the
    reverse passes (`backward`) of its graph. Returns those views."""
    if params.grad is None:
        params.grad = np.empty_like(params.flat)
    params.grad.fill(0)
    grads = params.views(params.grad)
    reverse(grads)
    return grads


def model_params(nets, params: ParamSet = None, rng: np.random.Generator = None) -> ParamSet:
    """The parameters of a model made of nets: drawn fresh from rng when
    params is None, Glorot-uniform weights and zero biases, net by net and
    tensor by tensor in declared order; otherwise params itself, checked to
    hold exactly the tensors that nets declare, each in its declared shape.
    ValueError names the first tensor, by name, that differs. A weight is
    drawn in row blocks straight into float32; the generator fills values in
    order, so they equal one float64 draw cast down."""
    shapes = {name: shape for net in nets for name, shape in net.param_shapes().items()}
    if params is None:
        if rng is None:
            raise ValueError("need params or an rng to initialize them")
        params = ParamSet(shapes, np.float32)
        for name, shape in shapes.items():
            if len(shape) == 2:
                w, bound = params.values[name], math.sqrt(6.0 / (shape[0] + shape[1]))
                rows = max(1, _BLOCK // shape[1])
                for s in range(0, shape[0], rows):
                    w[s:s + rows] = rng.uniform(-bound, bound, size=w[s:s + rows].shape)
        return params
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
}


def _shown(v) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return "NaN" if math.isnan(v) else ("-" if v < 0 else "") + "infinity"
    return f"{json.dumps(v)} ({type(v).__name__})"


def meta_values(stem: str, meta: dict, kinds: dict) -> list:
    """The values of the checkpoint meta read from `<stem>.meta.json` under
    each key of kinds, in its order. A kind is "int" (not a bool) or "ints" (a
    list of them); a value missing or of another kind raises ValueError
    naming the key and the file."""
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
    `<stem>.bin`, the flat buffer as little-endian float32, written in one
    call (a float32 buffer without a copy); and meta, the architecture a
    model is rebuilt from, as `<stem>.meta.json`."""
    write_json(stem + ".json",
               {"format": _FORMAT, "extra": {},
                "tensors": [{"name": n, "shape": list(s)} for n, s in params.shapes.items()]})
    with open(stem + ".bin", "wb") as f:
        f.write(np.ascontiguousarray(params.flat, dtype="<f4"))
    write_json(stem + ".meta.json", meta)


def load_params(stem: str) -> tuple[ParamSet, dict]:
    """Inverse of save_params; returns (ParamSet, meta). The blob is read with
    one readinto into the flat buffer, with no other copy of it. Raises
    FileNotFoundError for a missing part, ValueError for a malformed part,
    and FloatingPointError naming a tensor that is not finite."""
    for suffix in CHECKPOINT_SUFFIXES:
        if not os.path.isfile(stem + suffix):
            raise FileNotFoundError(f"checkpoint part missing: {stem}{suffix}")
    manifest, meta = read_json(stem + ".json"), read_json(stem + ".meta.json")
    if manifest.get("format") != _FORMAT or not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{stem}.json: not a {_FORMAT} manifest")
    shapes = {}
    for entry in manifest["tensors"]:
        name, shape = ((entry.get("name"), entry.get("shape")) if isinstance(entry, dict)
                       else (None, None))
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(type(d) is int and d >= 0 for d in shape)
                or shapes and name <= next(reversed(shapes))):
            raise ValueError(f"{stem}.json: malformed, repeated or unsorted entry {entry!r}")
        shapes[name] = shape
    need = 4 * sum(map(math.prod, shapes.values()))
    with open(stem + ".bin", "rb") as f:
        size = os.fstat(f.fileno()).st_size      # first, so no manifest allocates past it
        if size == need:
            params = ParamSet(shapes, "<f4")
        if size != need or f.readinto(params.flat) != need:
            raise ValueError(f"checkpoint blob too {'short' if size < need else 'long'}: "
                             f"{size} bytes, its manifest {need}")
    for name, value in params.values.items():
        finite_or_raise(value, f"checkpoint {stem}: tensor {name!r}")
    return params, meta

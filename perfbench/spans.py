"""Outside-in instrumentation of the pertsets package.

Nothing here edits the package: wrappers are installed by rebinding names
and removed afterwards. A function imported by name into another module is
rebound at every module global (or module-level dict entry) that holds it,
because callers look it up there; methods are rebound on their class.

`StageRecorder` times each CLI stage call and keeps its config; it is light
enough to stay on in the timed runs. `Tracer` records a span for every call
of the operations in `OPS`, in memory, and turns a run's spans into the
per-layer metrics.
"""

import functools
import importlib
import json
import time

# The package's modules, which are also the trace's layers.
MODULES = ("cli", "pertgen", "cvae", "nn", "evalmetrics", "theory", "robust",
           "smoothing", "specialfn")


def import_package():
    """The nine package modules by short name."""
    return {name: importlib.import_module(f"pertsets.{name}") for name in MODULES}


class Patcher:
    """Rebinds names and puts the originals back on `restore`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def restore(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def lookup_sites(mods, fn):
    """Every (site name, owner, key) through which callers reach `fn`: module
    globals and entries of module-level dicts that hold it."""
    sites = []
    for mname, mod in mods.items():
        for key, value in list(vars(mod).items()):
            if value is fn:
                sites.append((f"{mname}.{key}", mod, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    if dvalue is fn:
                        sites.append((f"{mname}.{key}[{dkey}]", value, dkey))
    return sites


class StageRecorder:
    """Times every CLI stage function (`cmd_*` behind `cli._COMMANDS`) and
    records (stage, config, seconds, ok) per call."""

    def __init__(self, mods):
        self.records = []
        self._patch = Patcher()
        cli = mods["cli"]
        for stage, fn in list(cli._COMMANDS.items()):
            wrapped = self._wrap(stage, fn)
            for _, owner, key in lookup_sites(mods, fn):
                self._patch.set(owner, key, wrapped)

    def _wrap(self, stage, fn):
        records = self.records

        @functools.wraps(fn)
        def stage_call(cfg):
            snapshot = json.loads(json.dumps(cfg))
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(cfg)
                ok = True
                return out
            finally:
                records.append((stage, snapshot, time.perf_counter() - t0, ok))
        return stage_call

    def take(self) -> list:
        out = self.records[:]
        self.records.clear()
        return out

    def close(self):
        self._patch.restore()


# ---------------------------------------------------------------------------
# Span counters: each returns (n, x) from a call's arguments and result.


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(value):
    shape = getattr(getattr(value, "value", value), "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _count_apply(args, kwargs, result):
    net, inputs = args[0], _arg(args, kwargs, 2, "inputs")
    rows = _rows(inputs[0] if isinstance(inputs, (list, tuple)) else inputs)
    flop_per_row = sum(2 * s[0] * s[1] for s in net.param_shapes().values() if len(s) == 2)
    return rows, rows * flop_per_row


def _count_rows(args, kwargs, result):
    return _rows(args[1]), 0


def _count_len_result(args, kwargs, result):
    return len(result), 0


def _count_len_pairs(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "pairs")), 0


def _count_ball(args, kwargs, result):
    return _arg(args, kwargs, 2, "n"), 0


def _count_pgd(args, kwargs, result):
    rows = len(result[1])
    return rows, rows * _arg(args, kwargs, 4, "cfg").steps


def _count_sample(args, kwargs, result):
    return _arg(args, kwargs, 3, "n"), 0


def _count_abstain(args, kwargs, result):
    return int(result.prediction == -1), 0


# (layer, op, defining module, attribute path, counter). Ops sharing a name
# are one operation for counting; a call nested in a call of the same op is
# not counted again.
OPS = [
    ("cli", "gen_data", "cli", "cmd_gen_data", None),
    ("cli", "train_cvae", "cli", "cmd_train_cvae", None),
    ("cli", "eval_set", "cli", "cmd_eval_set", None),
    ("cli", "bounds", "cli", "cmd_bounds", None),
    ("cli", "attack", "cli", "cmd_attack", None),
    ("cli", "train_robust", "cli", "cmd_train_robust", None),
    ("cli", "certify", "cli", "cmd_certify", None),
    ("cli", "reproduce", "cli", "cmd_reproduce", None),
    ("cli", "manifest", "cli", "ArtifactDir.finish", None),
    ("pertgen", "gen_pairs", "pertgen", "gen_linf_pairs", _count_len_result),
    ("pertgen", "gen_pairs", "pertgen", "gen_rts_pairs", _count_len_result),
    ("pertgen", "synth_shapes", "pertgen", "synth_shapes", None),
    ("pertgen", "read_idx", "pertgen", "read_idx", None),
    ("pertgen", "warp_affine", "pertgen", "warp_affine", None),
    ("cvae", "train", "cvae", "train_cvae", None),
    ("cvae", "elbo", "cvae", "elbo_loss", None),
    ("cvae", "encode_posterior", "cvae", "CvaeModel.encode_posterior", _count_rows),
    ("cvae", "encode_prior", "cvae", "CvaeModel.encode_prior", _count_rows),
    ("cvae", "decode", "cvae", "CvaeModel.decode", _count_rows),
    ("cvae", "decode_u", "cvae", "CvaeModel.decode_u", _count_rows),
    ("cvae", "ball", "cvae", "sample_truncated_ball", _count_ball),
    ("cvae", "save", "cvae", "CvaeModel.save", None),
    ("cvae", "load", "cvae", "load_cvae", None),
    ("nn", "apply", "nn", "Network.apply", _count_apply),
    ("nn", "backward", "nn", "backward", None),
    ("nn", "backprop", "nn", "backprop_gradients", None),
    ("nn", "adam", "nn", "adam_step", None),
    ("nn", "save_params", "nn", "save_params", None),
    ("nn", "load_params", "nn", "load_params", None),
    ("evalmetrics", "evaluate", "evalmetrics", "evaluate_set", _count_len_pairs),
    ("evalmetrics", "select_radius", "evalmetrics", "select_radius", None),
    ("evalmetrics", "to_csv", "evalmetrics", "EvalReport.to_csv", None),
    ("theory", "estimate", "theory", "estimate_R_K", None),
    ("theory", "bounds", "theory", "theorem1_bounds", None),
    ("theory", "bounds", "theory", "theorem2_bound", None),
    ("theory", "mahalanobis_radius", "theory", "mahalanobis_radius", None),
    ("theory", "lemma3_interval", "theory", "lemma3_interval", None),
    ("robust", "pgd", "robust", "latent_pgd_attack", _count_pgd),
    ("robust", "train_epoch", "robust", "adv_train_epoch", None),
    ("robust", "train_epoch", "robust", "augment_train_epoch", None),
    ("robust", "train_epoch", "robust", "clean_train_epoch", None),
    ("robust", "train_step", "robust", "_train_step", None),
    ("robust", "accuracy", "robust", "accuracy", None),
    ("robust", "accuracy", "robust", "robust_accuracy", None),
    ("robust", "logits", "robust", "Classifier.logits", None),
    ("robust", "predict", "robust", "Classifier.predict", None),
    ("robust", "save", "robust", "Classifier.save", None),
    ("robust", "load", "robust", "load_classifier", None),
    ("smoothing", "certify", "smoothing", "certify", _count_abstain),
    ("smoothing", "sample", "smoothing", "sample_under_noise", _count_sample),
    ("smoothing", "noise_epoch", "smoothing", "noise_train_epoch", None),
    ("smoothing", "sigma_for_radius", "smoothing", "sigma_for_radius", None),
    ("specialfn", "clopper_pearson", "specialfn", "clopper_pearson_lower", None),
    ("specialfn", "reg_lower_gamma", "specialfn", "reg_lower_gamma", None),
    ("specialfn", "chi2_quantile", "specialfn", "chi_square_quantile", None),
    ("specialfn", "chi2_cdf", "specialfn", "chi_square_cdf", None),
    ("specialfn", "lambert_w", "specialfn", "lambert_w", None),
    ("specialfn", "normal_quantile", "specialfn", "std_normal_quantile", None),
    ("specialfn", "normal_cdf", "specialfn", "std_normal_cdf", None),
    ("specialfn", "binom_pvalue", "specialfn", "binom_two_sided_pvalue", None),
]

# Names imported into a caller's namespace that must be wrapped there too.
REQUIRED_SITES = (
    "cli.train_cvae", "cli.evaluate_set", "cli.select_radius", "cli.latent_pgd_attack",
    "cli.gen_linf_pairs", "cli.gen_rts_pairs", "cli.synth_shapes",
    "evalmetrics.sample_truncated_ball", "robust.sample_truncated_ball",
    "smoothing.clopper_pearson_lower", "smoothing._train_step",
    "theory.chi_square_quantile", "theory.lambert_w", "cvae.reg_lower_gamma",
)


class Tracer:
    """Span recorder over the operations in OPS.

    A span is (run, op index, site index, parent span, start, end, outer,
    n, x): `outer` is false for a call nested in a call of the same op, and
    n, x come from the op's counter.
    """

    def __init__(self, mods):
        self.ops = sorted({(layer, op) for layer, op, *_ in OPS})
        self.sites = []
        self.spans = []
        self.run = ""
        self._stack = []
        self._depth = [0] * len(self.ops)
        self._patch = Patcher()
        index = {key: i for i, key in enumerate(self.ops)}
        for layer, op, mname, path, counter in OPS:
            owner = mods[mname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            if outer:   # a method: callers reach it through its class
                sites = [(f"{mname}.{path}", owner, attr)]
            else:
                sites = lookup_sites(mods, fn)
            for site, site_owner, key in sites:
                self.sites.append(site)
                self._patch.set(site_owner, key,
                                self._wrap(fn, index[(layer, op)], len(self.sites) - 1, counter))

    def _wrap(self, fn, op, site, counter):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[op] += 1
            n = x = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    n, x = counter(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                depth[op] -= 1
                stack.pop()
                spans[sid] = (self.run, op, site, parent, t0, t1, depth[op] == 0, n, x)
        return traced

    def close(self):
        self._patch.restore()

    def fired_sites(self) -> set:
        return {self.sites[s[2]] for s in self.spans}

    def write(self, path: str):
        """All spans as JSON lines: run, name, site, id, parent, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, (run, op, site, parent, t0, t1, _, n, x) in enumerate(self.spans):
                layer, name = self.ops[op]
                f.write(json.dumps([run, f"{layer}.{name}", self.sites[site], sid, parent,
                                    round(t0, 7), round(t1, 7), n, x]) + "\n")

    def metrics(self, runs) -> dict:
        """Per-layer metrics over the spans of the given runs."""
        chosen = [i for i, s in enumerate(self.spans) if s[0] in runs]
        calls, total, self_t, nsum, xsum = ({} for _ in range(5))
        child = {}
        for i in chosen:
            s = self.spans[i]
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + (s[5] - s[4])
        layer_self = dict.fromkeys(MODULES, 0.0)
        for i in chosen:
            _, op, _, _, t0, t1, outer, n, x = self.spans[i]
            key = self.ops[op]
            own = (t1 - t0) - child.get(i, 0.0)
            layer_self[key[0]] += own
            self_t[key] = self_t.get(key, 0.0) + own
            nsum[key] = nsum.get(key, 0) + n
            xsum[key] = xsum.get(key, 0) + x
            if outer:
                calls[key] = calls.get(key, 0) + 1
                total[key] = total.get(key, 0.0) + (t1 - t0)
        cvae_train = self.ops.index(("cvae", "train"))
        adam = self.ops.index(("nn", "adam"))
        train_steps = sum(1 for i in chosen if self.spans[i][1] == adam
                          and self._within(i, cvae_train))
        return layer_metrics(calls, total, self_t, nsum, xsum, layer_self, train_steps)

    def _within(self, i, op) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][1] == op:
                return True
            parent = self.spans[parent][3]
        return False


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(calls, total, self_t, nsum, xsum, layer_self, cvae_train_steps) -> dict:
    c = lambda layer, op: calls.get((layer, op), 0)
    t = lambda layer, op: total.get((layer, op), 0.0)
    n = lambda layer, op: nsum.get((layer, op), 0)
    m = {}
    for stage in ("gen_data", "train_cvae", "eval_set", "bounds", "attack", "train_robust",
                  "certify", "reproduce"):
        m[f"cli.{stage}_s"] = self_t.get(("cli", stage), 0.0)
    m["cli.manifest_s"] = self_t.get(("cli", "manifest"), 0.0)
    m["cli.self_s"] = layer_self["cli"] - m["cli.manifest_s"]
    m["pertgen.pairs"] = n("pertgen", "gen_pairs")
    m["pertgen.s"] = layer_self["pertgen"]
    m["cvae.train_s"] = t("cvae", "train")
    m["cvae.train_step_ms"] = 1e3 * _ratio(t("cvae", "train"), cvae_train_steps)
    m["cvae.decode_calls"] = c("cvae", "decode")
    m["cvae.decode_rows"] = n("cvae", "decode")
    m["cvae.decode_s"] = t("cvae", "decode")
    m["cvae.decode_row_us"] = 1e6 * _ratio(t("cvae", "decode"), n("cvae", "decode"))
    m["cvae.encode_prior_calls"] = c("cvae", "encode_prior")
    m["cvae.encode_prior_s"] = t("cvae", "encode_prior")
    m["cvae.ball_draws"] = n("cvae", "ball")
    m["cvae.ball_s"] = t("cvae", "ball")
    m["nn.apply_calls"] = c("nn", "apply")
    m["nn.apply_rows"] = n("nn", "apply")
    m["nn.apply_s"] = t("nn", "apply")
    m["nn.dense_gflop"] = xsum.get(("nn", "apply"), 0) / 1e9
    m["nn.apply_gflops"] = _ratio(m["nn.dense_gflop"], m["nn.apply_s"])
    m["nn.backward_calls"] = c("nn", "backward")
    m["nn.backward_s"] = t("nn", "backward")
    m["nn.adam_steps"] = c("nn", "adam")
    m["nn.adam_s"] = t("nn", "adam")
    m["evalmetrics.pairs"] = n("evalmetrics", "evaluate")
    m["evalmetrics.evaluate_s"] = t("evalmetrics", "evaluate")
    m["evalmetrics.select_radius_s"] = t("evalmetrics", "select_radius")
    m["theory.estimate_calls"] = c("theory", "estimate")
    m["theory.estimate_s"] = t("theory", "estimate")
    m["theory.bounds_calls"] = c("theory", "bounds")
    m["theory.bounds_s"] = t("theory", "bounds")
    m["robust.pgd_calls"] = c("robust", "pgd")
    m["robust.pgd_rows"] = n("robust", "pgd")
    m["robust.pgd_s"] = t("robust", "pgd")
    m["robust.pgd_row_step_us"] = 1e6 * _ratio(t("robust", "pgd"), xsum.get(("robust", "pgd"), 0))
    m["robust.train_epochs"] = c("robust", "train_epoch")
    m["robust.train_epoch_s"] = t("robust", "train_epoch")
    m["robust.accuracy_s"] = t("robust", "accuracy")
    m["smoothing.certify_calls"] = c("smoothing", "certify")
    m["smoothing.sample_calls"] = c("smoothing", "sample")
    m["smoothing.decodes"] = n("smoothing", "sample")
    m["smoothing.sample_s"] = t("smoothing", "sample")
    m["smoothing.certify_s"] = t("smoothing", "certify")
    m["smoothing.abstain_share"] = _ratio(n("smoothing", "certify"), c("smoothing", "certify"))
    m["smoothing.noise_epoch_s"] = t("smoothing", "noise_epoch")
    for op, name in (("clopper_pearson", "clopper_pearson"), ("reg_lower_gamma", "reg_lower_gamma"),
                     ("chi2_quantile", "chi2_quantile"), ("lambert_w", "lambert_w")):
        m[f"specialfn.{name}_calls"] = c("specialfn", op)
        m[f"specialfn.{name}_s"] = t("specialfn", op)
    for layer in ("cvae", "nn", "evalmetrics", "theory", "robust", "smoothing", "specialfn"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m

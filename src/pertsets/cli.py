"""Config-driven command line for the perturbation-set pipeline.

Subcommands cover the full flow: pair generation, generator training, set
evaluation, certified bounds, latent attacks, robust classifier training,
and randomized-smoothing certification. Each stage reads one JSON config and
writes its artifacts into an output directory together with config.json,
the config that reruns it (every key it read, defaults filled in), and a
manifest of content hashes, so every directory is self-describing and
re-runnable: `pertsets <stage> --config <dir>/config.json` writes the same
bytes again.

Conventions:
  - exit 0 success, 2 invalid config (field-level message), 3 missing or bad
    input artifact, 4 numerical failure: a non-finite training loss (message
    names the epoch), checkpoint tensor or pixel, or forward-pass overflow
    into non-finite logits or decoded outputs
  - CSV reports: header row, UTF-8, '\\n' line endings, full-precision floats
  - JSON reports: pretty-printed, sorted keys, trailing newline; non-finite
    floats serialized as the strings "inf"/"-inf"/"nan" (strict JSON has no
    literal for them)
  - seeds split hierarchically: a run seed expands into per-stage seeds, each
    recorded in that stage's config copy; attack, which draws no random
    numbers, accepts a seed and leaves it out
"""

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import nn, robust, smoothing, theory
from .cvae import DEFAULT_BETA, DEFAULT_LR, CvaeModel, PairSet, TrainConfig, load_cvae, train_cvae
from .evalmetrics import METRICS, evaluate_set, select_radius
from .pertgen import Dataset, RtsParams, gen_linf_pairs, gen_rts_pairs, read_idx, synth_shapes
from .robust import AttackConfig, Classifier, latent_pgd_attack, load_classifier

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid or unparseable configuration; message names the field."""


class MissingArtifactError(Exception):
    """A referenced input artifact does not exist or is incomplete."""


# ---------------------------------------------------------------------------
# JSON / file helpers


def _jsonable(v):
    """Recursive conversion to strict-JSON values; non-finite floats become
    strings so reports stay parseable by any JSON reader."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if math.isfinite(f):
            return f
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ArtifactDir:
    """Output directory that tracks what the stage writes and finishes with a
    manifest.json of content hashes covering exactly those files."""

    def __init__(self, path: str):
        self.path = path
        self.files = []
        os.makedirs(path, exist_ok=True)

    def file(self, name: str) -> str:
        if name not in self.files:
            self.files.append(name)
        return os.path.join(self.path, name)

    def write_json(self, name: str, obj):
        nn.write_json(self.file(name), _jsonable(obj))

    def write_jsonl(self, name: str, records):
        with open(self.file(name), "w", encoding="utf-8") as f:
            for rec in records:
                f.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")

    def write_csv(self, name: str, header, rows):
        with open(self.file(name), "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)

    def checkpoint(self, stem: str) -> str:
        """Register the three files of an nn checkpoint; returns the path stem
        to save it under."""
        for suffix in nn.CHECKPOINT_SUFFIXES:
            self.file(stem + suffix)
        return os.path.join(self.path, stem)

    def finish(self):
        manifest = {"files": {n: _sha256(os.path.join(self.path, n))
                              for n in sorted(self.files)}}
        nn.write_json(os.path.join(self.path, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Schema validation
#
# A converter takes (value, where) and returns the checked value or raises
# ConfigError naming `where`, the key's full path.

_REQUIRED = object()


def _as_int(v, where):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _as_float(v, where):
    if isinstance(v, dict):     # an object where a number belongs: its keys are unknown
        Section(v, where).done()
    if not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ConfigError(f"{where}: expected a finite number, got {v!r}")


def _as_str(v, where):
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {v!r}")
    return v


def _list_of(conv):
    def convert(v, where):
        if not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list, got {v!r}")
        return [conv(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return convert


def _checked(conv, ok, expect):
    """conv, then a range check: the value must be `expect`."""
    def convert(v, where):
        x = conv(v, where)
        if not ok(x):
            raise ConfigError(f"{where}: must be {expect}, got {x!r}")
        return x
    return convert


def _int_at_least(lo):
    return _checked(_as_int, lambda x: x >= lo, f">= {lo}")


def _choice(*options):
    return _checked(_as_str, lambda x: x in options, "one of " + ", ".join(options))


_SEED = _int_at_least(0)   # SeedSequence entropy is non-negative
_COUNT = _int_at_least(1)
_FRACTION = _checked(_as_float, lambda x: 0 < x < 1 and 1.0 - x < 1.0, "in (0, 1) with 1 - x < 1")
_POSITIVE = _checked(_as_float, lambda x: x > 0, "> 0")
_NONNEGATIVE = _checked(_as_float, lambda x: x >= 0, ">= 0")


def _number_or_section(conv):
    """A key that holds either a number (checked by conv) or a sub-object,
    returned as a Section for the caller to read."""
    def convert(v, where):
        return Section(v, where) if isinstance(v, dict) else conv(v, where)
    return convert


class Section:
    """One level of a config document: typed key extraction with unknown-key
    rejection. `take` records each key's converted value or its default (an
    absent key whose default is None stays absent), and `done()` returns that
    record, the config a stage writes as its config.json and reruns from."""

    def __init__(self, obj, where: str = "config"):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
        self.obj = obj
        self.where = where
        self.resolved = {}

    def take(self, key, conv, default=_REQUIRED):
        where = f"{self.where}.{key}"
        if key in self.obj:
            value = conv(self.obj[key], where)
        elif default is _REQUIRED:
            raise ConfigError(f"{where}: required key missing")
        elif default is None:   # an absent optional key stays absent
            return None
        else:
            value = default
        self.resolved[key] = value.resolved if isinstance(value, Section) else value
        return value

    def sub(self, key) -> "Section":
        return self.take(key, Section)

    def done(self) -> dict:
        unknown = sorted(set(self.obj) - set(self.resolved))
        if unknown:
            raise ConfigError(f"unknown config key {self.where}.{unknown[0]}")
        return self.resolved


def _parse_schedule(top: Section, key: str, default: nn.Schedule) -> nn.Schedule:
    """The schedule under `key` of top, or default when the key is absent;
    either way recorded as its knot object. Knot values must be >= 0."""
    s = top.take(key, Section, {"epochs": default.epochs, "values": default.values})
    if not isinstance(s, Section):
        return default
    epochs = s.take("epochs", _list_of(_as_float))
    values = s.take("values", _list_of(_NONNEGATIVE))
    s.done()
    try:
        return nn.Schedule(epochs, values)
    except ValueError as e:
        raise ConfigError(f"{s.where}: {e}") from e


# ---------------------------------------------------------------------------
# Pair-set artifacts

_PAIRS_META = "pairs.meta.json"


def _save_pairs(dirpath: str, pairs: PairSet, extra_meta: dict) -> list:
    os.makedirs(dirpath, exist_ok=True)
    names = ["perturbed.npy", "conditioned.npy"]
    np.save(os.path.join(dirpath, "perturbed.npy"), pairs.perturbed)
    np.save(os.path.join(dirpath, "conditioned.npy"), pairs.conditioned)
    if pairs.labels is not None:
        np.save(os.path.join(dirpath, "labels.npy"), pairs.labels)
        names.append("labels.npy")
    meta = {"n": len(pairs), "m": pairs.dim, "labels": pairs.labels is not None}
    meta.update(extra_meta)
    nn.write_json(os.path.join(dirpath, _PAIRS_META), meta)
    names.append(_PAIRS_META)
    return names


def _load_idx(path: str) -> np.ndarray:
    if not os.path.isfile(path):
        raise MissingArtifactError(f"missing file: {path}")
    try:
        return read_idx(path)
    except ValueError as e:     # read_idx names the file and the byte offset
        raise MissingArtifactError(f"unreadable IDX file {e}") from e


def _load_array(path: str, dtype) -> np.ndarray:
    if not os.path.isfile(path):
        raise MissingArtifactError(f"missing file: {path}")
    try:
        return np.load(path).astype(dtype, copy=False)
    except (OSError, EOFError, TypeError, ValueError) as e:
        raise MissingArtifactError(f"unreadable array {path}: {e}") from e


def _load_pairs(dirpath: str) -> PairSet:
    """Read a pair set and check it: a JSON object as meta, two equal (N, m)
    arrays of pixels in [0, 1] with N > 0, and N labels >= 0 when the meta
    declares them (else exit 3); NaN or inf pixels exit 4."""
    if not os.path.isdir(dirpath):
        raise MissingArtifactError(f"missing pair-set directory: {dirpath}")
    try:
        meta = nn.read_json(os.path.join(dirpath, _PAIRS_META))
    except (OSError, ValueError) as e:  # the message names the file
        raise MissingArtifactError(str(e)) from e
    paths = [os.path.join(dirpath, name) for name in ("perturbed.npy", "conditioned.npy")]
    perturbed, conditioned = (_load_array(path, np.float32) for path in paths)
    if perturbed.ndim != 2 or perturbed.shape != conditioned.shape:
        raise MissingArtifactError(f"{paths[0]} {perturbed.shape} and {paths[1]} "
                                   f"{conditioned.shape} are not two equal (N, m) arrays")
    if len(perturbed) == 0:
        raise MissingArtifactError(f"pair set at {dirpath} holds no pairs")
    for path, arr in zip(paths, (perturbed, conditioned)):
        nn.finite_or_raise(arr, path)
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise MissingArtifactError(f"{path}: pixels outside [0, 1]")
    labels = None
    if meta.get("labels"):
        lp = os.path.join(dirpath, "labels.npy")
        labels = _load_array(lp, np.int64)
        if labels.shape != (len(perturbed),):
            raise MissingArtifactError(f"{lp}: shape {labels.shape}, the pair set holds "
                                       f"{len(perturbed)} pairs")
        if labels.min() < 0:
            raise MissingArtifactError(f"{lp}: negative class label {labels.min()}")
    return PairSet(perturbed, conditioned, labels)


def _load_checkpoint(dirpath: str, stem: str, load):
    """`load` of the checkpoint `stem` in dirpath. A missing or malformed
    part, a meta value missing or of the wrong type, or tensors unlike the
    architecture it declares exit 3; a non-finite tensor exits 4."""
    path = os.path.join(dirpath, stem)
    try:
        return load(path)
    except (OSError, ValueError) as e:
        raise MissingArtifactError(f"bad {stem} checkpoint {path}: {e}") from e


def _same_width(model: CvaeModel, model_dir: str, what: str, path: str, width: int):
    if width != model.m:
        raise MissingArtifactError(f"{what} at {path} has width {width}, the generator at "
                                   f"{model_dir} has width {model.m}")


def _stage_inputs(model_dir: str, data_dir: str, clf_dir: str = None, limit: int = None,
                  labeled: bool = False):
    """(generator, pair set cut to its first `limit` pairs, classifier or
    None) of a stage. The pairs and the classifier must be as wide as the
    generator's images, and labeled when the stage needs labels, with every
    label one of the classifier's classes (else exit 3)."""
    model = _load_checkpoint(model_dir, "model", load_cvae)
    h = None
    if clf_dir is not None:
        h = _load_checkpoint(clf_dir, "classifier", load_classifier)
        _same_width(model, model_dir, "classifier", clf_dir, h.m)
    pairs = _load_pairs(data_dir)
    _same_width(model, model_dir, "pair set", data_dir, pairs.dim)
    if labeled and pairs.labels is None:
        raise MissingArtifactError(f"pair set at {data_dir} has no labels.npy; "
                                   "this stage needs labeled pairs")
    if limit is not None and limit < len(pairs):
        pairs = pairs.subset(slice(limit))
    if labeled and h is not None and pairs.labels.max() >= h.n_classes:
        raise MissingArtifactError(f"{os.path.join(data_dir, 'labels.npy')} holds label "
                                   f"{pairs.labels.max()}, the classifier at {clf_dir} has "
                                   f"{h.n_classes} classes")
    return model, pairs, h


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)

    src = top.sub("source")
    kind = src.take("kind", _choice("synth-shapes", "idx"))
    if kind == "synth-shapes":
        n = src.take("n", _int_at_least(2))
        size = src.take("size", _int_at_least(8))
    else:
        images = src.take("images", _as_str)
        labels_path = src.take("labels", _as_str, None)
        limit = src.take("limit", _COUNT, None)
    src.done()

    ps = top.sub("pairs")
    pkind = ps.take("kind", _choice("linf", "rts"))
    # one pairing: the conditioned member is the clean source
    ps.take("pairing", _choice("centered"), "centered")
    if pkind == "linf":
        eps = ps.take("eps", _POSITIVE)
    else:
        rotation = ps.take("rotation", _as_float, 45.0)
        scale = ps.take("scale", _list_of(_as_float), [0.7, 1.3])
        canvas = ps.take("canvas", _as_int, 42)
        if len(scale) != 2:
            raise ConfigError("config.pairs.scale: expected [lo, hi]")
        try:
            rts = RtsParams(rotation=rotation, scale_lo=scale[0], scale_hi=scale[1],
                            canvas=canvas)
        except ValueError as e:
            raise ConfigError(f"config.pairs: {e}") from e
    ps.done()

    sp = top.sub("split")
    n_test = sp.take("test", _int_at_least(0))
    sp.done()
    resolved = top.done()

    # validation done; now generate
    rng_data, rng_pairs = [np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2)]
    if kind == "synth-shapes":
        data = synth_shapes(n, size, rng_data)
    else:
        imgs = _load_idx(images)
        if imgs.ndim != 3:
            raise ConfigError(f"config.source.images: {images} holds "
                              f"{imgs.ndim}-d data, expected images")
        if pkind == "rts" and imgs.shape[1] != imgs.shape[2]:
            raise ConfigError(f"config.source.images: {images} holds {imgs.shape[1]}x"
                              f"{imgs.shape[2]} images, rts pairs need square ones")
        lbl = None
        if labels_path is not None:
            lbl = _load_idx(labels_path)
            if lbl.shape != (len(imgs),):
                raise MissingArtifactError(f"{labels_path}: labels of shape {lbl.shape}, "
                                           f"{images} holds {len(imgs)} images")
        if limit is not None:
            imgs = imgs[:limit]
            lbl = None if lbl is None else lbl[:limit]
        data = Dataset(imgs, lbl)

    if pkind == "linf":
        allpairs = gen_linf_pairs(data, eps, rng_pairs)
    else:
        try:
            rts.check_fits(data.images.shape[1])
        except ValueError as e:
            raise ConfigError(f"config.pairs.canvas: {e}") from e
        allpairs = gen_rts_pairs(data, rts, rng_pairs)

    total = len(allpairs)
    if n_test >= total:
        raise ConfigError(f"config.split.test: {n_test} test pairs but only "
                          f"{total} generated")
    train = allpairs.subset(slice(total - n_test))
    test = allpairs.subset(slice(total - n_test, total))

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    for name, subset in (("train", train), ("test", test)):
        for f in _save_pairs(os.path.join(out_dir, name), subset,
                             {"pairs": resolved["pairs"], "seed": seed, "split": name}):
            stage.file(os.path.join(name, f))
    stage.finish()
    log.info("gen-data: %d train / %d test pairs of dim %d -> %s",
             len(train), len(test), train.dim, out_dir)
    return resolved


# ---------------------------------------------------------------------------
# train-cvae


def cmd_train_cvae(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)
    data_dir = top.take("data", _as_str)

    ms = top.sub("model")
    k = ms.take("k", _COUNT)
    hidden = ms.take("hidden", _COUNT)
    ms.done()

    ts = top.sub("train")
    epochs = ts.take("epochs", _COUNT)
    batch_size = ts.take("batch_size", _COUNT, 128)
    lr = _parse_schedule(ts, "lr", DEFAULT_LR)
    beta = _parse_schedule(ts, "beta", DEFAULT_BETA)
    ts.done()
    resolved = top.done()

    pairs = _load_pairs(data_dir)
    model, history = train_cvae(pairs, TrainConfig(k=k, hidden=hidden, epochs=epochs,
                                                   batch_size=batch_size, lr=lr, beta=beta,
                                                   seed=seed))

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    model.save(stage.checkpoint("model"), extra_meta={"train_pairs": len(pairs)})
    stage.write_json("history.json", {"epochs": history})
    stage.finish()
    log.info("train-cvae: %d epochs on %d pairs -> %s", epochs, len(pairs), out_dir)
    return {"out_dir": out_dir}


# ---------------------------------------------------------------------------
# eval-set


def cmd_eval_set(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)
    eps = top.take("eps", _number_or_section(_POSITIVE))
    steps = top.take("steps", _COUNT, 50)
    n_expected = top.take("n_expected", _COUNT, 5)
    limit = top.take("limit", _COUNT, None)
    select_from = None
    if isinstance(eps, Section):
        select_from = eps.take("select_from", _as_str)
        eps.done()
    resolved = top.done()

    model, pairs, _ = _stage_inputs(model_dir, data_dir, limit=limit)
    if select_from is not None:
        sel_pairs = _load_pairs(select_from)
        _same_width(model, model_dir, "pair set", select_from, sel_pairs.dim)
        eps = select_radius(model, sel_pairs)
        if eps <= 0:
            raise ConfigError("config.eps.select_from: selected radius is 0; "
                              "the generator collapses posterior onto prior")

    rng = np.random.default_rng(seed)
    report = evaluate_set(model, pairs, eps, rng, steps=steps, n_expected=n_expected)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    report.to_csv(stage.file("eval.csv"))
    stage.write_json("summary.json", report.summary())
    stage.finish()
    log.info("eval-set: %d pairs at eps %.4g -> %s", len(pairs), eps, out_dir)
    return report.summary()


# ---------------------------------------------------------------------------
# bounds

# bounds, attack and certify take their pairs in blocks of this many rows:
# each block is encoded (or attacked) in one call, as eval-set's are
_BLOCK = 256


def cmd_bounds(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)
    alpha = top.take("alpha", _FRACTION, 0.01)
    samples = top.take("samples", _int_at_least(2), 64)
    limit = top.take("limit", _COUNT, None)
    resolved = top.done()

    model, pairs, _ = _stage_inputs(model_dir, data_dir, limit=limit)

    children = np.random.SeedSequence(seed).spawn(len(pairs))
    ests = []
    for lo in range(0, len(pairs), _BLOCK):
        x = pairs.perturbed[lo:lo + _BLOCK]
        y = pairs.conditioned[lo:lo + _BLOCK]
        q, cond = model.encode_posterior(x, y), model.condition(y)
        for j in range(len(x)):
            one = slice(j, j + 1)
            ests.append(theory.estimate_R_K(model, x[one], q.rows(one), cond.rows(one),
                                            np.random.default_rng(children[lo + j]),
                                            samples=samples))
    bounds = theory.theorem1_bounds(ests, alpha=alpha)
    records = [{"pair": i, "R": est.R, "K_sum": float(est.K.sum()),
                "r": tb.r, "eps": tb.eps, "delta_per_pixel": tb.delta_per_pixel,
                "ln_h": tb.ln_h,
                "ln_theorem2_bound": theory.theorem2_bound(tb)}
               for i, (est, tb) in enumerate(zip(ests, bounds))]

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    stage.write_jsonl("bounds.jsonl", records)
    agg = {"pairs": len(records), "alpha": alpha,
           "mean_eps": float(np.mean([r["eps"] for r in records])),
           "mean_delta_per_pixel": float(np.mean([r["delta_per_pixel"] for r in records])),
           "mean_r": float(np.mean([r["r"] for r in records]))}
    stage.write_json("summary.json", agg)
    stage.finish()
    log.info("bounds: %d pairs at alpha %.3g -> %s", len(records), alpha, out_dir)
    return agg


# ---------------------------------------------------------------------------
# attack


def cmd_attack(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    # every stage accepts the run seed (--seed, reproduce); the attack is
    # deterministic, so its config.json leaves it out
    top.take("seed", _SEED, 0)
    model_dir = top.take("model", _as_str)
    clf_dir = top.take("classifier", _as_str)
    data_dir = top.take("data", _as_str)
    at = top.sub("attack")
    acfg = AttackConfig(eps=at.take("eps", _NONNEGATIVE), steps=at.take("steps", _COUNT, 50))
    at.done()
    limit = top.take("limit", _COUNT, None)
    resolved = top.done()
    del resolved["seed"]

    model, pairs, h = _stage_inputs(model_dir, data_dir, clf_dir, limit, labeled=True)

    rows = []
    for lo in range(0, len(pairs), _BLOCK):
        xb = pairs.conditioned[lo:lo + _BLOCK]
        yb = pairs.labels[lo:lo + _BLOCK]
        clean_pred = h.predict(xb)
        adv, _ = latent_pgd_attack(h, model, xb, yb, acfg)
        adv_pred = h.predict(adv)
        for j in range(len(xb)):
            rows.append((lo + j, int(yb[j]), int(clean_pred[j]), int(adv_pred[j])))

    clean_ok = np.array([r[1] == r[2] for r in rows])
    adv_ok = np.array([r[1] == r[3] for r in rows])
    perturbed_acc = robust.accuracy(h, pairs.perturbed, pairs.labels)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    stage.write_csv("attack.csv", ("example", "label", "clean_pred", "adv_pred"), rows)
    agg = {"examples": len(rows), "eps": acfg.eps, "steps": acfg.steps,
           "accuracy": float(clean_ok.mean()),
           "robust_accuracy": float((clean_ok & adv_ok).mean()),
           "perturbed_accuracy": perturbed_acc}
    stage.write_json("summary.json", agg)
    stage.finish()
    log.info("attack: robust acc %.3f / clean %.3f on %d examples -> %s",
             agg["robust_accuracy"], agg["accuracy"], len(rows), out_dir)
    return agg


# ---------------------------------------------------------------------------
# train-robust


def cmd_train_robust(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)

    cs = top.sub("classifier")
    hidden = cs.take("hidden", _list_of(_COUNT), [200])
    n_classes = cs.take("n_classes", _int_at_least(2))
    cs.done()

    ts = top.sub("train")
    mode = ts.take("mode", _choice("adv", "augment", "clean", "noise"))
    epochs = ts.take("epochs", _COUNT)
    batch_size = ts.take("batch_size", _COUNT, 128)
    lr = ts.take("lr", _POSITIVE, 1e-3)
    # eps and sigma are keys of the modes that read them, unknown in the others;
    # attack_steps, read by adv alone, is accepted and recorded in every mode
    eps = ts.take("eps", _POSITIVE) if mode in ("adv", "augment") else None
    sigma = ts.take("sigma", _NONNEGATIVE) if mode == "noise" else None
    attack_steps = ts.take("attack_steps", _COUNT, 7)
    ts.done()
    resolved = top.done()

    model, pairs, _ = _stage_inputs(model_dir, data_dir, labeled=True)
    if n_classes <= pairs.labels.max():
        raise ConfigError(f"config.classifier.n_classes: {n_classes} classes, but {data_dir} "
                          f"holds label {pairs.labels.max()}")

    ss = np.random.SeedSequence(seed).spawn(2)
    h = Classifier(model.m, n_classes, hidden=tuple(hidden),
                   rng=np.random.default_rng(ss[0]))
    rng = np.random.default_rng(ss[1])
    x, labels = pairs.conditioned, pairs.labels
    acfg = None
    if mode == "adv":
        acfg = AttackConfig(eps=eps, steps=attack_steps)
    for _ in range(epochs):
        if mode == "adv":
            robust.adv_train_epoch(h, model, x, labels, acfg, lr, rng, batch_size)
        elif mode == "augment":
            robust.augment_train_epoch(h, model, x, labels, eps, lr, rng, batch_size)
        elif mode == "noise":
            smoothing.noise_train_epoch(h, model, x, labels, sigma, lr, rng, batch_size)
        else:
            robust.clean_train_epoch(h, x, labels, lr, rng, batch_size)
    train_acc = robust.accuracy(h, x, labels)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    h.save(stage.checkpoint("classifier"))
    stage.write_json("summary.json", {"mode": mode, "epochs": epochs,
                                      "train_accuracy": train_acc})
    stage.finish()
    log.info("train-robust[%s]: train acc %.3f -> %s", mode, train_acc, out_dir)
    return {"out_dir": out_dir, "train_accuracy": train_acc}


# ---------------------------------------------------------------------------
# certify


def cmd_certify(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _SEED, 0)
    model_dir = top.take("model", _as_str)
    clf_dir = top.take("classifier", _as_str)
    data_dir = top.take("data", _as_str)
    sigma = top.take("sigma", _POSITIVE)
    n0 = top.take("n0", _COUNT, 100)
    n = top.take("n", _COUNT, 10_000)
    alpha = top.take("alpha", _FRACTION, 0.001)
    limit = top.take("limit", _COUNT, None)
    resolved = top.done()

    model, pairs, h = _stage_inputs(model_dir, data_dir, clf_dir, limit)

    children = np.random.SeedSequence(seed).spawn(len(pairs))
    rows = []
    certified = []
    for lo in range(0, len(pairs), _BLOCK):
        y = pairs.conditioned[lo:lo + _BLOCK]
        cond = model.condition(y)
        for j in range(len(y)):
            cert = smoothing.certify(h, model, cond.rows(slice(j, j + 1)), sigma,
                                     np.random.default_rng(children[lo + j]),
                                     n0=n0, n=n, alpha=alpha)
            abstain = cert.prediction == smoothing.ABSTAIN
            rows.append((lo + j, cert.prediction, repr(cert.p_a), repr(cert.radius),
                         int(abstain)))
            if not abstain:
                certified.append(cert.radius)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", resolved)
    stage.write_csv("certify.csv", ("example", "guess", "p_a", "radius", "abstain"), rows)
    agg = {"examples": len(rows), "sigma": sigma, "n0": n0, "n": n, "alpha": alpha,
           "non_abstain_rate": float(len(certified) / len(rows)) if rows else 0.0,
           "mean_certified_radius": float(np.mean(certified)) if certified else 0.0}
    stage.write_json("summary.json", agg)
    stage.finish()
    log.info("certify: non-abstain %.3f at sigma %.4g -> %s",
             agg["non_abstain_rate"], sigma, out_dir)
    return agg


# ---------------------------------------------------------------------------
# reproduce profiles

_MNIST_FILES = {"train_images": "train-images-idx3-ubyte",
                "train_labels": "train-labels-idx1-ubyte",
                "test_images": "t10k-images-idx3-ubyte",
                "test_labels": "t10k-labels-idx1-ubyte"}


def _mnist_available(mnist_dir) -> bool:
    return (mnist_dir is not None
            and all(os.path.isfile(os.path.join(mnist_dir, f))
                    for f in _MNIST_FILES.values()))


def _median_latent_norm(eval_dir: str) -> float:
    with open(os.path.join(eval_dir, "eval.csv"), encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        col = header.index("latent_norm")
        norms = [float(row[col]) for row in reader]
    return float(np.median(norms))


# Evaluation, bounds, classifier training, attack and certification work
# shared by the full-scale profiles (mnist-linf and rts).
_FULL_SCALE = {
    "eval": {"steps": 50, "n_expected": 5, "limit": 500},
    "bounds": {"alpha": 0.01, "samples": 64, "limit": 200},
    "robust": {"epochs": 5, "batch_size": 128, "lr": 1e-3, "attack_steps": 7},
    "attack_limit": 500,
    "certify": {"n0": 100, "n": 2000, "alpha": 0.001, "limit": 50},
}


def _profile_spec(profile: str, mnist_dir) -> dict:
    """The work parameters of each stage of one reproduce profile; paths and
    seeds are cmd_reproduce's."""
    if profile == "smoke":
        return {
            "gen": {"source": {"kind": "synth-shapes", "n": 2000, "size": 12},
                    "pairs": {"kind": "rts", "rotation": 45.0, "scale": [0.8, 1.2], "canvas": 16},
                    "split": {"test": 400}},
            "train": {"model": {"k": 8, "hidden": 128},
                      "train": {"epochs": 12, "batch_size": 128,
                                "lr": {"epochs": [0, 3, 12], "values": [0.0, 0.002, 0.0005]},
                                "beta": {"epochs": [0, 3, 12], "values": [0.0, 0.001, 0.01]}}},
            "eval": {"steps": 50, "n_expected": 5, "limit": 400},
            "bounds": {"alpha": 0.01, "samples": 64, "limit": 100},
            "classifier": {"hidden": [64], "n_classes": 2},
            "robust": {"epochs": 6, "batch_size": 128, "lr": 1e-3, "attack_steps": 7},
            "attack_limit": 400,
            "certify": {"n0": 50, "n": 2000, "alpha": 0.001, "limit": 60},
        }

    if profile == "mnist-linf":
        fallback = not _mnist_available(mnist_dir)
        if fallback:
            source = {"kind": "synth-shapes", "n": 12_000, "size": 28}
            n_classes = 2
        else:
            source = {"kind": "idx",
                      "images": os.path.join(mnist_dir, _MNIST_FILES["train_images"]),
                      "labels": os.path.join(mnist_dir, _MNIST_FILES["train_labels"]),
                      "limit": 12_000}
            n_classes = 10
        return {
            **_FULL_SCALE,
            "synth_fallback": fallback,
            "gen": {"source": source, "pairs": {"kind": "linf", "eps": 0.3},
                    "split": {"test": 2000}},
            "train": {"model": {"k": 784, "hidden": 784},
                      "train": {"epochs": 20, "batch_size": 128}},
            "classifier": {"hidden": [200], "n_classes": n_classes},
        }

    if profile == "rts":
        if not _mnist_available(mnist_dir):
            raise MissingArtifactError(
                "rts profile needs the four MNIST idx files under --mnist-dir "
                f"({', '.join(sorted(_MNIST_FILES.values()))})")
        return {
            **_FULL_SCALE,
            "gen": {"source": {"kind": "idx",
                               "images": os.path.join(mnist_dir, _MNIST_FILES["train_images"]),
                               "labels": os.path.join(mnist_dir, _MNIST_FILES["train_labels"])},
                    "pairs": {"kind": "rts", "rotation": 45.0, "scale": [0.7, 1.3], "canvas": 42},
                    "split": {"test": 2000}},
            "train": {"model": {"k": 128, "hidden": 784},
                      "train": {"epochs": 100, "batch_size": 128,
                                "lr": {"epochs": [0, 40, 100], "values": [0.0, 0.0008, 0.0]},
                                "beta": {"epochs": [0, 10, 50, 100],
                                         "values": [0.0, 0.01, 1.0, 1.0]}}},
            "classifier": {"hidden": [200], "n_classes": 10},
        }

    raise ConfigError(f"unknown profile {profile!r}")


_TABLE4_REFERENCE = {"enc_ae": 0.31, "pgd_ae": 0.25, "eae": 0.32, "oae": 0.65,
                     "recon_err": 0.27}


def cmd_reproduce(profile: str, out: str, seed: int, mnist_dir) -> dict:
    _SEED(seed, "--seed")
    spec = _profile_spec(profile, mnist_dir)
    # the run seed expands into one seed per stage
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(10)]
    p = lambda *parts: os.path.join(out, *parts)
    os.makedirs(out, exist_ok=True)

    cmd_gen_data({"out_dir": p("data"), "seed": seeds[0], **spec["gen"]})
    cmd_train_cvae({"out_dir": p("cvae"), "seed": seeds[1], "data": p("data", "train"),
                    **spec["train"]})

    eval_cfg = {"out_dir": p("eval"), "seed": seeds[2], "model": p("cvae"),
                "data": p("data", "test"), "eps": {"select_from": p("data", "train")},
                **spec["eval"]}
    eval_summary = cmd_eval_set(eval_cfg)
    eps = eval_summary["eps"]

    cmd_bounds({"out_dir": p("bounds"), "seed": seeds[3], "model": p("cvae"),
                "data": p("data", "test"), **spec["bounds"]})

    robust_common = {"model": p("cvae"), "data": p("data", "train"),
                     "classifier": spec["classifier"]}
    modes = {"adv": {"eps": eps}, "augment": {"eps": eps}, "clean": {}}
    median_norm = _median_latent_norm(p("eval"))
    sigma = smoothing.sigma_for_radius(median_norm, n=10_000, alpha=0.001)
    modes["noise"] = {"sigma": sigma}
    for i, (mode, extra) in enumerate(modes.items()):
        cmd_train_robust({"out_dir": p(f"robust-{mode}"), "seed": seeds[4 + i],
                          "train": {"mode": mode, **spec["robust"], **extra},
                          **robust_common})

    attacks = {}
    for mode in ("adv", "augment", "clean"):
        attacks[mode] = cmd_attack({"out_dir": p(f"attack-{mode}"), "seed": 0,
                                    "model": p("cvae"), "classifier": p(f"robust-{mode}"),
                                    "data": p("data", "test"),
                                    "attack": {"eps": eps, "steps": 50},
                                    "limit": spec["attack_limit"]})

    cert = cmd_certify({"out_dir": p("certify"), "seed": seeds[8], "model": p("cvae"),
                        "classifier": p("robust-noise"), "data": p("data", "test"),
                        "sigma": sigma, **spec["certify"]})

    report = {
        "profile": profile,
        "seed": seed,
        "eps_selected": eps,
        "eval_metrics": {name: eval_summary["metrics"][name]["mean"] for name in METRICS},
        "robust_accuracy": {m: attacks[m]["robust_accuracy"] for m in attacks},
        "clean_accuracy": {m: attacks[m]["accuracy"] for m in attacks},
        "perturbed_accuracy": {m: attacks[m]["perturbed_accuracy"] for m in attacks},
        "certify": {"sigma": cert["sigma"], "non_abstain_rate": cert["non_abstain_rate"],
                    "mean_certified_radius": cert["mean_certified_radius"]},
    }
    if profile == "mnist-linf":
        report["synth_fallback"] = spec["synth_fallback"]
        report["table4"] = {
            name: {"measured": eval_summary["metrics"][name]["mean"],
                   "reference": ref,
                   "difference": eval_summary["metrics"][name]["mean"] - ref}
            for name, ref in _TABLE4_REFERENCE.items()}
        report["table4"]["eps"] = {"measured": eps, "reference_range": [20, 40]}
    nn.write_json(p("report.json"), _jsonable(report))
    _print_report(report)
    return report


def _print_report(report: dict):
    w = sys.stdout.write
    w(f"profile {report['profile']} (seed {report['seed']})\n")
    w(f"selected eps: {report['eps_selected']:.4f}\n")
    w("set evaluation (per-pixel mean squared error, mean over pairs):\n")
    for name in METRICS:
        w(f"  {name:12s} {report['eval_metrics'][name]:.6f}\n")
    if "table4" in report:
        w("reference comparison (mnist-linf):\n")
        for name, ref in _TABLE4_REFERENCE.items():
            row = report["table4"][name]
            w(f"  {name:12s} measured {row['measured']:.4f}  reference {ref:.2f}  "
              f"difference {row['difference']:+.4f}\n")
        if report.get("synth_fallback"):
            w("  (synthetic-shapes fallback; reference values are for MNIST)\n")
    w("classifier accuracy (clean / perturbed / robust under 50-step attack):\n")
    for mode in ("adv", "augment", "clean"):
        w(f"  {mode:8s} {report['clean_accuracy'][mode]:.3f} / "
          f"{report['perturbed_accuracy'][mode]:.3f} / "
          f"{report['robust_accuracy'][mode]:.3f}\n")
    c = report["certify"]
    w(f"certification: sigma {c['sigma']:.4f}, non-abstain rate "
      f"{c['non_abstain_rate']:.3f}, mean certified radius "
      f"{c['mean_certified_radius']:.4f}\n")


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {"gen-data": cmd_gen_data, "train-cvae": cmd_train_cvae,
             "eval-set": cmd_eval_set, "bounds": cmd_bounds, "attack": cmd_attack,
             "train-robust": cmd_train_robust, "certify": cmd_certify}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pertsets",
        description="Learned perturbation sets: training, evaluation, bounds, "
                    "robust training, and certification.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log stage progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} stage from a JSON config")
        sp.add_argument("--config", required=True, help="path to the stage config JSON")
        sp.add_argument("--out", default=None, help="override the config's out_dir")
        sp.add_argument("--seed", type=int, default=None, help="override the config's seed")
    rp = sub.add_parser("reproduce", help="run a full pipeline profile")
    rp.add_argument("--profile", required=True, choices=["smoke", "mnist-linf", "rts"])
    rp.add_argument("--out", required=True, help="directory for all stage artifacts")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--mnist-dir", default=None,
                    help="directory holding the four MNIST idx files")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "reproduce":
            cmd_reproduce(args.profile, args.out, args.seed, args.mnist_dir)
        else:
            if not os.path.isfile(args.config):
                raise MissingArtifactError(f"missing file: {args.config}")
            try:
                cfg = nn.read_json(args.config)
            except ValueError as e:     # the message names the file
                raise ConfigError(str(e)) from e
            if args.out is not None:
                cfg["out_dir"] = args.out
            if args.seed is not None:
                cfg["seed"] = args.seed
            _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return EXIT_MISSING
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven command line for the perturbation-set pipeline.

Subcommands cover the full flow: pair generation, generator training, set
evaluation, certified bounds, latent attacks, robust classifier training,
and randomized-smoothing certification. Each stage reads one JSON config,
writes its artifacts into an output directory together with the resolved
config and a manifest of content hashes, so every directory is
self-describing and re-runnable.

Conventions:
  - exit 0 success, 2 invalid config (field-level message), 3 missing input
    artifact, 4 numerical failure during training (message names the epoch)
  - CSV reports: header row, UTF-8, '\\n' line endings, full-precision floats
  - JSON reports: pretty-printed, sorted keys, trailing newline; non-finite
    floats serialized as the strings "inf"/"-inf"/"nan" (strict JSON has no
    literal for them)
  - seeds split hierarchically: a run seed expands into per-stage seeds, each
    recorded in that stage's config copy
"""

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import nn, robust, smoothing, theory
from .cvae import CvaeModel, PairSet, TrainConfig, load_cvae, train_cvae
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


def _dump_json(path: str, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_jsonable(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _load_json(path: str):
    if not os.path.isfile(path):
        raise MissingArtifactError(f"missing file: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from e


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
        _dump_json(self.file(name), obj)

    def finish(self):
        manifest = {"files": {n: _sha256(os.path.join(self.path, n))
                              for n in sorted(self.files)}}
        _dump_json(os.path.join(self.path, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Schema validation

_REQUIRED = object()


def _as_int(v, where):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _as_float(v, where):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _as_str(v, where):
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {v!r}")
    return v


def _as_bool(v, where):
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true/false, got {v!r}")
    return v


def _as_int_list(v, where):
    if not isinstance(v, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in v):
        raise ConfigError(f"{where}: expected a list of integers, got {v!r}")
    return [int(x) for x in v]


class Section:
    """One level of a config document: typed key extraction with unknown-key
    rejection. Every key must be taken (or listed optional) before done()."""

    def __init__(self, obj, where: str = "config"):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
        self.obj = obj
        self.where = where
        self.seen = set()

    def _key(self, key):
        return f"{self.where}.{key}"

    def take(self, key, conv, default=_REQUIRED):
        self.seen.add(key)
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"{self._key(key)}: required key missing")
            return default
        return conv(self.obj[key], self._key(key))

    def sub(self, key, default=_REQUIRED) -> "Section":
        self.seen.add(key)
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"{self._key(key)}: required section missing")
            return Section(dict(default), self._key(key))
        return Section(self.obj[key], self._key(key))

    def raw(self, key, default=_REQUIRED):
        self.seen.add(key)
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"{self._key(key)}: required key missing")
            return default
        return self.obj[key]

    def done(self):
        unknown = sorted(set(self.obj) - self.seen)
        if unknown:
            raise ConfigError(f"unknown config key {self._key(unknown[0])}")


def _parse_schedule(v, where) -> nn.Schedule:
    s = Section(v, where)
    epochs = s.raw("epochs")
    values = s.raw("values")
    s.done()
    if (not isinstance(epochs, list) or not isinstance(values, list)
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in epochs + values)):
        raise ConfigError(f"{where}: epochs and values must be numeric lists")
    try:
        return nn.Schedule([float(e) for e in epochs], [float(x) for x in values])
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


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
    _dump_json(os.path.join(dirpath, _PAIRS_META), meta)
    names.append(_PAIRS_META)
    return names


def _load_pairs(dirpath: str) -> tuple[PairSet, dict]:
    if not os.path.isdir(dirpath):
        raise MissingArtifactError(f"missing pair-set directory: {dirpath}")
    meta = _load_json(os.path.join(dirpath, _PAIRS_META))
    for name in ("perturbed.npy", "conditioned.npy"):
        if not os.path.isfile(os.path.join(dirpath, name)):
            raise MissingArtifactError(f"missing file: {os.path.join(dirpath, name)}")
    perturbed = np.load(os.path.join(dirpath, "perturbed.npy"))
    conditioned = np.load(os.path.join(dirpath, "conditioned.npy"))
    labels = None
    if meta.get("labels"):
        lp = os.path.join(dirpath, "labels.npy")
        if not os.path.isfile(lp):
            raise MissingArtifactError(f"missing file: {lp}")
        labels = np.load(lp)
    return PairSet(perturbed, conditioned, labels), meta


def _load_model_dir(dirpath: str) -> tuple[CvaeModel, dict]:
    stem = os.path.join(dirpath, "model")
    if not os.path.isfile(stem + ".meta.json"):
        raise MissingArtifactError(f"missing generator checkpoint: {stem}.meta.json")
    return load_cvae(stem)


def _load_classifier_dir(dirpath: str) -> Classifier:
    stem = os.path.join(dirpath, "classifier")
    if not os.path.isfile(stem + ".meta.json"):
        raise MissingArtifactError(f"missing classifier checkpoint: {stem}.meta.json")
    return load_classifier(stem)


def _labeled(pairs: PairSet, dirpath: str) -> PairSet:
    if pairs.labels is None:
        raise MissingArtifactError(f"pair set at {dirpath} has no labels.npy; "
                                   "this stage needs labeled pairs")
    return pairs


def _limit(pairs: PairSet, n) -> PairSet:
    if n is None or n >= len(pairs):
        return pairs
    return pairs.subset(np.arange(n))


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _as_int, 0)

    src = top.sub("source")
    kind = src.take("kind", _as_str)
    if kind == "synth-shapes":
        n = src.take("n", _as_int)
        size = src.take("size", _as_int)
        src.done()
        if n < 2 or size < 8:
            raise ConfigError("config.source: need n >= 2 and size >= 8")
        source_resolved = {"kind": kind, "n": n, "size": size}
    elif kind == "idx":
        images = src.take("images", _as_str)
        labels_path = src.take("labels", _as_str, None)
        limit = src.take("limit", _as_int, None)
        src.done()
        source_resolved = {"kind": kind, "images": images, "labels": labels_path,
                           "limit": limit}
    else:
        raise ConfigError(f"config.source.kind: unknown source kind {kind!r}")

    ps = top.sub("pairs")
    pkind = ps.take("kind", _as_str)
    pairing = ps.take("pairing", _as_str, "centered")
    if pairing not in ("centered", "perturbed_only"):
        raise ConfigError(f"config.pairs.pairing: unknown pairing {pairing!r}")
    if pkind == "linf":
        eps = ps.take("eps", _as_float)
        ps.done()
        if eps <= 0:
            raise ConfigError("config.pairs.eps: must be > 0")
        pairs_resolved = {"kind": pkind, "eps": eps, "pairing": pairing}
    elif pkind == "rts":
        rotation = ps.take("rotation", _as_float, 45.0)
        scale = ps.raw("scale", [0.7, 1.3])
        canvas = ps.take("canvas", _as_int, 42)
        ps.done()
        if (not isinstance(scale, list) or len(scale) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in scale)):
            raise ConfigError("config.pairs.scale: expected [lo, hi]")
        try:
            rts = RtsParams(rotation=rotation, scale_lo=float(scale[0]),
                            scale_hi=float(scale[1]), canvas=canvas)
        except ValueError as e:
            raise ConfigError(f"config.pairs: {e}") from e
        pairs_resolved = {"kind": pkind, "rotation": rotation, "scale": list(map(float, scale)),
                          "canvas": canvas, "pairing": pairing}
    else:
        raise ConfigError(f"config.pairs.kind: unknown pair kind {pkind!r}")

    sp = top.sub("split")
    n_test = sp.take("test", _as_int)
    sp.done()
    if n_test < 0:
        raise ConfigError("config.split.test: must be >= 0")
    top.done()

    # validation done; now generate
    rng_data, rng_pairs = [np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2)]
    if kind == "synth-shapes":
        data = synth_shapes(n, size, rng_data)
    else:
        if not os.path.isfile(images):
            raise MissingArtifactError(f"missing file: {images}")
        imgs = read_idx(images)
        if imgs.ndim != 3:
            raise ConfigError(f"config.source.images: {images} holds "
                              f"{imgs.ndim}-d data, expected images")
        lbl = None
        if labels_path is not None:
            if not os.path.isfile(labels_path):
                raise MissingArtifactError(f"missing file: {labels_path}")
            lbl = read_idx(labels_path)
        if limit is not None:
            imgs = imgs[:limit]
            lbl = None if lbl is None else lbl[:limit]
        data = Dataset(imgs, lbl)

    if pkind == "linf":
        allpairs = gen_linf_pairs(data, eps, rng_pairs, pairing=pairing)
    else:
        allpairs = gen_rts_pairs(data, rts, rng_pairs, pairing=pairing)

    total = len(allpairs)
    if n_test >= total:
        raise ConfigError(f"config.split.test: {n_test} test pairs but only "
                          f"{total} generated")
    train = allpairs.subset(np.arange(0, total - n_test))
    test = allpairs.subset(np.arange(total - n_test, total))

    stage = ArtifactDir(out_dir)
    resolved = {"out_dir": out_dir, "seed": seed, "source": source_resolved,
                "pairs": pairs_resolved, "split": {"test": n_test}}
    stage.write_json("config.json", resolved)
    for name, subset in (("train", train), ("test", test)):
        for f in _save_pairs(os.path.join(out_dir, name), subset,
                             {"pairs": pairs_resolved, "seed": seed, "split": name}):
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
    seed = top.take("seed", _as_int, 0)
    data_dir = top.take("data", _as_str)

    ms = top.sub("model")
    k = ms.take("k", _as_int)
    hidden = ms.take("hidden", _as_int)
    logvar_lo = ms.take("logvar_lo", _as_float, None)
    logvar_hi = ms.take("logvar_hi", _as_float, None)
    ms.done()
    if k < 1 or hidden < 1:
        raise ConfigError("config.model: k and hidden must be >= 1")

    ts = top.sub("train")
    epochs = ts.take("epochs", _as_int)
    batch_size = ts.take("batch_size", _as_int, 128)
    lr = ts.take("lr", _parse_schedule, None)
    beta = ts.take("beta", _parse_schedule, None)
    ts.done()
    if epochs < 1 or batch_size < 1:
        raise ConfigError("config.train: epochs and batch_size must be >= 1")
    top.done()

    pairs, meta = _load_pairs(data_dir)
    pairing = meta.get("pairs", {}).get("pairing", "centered")
    tc = TrainConfig(k=k, hidden=hidden, epochs=epochs, batch_size=batch_size,
                     seed=seed, pairing=pairing)
    if lr is not None:
        tc.lr = lr
    if beta is not None:
        tc.beta = beta
    if logvar_lo is not None:
        tc.logvar_lo = logvar_lo
    if logvar_hi is not None:
        tc.logvar_hi = logvar_hi

    model, history = train_cvae(pairs, tc)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", {"out_dir": out_dir, "seed": seed,
                                     "data": data_dir, "train_config": tc.to_json()})
    model.save(os.path.join(out_dir, "model"), extra_meta={"train_pairs": len(pairs)})
    for name in ("model.json", "model.bin", "model.meta.json"):
        stage.file(name)
    stage.write_json("history.json", {"epochs": history})
    stage.finish()
    log.info("train-cvae: %d epochs on %d pairs -> %s", epochs, len(pairs), out_dir)
    return {"out_dir": out_dir}


# ---------------------------------------------------------------------------
# eval-set


def cmd_eval_set(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _as_int, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)
    eps_raw = top.raw("eps")
    steps = top.take("steps", _as_int, 50)
    n_expected = top.take("n_expected", _as_int, 5)
    limit = top.take("limit", _as_int, None)
    top.done()
    if steps < 1 or n_expected < 1:
        raise ConfigError("config: steps and n_expected must be >= 1")

    select_from = None
    if isinstance(eps_raw, dict):
        es = Section(eps_raw, "config.eps")
        select_from = es.take("select_from", _as_str)
        es.done()
    else:
        eps = _as_float(eps_raw, "config.eps")
        if eps <= 0:
            raise ConfigError("config.eps: must be > 0")

    model, _ = _load_model_dir(model_dir)
    pairs, _ = _load_pairs(data_dir)
    pairs = _limit(pairs, limit)
    if select_from is not None:
        sel_pairs, _ = _load_pairs(select_from)
        eps = select_radius(model, sel_pairs)
        if eps <= 0:
            raise ConfigError("config.eps.select_from: selected radius is 0; "
                              "the generator collapses posterior onto prior")

    rng = np.random.default_rng(seed)
    report = evaluate_set(model, pairs, eps, rng, steps=steps, n_expected=n_expected)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", {"out_dir": out_dir, "seed": seed, "model": model_dir,
                                     "data": data_dir, "eps": eps,
                                     "eps_selected_from": select_from, "steps": steps,
                                     "n_expected": n_expected, "limit": limit})
    report.to_csv(stage.file("eval.csv"))
    stage.write_json("summary.json", report.summary())
    stage.finish()
    log.info("eval-set: %d pairs at eps %.4g -> %s", len(pairs), eps, out_dir)
    return report.summary()


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(cfg: dict) -> dict:
    top = Section(cfg)
    out_dir = top.take("out_dir", _as_str)
    seed = top.take("seed", _as_int, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)
    alpha = top.take("alpha", _as_float, 0.01)
    samples = top.take("samples", _as_int, 64)
    limit = top.take("limit", _as_int, None)
    top.done()
    if not 0 < alpha < 1:
        raise ConfigError("config.alpha: must be in (0, 1)")
    if samples < 2:
        raise ConfigError("config.samples: must be >= 2")

    model, _ = _load_model_dir(model_dir)
    pairs, _ = _load_pairs(data_dir)
    pairs = _limit(pairs, limit)

    records = []
    children = np.random.SeedSequence(seed).spawn(len(pairs))
    for i in range(len(pairs)):
        est = theory.estimate_R_K(model, pairs.pair(i), np.random.default_rng(children[i]),
                                  samples=samples)
        tb = theory.theorem1_bounds(est, alpha=alpha)
        records.append({"pair": i, "R": est.R, "K_sum": float(est.K.sum()),
                        "r": tb.r, "eps": tb.eps, "delta_per_pixel": tb.delta_per_pixel,
                        "ln_h": tb.ln_h,
                        "theorem2_bound": theory.theorem2_bound(tb)})

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", {"out_dir": out_dir, "seed": seed, "model": model_dir,
                                     "data": data_dir, "alpha": alpha,
                                     "samples": samples, "limit": limit})
    with open(stage.file("bounds.jsonl"), "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
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
    top.take("seed", _as_int, 0)  # accepted for interface uniformity; attack is deterministic
    model_dir = top.take("model", _as_str)
    clf_dir = top.take("classifier", _as_str)
    data_dir = top.take("data", _as_str)
    at = top.sub("attack")
    eps = at.take("eps", _as_float)
    steps = at.take("steps", _as_int, 50)
    step = at.take("step", _as_float, None)
    at.done()
    limit = top.take("limit", _as_int, None)
    top.done()
    try:
        acfg = AttackConfig(eps=eps, steps=steps, step=step)
    except ValueError as e:
        raise ConfigError(f"config.attack: {e}") from e

    model, _ = _load_model_dir(model_dir)
    h = _load_classifier_dir(clf_dir)
    pairs, _ = _load_pairs(data_dir)
    pairs = _limit(_labeled(pairs, data_dir), limit)

    rows = []
    batch = 256
    for lo in range(0, len(pairs), batch):
        xb = pairs.conditioned[lo:lo + batch]
        yb = pairs.labels[lo:lo + batch]
        clean_pred = h.predict(xb)
        adv, _ = latent_pgd_attack(h, model, xb, yb, acfg)
        adv_pred = h.predict(adv)
        for j in range(len(xb)):
            rows.append((lo + j, int(yb[j]), int(clean_pred[j]), int(adv_pred[j])))

    clean_ok = np.array([r[1] == r[2] for r in rows])
    adv_ok = np.array([r[1] == r[3] for r in rows])
    perturbed_acc = robust.accuracy(h, pairs.perturbed, pairs.labels)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", {"out_dir": out_dir, "model": model_dir,
                                     "classifier": clf_dir, "data": data_dir,
                                     "attack": acfg.to_json(), "limit": limit})
    with open(stage.file("attack.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(("example", "label", "clean_pred", "adv_pred"))
        w.writerows(rows)
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
    seed = top.take("seed", _as_int, 0)
    model_dir = top.take("model", _as_str)
    data_dir = top.take("data", _as_str)

    cs = top.sub("classifier")
    hidden = cs.take("hidden", _as_int_list, [200])
    n_classes = cs.take("n_classes", _as_int)
    cs.done()
    if n_classes < 2:
        raise ConfigError("config.classifier.n_classes: must be >= 2")

    ts = top.sub("train")
    mode = ts.take("mode", _as_str)
    epochs = ts.take("epochs", _as_int)
    batch_size = ts.take("batch_size", _as_int, 128)
    lr = ts.take("lr", _as_float, 1e-3)
    eps = ts.take("eps", _as_float, None)
    sigma = ts.take("sigma", _as_float, None)
    attack_steps = ts.take("attack_steps", _as_int, 7)
    attack_step = ts.take("attack_step", _as_float, None)
    ts.done()
    top.done()

    if mode not in ("adv", "augment", "clean", "noise"):
        raise ConfigError(f"config.train.mode: unknown mode {mode!r}")
    if epochs < 1 or batch_size < 1:
        raise ConfigError("config.train: epochs and batch_size must be >= 1")
    if mode in ("adv", "augment"):
        if eps is None or eps <= 0:
            raise ConfigError(f"config.train.eps: mode {mode!r} needs eps > 0")
    if mode == "noise" and (sigma is None or sigma < 0):
        raise ConfigError("config.train.sigma: mode 'noise' needs sigma >= 0")

    model, _ = _load_model_dir(model_dir)
    pairs, _ = _load_pairs(data_dir)
    pairs = _labeled(pairs, data_dir)

    ss = np.random.SeedSequence(seed).spawn(2)
    h = Classifier(model.m, n_classes, hidden=tuple(hidden),
                   rng=np.random.default_rng(ss[0]))
    rng = np.random.default_rng(ss[1])
    opt = {"lr": lr}
    x, labels = pairs.conditioned, pairs.labels
    acfg = None
    if mode == "adv":
        acfg = AttackConfig(eps=eps, steps=attack_steps, step=attack_step)
    for _ in range(epochs):
        if mode == "adv":
            robust.adv_train_epoch(h, model, x, labels, acfg, opt, rng, batch_size)
        elif mode == "augment":
            robust.augment_train_epoch(h, model, x, labels, eps, opt, rng, batch_size)
        elif mode == "noise":
            smoothing.noise_train_epoch(h, model, x, labels, sigma, opt, rng, batch_size)
        else:
            robust.clean_train_epoch(h, x, labels, opt, rng, batch_size)
    train_acc = robust.accuracy(h, x, labels)

    stage = ArtifactDir(out_dir)
    resolved = {"out_dir": out_dir, "seed": seed, "model": model_dir, "data": data_dir,
                "classifier": {"hidden": hidden, "n_classes": n_classes},
                "train": {"mode": mode, "epochs": epochs, "batch_size": batch_size,
                          "lr": lr, "eps": eps, "sigma": sigma,
                          "attack_steps": attack_steps, "attack_step": attack_step}}
    stage.write_json("config.json", resolved)
    h.save(os.path.join(out_dir, "classifier"))
    for suffix in ("classifier.json", "classifier.bin", "classifier.meta.json"):
        stage.file(suffix)
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
    seed = top.take("seed", _as_int, 0)
    model_dir = top.take("model", _as_str)
    clf_dir = top.take("classifier", _as_str)
    data_dir = top.take("data", _as_str)
    sigma_raw = top.raw("sigma")
    n0 = top.take("n0", _as_int, 100)
    n = top.take("n", _as_int, 10_000)
    alpha = top.take("alpha", _as_float, 0.001)
    limit = top.take("limit", _as_int, None)
    timing = top.take("timing", _as_bool, False)
    top.done()
    if n0 < 1 or n < 1:
        raise ConfigError("config: n0 and n must be >= 1")
    if not 0 < alpha < 1:
        raise ConfigError("config.alpha: must be in (0, 1)")

    if isinstance(sigma_raw, dict):
        sg = Section(sigma_raw, "config.sigma")
        radius = sg.take("radius", _as_float)
        sg_n = sg.take("n", _as_int, n)
        sg_alpha = sg.take("alpha", _as_float, alpha)
        sg.done()
        if radius <= 0:
            raise ConfigError("config.sigma.radius: must be > 0")
        sigma = smoothing.sigma_for_radius(radius, n=sg_n, alpha=sg_alpha)
    else:
        sigma = _as_float(sigma_raw, "config.sigma")
        if sigma < 0:
            raise ConfigError("config.sigma: must be >= 0")

    model, _ = _load_model_dir(model_dir)
    h = _load_classifier_dir(clf_dir)
    pairs, _ = _load_pairs(data_dir)
    pairs = _limit(pairs, limit)

    children = np.random.SeedSequence(seed).spawn(len(pairs))
    rows = []
    certified = []
    for i in range(len(pairs)):
        t0 = time.perf_counter() if timing else None
        cert = smoothing.certify(h, model, pairs.conditioned[i], sigma,
                                 np.random.default_rng(children[i]),
                                 n0=n0, n=n, alpha=alpha)
        wall = f"{time.perf_counter() - t0:.3f}" if timing else ""
        abstain = cert.prediction == smoothing.ABSTAIN
        rows.append((i, cert.prediction, repr(cert.p_a), repr(cert.radius),
                     int(abstain), wall))
        if not abstain:
            certified.append(cert.radius)

    stage = ArtifactDir(out_dir)
    stage.write_json("config.json", {"out_dir": out_dir, "seed": seed, "model": model_dir,
                                     "classifier": clf_dir, "data": data_dir,
                                     "sigma": sigma, "n0": n0, "n": n, "alpha": alpha,
                                     "limit": limit, "timing": timing})
    with open(stage.file("certify.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(("example", "guess", "p_a", "radius", "abstain", "wall_time"))
        w.writerows(rows)
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


def _stage_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _profile_spec(profile: str, out: str, seed: int, mnist_dir) -> dict:
    """Stage configs for one reproduce profile. Paths live under `out`."""
    seeds = _stage_seeds(seed, 10)
    p = lambda *parts: os.path.join(out, *parts)

    if profile == "smoke":
        return {
            "gen": {"out_dir": p("data"), "seed": seeds[0],
                    "source": {"kind": "synth-shapes", "n": 2000, "size": 12},
                    "pairs": {"kind": "rts", "rotation": 45.0, "scale": [0.8, 1.2],
                              "canvas": 16, "pairing": "centered"},
                    "split": {"test": 400}},
            "train": {"out_dir": p("cvae"), "seed": seeds[1], "data": p("data", "train"),
                      "model": {"k": 8, "hidden": 128},
                      "train": {"epochs": 12, "batch_size": 128,
                                "lr": {"epochs": [0, 3, 12], "values": [0.0, 0.002, 0.0005]},
                                "beta": {"epochs": [0, 3, 12], "values": [0.0, 0.001, 0.01]}}},
            "eval": {"steps": 50, "n_expected": 5, "limit": 400},
            "bounds": {"alpha": 0.01, "samples": 64, "limit": 100},
            "classifier": {"hidden": [64], "n_classes": 2},
            "robust": {"epochs": 6, "batch_size": 128, "lr": 1e-3, "attack_steps": 7},
            "attack_limit": 400,
            "certify": {"n0": 50, "n": 2000, "alpha": 0.001, "limit": 60},
            "seeds": seeds,
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
            "synth_fallback": fallback,
            "gen": {"out_dir": p("data"), "seed": seeds[0], "source": source,
                    "pairs": {"kind": "linf", "eps": 0.3, "pairing": "centered"},
                    "split": {"test": 2000}},
            "train": {"out_dir": p("cvae"), "seed": seeds[1], "data": p("data", "train"),
                      "model": {"k": 784, "hidden": 784},
                      "train": {"epochs": 20, "batch_size": 128}},
            "eval": {"steps": 50, "n_expected": 5, "limit": 500},
            "bounds": {"alpha": 0.01, "samples": 64, "limit": 200},
            "classifier": {"hidden": [200], "n_classes": n_classes},
            "robust": {"epochs": 5, "batch_size": 128, "lr": 1e-3, "attack_steps": 7},
            "attack_limit": 500,
            "certify": {"n0": 100, "n": 2000, "alpha": 0.001, "limit": 50},
            "seeds": seeds,
        }

    if profile == "rts":
        if not _mnist_available(mnist_dir):
            raise MissingArtifactError(
                "rts profile needs the four MNIST idx files under --mnist-dir "
                f"({', '.join(sorted(_MNIST_FILES.values()))})")
        return {
            "gen": {"out_dir": p("data"), "seed": seeds[0],
                    "source": {"kind": "idx",
                               "images": os.path.join(mnist_dir, _MNIST_FILES["train_images"]),
                               "labels": os.path.join(mnist_dir, _MNIST_FILES["train_labels"])},
                    "pairs": {"kind": "rts", "rotation": 45.0, "scale": [0.7, 1.3],
                              "canvas": 42, "pairing": "centered"},
                    "split": {"test": 2000}},
            "train": {"out_dir": p("cvae"), "seed": seeds[1], "data": p("data", "train"),
                      "model": {"k": 128, "hidden": 784},
                      "train": {"epochs": 100, "batch_size": 128,
                                "lr": {"epochs": [0, 40, 100], "values": [0.0, 0.0008, 0.0]},
                                "beta": {"epochs": [0, 10, 50, 100],
                                         "values": [0.0, 0.01, 1.0, 1.0]}}},
            "eval": {"steps": 50, "n_expected": 5, "limit": 500},
            "bounds": {"alpha": 0.01, "samples": 64, "limit": 200},
            "classifier": {"hidden": [200], "n_classes": 10},
            "robust": {"epochs": 5, "batch_size": 128, "lr": 1e-3, "attack_steps": 7},
            "attack_limit": 500,
            "certify": {"n0": 100, "n": 2000, "alpha": 0.001, "limit": 50},
            "seeds": seeds,
        }

    raise ConfigError(f"unknown profile {profile!r}")


_TABLE4_REFERENCE = {"enc_ae": 0.31, "pgd_ae": 0.25, "eae": 0.32, "oae": 0.65,
                     "recon_err": 0.27}


def cmd_reproduce(profile: str, out: str, seed: int, mnist_dir) -> dict:
    spec = _profile_spec(profile, out, seed, mnist_dir)
    seeds = spec["seeds"]
    p = lambda *parts: os.path.join(out, *parts)
    os.makedirs(out, exist_ok=True)

    cmd_gen_data(spec["gen"])
    cmd_train_cvae(spec["train"])

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
                        "sigma": sigma, "timing": False, **spec["certify"]})

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
    _dump_json(p("report.json"), report)
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
            cfg = _load_json(args.config)
            if not isinstance(cfg, dict):
                raise ConfigError("config: top level must be a JSON object")
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

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import pertsets
from pertsets import cli, cvae, smoothing


def run_cli(args, capsys=None):
    code = cli.main(args)
    err = capsys.readouterr().err if capsys is not None else ""
    return code, err


def write_cfg(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end artifact tree shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    gen = {"out_dir": str(root / "data"), "seed": 7,
           "source": {"kind": "synth-shapes", "n": 120, "size": 12},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 40}}
    assert cli.main(["gen-data", "--config", write_cfg(root / "gen.json", gen)]) == 0
    train = {"out_dir": str(root / "cvae"), "seed": 1, "data": str(root / "data" / "train"),
             "model": {"k": 4, "hidden": 32},
             "train": {"epochs": 2, "batch_size": 32,
                       "lr": {"epochs": [0, 2], "values": [0.002, 0.001]},
                       "beta": {"epochs": [0, 2], "values": [0.0, 0.01]}}}
    assert cli.main(["train-cvae", "--config", write_cfg(root / "train.json", train)]) == 0
    rob = {"out_dir": str(root / "clf"), "seed": 3, "model": str(root / "cvae"),
           "data": str(root / "data" / "train"),
           "classifier": {"hidden": [16], "n_classes": 2},
           "train": {"mode": "clean", "epochs": 2, "lr": 0.002}}
    assert cli.main(["train-robust", "--config", write_cfg(root / "rob.json", rob)]) == 0
    return root


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_files_exist_and_reload(tmp_path):
    cfg = {"out_dir": str(tmp_path / "d"), "seed": 5,
           "source": {"kind": "synth-shapes", "n": 60, "size": 12},
           "pairs": {"kind": "rts", "rotation": 30.0, "scale": [0.9, 1.1], "canvas": 16},
           "split": {"test": 20}}
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path / "g.json", cfg)]) == 0
    for split, n in (("train", 40), ("test", 20)):
        pairs = cli._load_pairs(str(tmp_path / "d" / split))
        assert len(pairs) == n and pairs.dim == 256
        assert pairs.labels.shape == (n,)
    # identical rerun into a second directory
    cfg2 = dict(cfg, out_dir=str(tmp_path / "d2"))
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path / "g2.json", cfg2)]) == 0
    a = cli._load_pairs(str(tmp_path / "d" / "train"))
    b = cli._load_pairs(str(tmp_path / "d2" / "train"))
    assert np.array_equal(a.perturbed, b.perturbed)
    assert np.array_equal(a.conditioned, b.conditioned)
    assert np.array_equal(a.labels, b.labels)


def test_gen_data_smallest_synth_size_exits_0(tmp_path):
    # size 8 is the smallest synth-shapes accepts; every bar must fit it
    cfg = {"out_dir": str(tmp_path / "d"),
           "source": {"kind": "synth-shapes", "n": 100, "size": 8},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 10}}
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path / "g.json", cfg)]) == 0
    assert cli._load_pairs(str(tmp_path / "d" / "train")).dim == 64


def _readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        return f.read()


def test_readme_json_examples_run(tmp_path, monkeypatch):
    # each ```json block in the README is a stage config introduced by a
    # line naming its stage, as in "Example stage config (`gen-data`):"
    text = _readme()
    examples = re.findall(r"\(`([a-z-]+)`\):\n\n```json\n(.*?)^```", text, flags=re.M | re.S)
    assert examples and len(examples) == text.count("```json")
    monkeypatch.chdir(tmp_path)
    for i, (stage, block) in enumerate(examples):
        cfg = tmp_path / f"readme{i}.json"
        cfg.write_text(block, encoding="utf-8")
        assert cli.main([stage, "--config", str(cfg)]) == 0, stage


# the last part of a backticked dotted name that is a file, not code
_FILE_SUFFIXES = {"json", "jsonl", "csv", "npy", "bin", "py", "md"}


def _code_names(text):
    """Backticked dotted identifiers in text that name package code: not a
    file such as `config.json`, nor a config key path such as
    `config.pairs.eps`."""
    return {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
            if name.split(".")[-1] not in _FILE_SUFFIXES and not name.startswith("config.")}


def _resolves(name):
    """Whether a dotted name resolves against src/pertsets: it starts at the
    package, one of its modules, or a name a module defines, and each later
    part is an attribute or a dataclass field."""
    modules = {info.name: importlib.import_module(f"pertsets.{info.name}")
               for info in pkgutil.iter_modules(pertsets.__path__)}
    first, *rest = name.split(".")
    if first == "pertsets":
        obj = pertsets
    elif first in modules:
        obj = modules[first]
    else:
        owners = [getattr(m, first) for m in modules.values() if hasattr(m, first)]
        if not owners:
            return False
        obj = owners[0]
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None      # a field: nothing further resolves on it
        else:
            return False
    return True


def test_readme_code_names_resolve():
    names = _code_names(_readme())
    assert {"cvae.latent_pgd", "theory.estimate_R_K", "Condition.rows"} <= names
    assert not [name for name in sorted(names) if not _resolves(name)]
    for name in ("Condition.prior", "nn.ParamSet.views", "pertsets.cli.main"):
        assert _resolves(name), name
    for name in ("Condition.mean", "cvae.reparameterize", "smoothing._top_two", "nn.Nope"):
        assert not _resolves(name), name


def _readme_columns(text, artifact):
    """The names the bulleted list after the README paragraph that
    introduces `artifact` (ending in "these keys:" or "these columns:")
    gives, one per item."""
    m = re.search(r"`%s`[^\n]*(?:\n[^\n]+)*?:\n\n((?:- .*\n(?: .*\n)*)+)" % re.escape(artifact),
                  text)
    assert m, artifact
    return re.findall(r"^- `(\w+)`", m.group(1), flags=re.M)


def test_readme_names_every_report_column(pipeline, tmp_path):
    # each per-pair report's README list holds exactly its header's columns
    common = {"seed": 1, "model": str(pipeline / "cvae"),
              "data": str(pipeline / "data" / "test"), "limit": 2}
    runs = {"eval.csv": ("eval-set", {"eps": 1.0, "steps": 2, "n_expected": 2}),
            "bounds.jsonl": ("bounds", {"samples": 4}),
            "certify.csv": ("certify", {"classifier": str(pipeline / "clf"), "sigma": 0.5,
                                        "n0": 5, "n": 10})}
    text = _readme()
    for artifact, (stage, extra) in runs.items():
        cfg = {"out_dir": str(tmp_path / stage), **common, **extra}
        assert cli.main([stage, "--config", write_cfg(tmp_path / f"{stage}.json", cfg)]) == 0
        with open(tmp_path / stage / artifact, encoding="utf-8") as f:
            first = f.readline()
        jsonl = artifact.endswith(".jsonl")
        header = list(json.loads(first)) if jsonl else first.strip().split(",")
        documented = _readme_columns(text, artifact)
        assert len(set(documented)) == len(documented), artifact
        assert sorted(documented) == sorted(header), artifact


def test_gen_data_manifest_hashes_verify(pipeline):
    manifest = json.load(open(pipeline / "data" / "manifest.json"))
    assert manifest["files"], "manifest lists no files"
    for name, digest in manifest["files"].items():
        assert cli._sha256(str(pipeline / "data" / name)) == digest


def test_unknown_key_exits_2_naming_it(tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "d"), "seed": 1, "sourc": {"kind": "synth-shapes"},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 2}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "g.json", cfg)], capsys)
    assert code == 2
    assert "source" in err
    cfg = {"out_dir": str(tmp_path / "d"), "seed": 1,
           "source": {"kind": "synth-shapes", "n": 20, "size": 12, "shape": "disk"},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 2}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "g2.json", cfg)], capsys)
    assert code == 2
    assert "config.source.shape" in err


def test_wrong_type_exits_2_with_field(tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "d"), "seed": 1,
           "source": {"kind": "synth-shapes", "n": 20, "size": 12},
           "pairs": {"kind": "linf", "eps": "big"}, "split": {"test": 2}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "g.json", cfg)], capsys)
    assert code == 2
    assert "config.pairs.eps" in err


def test_config_not_json_exits_2(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text("{not json")
    code, err = run_cli(["gen-data", "--config", str(p)], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# train-cvae / eval-set pipeline

def test_train_then_eval_csv_one_row_per_pair(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "eval"), "seed": 2, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "test"),
           "eps": {"select_from": str(pipeline / "data" / "train")}, "steps": 5}
    assert cli.main(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg)]) == 0
    with open(tmp_path / "eval" / "eval.csv", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("pair,enc_ae,pgd_ae,")
    assert len(lines) == 1 + 40
    summary = json.load(open(tmp_path / "eval" / "summary.json"))
    assert summary["pairs"] == 40 and summary["eps"] > 0


def test_eval_fixed_eps_and_limit(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "eval"), "seed": 2, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "test"), "eps": 2.0, "steps": 5, "limit": 7}
    assert cli.main(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg)]) == 0
    summary = json.load(open(tmp_path / "eval" / "summary.json"))
    assert summary["pairs"] == 7 and summary["eps"] == 2.0


def test_missing_artifact_exits_3(pipeline, tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "x"), "data": str(tmp_path / "nonexistent"),
           "model": {"k": 4, "hidden": 8}, "train": {"epochs": 1}}
    code, err = run_cli(["train-cvae", "--config", write_cfg(tmp_path / "t.json", cfg)], capsys)
    assert code == 3
    assert "nonexistent" in err
    cfg = {"out_dir": str(tmp_path / "x"), "seed": 0, "model": str(tmp_path / "nomodel"),
           "data": str(pipeline / "data" / "test"), "eps": 1.0}
    code, err = run_cli(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg)], capsys)
    assert code == 3


def test_nan_loss_exits_4_with_epoch(pipeline, tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "x"), "seed": 9, "data": str(pipeline / "data" / "train"),
           "model": {"k": 4, "hidden": 32},
           "train": {"epochs": 8, "lr": {"epochs": [0, 8], "values": [1e18, 1e18]}}}
    with np.errstate(all="ignore"):
        code, err = run_cli(["train-cvae", "--config", write_cfg(tmp_path / "t.json", cfg)],
                            capsys)
    assert code == 4
    assert "epoch" in err


def test_train_cvae_artifacts_self_describing(pipeline):
    cfgcopy = json.load(open(pipeline / "cvae" / "config.json"))
    assert cfgcopy["model"] == {"k": 4, "hidden": 32}
    assert cfgcopy["train"]["epochs"] == 2
    assert cfgcopy["train"]["lr"] == {"epochs": [0.0, 2.0], "values": [0.002, 0.001]}
    history = json.load(open(pipeline / "cvae" / "history.json"))
    assert len(history["epochs"]) == 2
    meta = json.load(open(pipeline / "cvae" / "model.meta.json"))
    assert meta == {"m": 144, "k": 4, "hidden": 32, "train_pairs": 80}


# ---------------------------------------------------------------------------
# bounds / attack / train-robust / certify

def test_bounds_jsonl_records(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "b"), "seed": 3, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "test"), "samples": 8, "limit": 5}
    assert cli.main(["bounds", "--config", write_cfg(tmp_path / "b.json", cfg)]) == 0
    with open(tmp_path / "b" / "bounds.jsonl", encoding="utf-8") as f:
        recs = [json.loads(line) for line in f]
    m = json.load(open(pipeline / "cvae" / "model.meta.json"))["m"]
    assert len(recs) == 5
    for i, rec in enumerate(recs):
        assert rec["pair"] == i
        assert set(rec) == {"pair", "R", "K_sum", "r", "eps", "delta_per_pixel",
                            "ln_h", "ln_theorem2_bound"}
        assert rec["eps"] >= rec["r"] > 0
        assert rec["delta_per_pixel"] >= 0
        # ln(delta * H) with delta in SSE units: m pixels of delta_per_pixel
        assert math.isclose(rec["ln_theorem2_bound"],
                            math.log(rec["delta_per_pixel"] * m) + rec["ln_h"], rel_tol=1e-12)


def test_attack_summary_and_rows(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "a"), "model": str(pipeline / "cvae"),
           "classifier": str(pipeline / "clf"), "data": str(pipeline / "data" / "test"),
           "attack": {"eps": 1.5, "steps": 5}, "limit": 12}
    assert cli.main(["attack", "--config", write_cfg(tmp_path / "a.json", cfg)]) == 0
    summary = json.load(open(tmp_path / "a" / "summary.json"))
    assert summary["examples"] == 12
    assert 0.0 <= summary["robust_accuracy"] <= summary["accuracy"] <= 1.0
    with open(tmp_path / "a" / "attack.csv", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "example,label,clean_pred,adv_pred"
    assert len(lines) == 13


def test_train_robust_modes_and_artifacts(pipeline, tmp_path):
    for mode, extra in (("augment", {"eps": 1.0}), ("noise", {"sigma": 0.5})):
        cfg = {"out_dir": str(tmp_path / mode), "seed": 3, "model": str(pipeline / "cvae"),
               "data": str(pipeline / "data" / "train"),
               "classifier": {"hidden": [8], "n_classes": 2},
               "train": {"mode": mode, "epochs": 1, **extra}}
        assert cli.main(["train-robust", "--config",
                         write_cfg(tmp_path / f"{mode}.json", cfg)]) == 0
        clf = cli.load_classifier(str(tmp_path / mode / "classifier"))
        assert clf.n_classes == 2 and clf.m == 144


def test_train_robust_mode_requires_eps(pipeline, tmp_path, capsys):
    cfg = {"out_dir": str(tmp_path / "x"), "seed": 3, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "train"),
           "classifier": {"hidden": [8], "n_classes": 2},
           "train": {"mode": "adv", "epochs": 1}}
    code, err = run_cli(["train-robust", "--config", write_cfg(tmp_path / "r.json", cfg)],
                        capsys)
    assert code == 2
    assert "eps" in err


def test_certify_csv_and_sigma_backsolve(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "c"), "seed": 5, "model": str(pipeline / "cvae"),
           "classifier": str(pipeline / "clf"), "data": str(pipeline / "data" / "test"),
           "sigma": smoothing.sigma_for_radius(3.19, n=10000, alpha=0.001),
           "n0": 10, "n": 50, "alpha": 0.01, "limit": 6}
    assert cli.main(["certify", "--config", write_cfg(tmp_path / "c.json", cfg)]) == 0
    summary = json.load(open(tmp_path / "c" / "summary.json"))
    assert summary["sigma"] == cfg["sigma"]
    assert abs(summary["sigma"] - 0.9974) < 0.01   # 3.19 / 3.1986
    with open(tmp_path / "c" / "certify.csv", encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "example,guess,p_a,radius,abstain"
    assert len(lines) == 7


def test_certify_labels_not_required(pipeline, tmp_path):
    # certification never touches labels; it must work on unlabeled pairs
    src = cli._load_pairs(str(pipeline / "data" / "test"))
    bare = type(src)(src.perturbed, src.conditioned, None)
    cli._save_pairs(str(tmp_path / "bare"), bare, {})
    cfg = {"out_dir": str(tmp_path / "c"), "seed": 5, "model": str(pipeline / "cvae"),
           "classifier": str(pipeline / "clf"), "data": str(tmp_path / "bare"),
           "sigma": 0.5, "n0": 10, "n": 50, "alpha": 0.01, "limit": 3}
    assert cli.main(["certify", "--config", write_cfg(tmp_path / "c.json", cfg)]) == 0


def test_attack_requires_labels(pipeline, tmp_path, capsys):
    src = cli._load_pairs(str(pipeline / "data" / "test"))
    bare = type(src)(src.perturbed, src.conditioned, None)
    cli._save_pairs(str(tmp_path / "bare"), bare, {})
    cfg = {"out_dir": str(tmp_path / "a"), "model": str(pipeline / "cvae"),
           "classifier": str(pipeline / "clf"), "data": str(tmp_path / "bare"),
           "attack": {"eps": 1.0, "steps": 2}}
    code, err = run_cli(["attack", "--config", write_cfg(tmp_path / "a.json", cfg)], capsys)
    assert code == 3
    assert "labels" in err


@pytest.mark.parametrize("stage", list(cli._COMMANDS))
def test_stage_returns_what_its_summary_json_holds(pipeline, tmp_path, stage):
    summary = cli._COMMANDS[stage](_bad_input_cfg(pipeline, tmp_path / "out", stage))
    path = tmp_path / "out" / "summary.json"
    if stage in ("gen-data", "train-cvae"):
        assert summary is None and not path.exists()
    else:
        assert summary == json.loads(path.read_text(encoding="utf-8"))


def test_config_json_records_defaults(pipeline, tmp_path):
    # config.json holds every key a stage read, defaults filled in, and no
    # other: an absent optional key (limit) stays absent; train-robust
    # records attack_steps in every mode, clean included
    common = {"out_dir": None, "model": str(pipeline / "cvae")}
    knots = lambda s: {"epochs": s.epochs, "values": s.values}
    cases = {
        "train-cvae": ({"data": str(pipeline / "data" / "train"),
                        "model": {"k": 4, "hidden": 8}, "train": {"epochs": 1}},
                       {"seed": 0, "train": {"epochs": 1, "batch_size": 128,
                                             "lr": knots(cvae.DEFAULT_LR),
                                             "beta": knots(cvae.DEFAULT_BETA)}}),
        "bounds": ({"data": str(pipeline / "data" / "test")},
                   {"seed": 0, "alpha": 0.01, "samples": 64}),
        "train-robust": ({"data": str(pipeline / "data" / "train"),
                          "classifier": {"n_classes": 2},
                          "train": {"mode": "clean", "epochs": 1}},
                         {"seed": 0, "classifier": {"hidden": [200], "n_classes": 2},
                          "train": {"mode": "clean", "epochs": 1, "batch_size": 128,
                                    "lr": 1e-3, "attack_steps": 7}}),
        "certify": ({"data": str(pipeline / "data" / "test"),
                     "classifier": str(pipeline / "clf"), "sigma": 0.5},
                    {"seed": 0, "n0": 100, "n": 10_000, "alpha": 0.001}),
    }
    for stage, (cfg, defaults) in cases.items():
        cfg = {**common, **cfg, "out_dir": str(tmp_path / stage)}
        assert cli.main([stage, "--config", write_cfg(tmp_path / f"{stage}.json", cfg)]) == 0
        written = json.load(open(tmp_path / stage / "config.json"))
        assert written == {**cfg, **defaults}, stage


def _bad_input_cfg(pipeline, out, stage):
    test, train = str(pipeline / "data" / "test"), str(pipeline / "data" / "train")
    model, clf = str(pipeline / "cvae"), str(pipeline / "clf")
    return {
        "gen-data": {"source": {"kind": "synth-shapes", "n": 20, "size": 12},
                     "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 2}},
        "train-cvae": {"data": train, "model": {"k": 4, "hidden": 8}, "train": {"epochs": 1}},
        "eval-set": {"model": model, "data": test, "eps": 2.0, "steps": 2, "limit": 3},
        "bounds": {"model": model, "data": test, "samples": 4, "limit": 3},
        "attack": {"model": model, "classifier": clf, "data": test,
                   "attack": {"eps": 1.0, "steps": 2}, "limit": 3},
        "train-robust": {"model": model, "data": train,
                         "classifier": {"hidden": [8], "n_classes": 2},
                         "train": {"mode": "clean", "epochs": 1}},
        "certify": {"model": model, "classifier": clf, "data": test, "sigma": 0.5,
                    "n0": 5, "n": 20, "alpha": 0.01, "limit": 3},
    }[stage] | {"out_dir": str(out)}


@pytest.mark.parametrize("stage, patch, flags, field", [
    ("gen-data", {"seed": -1}, [], "config.seed"),
    ("eval-set", {}, ["--seed", "-1"], "config.seed"),
    ("reproduce", None, ["--seed", "-1"], "--seed"),
    *[(stage, {"limit": limit}, [], "config.limit")
      for stage in ("eval-set", "bounds", "attack", "certify") for limit in (0, -3)],
    # sigma is one number: the keys of the object it once could be are unknown
    *[("certify", {"sigma": {key: 1.0}}, [], f"unknown config key config.sigma.{key}")
      for key in ("n", "alpha", "radius")],
    ("train-robust", {"classifier": {"hidden": [0], "n_classes": 2}}, [],
     "config.classifier.hidden[0]"),
    ("train-robust", {"train": {"mode": "adv", "epochs": 1, "eps": 1.0, "attack_steps": 0}},
     [], "config.train.attack_steps"),
    # the canvas must hold the source at its largest scale: 1.3 * 12 > 12
    ("gen-data", {"pairs": {"kind": "rts", "canvas": 12}}, [], "config.pairs.canvas"),
    # the generator's logvar bounds and the attack step size (eps/5) are fixed
    *[("train-cvae", {"model": {"k": 4, "hidden": 8, key: -1.0}}, [],
       f"unknown config key config.model.{key}") for key in ("logvar_lo", "logvar_hi")],
    ("attack", {"attack": {"eps": 1.0, "steps": 2, "step": 0.2}}, [],
     "unknown config key config.attack.step"),
    ("train-robust", {"train": {"mode": "adv", "epochs": 1, "eps": 1.0, "attack_step": 0.2}},
     [], "unknown config key config.train.attack_step"),
    # a zero noise level certifies nothing
    ("certify", {"sigma": 0}, [], "config.sigma: must be > 0"),
    # schedules start at 0, but no learning rate or KL weight is negative
    ("train-cvae", {"train": {"epochs": 1, "lr": {"epochs": [0, 1], "values": [0.0, -0.01]}}},
     [], "config.train.lr.values[1]: must be >= 0"),
    ("train-cvae", {"train": {"epochs": 1, "beta": {"epochs": [0, 1], "values": [-1, 0.01]}}},
     [], "config.train.beta.values[0]: must be >= 0"),
    # train-robust takes eps in adv and augment only, and sigma in noise only
    *[("train-robust", {"train": {"mode": mode, "epochs": 1, "eps": 1.0, **extra}}, [],
       "unknown config key config.train.eps")
      for mode, extra in (("clean", {}), ("noise", {"sigma": 0.5}))],
    *[("train-robust", {"train": {"mode": mode, "epochs": 1, "sigma": 0.5, **extra}}, [],
       "unknown config key config.train.sigma")
      for mode, extra in (("clean", {}), ("adv", {"eps": 1.0}), ("augment", {"eps": 1.0}))],
    ("train-robust", {"train": {"mode": "noise", "epochs": 1}}, [],
     "config.train.sigma: required key missing"),
    # an alpha of 2^-54 or less passes (0, 1), but its confidence 1 - alpha
    # rounds to 1, which has no quantile
    *[(stage, {"alpha": alpha}, [], "config.alpha: must be in (0, 1) with 1 - x < 1")
      for stage in ("bounds", "certify") for alpha in (1e-17, 2.0 ** -54)],
])
def test_out_of_range_exits_2_naming_field(pipeline, tmp_path, capsys, stage, patch, flags,
                                           field):
    if stage == "reproduce":
        argv = ["reproduce", "--profile", "smoke", "--out", str(tmp_path / "r")]
    else:
        cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage) | patch
        argv = [stage, "--config", write_cfg(tmp_path / "c.json", cfg)]
    code, err = run_cli(argv + flags, capsys)
    assert code == 2, err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("stage", [*cli._COMMANDS, "reproduce"])
@pytest.mark.parametrize("case", ["file", "under-file", "empty"])
def test_out_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, stage, case):
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep")
    out = {"file": str(taken), "under-file": str(taken / "sub"), "empty": ""}[case]
    if stage == "reproduce":
        argv, key = ["reproduce", "--profile", "smoke", "--out", out], "--out"
    else:   # out_dir is checked before any other key, so it may stand alone
        argv = [stage, "--config", write_cfg(tmp_path / "c.json", {"out_dir": out})]
        key = "config.out_dir"
    code, err = run_cli(argv, capsys)
    assert code == 2, err
    assert f"{key}: {out!r} is not a directory" in err and "Traceback" not in err
    assert taken.read_bytes() == b"keep"
    # no directory was made
    assert {p.name for p in tmp_path.iterdir()} <= {"taken", "c.json"}


def _write_idx(path, magic, dims, n_bytes):
    path.write_bytes(struct.pack(f">{1 + len(dims)}i", magic, *dims) + bytes(n_bytes))
    return str(path)


@pytest.mark.parametrize("case, bad", [
    ("short", "images"), ("magic", "images"), ("truncated", "images"), ("count", "labels"),
    ("dims", "images")])
def test_malformed_idx_source_exits_3_naming_file(tmp_path, capsys, case, bad):
    images = _write_idx(tmp_path / "images", 0x803, (3, 8, 8), 192)
    labels = _write_idx(tmp_path / "labels", 0x801, (3,), 3)
    if case == "short":
        (tmp_path / "images").write_bytes(struct.pack(">2i", 0x803, 3))
    elif case == "magic":
        _write_idx(tmp_path / "images", 0x804, (3, 8, 8), 192)
    elif case == "truncated":
        _write_idx(tmp_path / "images", 0x803, (3, 8, 8), 100)
    elif case == "dims":    # 2 x 4294967294 x 4294967294 images, read as unsigned
        _write_idx(tmp_path / "images", 0x803, (2, -2, -2), 8)
    else:
        _write_idx(tmp_path / "labels", 0x801, (2,), 2)
    cfg = {"out_dir": str(tmp_path / "out"),
           "source": {"kind": "idx", "images": images, "labels": labels},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 1}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 3, err
    assert str(tmp_path / bad) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_non_square_rts_source_exits_2(tmp_path, capsys):
    images = _write_idx(tmp_path / "images", 0x803, (3, 8, 6), 144)
    cfg = {"out_dir": str(tmp_path / "out"), "source": {"kind": "idx", "images": images},
           "pairs": {"kind": "rts", "canvas": 20}, "split": {"test": 1}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 2, err
    assert "config.source.images" in err and "8x6" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", [{"kind": "linf", "eps": 0.3}, {"kind": "rts", "canvas": 16}],
                         ids=["linf", "rts"])
def test_perturbed_only_pairing_exits_2(tmp_path, capsys, kind):
    # every pair is conditioned on its clean source: "centered" is the one pairing
    cfg = {"out_dir": str(tmp_path / "out"),
           "source": {"kind": "synth-shapes", "n": 20, "size": 12},
           "pairs": {**kind, "pairing": "perturbed_only"}, "split": {"test": 2}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 2, err
    assert "config.pairs.pairing" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_rts_canvas_without_placement_exits_2(tmp_path, capsys):
    # 0.9 * 10 fits canvas 9, but a 10x10 source's pixel centres span
    # 0.9 * 9 = 8.1 > 8 at scale 0.9, so no centre places it
    cfg = {"out_dir": str(tmp_path / "out"),
           "source": {"kind": "synth-shapes", "n": 20, "size": 10},
           "pairs": {"kind": "rts", "scale": [0.9, 0.9], "canvas": 9}, "split": {"test": 2}}
    code, err = run_cli(["gen-data", "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 2, err
    assert "config.pairs.canvas" in err and "no placement" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_labels_beyond_n_classes_exit_2_naming_it(pipeline, tmp_path, capsys):
    # an IDX source labeled 0-4 under a 2-class train-robust config
    images = _write_idx(tmp_path / "images", 0x803, (10, 12, 12), 1440)
    (tmp_path / "labels").write_bytes(struct.pack(">2i", 0x801, 10) + bytes(range(5)) * 2)
    gen = {"out_dir": str(tmp_path / "d"),
           "source": {"kind": "idx", "images": images, "labels": str(tmp_path / "labels")},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 2}}
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path / "g.json", gen)]) == 0
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", "train-robust") | {
        "data": str(tmp_path / "d" / "train")}
    code, err = run_cli(["train-robust", "--config", write_cfg(tmp_path / "c.json", cfg)],
                        capsys)
    assert code == 2, err
    assert "config.classifier.n_classes" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    cfg["classifier"] = {"hidden": [8], "n_classes": 5}
    assert cli.main(["train-robust", "--config", write_cfg(tmp_path / "c.json", cfg)]) == 0


@pytest.mark.parametrize("stage, label", [("train-robust", -1), ("attack", 7)])
def test_label_outside_classifier_exits_3_naming_files(pipeline, tmp_path, capsys, stage,
                                                       label):
    # a negative label, and a 7 against the 2-class classifier
    bad = tmp_path / "bad"
    shutil.copytree(pipeline / "data" / ("train" if stage == "train-robust" else "test"), bad)
    labels = np.load(bad / "labels.npy")
    labels[0] = label
    np.save(bad / "labels.npy", labels)
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage) | {"data": str(bad)}
    code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 3, err
    assert str(bad / "labels.npy") in err and "Traceback" not in err, err
    if stage == "attack":
        assert str(pipeline / "clf") in err, err
    assert not (tmp_path / "out").exists()


def test_empty_pair_set_exits_3(pipeline, tmp_path, capsys):
    gen = _bad_input_cfg(pipeline, tmp_path / "d", "gen-data") | {"split": {"test": 0}}
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path / "g.json", gen)]) == 0
    empty = str(tmp_path / "d" / "test")
    for stage in ("eval-set", "bounds"):
        cfg = _bad_input_cfg(pipeline, tmp_path / stage, stage) | {"data": empty}
        code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
        assert code == 3, (stage, err)
        assert empty in err and "Traceback" not in err


def test_load_pairs_validation(tmp_path):
    def pair_dir(name, perturbed, conditioned, labels=None):
        d = tmp_path / name
        d.mkdir()
        np.save(d / "perturbed.npy", np.array([perturbed], dtype=np.float32))
        np.save(d / "conditioned.npy", np.array([conditioned], dtype=np.float32))
        if labels is not None:
            np.save(d / "labels.npy", np.array(labels))
        (d / "pairs.meta.json").write_text(json.dumps({"labels": labels is not None}))
        return str(d)

    with pytest.raises(cli.MissingArtifactError, match="outside"):
        cli._load_pairs(pair_dir("range", [0.5, 1.5], [0.5, 0.5]))
    with pytest.raises(FloatingPointError, match="non-finite"):
        cli._load_pairs(pair_dir("nan", [0.5, np.nan], [0.5, 0.5]))
    with pytest.raises(cli.MissingArtifactError, match="equal"):
        cli._load_pairs(pair_dir("length", [0.5], [0.5, 0.5]))
    pairs = cli._load_pairs(pair_dir("ok", [0.0, 1.0], [0.5, 0.5], labels=[1]))
    assert pairs.labels.tolist() == [1]
    # an array of another kind is refused, not truncated or cast to garbage
    for name, labels in (("float-labels", [1.7]), ("nan-labels", [np.nan])):
        with pytest.raises(cli.MissingArtifactError, match="labels.npy: array of dtype float64"):
            cli._load_pairs(pair_dir(name, [0.5, 0.5], [0.5, 0.5], labels=labels))
    complex_dir = pair_dir("complex", [0.5, 0.5], [0.5, 0.5])
    np.save(os.path.join(complex_dir, "perturbed.npy"), np.full((1, 2), 0.5, np.complex64))
    with pytest.raises(cli.MissingArtifactError, match="perturbed.npy: array of dtype complex64"):
        cli._load_pairs(complex_dir)
    with open(os.path.join(complex_dir, "perturbed.npy"), "wb") as f:   # an archive, not an array
        np.savez(f, x=np.full((1, 2), 0.5, np.float32))
    with pytest.raises(cli.MissingArtifactError, match="unreadable array .*perturbed.npy"):
        cli._load_pairs(complex_dir)


def _tampered_pairs(pipeline, dst, case):
    shutil.copytree(pipeline / "data" / "test", dst)
    x = np.load(dst / "perturbed.npy")
    if case == "garbage":
        (dst / "perturbed.npy").write_bytes(b"not an array")
    elif case == "unequal":
        np.save(dst / "conditioned.npy", np.load(dst / "conditioned.npy")[:, :-1])
    elif case == "labels":
        np.save(dst / "labels.npy", np.load(dst / "labels.npy")[:-2])
    else:
        x[0, 3] = {"range": 3.0, "nan": np.nan}[case]
        np.save(dst / "perturbed.npy", x)
    return str(dst)


@pytest.mark.parametrize("stage", ["train-cvae", "eval-set", "bounds", "attack",
                                   "train-robust", "certify"])
@pytest.mark.parametrize("case, code, named", [
    ("garbage", 3, "perturbed.npy"), ("unequal", 3, "conditioned.npy"),
    ("labels", 3, "labels.npy"), ("range", 3, "perturbed.npy"), ("nan", 4, "perturbed.npy")])
def test_bad_pair_set_exits_naming_file(pipeline, tmp_path, capsys, stage, case, code, named):
    bad = _tampered_pairs(pipeline, tmp_path / "bad", case)
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage) | {"data": bad}
    got, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert got == code, err
    assert os.path.join(bad, named) in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage, meta", [
    ("eval-set", "{not json"), ("bounds", "[]"), ("train-cvae", '"pairs"')])
def test_bad_pairs_meta_exits_3_naming_it(pipeline, tmp_path, capsys, stage, meta):
    bad = tmp_path / "bad"
    shutil.copytree(pipeline / "data" / ("train" if stage == "train-cvae" else "test"), bad)
    (bad / "pairs.meta.json").write_text(meta, encoding="utf-8")
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage) | {"data": str(bad)}
    code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 3, err
    assert str(bad / "pairs.meta.json") in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage, key", [
    *[(stage, "data") for stage in ("eval-set", "bounds", "attack", "train-robust", "certify")],
    ("attack", "classifier"), ("certify", "classifier")])
def test_width_mismatch_exits_3(pipeline, tmp_path, capsys, stage, key):
    # a 64-pixel pair set or classifier against the 144-pixel generator
    narrow = tmp_path / "narrow"
    if key == "data":
        src = cli._load_pairs(str(pipeline / "data" / "test"))
        cli._save_pairs(str(narrow), type(src)(src.perturbed[:, :64], src.conditioned[:, :64],
                                               src.labels), {})
    else:
        narrow.mkdir()
        cli.Classifier(64, 2, hidden=(8,), rng=np.random.default_rng(0)).save(
            str(narrow / "classifier"))
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage) | {key: str(narrow)}
    code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 3, err
    for part in ("width 64", "width 144", str(narrow), str(pipeline / "cvae")):
        assert part in err, (part, err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _copy_checkpoint(src_dir, dst_dir, stem, edit_meta=None, edit_blob=None,
                     edit_manifest=None):
    os.makedirs(dst_dir)
    for suffix in (".json", ".bin", ".meta.json"):
        with open(os.path.join(src_dir, stem + suffix), "rb") as f:
            blob = f.read()
        if suffix == ".bin" and edit_blob is not None:
            blob = edit_blob(np.frombuffer(blob, dtype="<f4").copy()).tobytes()
        edit_json = {".json": edit_manifest, ".meta.json": edit_meta}.get(suffix)
        if edit_json is not None:
            blob = json.dumps(edit_json(json.loads(blob))).encode("utf-8")
        with open(os.path.join(dst_dir, stem + suffix), "wb") as f:
            f.write(blob)
    return str(dst_dir)


@pytest.mark.parametrize("stage, stem", [
    ("attack", "classifier"), ("certify", "classifier"),
    ("eval-set", "model"), ("bounds", "model")])
def test_non_finite_checkpoint_exits_4(pipeline, tmp_path, capsys, stage, stem):
    src = pipeline / ("cvae" if stem == "model" else "clf")
    bad = _copy_checkpoint(src, tmp_path / "bad", stem,
                           edit_blob=lambda raw: np.where(np.arange(raw.size) == 5, np.nan, raw))
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage)
    cfg["model" if stem == "model" else "classifier"] = bad
    code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 4, err
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage, stem, train", [
    *[pytest.param(stage, stem, None, id=f"{stage}-{stem}")
      for stage, stem in (("attack", "classifier"), ("certify", "classifier"),
                          ("eval-set", "model"))],
    # the decodes inside classifier training: attacked, sampled and noised
    *[pytest.param("train-robust", "model", {"mode": mode, "epochs": 1, **extra},
                   id=f"train-robust-{mode}")
      for mode, extra in (("adv", {"eps": 1.0, "attack_steps": 2}), ("augment", {"eps": 1.0}),
                          ("noise", {"sigma": 0.5}))]])
def test_overflowing_checkpoint_exits_4(pipeline, tmp_path, capsys, stage, stem, train):
    # finite weights scaled by 1e30: the forward pass overflows to inf logits
    # or NaN decodes, which no stage may turn into a report
    src = pipeline / ("cvae" if stem == "model" else "clf")
    bad = _copy_checkpoint(src, tmp_path / "bad", stem,
                           edit_blob=lambda raw: raw * np.float32(1e30))
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage)
    cfg["model" if stem == "model" else "classifier"] = bad
    if train is not None:
        cfg["train"] = train
    with np.errstate(all="ignore"):
        code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 4, err
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage, stem, edit, message", [
    ("eval-set", "model", {"edit_meta": lambda m: m | {"hidden": 64}}, "'decoder/b0'"),
    ("attack", "classifier", {"edit_meta": lambda m: m | {"hidden": [8]}}, "'classifier/b0'"),
    ("certify", "classifier", {"edit_blob": lambda raw: raw[:-1]}, "too short"),
    ("eval-set", "model", {"edit_manifest": lambda m: []}, "expected a JSON object"),
    ("bounds", "model", {"edit_manifest": lambda m: m | {"tensors": [
        {"name": "decoder/b0", "shape": None}, *m["tensors"][1:]]}}, "malformed"),
    ("eval-set", "model", {"edit_meta": lambda m: []}, "expected a JSON object"),
    ("bounds", "model", {"edit_meta": lambda m: m | {"hidden": None}}, "NoneType"),
    ("eval-set", "model", {"edit_meta": lambda m: {k: v for k, v in m.items() if k != "k"}},
     "'k'"),
    ("attack", "classifier", {"edit_meta": lambda m: m | {"hidden": None}}, "NoneType"),
    ("certify", "classifier", {"edit_meta": lambda m: m | {"m": float("inf")}}, "infinity"),
    # every meta value has one type: ints that are not bools, or a list of
    # ints for the classifier's hidden widths
    ("bounds", "model", {"edit_meta": lambda m: m | {"m": "12"}},
     "model.meta.json: 'm' is \"12\" (str)"),
    ("eval-set", "model", {"edit_meta": lambda m: m | {"hidden": True}},
     "model.meta.json: 'hidden' is true (bool)"),
    ("eval-set", "model", {"edit_meta": lambda m: m | {"k": 4.0}},
     "model.meta.json: 'k' is 4.0 (float)"),
    ("bounds", "model", {"edit_meta": lambda m: m | {"k": float("nan")}},
     "model.meta.json: 'k' is NaN"),
    ("eval-set", "model", {"edit_meta": lambda m: m | {"hidden": -float("inf")}},
     "model.meta.json: 'hidden' is -infinity"),
    ("attack", "classifier", {"edit_meta": lambda m: m | {"hidden": True}},
     "classifier.meta.json: 'hidden' is true (bool)"),
    ("certify", "classifier", {"edit_meta": lambda m: m | {"hidden": [16.0]}},
     "classifier.meta.json: 'hidden' is [16.0] (list)"),
    ("attack", "classifier", {"edit_meta": lambda m: m | {"n_classes": "2"}},
     "classifier.meta.json: 'n_classes' is \"2\" (str)")])
def test_mismatched_or_unreadable_checkpoint_exits_3(pipeline, tmp_path, capsys, stage, stem,
                                                     edit, message):
    src = pipeline / ("cvae" if stem == "model" else "clf")
    bad = _copy_checkpoint(src, tmp_path / "bad", stem, **edit)
    cfg = _bad_input_cfg(pipeline, tmp_path / "out", stage)
    cfg["model" if stem == "model" else "classifier"] = bad
    code, err = run_cli([stage, "--config", write_cfg(tmp_path / "c.json", cfg)], capsys)
    assert code == 3, err
    assert message in err and bad in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_every_stage_feeds_matmul_float32(pipeline, tmp_path, monkeypatch):
    # float32 weights and float32 latents on every path: no operand reaching
    # a dense layer's matmul (inputs, weights, bias or cached projection) is
    # widened to float64
    widened = []
    dense = cli.nn.dense

    def checked(parts, w, b):
        for v in (*parts, w, b):
            if np.asarray(v).dtype != np.float32:
                widened.append(np.asarray(v).dtype)
        return dense(parts, w, b)

    monkeypatch.setattr(cli.nn, "dense", checked)
    train = {"out_dir": str(tmp_path / "cvae"), "seed": 1,
             "data": str(pipeline / "data" / "train"), "model": {"k": 4, "hidden": 16},
             "train": {"epochs": 1, "batch_size": 32,
                       "lr": {"epochs": [0, 1], "values": [0.002, 0.002]},
                       "beta": {"epochs": [0, 1], "values": [0.01, 0.01]}}}
    assert cli.main(["train-cvae", "--config", write_cfg(tmp_path / "t.json", train)]) == 0
    for mode, extra in (("adv", {"eps": 1.0, "attack_steps": 2}), ("augment", {"eps": 1.0}),
                        ("noise", {"sigma": 0.5})):
        cfg = _bad_input_cfg(pipeline, tmp_path / mode, "train-robust")
        cfg["train"] = {"mode": mode, "epochs": 1, **extra}
        assert cli.main(["train-robust", "--config", write_cfg(tmp_path / "r.json", cfg)]) == 0
    for stage in ("eval-set", "bounds", "attack", "certify"):
        cfg = _bad_input_cfg(pipeline, tmp_path / stage, stage)
        assert cli.main([stage, "--config", write_cfg(tmp_path / "c.json", cfg)]) == 0
    assert widened == []


# ---------------------------------------------------------------------------
# flag overrides, reproduce, script entry

def test_out_and_seed_flags_override(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "ignored"), "seed": 2, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "test"), "eps": 2.0, "steps": 2, "limit": 3}
    assert cli.main(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg),
                     "--out", str(tmp_path / "actual"), "--seed", "9"]) == 0
    assert not (tmp_path / "ignored").exists()
    written = json.load(open(tmp_path / "actual" / "config.json"))
    assert written["seed"] == 9


def test_reproduce_rts_without_mnist_exits_3(tmp_path, capsys):
    code, err = run_cli(["reproduce", "--profile", "rts", "--out", str(tmp_path / "r")],
                        capsys)
    assert code == 3
    assert "mnist" in err.lower()


def test_module_entry_point_subprocess(tmp_path):
    cfg = {"out_dir": str(tmp_path / "d"), "seed": 2,
           "source": {"kind": "synth-shapes", "n": 20, "size": 12},
           "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 5}}
    proc = subprocess.run([sys.executable, "-m", "pertsets.cli", "gen-data",
                           "--config", write_cfg(tmp_path / "g.json", cfg)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "manifest.json").exists()


def test_stage_reports_are_deterministic(pipeline, tmp_path):
    cfg = {"out_dir": str(tmp_path / "e1"), "seed": 4, "model": str(pipeline / "cvae"),
           "data": str(pipeline / "data" / "test"), "eps": 2.0, "steps": 3, "limit": 10}
    assert cli.main(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg)]) == 0
    assert cli.main(["eval-set", "--config", write_cfg(tmp_path / "e.json", cfg),
                     "--out", str(tmp_path / "e2")]) == 0
    csv1 = (tmp_path / "e1" / "eval.csv").read_bytes()
    csv2 = (tmp_path / "e2" / "eval.csv").read_bytes()
    assert csv1 == csv2

"""Correctness checks on the artifacts a workload writes.

Every stage output directory carries a manifest.json (the `reproduce`
directory carries report.json instead); a directory with any failed check
counts as one failed stage call.
"""

import csv
import hashlib
import json
import math
import os

# Non-finite floats appear in the JSON reports as these strings.
_NONFINITE = {"nan", "inf", "-inf"}

# theory.theorem2_bound is documented to return inf once delta * H leaves the
# float64 range (it does for every pair at these sizes); its finite log parts,
# ln_h and delta_per_pixel, are checked instead.
_MAY_OVERFLOW = {("bounds.jsonl", "theorem2_bound")}


def _finite_json(obj, where, fails):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_json(v, f"{where}.{k}", fails)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite_json(v, f"{where}[{i}]", fails)
    elif isinstance(obj, float) and not math.isfinite(obj):
        fails.append(f"{where}: non-finite {obj!r}")
    elif isinstance(obj, str) and obj in _NONFINITE:
        fails.append(f"{where}: non-finite {obj!r}")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _float(row, key, where, fails):
    try:
        v = float(row[key])
    except (KeyError, ValueError):
        fails.append(f"{where}: {key} missing or not a number")
        return None
    if not math.isfinite(v):
        fails.append(f"{where}: {key} non-finite {v!r}")
        return None
    return v


def _check_manifest(d, fails):
    with open(os.path.join(d, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    for name, want in manifest["files"].items():
        path = os.path.join(d, name)
        if not os.path.isfile(path):
            fails.append(f"manifest lists missing file {name}")
            continue
        with open(path, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != want:
                fails.append(f"manifest hash mismatch for {name}")


def _check_reports(d, fails):
    for name in ("summary.json", "history.json", "report.json"):
        path = os.path.join(d, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                _finite_json(json.load(f), name, fails)

    path = os.path.join(d, "eval.csv")
    if os.path.isfile(path):
        for i, row in enumerate(_read_csv(path)):
            vals = {k: _float(row, k, f"eval.csv row {i}", fails) for k in row if k != "pair"}
            if None not in vals.values() and vals["pgd_ae"] > vals["enc_ae"]:
                fails.append(f"eval.csv row {i}: pgd_ae {vals['pgd_ae']} > enc_ae {vals['enc_ae']}")

    path = os.path.join(d, "attack.csv")
    if os.path.isfile(path):
        with open(os.path.join(d, "summary.json"), encoding="utf-8") as f:
            s = json.load(f)
        if not s["robust_accuracy"] <= s["accuracy"]:
            fails.append(f"attack: robust_accuracy {s['robust_accuracy']} > accuracy {s['accuracy']}")

    path = os.path.join(d, "certify.csv")
    if os.path.isfile(path):
        for i, row in enumerate(_read_csv(path)):
            where = f"certify.csv row {i}"
            p_a = _float(row, "p_a", where, fails)
            radius = _float(row, "radius", where, fails)
            if p_a is None or radius is None:
                continue
            if not 0.0 <= p_a <= 1.0:
                fails.append(f"{where}: p_a {p_a} outside [0, 1]")
            if row["abstain"] == "1" and radius != 0.0:
                fails.append(f"{where}: abstains with radius {radius}")
            if row["abstain"] == "0" and not radius > 0.0:
                fails.append(f"{where}: certified with radius {radius}")

    path = os.path.join(d, "bounds.jsonl")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f):
                rec = json.loads(line)
                for k, v in rec.items():
                    if ("bounds.jsonl", k) not in _MAY_OVERFLOW:
                        _finite_json(v, f"bounds.jsonl row {i}.{k}", fails)
                if isinstance(rec["eps"], float) and isinstance(rec["r"], float) \
                        and not rec["eps"] >= rec["r"]:
                    fails.append(f"bounds.jsonl row {i}: eps {rec['eps']} < r {rec['r']}")


def _is_stage_dir(files) -> bool:
    # `reproduce` writes report.json into its out directory without a manifest
    return "manifest.json" in files or "report.json" in files


def check_outputs(root: str) -> dict:
    """Failed checks per stage output directory under `root`:
    {relative dir: [messages]} for directories with at least one failure."""
    failed = {}
    for d, _, files in sorted(os.walk(root)):
        if not _is_stage_dir(files):
            continue
        fails = []
        try:
            if "manifest.json" in files:
                _check_manifest(d, fails)
            _check_reports(d, fails)
        except (OSError, ValueError, KeyError, TypeError) as e:
            fails.append(f"unreadable report: {e!r}")
        if fails:
            failed[os.path.relpath(d, root)] = fails
    return failed


def tree_digest(root: str) -> str:
    """sha256 over every file under `root` in sorted relative-path order."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()

"""Benchmark workloads: the stage configs each one runs, and the work it pins.

A workload is a set-up phase and a timed chain, each a sequence of CLI
invocations. Every parameter that sets the amount of work (epochs,
batch_size, steps, attack_steps, n_expected, samples, n0, n, limit, and the
data sizes) is written into the stage configs here, so a changed library
default cannot shrink the measured work. `expected` lists that work per
stage call; the runner compares it with the configs the stages actually
receive, and the trace compares the counts derived from it with what the
layers did.

All paths are relative to the repository root, which is the working
directory while the benchmark runs, so configs and reports are byte-stable
across checkouts.
"""

import json
import math
import os

import numpy as np

# Seed used when --seed is not given.
DEFAULT_SEED = 0

# Work parameters read from each stage's config (dotted paths).
WORK_KEYS = {
    "gen-data": ("source.n", "split.test"),
    "train-cvae": ("train.epochs", "train.batch_size"),
    "eval-set": ("steps", "n_expected", "limit"),
    "bounds": ("samples", "limit"),
    "train-robust": ("train.mode", "train.epochs", "train.batch_size", "train.attack_steps"),
    "attack": ("attack.steps", "limit"),
    "certify": ("n0", "n", "limit"),
}


def _lookup(cfg, dotted):
    for key in dotted.split("."):
        if not isinstance(cfg, dict) or key not in cfg:
            return None
        cfg = cfg[key]
    return cfg


def work_of(stage: str, cfg: dict) -> tuple:
    """The work parameters a stage config sets; None where a key is missing."""
    return (stage,) + tuple(_lookup(cfg, k) for k in WORK_KEYS[stage])


def _stage_seeds(seed: int, tag: int, count: int = 8) -> list:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _read_eps(eval_dir: str) -> float:
    with open(os.path.join(eval_dir, "summary.json"), encoding="utf-8") as f:
        return float(json.load(f)["eps"])


class Workload:
    """Set-up and chain invocations for one workload.

    `setup(out)` and `chain(out, setup_dir)` are generators of argv lists for
    `pertsets.cli.main`; a stage config is written next to the outputs before
    its invocation is yielded. `expected` is the pinned work of one set-up
    plus one chain, as `work_of` tuples in call order.
    """

    name = ""
    setup_expected: list = []
    chain_expected: list = []
    # wrapped lookup sites that this workload's stages never reach
    silent_sites: frozenset = frozenset()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, out: str):
        return iter(())

    def chain(self, out: str, setup_dir: str):
        raise NotImplementedError

    @property
    def expected(self) -> list:
        return self.setup_expected + self.chain_expected

    def data_sizes(self) -> tuple:
        """(train pairs, test pairs) of the workload's pair set."""
        gen = next(w for w in self.expected if w[0] == "gen-data")
        return gen[1] - gen[2], gen[2]


def _invoke(out: str, stage: str, cfg: dict) -> list:
    os.makedirs(os.path.join(out, "configs"), exist_ok=True)
    path = os.path.join(out, "configs", f"{stage}-{os.path.basename(cfg['out_dir'])}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return [stage, "--config", path]


class Smoke(Workload):
    """`reproduce --profile smoke` exactly as shipped; the work below is the
    shipped profile's, pinned so a change to the profile shows as a mismatch."""

    name = "smoke"
    chain_expected = [
        ("gen-data", 2000, 400),
        ("train-cvae", 12, 128),
        ("eval-set", 50, 5, 400),
        ("bounds", 64, 100),
        ("train-robust", "adv", 6, 128, 7),
        ("train-robust", "augment", 6, 128, 7),
        ("train-robust", "clean", 6, 128, 7),
        ("train-robust", "noise", 6, 128, 7),
        ("attack", 50, 400),
        ("attack", 50, 400),
        ("attack", 50, 400),
        ("certify", 50, 2000, 60),
    ]
    silent_sites = frozenset({"cli.gen_linf_pairs"})

    def chain(self, out, setup_dir):
        yield ["reproduce", "--profile", "smoke", "--out", out, "--seed", str(self.seed)]


def _constant(value):
    return {"epochs": [0, 1], "values": [value, value]}


class FullWidth(Workload):
    """mnist-linf shape (28x28 shapes, linf eps 0.3, m = k = hidden = 784) at
    reduced counts; data generation is set-up.

    The generator trains one epoch at a constant lr and beta = 1: under the
    default schedules (lr and beta start at 0) it stays at its random
    initialization, where some per-dimension K of `bounds` exceed ~744 and
    theory.lemma3_interval fails (exp(-(K+1)) underflows to -0.0, outside
    lambert_w's lower-branch domain).
    """

    name = "full-width"
    setup_expected = [("gen-data", 448, 64)]
    chain_expected = [
        ("train-cvae", 1, 128),
        ("eval-set", 50, 5, 8),
        ("bounds", 64, 16),
        ("train-robust", "adv", 1, 128, 7),
        ("attack", 50, 32),
        ("certify", 100, 10_000, 1),
    ]
    silent_sites = frozenset({"cli.gen_rts_pairs", "robust.sample_truncated_ball",
                              "smoothing._train_step"})

    def setup(self, out):
        s = _stage_seeds(self.seed, 1)
        yield _invoke(out, "gen-data", {
            "out_dir": os.path.join(out, "data"), "seed": s[0],
            "source": {"kind": "synth-shapes", "n": 448, "size": 28},
            "pairs": {"kind": "linf", "eps": 0.3, "pairing": "centered"},
            "split": {"test": 64}})

    def chain(self, out, setup_dir):
        s = _stage_seeds(self.seed, 2)
        train, test = os.path.join(setup_dir, "data", "train"), os.path.join(setup_dir, "data", "test")
        cvae = os.path.join(out, "cvae")
        yield _invoke(out, "train-cvae", {
            "out_dir": cvae, "seed": s[0], "data": train,
            "model": {"k": 784, "hidden": 784},
            "train": {"epochs": 1, "batch_size": 128, "lr": _constant(0.001),
                      "beta": _constant(1.0)}})
        yield _invoke(out, "eval-set", {
            "out_dir": os.path.join(out, "eval"), "seed": s[1], "model": cvae, "data": test,
            "eps": {"select_from": train}, "steps": 50, "n_expected": 5, "limit": 8})
        yield _invoke(out, "bounds", {
            "out_dir": os.path.join(out, "bounds"), "seed": s[2], "model": cvae, "data": test,
            "alpha": 0.01, "samples": 64, "limit": 16})
        eps = _read_eps(os.path.join(out, "eval"))
        clf = os.path.join(out, "robust-adv")
        yield _invoke(out, "train-robust", {
            "out_dir": clf, "seed": s[3], "model": cvae, "data": train,
            "classifier": {"hidden": [200], "n_classes": 2},
            "train": {"mode": "adv", "epochs": 1, "batch_size": 128, "lr": 1e-3,
                      "eps": eps, "attack_steps": 7}})
        yield _invoke(out, "attack", {
            "out_dir": os.path.join(out, "attack"), "seed": 0, "model": cvae,
            "classifier": clf, "data": test, "attack": {"eps": eps, "steps": 50},
            "limit": 32})
        yield _invoke(out, "certify", {
            "out_dir": os.path.join(out, "certify"), "seed": s[4], "model": cvae,
            "classifier": clf, "data": test, "sigma": 1.0, "n0": 100, "n": 10_000,
            "alpha": 0.001, "limit": 1})


_SMOKE_LR = {"epochs": [0, 3, 12], "values": [0.0, 0.002, 0.0005]}
_SMOKE_BETA = {"epochs": [0, 3, 12], "values": [0.0, 0.001, 0.01]}


class ManyExamples(Workload):
    """Smoke-size generator (m=256, k=8, hidden=128) and a noise classifier
    trained in set-up; the chain runs the stages over hundreds of examples
    each, so per-example Python loops, per-call overhead and special
    functions dominate."""

    name = "many-examples"
    setup_expected = [
        ("gen-data", 2100, 500),
        ("train-cvae", 12, 128),
        ("train-robust", "noise", 6, 128, 7),
    ]
    chain_expected = [
        ("train-cvae", 1, 32),
        ("eval-set", 50, 5, 128),
        ("bounds", 64, 400),
        ("train-robust", "adv", 1, 128, 7),
        ("attack", 50, 400),
        ("certify", 32, 256, 500),
    ]
    silent_sites = frozenset({"cli.gen_rts_pairs", "robust.sample_truncated_ball"})

    def setup(self, out):
        s = _stage_seeds(self.seed, 3)
        train = os.path.join(out, "data", "train")
        cvae = os.path.join(out, "cvae")
        yield _invoke(out, "gen-data", {
            "out_dir": os.path.join(out, "data"), "seed": s[0],
            "source": {"kind": "synth-shapes", "n": 2100, "size": 16},
            "pairs": {"kind": "linf", "eps": 0.3, "pairing": "centered"},
            "split": {"test": 500}})
        yield _invoke(out, "train-cvae", {
            "out_dir": cvae, "seed": s[1], "data": train,
            "model": {"k": 8, "hidden": 128},
            "train": {"epochs": 12, "batch_size": 128, "lr": _SMOKE_LR, "beta": _SMOKE_BETA}})
        yield _invoke(out, "train-robust", {
            "out_dir": os.path.join(out, "robust-noise"), "seed": s[2], "model": cvae,
            "data": train, "classifier": {"hidden": [64], "n_classes": 2},
            "train": {"mode": "noise", "epochs": 6, "batch_size": 128, "lr": 1e-3,
                      "sigma": 0.7, "attack_steps": 7}})

    def chain(self, out, setup_dir):
        s = _stage_seeds(self.seed, 4)
        train, test = os.path.join(setup_dir, "data", "train"), os.path.join(setup_dir, "data", "test")
        cvae = os.path.join(setup_dir, "cvae")
        # small-batch training: one epoch of many cheap steps, where per-step
        # overhead dominates (its generator is not used further)
        yield _invoke(out, "train-cvae", {
            "out_dir": os.path.join(out, "cvae-small-batch"), "seed": s[4], "data": train,
            "model": {"k": 8, "hidden": 128},
            "train": {"epochs": 1, "batch_size": 32, "lr": _SMOKE_LR, "beta": _SMOKE_BETA}})
        yield _invoke(out, "eval-set", {
            "out_dir": os.path.join(out, "eval"), "seed": s[0], "model": cvae, "data": test,
            "eps": {"select_from": train}, "steps": 50, "n_expected": 5, "limit": 128})
        yield _invoke(out, "bounds", {
            "out_dir": os.path.join(out, "bounds"), "seed": s[1], "model": cvae, "data": test,
            "alpha": 0.01, "samples": 64, "limit": 400})
        eps = _read_eps(os.path.join(out, "eval"))
        clf = os.path.join(out, "robust-adv")
        yield _invoke(out, "train-robust", {
            "out_dir": clf, "seed": s[2], "model": cvae, "data": train,
            "classifier": {"hidden": [64], "n_classes": 2},
            "train": {"mode": "adv", "epochs": 1, "batch_size": 128, "lr": 1e-3,
                      "eps": eps, "attack_steps": 7}})
        yield _invoke(out, "attack", {
            "out_dir": os.path.join(out, "attack"), "seed": 0, "model": cvae,
            "classifier": clf, "data": test, "attack": {"eps": eps, "steps": 50},
            "limit": 400})
        yield _invoke(out, "certify", {
            "out_dir": os.path.join(out, "certify"), "seed": s[3], "model": cvae,
            "classifier": os.path.join(setup_dir, "robust-noise"), "data": test,
            "sigma": 0.7, "n0": 32, "n": 256, "alpha": 0.001, "limit": 500})


WORKLOADS = {w.name: w for w in (Smoke, FullWidth, ManyExamples)}


def stage_work(w: tuple, n_train: int, n_test: int) -> dict:
    """What one stage call with pinned work `w` does: the units of work behind
    each end-to-end throughput (`*_per_s`) and the layer counts the trace
    must see."""
    stage = w[0]
    if stage == "train-cvae":
        _, epochs, batch = w
        return {"cvae_train_pairs_per_s": n_train * epochs,
                "nn.adam_steps": epochs * math.ceil(n_train / batch)}
    if stage == "train-robust":
        _, mode, epochs, batch, _ = w
        out = {"nn.adam_steps": epochs * math.ceil(n_train / batch)}
        if mode == "adv":
            out["adv_train_examples_per_s"] = out["robust.pgd_rows"] = n_train * epochs
        return out
    if stage == "attack":
        n = min(w[2], n_test)
        return {"attack_examples_per_s": n, "robust.pgd_rows": n}
    if stage == "eval-set":
        return {"eval_pairs_per_s": min(w[3], n_test)}
    if stage == "certify":
        decodes = min(w[3], n_test) * (w[1] + w[2])
        return {"certify_decodes_per_s": decodes, "smoothing.decodes": decodes}
    if stage == "bounds":
        n = min(w[2], n_test)
        return {"bounds_pairs_per_s": n, "theory.estimate_calls": n}
    return {}


def expected_counts(wl: Workload) -> dict:
    """Layer work counts one set-up plus one chain must produce, derived from
    the pinned work alone."""
    n_train, n_test = wl.data_sizes()
    counts = dict.fromkeys(("nn.adam_steps", "robust.pgd_rows", "smoothing.decodes",
                            "theory.estimate_calls"), 0)
    for w in wl.expected:
        for name, units in stage_work(w, n_train, n_test).items():
            if name in counts:
                counts[name] += units
    return counts


def stage_throughputs(records, wl: Workload) -> dict:
    """End-to-end throughputs of one chain from its stage records
    (`work_of` tuple, seconds)."""
    n_train, n_test = wl.data_sizes()
    units, seconds = {}, {}
    for w, secs in records:
        for name, done in stage_work(w, n_train, n_test).items():
            if name.endswith("_per_s"):
                units[name] = units.get(name, 0) + done
                seconds[name] = seconds.get(name, 0.0) + secs
    return {name: units[name] / seconds[name] for name in units}

"""The traced benchmark in perfbench/ wraps package names from outside; this
checks that every operation it wraps still resolves, that every by-name
import it must also wrap is still there, and that each span counter reads
the rows a call was given."""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_op_and_required_site():
    tracer = spans.Tracer(spans.import_package())
    try:
        missing = [site for site in spans.REQUIRED_SITES if site not in tracer.sites]
        assert not missing
    finally:
        tracer.close()


def test_each_counted_span_records_the_rows_it_was_given():
    # the counters read rows from positional arguments (or the result), so
    # a signature shift would leave --trace 1 counting the wrong thing: one
    # tiny call of each counted op, through the names the tracer wraps
    mods = spans.import_package()
    cvae, robust = mods["cvae"], mods["robust"]
    rng = np.random.default_rng(0)
    model = cvae.CvaeModel(6, 2, 5, rng=rng)
    h = robust.Classifier(6, 2, (4,), rng=rng)
    x = rng.uniform(0, 1, (3, 6)).astype(np.float32)
    labels = np.array([0, 1, 0])
    cond, one_row = model.condition(x), model.condition(x[:1])
    u = np.zeros((3, 2), np.float32)
    calls = [
        ("nn.apply", lambda: model.decoder.apply(model.params, [u, x]), 3),
        ("cvae.encode_posterior", lambda: model.encode_posterior(x, x), 3),
        ("cvae.encode_prior", lambda: model.encode_prior(x), 3),
        ("cvae.decode", lambda: model.decode(u, cond), 3),
        ("cvae.decode_u", lambda: model.decode_u(u, cond), 3),
        ("cvae.ball", lambda: cvae.sample_truncated_ball(2, 1.0, 4, rng), 4),
        ("robust.pgd", lambda: robust.latent_pgd_attack(h, model, x, labels,
                                                        robust.AttackConfig(1.0, steps=2)), 3),
        ("smoothing.sample",
         lambda: mods["smoothing"].sample_under_noise(h, model, one_row, 5, 0.5, rng), 5),
        ("evalmetrics.evaluate", lambda: mods["evalmetrics"].evaluate_set(
            model, cvae.PairSet(x, x), 1.0, rng, steps=1, n_expected=1), 3),
    ]
    tracer = spans.Tracer(mods)
    try:
        for name, call, rows in calls:
            sid = len(tracer.spans)
            call()
            _, op, _, parent, _, _, outer, n, x_count = tracer.spans[sid]
            assert (".".join(tracer.ops[op]), parent, outer) == (name, -1, True)
            assert n == rows, name
            if name == "robust.pgd":
                assert x_count == rows * 2      # rows times attack steps
    finally:
        tracer.close()


def _upstream(tmp_path):
    """(train split, generator dir, the gen-data and train-cvae stage
    configs that make them): 40 train and 20 test pairs of 8x8 shapes."""
    data, cvae = str(tmp_path / "data"), str(tmp_path / "cvae")
    return os.path.join(data, "train"), cvae, [
        ("gen-data", {"out_dir": data, "seed": 7,
                      "source": {"kind": "synth-shapes", "n": 60, "size": 8},
                      "pairs": {"kind": "linf", "eps": 0.3}, "split": {"test": 20}}),
        ("train-cvae", {"out_dir": cvae, "seed": 1, "data": os.path.join(data, "train"),
                        "model": {"k": 3, "hidden": 16},
                        "train": {"epochs": 1, "batch_size": 16,
                                  "lr": {"epochs": [0, 1], "values": [0.002, 0.002]},
                                  "beta": {"epochs": [0, 1], "values": [0.01, 0.01]}}}),
    ]


def _run_traced(tmp_path, stages):
    """Run the stages through cli.main under a Tracer; returns it, closed."""
    mods = spans.import_package()
    tracer = spans.Tracer(mods)
    try:
        for stage, cfg in stages:
            path = tmp_path / f"{stage}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            assert mods["cli"].main([stage, "--config", str(path)]) == 0, stage
    finally:
        tracer.close()
    return tracer


def test_eval_set_stage_fires_the_sites_the_trace_requires(tmp_path):
    # a gen-data -> train-cvae -> eval-set chain through cli.main under the
    # tracer: an eval refactor that drops a by-name import the trace wraps,
    # or stops counting pairs, fails here and not only in a traced benchmark
    train, cvae, stages = _upstream(tmp_path)
    stages.append(
        ("eval-set", {"out_dir": str(tmp_path / "eval"), "seed": 2, "model": cvae,
                      "data": str(tmp_path / "data" / "test"), "eps": {"select_from": train},
                      "steps": 2, "n_expected": 2, "limit": 9}))
    tracer = _run_traced(tmp_path, stages)
    fired = tracer.fired_sites()
    for site in ("cli.evaluate_set", "cli.select_radius", "evalmetrics.sample_truncated_ball"):
        assert site in fired, site
    assert tracer.metrics({""})["evalmetrics.pairs"] == 9


def test_training_chain_counts_the_work_the_benchmark_pins(tmp_path):
    # a gen-data -> train-cvae -> train-robust (adv) chain through cli.main
    # under the tracer: the optimizer steps and attacked rows it counts are
    # what workloads.stage_work derives from the stage configs, so a changed
    # optimizer call pattern fails here and not only in a traced benchmark
    train, cvae, stages = _upstream(tmp_path)
    stages.append(
        ("train-robust", {"out_dir": str(tmp_path / "clf"), "seed": 3, "model": cvae,
                          "data": train, "classifier": {"hidden": [8], "n_classes": 2},
                          "train": {"mode": "adv", "epochs": 2, "batch_size": 16, "lr": 1e-3,
                                    "eps": 1.0, "attack_steps": 2}}))
    metrics = _run_traced(tmp_path, stages).metrics({""})
    work = [workloads.work_of(stage, cfg) for stage, cfg in stages]
    n_train, n_test = work[0][1] - work[0][2], work[0][2]
    want = {"nn.adam_steps": 0, "robust.pgd_rows": 0}
    for w in work:
        for name, units in workloads.stage_work(w, n_train, n_test).items():
            if name in want:
                want[name] += units
    assert want == {"nn.adam_steps": 3 + 2 * 3, "robust.pgd_rows": 2 * 40}
    assert {name: metrics[name] for name in want} == want


def test_bounds_and_certify_count_the_work_the_benchmark_pins(tmp_path):
    # a gen-data -> train-cvae -> train-robust (clean) -> bounds -> certify
    # chain through cli.main under the tracer: one estimate_R_K call per
    # pair, n0 + n decodes and one certify call per example, and the by-name
    # imports the trace wraps, so a block refactor that stacks decodes or
    # calls across examples fails here and not only in a traced benchmark
    train, cvae, stages = _upstream(tmp_path)
    test, clf = str(tmp_path / "data" / "test"), str(tmp_path / "clf")
    stages += [
        ("train-robust", {"out_dir": clf, "seed": 3, "model": cvae, "data": train,
                          "classifier": {"hidden": [8], "n_classes": 2},
                          "train": {"mode": "clean", "epochs": 1, "batch_size": 16,
                                    "lr": 1e-3}}),
        ("bounds", {"out_dir": str(tmp_path / "bounds"), "seed": 4, "model": cvae,
                    "data": test, "samples": 4, "limit": 9}),
        ("certify", {"out_dir": str(tmp_path / "certify"), "seed": 5, "model": cvae,
                     "classifier": clf, "data": test, "sigma": 0.5, "n0": 3, "n": 5,
                     "limit": 7}),
    ]
    tracer = _run_traced(tmp_path, stages)
    metrics = tracer.metrics({""})
    work = [workloads.work_of(stage, cfg) for stage, cfg in stages]
    n_train, n_test = work[0][1] - work[0][2], work[0][2]
    want = {"theory.estimate_calls": 0, "smoothing.decodes": 0}
    for w in work:
        for name, units in workloads.stage_work(w, n_train, n_test).items():
            if name in want:
                want[name] += units
    assert want == {"theory.estimate_calls": 9, "smoothing.decodes": 7 * (3 + 5)}
    assert {name: metrics[name] for name in want} == want
    assert metrics["smoothing.certify_calls"] == 7
    assert metrics["smoothing.sample_calls"] == 2 * 7
    fired = tracer.fired_sites()
    for site in ("smoothing.clopper_pearson_lower", "theory.chi_square_quantile"):
        assert site in fired, site

"""Benchmark runner for the pertsets pipeline.

    python3 perfbench/run.py --workload smoke --seed 0 --seconds 30 --trace 0

Runs one workload of BENCHMARK.json in this process through the package's
CLI entry point, from the repository root, against the sources in `src/`.
It sets the workload up several times (the median is `setup_s`), then runs
the timed chain repeatedly for `--seconds` and reports medians. With
`--trace 1` it instead runs the chain untraced and then with every
operation in `spans.OPS` wrapped, and reports the per-layer metrics.
Artifacts and the span file go to `.perfbench-out/`.

Every repeat's outputs are checked (see checks.py) and digested; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only when every check passed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_outputs, tree_digest
from machine import environment
from spans import REQUIRED_SITES, StageRecorder, Tracer, import_package
from workloads import DEFAULT_SEED, WORKLOADS, expected_counts, stage_throughputs, work_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench-out"

SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
MIN_REPEATS = 3         # timed chains per run, at least; more start until --seconds
MIN_TRACED = 2          # untraced and traced chains per traced run, at least
IMPORT_PROBES = 3

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                 "import pertsets.cli; print(time.perf_counter() - t)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _clear_caches(mods):
    # each CLI invocation is a fresh process, so memoized tables are rebuilt
    # on every run a user makes; clear them so every repeat pays that too
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class Runner:
    """Runs set-up and chain phases and keeps the correctness tally."""

    def __init__(self, mods, recorder, wl):
        self.mods, self.recorder, self.wl = mods, recorder, wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {"setup": [], "chain": []}
        self.setup_dir = os.path.join(OUT, wl.name, "setup")
        self.chain_dir = os.path.join(OUT, wl.name, "chain")

    def problem(self, msg, failed_calls=1):
        self.problems.append(msg)
        self.failed += failed_calls

    def setup(self):
        return self._phase("setup", self.setup_dir, self.wl.setup(self.setup_dir),
                           self.wl.setup_expected)

    def chain(self):
        return self._phase("chain", self.chain_dir,
                           self.wl.chain(self.chain_dir, self.setup_dir),
                           self.wl.chain_expected)

    def _phase(self, kind, out, invocations, expected):
        """Runs one phase; returns (seconds, [(work, stage seconds)])."""
        cli = self.mods["cli"]
        _clear_caches(self.mods)
        shutil.rmtree(out, ignore_errors=True)
        broken = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                for argv in invocations:
                    rc = cli.main(argv)
                    if rc != 0:
                        broken = f"{argv[0]} exited with {rc}"
                        break
            except Exception as e:   # a crashing stage is a failed call, not a crash here
                broken = f"raised {e!r}"
        seconds = time.perf_counter() - t0
        records = self.recorder.take()

        problems = [f"stage {stage} failed" for stage, _, _, ok in records if not ok]
        calls = len(records)
        if broken:
            problems.append(broken)
            calls += all(ok for *_, ok in records)
        work = [work_of(stage, cfg) for stage, cfg, _, _ in records]
        if not broken and work != expected:
            problems.append(f"stage work {work} differs from the pinned {expected}")
        for d, fails in check_outputs(out).items():
            problems.append(f"{d}: {'; '.join(fails[:3])}")
        self.attempted += calls
        self.failed += min(len(problems), calls)
        self.problems += [f"{kind}: {p}" for p in problems]
        self.digests[kind].append(tree_digest(out))
        return seconds, [(w, secs) for w, (_, _, secs, _) in zip(work, records)]

    def check_digests(self):
        for kind, digests in self.digests.items():
            differing = sum(d != digests[0] for d in digests)
            if differing:
                self.problem(f"{kind}: outputs differ between repeats "
                             f"({len(set(digests))} distinct digests)", differing)


def timed_run(runner, wl, seconds, import_s) -> dict:
    setup_s = [runner.setup()[0] for _ in range(SETUP_REPEATS)]
    walls, chain_tp = [], []
    deadline = time.perf_counter() + seconds
    while not runner.failed:
        secs, recs = runner.chain()
        walls.append(secs)
        chain_tp.append(stage_throughputs(recs, wl))
        if len(walls) >= MIN_REPEATS and time.perf_counter() > deadline:
            break
    if not walls:
        return {}
    samples = {"setup_s": setup_s, "wall_s": walls}
    for tp in chain_tp:
        for name, value in tp.items():
            samples.setdefault(name, []).append(value)
    print("samples " + json.dumps(samples))
    m = {name: statistics.median(v) for name, v in samples.items()}
    m["setup_s"] += import_s
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def traced_run(runner, wl, seconds, mods, env, seed) -> dict:
    start = time.perf_counter()
    runner.setup()
    untraced = []
    while not runner.failed and (len(untraced) < MIN_TRACED
                                 or time.perf_counter() - start < seconds / 2):
        untraced.append(runner.chain()[0])
    tracer = Tracer(mods)
    traced = []
    try:
        tracer.run = "setup"
        runner.setup()
        while not runner.failed and (len(traced) < MIN_TRACED
                                     or time.perf_counter() - start < seconds):
            tracer.run = f"chain-{len(traced)}"
            traced.append(runner.chain()[0])
    finally:
        tracer.close()
    if not untraced or not traced:
        return {}
    units = [tracer.metrics({"setup", f"chain-{i}"}) for i in range(len(traced))]
    m = {}
    for name in units[0]:
        values = [u[name] for u in units]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                runner.problem(f"trace: count {name} differs between repeats: {values}")
            m[name] = values[0]
        else:
            m[name] = statistics.median(values)
    for name, want in expected_counts(wl).items():
        if units[0][name] != want:
            runner.problem(f"trace: {name} is {units[0][name]}, the pinned work gives {want}")
    fired = tracer.fired_sites()
    for site in REQUIRED_SITES:
        if site not in tracer.sites:
            runner.problem(f"trace: no wrapper installed at {site}")
        elif site not in fired and site not in wl.silent_sites:
            runner.problem(f"trace: wrapper at {site} never fired")
    m["nn.sgemm_peak_gflops"] = env["sgemm_peak_gflops"]
    m["trace.wall_s"] = statistics.median(traced)
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.overhead_share"] = m["trace.overhead_s"] / m["trace.untraced_wall_s"]
    m["trace.spans"] = sum(1 for s in tracer.spans if s[0] in ("setup", "chain-0"))
    path = os.path.join(OUT, f"trace-{wl.name}-{seed}.jsonl")
    tracer.write(path)
    print(f"trace: {len(tracer.spans)} spans -> {path}; chains untraced "
          f"{[round(w, 3) for w in untraced]}, traced {[round(w, 3) for w in traced]}")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pertsets", "cli.py")):
        print(f"perfbench: no package sources at {src}/pertsets", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    import_s = _import_seconds()
    sys.path.insert(0, src)
    mods = import_package()
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(src + os.sep):
            print(f"perfbench: imported {mod.__name__} from {mod.__file__}, not {src}",
                  file=sys.stderr)
            return 2
    env = environment(src)
    print("env " + json.dumps(env, sort_keys=True))

    wl = WORKLOADS[args.workload](args.seed)
    shutil.rmtree(os.path.join(OUT, wl.name), ignore_errors=True)
    recorder = StageRecorder(mods)
    runner = Runner(mods, recorder, wl)
    try:
        if args.trace:
            values = traced_run(runner, wl, args.seconds, mods, env, args.seed)
        else:
            values = timed_run(runner, wl, args.seconds, import_s)
    finally:
        recorder.close()
    runner.check_digests()
    if not args.trace:
        values["stage_ok_share"] = (runner.attempted - runner.failed) / max(runner.attempted, 1)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        if entry["name"] not in values:
            runner.problem(f"metric {entry['name']} was not measured", 0)
            continue
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:32s} {values[entry['name']]!r:>24} {entry['unit']:8s} "
              f"({entry['better']} is better)")
    chain_digest = runner.digests["chain"][0] if runner.digests["chain"] else None
    print(f"digest {args.workload} seed {args.seed}: {chain_digest} "
          f"(blas_threads={env['blas_threads']})")
    for msg in runner.problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

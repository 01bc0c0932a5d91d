"""linlab benchmark: time to verdict on one workload, closed loop.

    python3 bench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; linlab is imported from its `src/`.
The run builds the workload's jobs (set-up), then runs passes over them,
one job after another, until another pass would overrun `--seconds`.
Every job's verdict is checked against the table in workloads.py. The
last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer ones, which come from traced
passes paired with untraced passes over the same jobs. Metric names and
units are read from BENCHMARK.json. A wrong verdict or a failed tracer
self-check exits 1; a checkout without linlab exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters
MIN_PASSES = 2  # untraced passes per run, however long a pass takes


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("audit", "adversary", "progress", "queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import linlab and build the first pass. Returns (workloads module,
    [first pass], seconds); the timed loop pops the pass off the list."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    workloads = importlib.import_module("workloads")
    first = [build_pass(workloads, workload, seed)]
    return workloads, first, perf_counter() - t0


def build_pass(workloads, workload: str, seed: int) -> list:
    """The jobs of one pass, each with freshly built inputs. Every pass
    of a run holds the same jobs: the seed fixes them."""
    jobs = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    return [(job, job.build()) for job in jobs]


class SetupSamples(list):
    """Set-up times: this process's, then fresh interpreters' (import
    time can only be measured once per process). The children run
    between passes, spread over the run, so that their median follows
    the machine's speed over the whole run rather than its first second."""

    def __init__(self, args, own: float):
        super().__init__([own])
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0"]

    def take(self, share: float) -> None:
        """Sample until `share` (0..1) of the children have run."""
        while len(self) < 1 + round((SETUP_SAMPLES - 1) * min(share, 1.0)):
            out = subprocess.run(self.cmd, capture_output=True, text=True,
                                 timeout=120, check=True)
            self.append(float(out.stdout.strip()))


class PassResult(NamedTuple):
    wall: float  # seconds for the whole pass
    verdicts: list
    times: list  # seconds per job
    configs: int  # configurations the progress checks report


class Runner:
    """Runs passes, checks verdicts, keeps job times."""

    def __init__(self):
        self.attempted = 0
        self.refused = 0
        self.failed = 0
        self.wrong: list = []

    def run_pass(self, prepared: list, tracer=None) -> PassResult:
        """Run the jobs in order, consuming `prepared`. A job's time is
        its call. The pass's wall time also covers reading each verdict
        and freeing the job's state, so that no job runs beside the
        leftovers of the one before (whose size would otherwise decide
        what the garbage collector costs the next job)."""
        verdicts, times, configs = [], [], 0
        t_pass = perf_counter()
        while prepared:
            job, arg = prepared.pop(0)
            t0 = perf_counter()
            try:
                raw = job.call(arg) if tracer is None else tracer.job(job.call, arg)
            except Exception as exc:  # a crash is a wrong verdict, not the end of the run
                raw = exc
            times.append(perf_counter() - t0)
            if isinstance(raw, Exception):
                verdict = {"raised": repr(raw)}
            else:
                verdict = job.verdict(raw)
                configs += job.configs(raw)
            del raw, arg
            verdicts.append(verdict)
            self.attempted += 1
            self.refused += job.refused
            if verdict != job.expect:
                self.failed += 1
                self.wrong.append(f"{job.label}: got {verdict}, want {job.expect}"
                                  f" ({job.source})")
        return PassResult(perf_counter() - t_pass, verdicts, times, configs)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_loop(args, workloads, pending: list, traced: bool, between=None):
    """Passes (or untraced/traced pairs of passes over the same jobs)
    until the next one would end after --seconds; at least MIN_PASSES
    passes, or one pair. Each pass gets freshly built scenarios, and
    nothing of a finished pass is kept but its numbers and verdicts.
    `between(share of --seconds used)` runs after each pass, untimed."""
    runner = Runner()
    results = []
    started = perf_counter()
    while True:
        prepared = pending.pop() if pending else build_pass(
            workloads, args.workload, args.seed)
        t0 = perf_counter()
        plain = runner.run_pass(prepared)
        if traced:
            again = build_pass(workloads, args.workload, args.seed)
            results.append((plain,) + _traced_pass(runner, again))
        else:
            results.append(plain)
        took = perf_counter() - t0
        if between is not None:
            between((perf_counter() - started) / args.seconds)
        if traced or len(results) >= MIN_PASSES:
            if perf_counter() - started + took > args.seconds:
                return runner, results


def _traced_pass(runner, prepared):
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        result = runner.run_pass(prepared, tracer)
    finally:
        restore()
    return result, tracer


def end_to_end(args) -> tuple:
    workloads, pending, own = setup(args.workload, args.seed)
    samples = SetupSamples(args, own)
    runner, passes = timed_loop(args, workloads, pending, traced=False,
                                between=samples.take)
    samples.take(1.0)
    # a job's time is its mean over the run's passes
    per_job = [statistics.fmean(times) for times in zip(*(p.times for p in passes))]
    metrics = {
        "wall_s": statistics.fmean(p.wall for p in passes),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_p50_ms": nearest_rank(per_job, 0.5) * 1000,
        "job_p90_ms": nearest_rank(per_job, 0.9) * 1000,
    }
    notes = [f"{len(passes)} passes of {len(per_job)} jobs,"
             f" {runner.refused} refused as expected"]
    return runner, metrics, notes


def per_layer(args) -> tuple:
    workloads, pending, _ = setup(args.workload, args.seed)
    problems = _fair_run_selfcheck(workloads)
    runner, pairs = timed_loop(args, workloads, pending, traced=True)
    rows = []
    for plain, traced, tracer in pairs:
        if traced.verdicts != plain.verdicts:
            problems.append("traced and untraced passes gave different verdicts")
        rows.append(_layer_metrics(tracer.summary(), tracer, traced.configs,
                                   traced.wall / plain.wall))
    problems += _repeat_selfcheck(workloads, args, pairs[0])
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["fail_ratio"] = runner.refused / runner.attempted
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    pairs[0][2].write(out / f"spans-{args.workload}.bin")
    runner.wrong += problems
    notes = [f"{len(pairs)} untraced/traced pairs, {runner.attempted} jobs;"
             f" spans of the first traced pass in {out.name}/spans-{args.workload}.bin"]
    return runner, metrics, notes


def _layer_metrics(s: dict, tracer, configs: int, overhead: float) -> dict:
    calls, self_s, total = s["calls"], s["self_s"], s["total_s"]
    m = {}
    for layer in ("model.apply_step", "model.enabled_steps", "protocols.transition",
                  "model.core_key", "valence.vkey", "valence.classify",
                  "valence.successor", "progress.check", "seqspec.op_history",
                  "checkers.is_linearizable", "checkers.strategy", "valence.tree",
                  "cli.main"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    for layer in ("valence.hbi", "valence.audit"):
        m[f"{layer}.self_s"] = self_s[layer]
    steps = calls["model.apply_step"]
    m["model.steps_per_s"] = steps / total["model.apply_step"] if steps else 0.0
    vkeys = calls["valence.vkey"]
    m["valence.vkey.repeat_ratio"] = tracer.vkey_repeats / vkeys if vkeys else 0.0
    m["valence.fair_runs"] = calls["valence.fair_completion"] + calls["valence.staged_probe"]
    m["valence.fair_steps"] = s["fair_steps"]
    classified = calls["valence.classify"]
    m["valence.classify.memo_ratio"] = (
        s["classify_memo_hits"] / classified if classified else 0.0)
    m["valence.successor.candidates"] = s["successor_candidates"]
    m["progress.configs_checked"] = configs
    m["progress.steps_per_config"] = s["check_steps"] / configs if configs else 0.0
    m["checkers.candidates"] = tracer.candidates
    m["trace_overhead_ratio"] = overhead
    return m


def _fair_run_selfcheck(workloads) -> list:
    """A fair_completion on naive-tos traces one apply_step per step."""
    valence = workloads.valence
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        s = valence.build_scenario("naive-tos")
        run = tracer.job(lambda arg: valence.fair_completion(s, s.initial()), None)
    finally:
        restore()
    steps = tracer.summary()["calls"]["model.apply_step"]
    if steps != len(run.history):
        return [f"tracer self-check: fair_completion on naive-tos traced {steps}"
                f" apply_step calls for a {len(run.history)}-step run"]
    return []


def _repeat_selfcheck(workloads, args, pair) -> list:
    """Trace the quickest job of the first pass again: same counts."""
    plain, _, tracer = pair
    quickest = min(range(len(plain.times)), key=plain.times.__getitem__)
    job, arg = build_pass(workloads, args.workload, args.seed)[quickest]
    # the traced pass ran each job under one root span, in order
    roots = [i for i, p in enumerate(tracer.parent) if p == -1]
    bounds = roots[1:] + [len(tracer.start)]
    first = tracer.summary(roots[quickest], bounds[quickest])["calls"]
    again = tr.Tracer()
    restore = tr.install(again)
    try:
        again.job(job.call, arg)
    finally:
        restore()
    if again.summary()["calls"] != first:
        return [f"tracer self-check: two traced runs of '{job.label}' gave"
                " different call counts"]
    return []


def _declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "linlab" / "__init__.py").is_file():
        print(f"error: no linlab package under {SRC}; run from a linlab checkout",
              file=sys.stderr)
        return 2
    if args.setup_sample:
        print(repr(setup(args.workload, args.seed)[2]))
        return 0
    units = _declared(args.trace)
    runner, metrics, notes = (per_layer if args.trace else end_to_end)(args)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} do not match"
              " BENCHMARK.json", file=sys.stderr)
        return 2
    for line in notes:
        print(f"# {args.workload}: {line}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for problem in runner.wrong:
        print(f"WRONG {problem}", file=sys.stderr)
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not runner.wrong else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check the tracer's call counts against cProfile on one job.

    python3 bench/crosscheck.py [--workload audit] [--job 0]

Runs the job once under the tracer, writes its spans and reads them
back from the file, then runs it again (fresh scenario, wrappers
removed) under cProfile, and compares the number of calls per traced
layer. Prints one line per layer; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter

import run
import tracer as tr


def _profile_counts(job, arg) -> Counter:
    prof = cProfile.Profile()
    prof.runcall(job.call, arg)
    stats = pstats.Stats(prof).stats
    counts = Counter()
    for layer, targets in tr.LAYERS.items():
        for module, attr in targets:
            owner, name = tr.resolve(module, attr)
            code = owner.__dict__[name].__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            counts[layer] += stats[key][1] if key in stats else 0
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="audit")
    p.add_argument("--job", type=int, default=0, help="index of the job in the pass")
    args = p.parse_args(argv)
    workloads, _, _ = run.setup(args.workload, 0)

    job, arg = run.build_pass(workloads, args.workload, 0)[args.job]
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        tracer.job(job.call, arg)
    finally:
        restore()
    out = run.HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"crosscheck-{args.workload}-{args.job}.bin"
    tracer.write(path)
    layers, layer_of, *_ = tr.read_spans(path)
    traced = Counter(layers[i] for i in layer_of)

    job, arg = run.build_pass(workloads, args.workload, 0)[args.job]
    profiled = _profile_counts(job, arg)

    print(f"{job.label}: calls per layer, tracer (from {path.name}) vs cProfile")
    bad = 0
    for layer in tr.LAYERS:
        same = traced[layer] == profiled[layer]
        bad += not same
        print(f"  {layer:28} {traced[layer]:>9} {profiled[layer]:>9}"
              f"{'' if same else '  MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

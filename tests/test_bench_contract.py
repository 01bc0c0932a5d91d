"""The benchmark's tracer and workloads against the package they drive.

bench/tracer.py wraps linlab functions and methods by name. A refactor
that renames or moves one of them breaks traced benchmark runs, so this
file installs the tracer (read from bench/, never edited), checks the
count that bench/run.py's self-check relies on, and checks that
uninstalling it puts every original back. It also binds every keyword
bench/workloads.py passes, so that a sweep cannot drop one unseen, and
runs one pass of each workload against the verdict table the benchmark
checks every job by, since some of its rows no other test asserts.
Because the tracer patches names, a traced function that some table
holds is called past the tracer; the strategy-check tests below count
what it sees, and no table in linlab may hold a traced function.
"""

import importlib.util
import inspect
import json
import random
import sys
from pathlib import Path

import pytest

import linlab
import linlab.checkers
import linlab.cli
import linlab.progress
import linlab.seqspec
from linlab import valence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """bench/<name>.py, read as a module of its own. It is registered
    while it runs, because a dataclass looks its module up."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load_tracer():
    return load_bench("tracer")


def bindings(tr) -> dict:
    """Every LAYERS target and every module-level name bound to one,
    by identity, so that a wrapper left behind shows up as a change."""
    out = {}
    for targets in tr.LAYERS.values():
        for module, attr in targets:
            owner, name = tr.resolve(module, attr)
            out[(module, attr)] = owner.__dict__[name]
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "linlab"]
    for mod in modules:
        for name, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", "").startswith("linlab"):
                out[(mod.__name__, name)] = value
    return out


def test_install_traces_one_apply_step_per_fair_step_and_restores():
    tr = load_tracer()
    before = bindings(tr)
    tracer = tr.Tracer()
    restore = tr.install(tracer)  # raises if some LAYERS target is gone
    try:
        assert bindings(tr) != before
        s = valence.build_scenario("naive-tos")
        run = tracer.job(lambda _: valence.fair_completion(s, s.initial()), None)
    finally:
        restore()
    assert run.history
    assert tracer.summary()["calls"]["model.apply_step"] == len(run.history)
    after = bindings(tr)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_keyword_the_workloads_pass_still_binds():
    built = linlab.build_protocol("abd-tos", 4)
    calls = [
        (valence.build_scenario, ("abd-tos",), {"n": 4}),
        (valence.Scenario, (built,), {"rotation": (1, 2, 0)}),
        (valence.completed_implies_univalent_audit, (None, 16, linlab.REG_SPEC),
         {"checker_mode": "write-strong", "max_triples": 1, "order": "completion-first"}),
        (linlab.checkers.brute_force_strategy_oracle, (None, linlab.TOS_SPEC),
         {"mode": "strong"}),
        (valence.build_hbi, (None,), {"rounds": 3}),
        (linlab.progress.check_1rlf, (None,), {"depth": 8}),
        (linlab.progress.check_nonblocking, (None,), {"depth": 8}),
        (linlab.cli.main, (["demo", "claim3"],), {}),
    ]
    for fn, args, kw in calls:
        inspect.signature(fn).bind(*args, **kw)  # raises TypeError if one is gone
    assert built.system.num_processes == 4


def traced(run):
    """run()'s result and the calls of each layer the tracer saw."""
    tr = load_tracer()
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        result = tracer.job(lambda _: run(), None)
    finally:
        restore()
    return result, tracer.summary()["calls"]


def test_the_tracer_sees_one_strategy_check_per_audit_triple():
    s = valence.build_scenario("naive-tos")
    triples, calls = traced(
        lambda: valence.completed_implies_univalent_audit(s, 14, linlab.TOS_SPEC)
    )
    assert len(triples) == calls["checkers.strategy"] == 1


def test_the_tracer_sees_the_strategy_check_of_explore(capsys):
    code, calls = traced(
        lambda: linlab.cli.main(["explore", "--protocol", "naive-tos", "--depth", "8"])
    )
    report = json.loads(capsys.readouterr().out)
    assert (code, report["triples"], calls["checkers.strategy"]) == (1, 1, 1)


def test_the_tracer_sees_one_tree_and_one_strategy_check_per_check(capsys):
    code, calls = traced(
        lambda: linlab.cli.main(["check", "--protocol", "naive-tos", "--mode", "sl", "--depth", "4"])
    )
    assert json.loads(capsys.readouterr().out)["result"] == "counterexample"
    assert (code, calls["valence.tree"], calls["checkers.strategy"]) == (1, 1, 1)


def test_no_linlab_table_holds_a_traced_function():
    tr = load_tracer()
    traced_fns = {}  # id -> the LAYERS target
    for targets in tr.LAYERS.values():
        for module, attr in targets:
            owner, name = tr.resolve(module, attr)
            traced_fns[id(owner.__dict__[name])] = f"{module}.{attr}"
    held = []
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "linlab"]:
        for name, value in vars(mod).items():
            stack, seen = [value], set()
            while stack:
                item = stack.pop()
                if id(item) in traced_fns and item is not value:
                    held.append((mod.__name__, name, traced_fns[id(item)]))
                if isinstance(item, (dict, list, tuple, set, frozenset)) and id(item) not in seen:
                    seen.add(id(item))
                    stack.extend(item.items() if isinstance(item, dict) else item)
    assert held == []


@pytest.mark.parametrize("workload", ["audit", "adversary", "progress", "queries"])
def test_one_pass_of_each_workload_gives_the_expected_verdicts(workload):
    # one pass as bench/run.py builds it for --seed 1
    workloads = load_bench("workloads")
    jobs = workloads.WORKLOADS[workload](random.Random(f"{workload}:1"))
    assert jobs
    got = [(job.label, job.verdict(job.call(job.build()))) for job in jobs]
    assert got == [(job.label, job.expect) for job in jobs]

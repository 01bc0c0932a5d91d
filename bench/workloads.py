"""The benchmark's four workloads and the verdict every job must return.

A workload is a list of jobs run one after another (one client, closed
loop). `build` is set-up: it assembles the job's scenario or argv and
is not timed. `call` is the timed part and returns the raw result.
`verdict` reduces that result to a small dict, which must equal the
hand-written `expect` of the row; `source` names the test or README
line that asserts it, or says where the row was measured instead.

linlab is looked up through module attributes at call time, so a traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import linlab
import linlab.cli

valence = linlab.valence
progress = linlab.progress
checkers = linlab.checkers
MEASURED = "no test asserts it; measured on commit 8c674da"


@dataclass(frozen=True)
class Job:
    label: str
    build: Callable[[], object]
    call: Callable[[object], object]
    verdict: Callable[[object], dict]
    expect: dict
    source: str
    configs: Callable[[object], int] = field(default=lambda raw: 0)

    @property
    def refused(self) -> bool:
        """The expected verdict is a refusal: exit 2, or an adversary
        that got stuck."""
        return self.expect.get("exit") == 2 or self.expect.get("stuck_round") is not None


def _scenario(name, **kw):
    return lambda: valence.build_scenario(name, **kw)


# --- audit ------------------------------------------------------------------------


def _audit(depth, spec, mode, **kw):
    def call(s):
        return valence.completed_implies_univalent_audit(
            s, depth, spec, checker_mode=mode, **kw)
    return call


def _audit_with_oracle(depth, spec, mode):
    audit = _audit(depth, spec, mode)

    def call(s):
        triples = audit(s)
        oracle = [checkers.brute_force_strategy_oracle(t.tree(), spec, mode=mode)
                  for t in triples]
        return triples, oracle
    return call


def _triples_verdict(triples) -> dict:
    return {
        "triples": len(triples),
        "completed": sorted({c.split("(")[0].split("#")[0]
                             for t in triples for c in t.completed}),
        "verdicts": sorted({type(t.verdict).__name__ for t in triples}),
    }


def _write_verdict(triples) -> dict:
    out = _triples_verdict(triples)
    out["write_completed"] = "WRITE" in out.pop("completed")
    return out


def _oracle_verdict(raw) -> dict:
    triples, oracle = raw
    out = _triples_verdict(triples)
    out["depths"] = sorted({t.depth for t in triples})
    out["oracle_strategies"] = sum(o is not None for o in oracle)
    return out


def audit_jobs() -> list:
    reg, tos = linlab.REG_SPEC, linlab.TOS_SPEC
    return [
        Job("abd-reg depth 16 completion-first write-strong max_triples=1",
            _scenario("abd-reg"),
            _audit(16, reg, "write-strong", max_triples=1, order="completion-first"),
            _write_verdict,
            {"triples": 1, "write_completed": True, "verdicts": ["Counterexample"]},
            "tests/test_acceptance.py::test_3_completed_write_blocks_write_strong_linearization"),
        Job("naive-tos depth 14 bfs strong + brute-force oracle",
            _scenario("naive-tos"),
            _audit_with_oracle(14, tos, "strong"),
            _oracle_verdict,
            {"triples": 1, "completed": ["SET"], "verdicts": ["Counterexample"],
             "depths": [2], "oracle_strategies": 0},
            "tests/test_valence.py::TestAudit::test_naive_tos_single_completed_bivalent_class"
            " and tests/test_acceptance.py::test_2_completed_set_blocks_strong_linearization"),
        Job("abd-tos depth 12 completion-first strong max_triples=1",
            _scenario("abd-tos"),
            _audit(12, tos, "strong", max_triples=1, order="completion-first"),
            _triples_verdict,
            {"triples": 1, "completed": ["SET"], "verdicts": ["Counterexample"]},
            "README.md 'For the shipped protocols the checker returns a counterexample"
            " there' (the SET label: " + MEASURED + ")"),
    ]


# --- adversary --------------------------------------------------------------------


def _hbi(s):
    return valence.build_hbi(s, rounds=3)


def _hbi_verdict(rep) -> dict:
    return {
        "rounds": rep.rounds_completed,
        "stuck_round": None if rep.stuck is None else rep.stuck.round,
        "completions": len(rep.completions),
    }


def adversary_jobs() -> list:
    done = {"rounds": 3, "stuck_round": None, "completions": 0}
    jobs = []
    for rot in itertools.permutations(range(3)):
        if rot == (0, 1, 2):
            expect, source = done, (
                "tests/test_acceptance.py::test_4_always_bivalent_rounds_on_quorum_tos")
        elif rot == (1, 2, 0):
            expect = {"rounds": 2, "stuck_round": 3, "completions": 0}
            source = MEASURED + " (a refused job; see bench/NOTES.md)"
        else:
            expect, source = done, MEASURED
        jobs.append(Job(f"abd-tos n=3 rounds=3 rotation={rot}",
                        _scenario("abd-tos", rotation=rot), _hbi, _hbi_verdict,
                        expect, source))
    jobs.append(Job("abd-tos n=4 rounds=3 default rotation",
                    _scenario("abd-tos", n=4), _hbi, _hbi_verdict, done, MEASURED))
    return jobs


# --- progress ---------------------------------------------------------------------


def _progress(s):
    return (progress.check_1rlf(s, depth=8), progress.check_nonblocking(s, depth=8))


def _progress_verdict(raw) -> dict:
    one, nb = raw
    return {
        "one_rlf": one.holds,
        "one_rlf_witness": one.witness is not None,
        "nonblocking": nb.holds,
        "nonblocking_witness": nb.witness is not None,
    }


def progress_jobs() -> list:
    fails_nb = {"one_rlf": True, "one_rlf_witness": False,
                "nonblocking": False, "nonblocking_witness": True}
    one_rlf = ("tests/test_progress.py::TestOneResilientLockFreedom::"
               "test_holds_on_every_shipped_protocol (depth 5; depth 8 " + MEASURED + ")")
    rows = [
        ("abd-reg", one_rlf + "; nonblocking on the same c=2 s=1 split as abd-tos: " + MEASURED),
        ("abd-tos", one_rlf + "; tests/test_progress.py::TestNonblocking::"
                    "test_quorum_protocol_fails_the_harsh_split"),
        ("trivial-ack", one_rlf + "; tests/test_progress.py::TestNonblocking::"
                        "test_trivial_ack_starves_and_the_witness_replays"),
    ]
    return [
        Job(f"{name} check_1rlf + check_nonblocking depth 8", _scenario(name),
            _progress, _progress_verdict, fails_nb, source,
            configs=lambda raw: raw[0].configs_checked + raw[1].configs_checked)
        for name, source in rows
    ]


# --- queries ----------------------------------------------------------------------

CHECK_DEPTHS = {"naive-tos": (4, 5, 6), "abd-tos": (3, 4), "abd-reg": (3, 4)}
MODES = ("lin", "sl", "wsl")
SIMULATED = ("naive-tos", "abd-tos", "abd-reg", "trivial-ack")
EXPLORE_DEPTHS = (8, 10, 12, 14)

_NAIVE_DEEPER = "; a deeper tree contains the depth-4 one"
# (command, protocol, mode, depth) -> (expected verdict, source); None matches any
QUERY_VERDICTS = [
    (("valence", "naive-tos", None, None),
     {"exit": 0, "tag": "bivalent", "certificates": ["0", "1"]},
     "tests/test_valence.py::TestClassifyValence::test_initial_configuration_is_bivalent"),
    (("valence", "abd-tos", None, None),
     {"exit": 0, "tag": "bivalent", "certificates": ["0", "1"]},
     "tests/test_cli.py::TestValence::test_bivalent_initial_exits_zero"),
    (("check", "naive-tos", "lin", None), {"exit": 1, "result": "violation"},
     "tests/test_cli.py::TestCheck::test_lin_flags_the_naive_anomaly" + _NAIVE_DEEPER),
    (("check", "naive-tos", "sl", None), {"exit": 1, "result": "counterexample"},
     "tests/test_cli.py::TestCheck::test_sl_counterexample_on_naive_tos" + _NAIVE_DEEPER),
    (("check", "naive-tos", "wsl", None), {"exit": 1, "result": "counterexample"},
     "tests/test_acceptance.py::test_8_checker_strength_ordering_on_tree_corpus"
     " (write-strong implies linearizable) with the lin violation above"),
    (("check", "abd-reg", "lin", 3), {"exit": 0, "result": "holds"},
     "tests/test_cli.py::TestCheck::test_lin_holds_on_quorum_register_shallow"),
    (("check", "abd-reg", None, 3), {"exit": 0, "result": "strategy"}, MEASURED),
    (("check", "abd-tos", "lin", 3), {"exit": 0, "result": "holds"}, MEASURED),
    (("check", "abd-tos", None, 3), {"exit": 0, "result": "strategy"}, MEASURED),
    (("check", "abd-reg", None, 4), {"exit": 2},
     "tests/test_cli.py::TestCheck::test_node_budget_overflow_is_a_limit_error"
     " (the tree is built before the mode matters)"),
    (("check", "abd-tos", None, 4), {"exit": 2}, MEASURED + " (same 600-node overflow)"),
    (("simulate", None, None, None), {"exit": 0, "header": True, "steps": True,
                                      "crashed_steps": 0},
     "tests/test_cli.py::TestSimulate::test_jsonl_header_then_steps; README.md"
     " 'simulate | run a fair schedule' (a crashed process takes no step)"),
    (("explore", "naive-tos", None, None),
     {"exit": 1, "triples": 1, "completed": ["SET#16"], "verdict": "counterexample"},
     "tests/test_cli.py::TestExplore::test_naive_tos_finds_the_triple (depth 8; the only"
     " class to depth 14 is at depth 2 per test_naive_tos_single_completed_bivalent_class)"),
    (("demo", "claim3", None, None), {"exit": 0, "pass": True},
     "tests/test_cli.py::TestDemo::test_fast_demo_tokens_pass"),
]


def _query_key(argv) -> tuple:
    if argv[0] == "demo":
        return ("demo", argv[1], None, None)
    opts = dict(zip(argv[1::2], argv[2::2]))
    depth = opts.get("--depth")
    return (argv[0], opts.get("--protocol"), opts.get("--mode"),
            None if depth is None else int(depth))


def expected_query(argv) -> tuple:
    key = _query_key(argv)
    for pattern, expect, source in QUERY_VERDICTS:
        if all(p is None or p == k for p, k in zip(pattern, key)):
            return expect, source
    raise LookupError(f"no expected verdict for {argv}")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = linlab.cli.main(argv)
    return argv, code, out.getvalue()


def _cli_verdict(raw) -> dict:
    argv, code, out = raw
    verdict = {"exit": code}
    if code == 2:
        return verdict
    command = argv[0]
    if command == "simulate":
        lines = [json.loads(line) for line in out.splitlines()]
        crash = lines[0].get("crash")
        verdict.update(
            header=lines[0].get("type") == "header",
            steps=len(lines) > 1 and all(r.get("type") == "step" for r in lines[1:]),
            crashed_steps=sum(r.get("process") == crash for r in lines[1:]),
        )
    elif command == "demo":
        verdict["pass"] = f"[{argv[1]}] PASS" in out
    else:
        report = json.loads(out)
        if command == "valence":
            verdict.update(tag=report["valence"]["tag"],
                           certificates=sorted(report["valence"]["certificates"]))
        elif command == "check":
            verdict["result"] = report["result"]
        elif command == "explore":
            first = report.get("first") or {}
            verdict.update(triples=report["triples"], completed=first.get("completed"),
                           verdict=first.get("verdict"))
    return verdict


def query_argvs(rng, sizes) -> list:
    """The requests of a pass: every template of the mix once, in an
    order and with free values (simulate seed and crash, explore depth)
    drawn from rng. Only valid inputs are drawn: a crash names a process
    that exists."""
    argvs = [["valence", "--protocol", p] for p in ("naive-tos", "abd-tos")]
    for proto, depths in CHECK_DEPTHS.items():
        for depth in depths:
            for mode in MODES:
                argvs.append(["check", "--protocol", proto, "--mode", mode,
                              "--depth", str(depth)])
    for proto in SIMULATED:
        seed = ["--seed", str(rng.randrange(1000))]
        argvs.append(["simulate", "--protocol", proto] + seed)
        argvs.append(["simulate", "--protocol", proto, "--crash",
                      str(rng.randrange(sizes[proto]))] + seed)
    argvs.append(["explore", "--protocol", "naive-tos", "--depth",
                  str(rng.choice(EXPLORE_DEPTHS))])
    argvs.append(["demo", "claim3"])
    rng.shuffle(argvs)
    return argvs


def query_jobs(rng) -> list:
    sizes = {p: linlab.build_protocol(p).system.num_processes for p in SIMULATED}
    jobs = []
    for argv in query_argvs(rng, sizes):
        expect, source = expected_query(argv)
        jobs.append(Job(" ".join(argv), lambda argv=argv: argv, _cli, _cli_verdict,
                        expect, source))
    return jobs


WORKLOADS = {
    "audit": lambda rng: audit_jobs(),
    "adversary": lambda rng: adversary_jobs(),
    "progress": lambda rng: progress_jobs(),
    "queries": query_jobs,
}

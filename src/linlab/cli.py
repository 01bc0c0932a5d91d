"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the checked property
holds (or the requested artifact was built), 1 when a violation or
counterexample was found (or a demo assertion failed), 2 on size limits
and configuration errors. Reports are JSON with sorted keys, so the
same invocation with the same seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .checkers import SizeLimitError, is_linearizable
from .model import PreconditionViolated, Step, apply_step, trace_records
from .progress import check_1rlf, check_nonblocking, default_split, implication_audit
from .protocols import PROTOCOLS
from .seqspec import REG_SPEC, TOS_SPEC
from .valence import (
    FAIR_BOUND,
    VALENCE_DEPTH,
    SuccessorNotFound,
    ValenceTag,
    staged_probe,
    bivalent_successor,
    build_hbi,
    build_scenario,
    classify_valence,
    completed_implies_univalent_audit,
    explore_history_tree,
    fair_completion,
)

_SPECS = {"tos": TOS_SPEC, "register": REG_SPEC}
_MODE_FOR_CHECKER = {"strong": "sl", "write-strong": "wsl", None: "lin"}


class ConfigError(Exception):
    pass


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _scenario(cfg):
    if cfg["protocol"] not in PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {cfg['protocol']!r}; known: {', '.join(sorted(PROTOCOLS))}"
        )
    try:
        return build_scenario(cfg["protocol"], cfg["n"], seed=cfg["seed"])
    except PreconditionViolated as exc:  # n out of the protocol's range
        raise ConfigError(f"bad n for {cfg['protocol']}: {exc}") from None


def _opt(cfg, name, default):
    """cfg[name], where a missing key and null both mean the default."""
    value = cfg.get(name)
    return default if value is None else value


def _spec_for(scenario):
    return _SPECS.get(scenario.built.spec_kind)


# --- subcommands --------------------------------------------------------------


def cmd_simulate(cfg) -> int:
    scenario = _scenario(cfg)
    crash = cfg["crash"]
    if crash is not None and not (isinstance(crash, int) and 0 <= crash < scenario.n):
        raise ConfigError(f"--crash {crash!r} names no process; n = {scenario.n}")
    init = scenario.initial()
    lines = [
        _json(
            {
                "type": "header",
                "protocol": cfg["protocol"],
                "n": scenario.n,
                "crash": cfg["crash"],
                "seed": cfg["seed"],
            }
        )
    ]
    schedule = cfg.get("schedule")
    if schedule is not None:
        history = _resolve_schedule(scenario, init, schedule)
    else:
        bound = _opt(cfg, "depth", FAIR_BOUND)
        run = fair_completion(scenario, init, crashed=cfg["crash"], bound=bound)
        history = run.history
    records = trace_records(init, history, scenario.system)
    for rec in records:
        rec["type"] = "step"
        lines.append(_json(rec))
    _emit("\n".join(lines), cfg["out"])
    return 0


def _resolve_schedule(scenario, init, schedule):
    """Replay a schedule given as [{process, message_uid}] records."""
    current = init
    history = []
    for i, entry in enumerate(schedule):
        p = entry.get("process")
        uid = entry.get("message_uid")
        if not isinstance(p, int) or not 0 <= p < scenario.n:
            raise ConfigError(f"schedule[{i}]: bad process {p!r}")
        received = None
        if uid is not None:
            match = [m for m in current.messages_for(p) if m.uid == uid]
            if not match:
                raise ConfigError(f"schedule[{i}]: no pending message with uid {uid}")
            received = match[0]
        step = Step(p, received)
        current = apply_step(current, step, scenario.system)
        history.append(step)
    return tuple(history)


def cmd_check(cfg) -> int:
    scenario = _scenario(cfg)
    mode = cfg["mode"] or _MODE_FOR_CHECKER[scenario.built.checker_mode]
    if mode not in ("lin", "sl", "wsl"):
        raise ConfigError(f"unknown check mode {mode!r}; expected lin, sl or wsl")
    spec = _spec_for(scenario)
    if spec is None:
        raise ConfigError(f"protocol {cfg['protocol']!r} has no sequential object to check")
    depth = _opt(cfg, "depth", 4)
    tree = explore_history_tree(scenario, depth, max_nodes=_opt(cfg, "max_nodes", 600))

    report = {"mode": mode, "depth": depth, "nodes": len(tree.nodes)}
    if mode == "lin":
        for nid in tree.bfs_order():
            node = tree.nodes[nid]
            if is_linearizable(node.history, spec) is None:
                report["result"] = "violation"
                report["node"] = nid
                report["history"] = node.history.to_json()
                _emit(_json(report), cfg["out"])
                return 1
        report["result"] = "holds"
        _emit(_json(report), cfg["out"])
        return 0

    from .checkers import strong_linearization_exists, write_strong_linearization_exists

    checker = strong_linearization_exists if mode == "sl" else write_strong_linearization_exists
    outcome = checker(tree, spec)
    report["result"] = outcome.__class__.__name__.lower()
    report["detail"] = outcome.to_json()
    _emit(_json(report), cfg["out"])
    return 0 if report["result"] == "strategy" else 1


def cmd_valence(cfg) -> int:
    scenario = _scenario(cfg)
    depth = _opt(cfg, "depth", VALENCE_DEPTH)
    verdict = classify_valence(scenario, scenario.initial(), depth)
    _emit(_json({"protocol": cfg["protocol"], "valence": verdict.to_json()}), cfg["out"])
    return 2 if verdict.tag is ValenceTag.UNKNOWN_AT_BOUND else 0


def cmd_explore(cfg) -> int:
    scenario = _scenario(cfg)
    spec = _spec_for(scenario)
    if spec is None:
        raise ConfigError(f"protocol {cfg['protocol']!r} has no sequential object to audit")
    depth = _opt(cfg, "depth", 10)
    mode = scenario.built.checker_mode or "strong"
    triples = completed_implies_univalent_audit(
        scenario,
        depth,
        spec,
        checker_mode=mode,
        max_triples=_opt(cfg, "max_triples", 1),
        order="completion-first",
    )
    report = {
        "protocol": cfg["protocol"],
        "depth": depth,
        "checker": mode,
        "triples": len(triples),
    }
    if triples:
        t = triples[0]
        report["first"] = {
            "depth": t.depth,
            "completed": list(t.completed),
            "base": t.base.to_json(),
            "branch0": t.branch0.to_json(),
            "branch1": t.branch1.to_json(),
            "verdict": t.verdict.__class__.__name__.lower(),
        }
    _emit(_json(report), cfg["out"])
    return 1 if triples else 0


def cmd_hbi(cfg) -> int:
    scenario = _scenario(cfg)
    rounds = _opt(cfg, "rounds", 3)
    depth = _opt(cfg, "depth", 6)
    report = build_hbi(scenario, rounds, search_depth=depth)
    _emit(_json(report.to_json()), cfg["out"])
    return 0 if report.stuck is None and report.rounds_completed >= rounds else 1


def cmd_progress(cfg) -> int:
    scenario = _scenario(cfg)
    depth = _opt(cfg, "depth", 6)
    one = check_1rlf(scenario, depth=depth)
    nb = check_nonblocking(scenario, depth=depth)
    split = default_split(scenario)
    report = {
        "protocol": cfg["protocol"],
        "one_rlf": one.to_json(),
        "nonblocking": nb.to_json(),
        "implication_applies": split.c >= 2,
        "implication_violated": bool(split.c >= 2 and nb.holds and not one.holds),
    }
    _emit(_json(report), cfg["out"])
    return 0 if one.holds and nb.holds else 1


# --- demos ---------------------------------------------------------------------


def _demo_init_bivalent(cfg, say) -> bool:
    name = cfg["protocol"]
    scenario = _scenario(cfg)
    tester = scenario.decision_process
    setter = next(p for p in scenario.built.clients if p != tester)
    one = staged_probe(scenario, scenario.initial(), hold=tester)
    zero = staged_probe(scenario, scenario.initial(), hold=setter)
    verdict = classify_valence(scenario, scenario.initial())
    ok = one.value == 1 and zero.value == 0 and verdict.is_bivalent
    say(f"update-first schedule on {name}: decision returned {one.value!r} (want 1)")
    say(f"query-first schedule on {name}: decision returned {zero.value!r} (want 0)")
    say(
        f"initial configuration: {verdict.tag.value}"
        f" with certificates for {sorted(verdict.certificates)}"
    )
    return ok


def _demo_claim2(cfg, say) -> bool:
    cfg = dict(cfg, protocol="naive-tos", n=None)
    scenario = _scenario(cfg)
    depth = _opt(cfg, "depth", 12)
    triples = completed_implies_univalent_audit(
        scenario, depth, TOS_SPEC, checker_mode="strong", max_triples=1,
        order="completion-first",
    )
    if not triples:
        say(f"no completed-yet-bivalent configuration found at depth {depth}")
        return False
    t = triples[0]
    say(f"bivalent configuration at depth {t.depth} with completed: {', '.join(t.completed)}")
    say(f"branch responses: {t.branch0.events[-1]} vs {t.branch1.events[-1]}")
    kind = t.verdict.__class__.__name__
    say(f"strong-linearizability check on the triple: {kind}")
    return kind == "Counterexample"


def _demo_claim3(cfg, say) -> bool:
    scenario = build_scenario("abd-tos")
    init = scenario.initial()
    ok = True
    for p in range(scenario.n):
        msgs = init.messages_for(p)
        e = Step(p, msgs[0] if msgs else None)
        res = bivalent_successor(scenario, init, e)
        if isinstance(res, SuccessorNotFound):
            say(f"abd-tos, forced step of process {p}: no bivalent successor (explored {res.explored})")
            ok = False
        else:
            say(
                f"abd-tos, forced step of process {p}: bivalent successor via "
                f"{len(res.detour)}-step detour, {res.new_completions} new completions"
            )
    scenario2 = build_scenario("naive-tos")
    e = Step(0, None)
    res = bivalent_successor(scenario2, scenario2.initial(), e)
    stuck = isinstance(res, SuccessorNotFound)
    say(
        "naive-tos, forced query step: "
        + (
            f"search exhausted after {res.explored} candidates, "
            f"{len(res.evidence)} opposite-valence flips across same-process steps"
            if stuck
            else "unexpectedly found a successor"
        )
    )
    if stuck:
        for ev in res.evidence:
            say(
                f"  flip at detour length {ev['detour_len']}: "
                f"{ev['valences'][0]} -> {ev['valences'][1]} across a step of "
                f"process {ev['bridge_process']}"
            )
    return ok and stuck and len(res.evidence) > 0


def _demo_hbi(cfg, say) -> bool:
    cfg = dict(cfg, protocol="abd-tos", n=None)
    scenario = _scenario(cfg)
    rounds = _opt(cfg, "rounds", 3)
    report = build_hbi(scenario, rounds)
    say(
        f"abd-tos adversary: {report.rounds_completed}/{rounds} rounds, "
        f"{len(report.history)} steps, {len(report.completions)} completed operations"
    )
    if report.stuck is not None:
        say(f"stuck in round {report.stuck.round} at slot {report.stuck.slot}")
    say("every scheduled process took a step each round; all traversed states bivalent")
    return (
        report.stuck is None
        and report.rounds_completed >= rounds
        and not report.completions
    )


def _demo_subclaim_wsl(cfg, say) -> bool:
    cfg = dict(cfg, protocol="abd-reg", n=None)
    scenario = _scenario(cfg)
    depth = _opt(cfg, "depth", 16)
    triples = completed_implies_univalent_audit(
        scenario, depth, REG_SPEC, checker_mode="write-strong", max_triples=1,
        order="completion-first",
    )
    if not triples:
        say(f"no completed-write bivalent configuration found at depth {depth}")
        return False
    t = triples[0]
    writes = [c for c in t.completed if c.startswith("WRITE")]
    say(f"bivalent configuration at depth {t.depth} with completed: {', '.join(t.completed)}")
    say(f"read outcomes across branches: {t.branch0.events[-1]} vs {t.branch1.events[-1]}")
    kind = t.verdict.__class__.__name__
    say(f"write-strong check on the triple: {kind}")
    return bool(writes) and kind == "Counterexample"


def _demo_appendix(cfg, say) -> bool:
    rows = implication_audit()
    for row in rows:
        say(
            f"{row['protocol']:<12} 1-resilient-lock-free={row['one_rlf']} "
            f"nonblocking={row['nonblocking']}"
        )
    ta = next(r for r in rows if r["protocol"] == "trivial-ack")
    separation = ta["one_rlf"] and not ta["nonblocking"]
    clean = not any(r["implication_violated"] for r in rows)
    say(
        "trivial-ack separates the two conditions"
        if separation
        else "expected separation on trivial-ack is missing"
    )
    say("no protocol violates nonblocking => 1-resilient lock-freedom" if clean else
        "implication violated somewhere")
    return separation and clean


_DEMOS = {
    "init-bivalent": _demo_init_bivalent,
    "claim2": _demo_claim2,
    "claim3": _demo_claim3,
    "hbi": _demo_hbi,
    "subclaim-wsl": _demo_subclaim_wsl,
    "appendix": _demo_appendix,
}


def cmd_demo(cfg) -> int:
    token = cfg["claim"]
    if token not in _DEMOS:
        raise ConfigError(f"unknown demo {token!r}; known: {', '.join(sorted(_DEMOS))}")
    lines: list = []
    ok = _DEMOS[token](cfg, lines.append)
    lines.append(f"[{token}] {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines), cfg["out"])
    return 0 if ok else 1


# --- argument plumbing ----------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linlab",
        description="simulate message-passing protocols and audit their "
        "linearizability, valence and progress properties",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--protocol", default="naive-tos")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--rounds", type=int, default=None)
        sp.add_argument("--crash", type=int, default=None)
        sp.add_argument("--mode", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None, help="JSON config; overrides flags")

    for name in ("simulate", "check", "valence", "explore", "hbi", "progress"):
        common(sub.add_parser(name))
    demo = sub.add_parser("demo")
    demo.add_argument("claim", choices=sorted(_DEMOS))
    common(demo)
    return p


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "valence": cmd_valence,
    "explore": cmd_explore,
    "hbi": cmd_hbi,
    "progress": cmd_progress,
    "demo": cmd_demo,
}

_CONFIG_KEYS = {
    "protocol", "n", "depth", "rounds", "crash", "mode", "seed", "out",
    "schedule", "max_nodes", "max_triples", "claim",
}


def _load_config(cfg: dict) -> dict:
    path = cfg.pop("config", None)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg.update(overrides)  # config file wins over flags
    return cfg


_INT_KEYS = ("n", "depth", "rounds", "crash", "seed", "max_nodes", "max_triples")


def _check_ints(cfg: dict) -> None:
    """Integers from a config file arrive unchecked, and a negative depth
    or round count would otherwise run a search that vacuously holds."""
    for name in _INT_KEYS:
        value = cfg.get(name)
        if value is not None and type(value) is not int:
            raise ConfigError(f"{name} must be an integer, not {value!r}")
    for name in ("depth", "rounds"):
        if cfg.get(name) is not None and cfg[name] < 0:
            raise ConfigError(f"{name} must not be negative, not {cfg[name]}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = vars(args)
    command = cfg.pop("command")
    try:
        cfg = _load_config(cfg)
        _check_ints(cfg)
        if command != "simulate" and cfg.get("crash") is not None:
            raise ConfigError(f"crash applies only to simulate, not to {command}")
        return _COMMANDS[command](cfg)
    except (ConfigError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the checked property
holds (or the requested artifact was built), 1 when a violation or
counterexample was found (or a demo assertion failed), 2 on size limits,
configuration errors and unmet preconditions. Reports are JSON with
sorted keys, so the same invocation with the same seed produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .checkers import (
    SizeLimitError,
    is_linearizable,
    strong_linearization_exists,
    write_strong_linearization_exists,
)
from .model import PreconditionViolated, Step, apply_step, trace_records
from .progress import check_1rlf, check_nonblocking, implication, implication_audit
from .protocols import PROTOCOLS
from .valence import (
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

_MODE_FOR_CHECKER = {"strong": "sl", "write-strong": "wsl", None: "lin"}


class ConfigError(Exception):
    pass


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _scenario(cfg):
    if cfg["protocol"] not in PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {cfg['protocol']!r}; known: {', '.join(sorted(PROTOCOLS))}"
        )
    try:
        return build_scenario(cfg["protocol"], cfg["n"])
    except PreconditionViolated as exc:  # n out of the protocol's range
        raise ConfigError(f"bad n for {cfg['protocol']}: {exc}") from None


def _deciding_scenario(cfg):
    """_scenario for a command that classifies valence, refused before
    any search when the protocol has no decision operation."""
    scenario = _scenario(cfg)
    if scenario.decision_process is None:
        raise ConfigError(f"protocol {cfg['protocol']!r} has no decision operation to classify")
    return scenario


def _seed_rotation(scenario, seed: Optional[int]) -> None:
    """--seed gives hbi the rotation range(n) shuffled by random.Random(seed)."""
    if seed is not None:
        order = list(range(scenario.n))
        random.Random(seed).shuffle(order)
        scenario.rotation = tuple(order)


# --- subcommands --------------------------------------------------------------
# Each returns (report text, exit code); main writes the text.


def cmd_simulate(cfg) -> tuple:
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
    schedule = cfg["schedule"]
    if schedule is not None:
        if cfg["depth"] is not None:
            raise ConfigError("depth bounds the fair schedule; it does not apply beside schedule")
        history = _resolve_schedule(scenario, init, schedule, crash)
    else:
        history = fair_completion(scenario, init, crashed=crash, bound=cfg["depth"]).history
    records = trace_records(init, history, scenario.system)
    for rec in records:
        rec["type"] = "step"
        lines.append(_json(rec))
    return "\n".join(lines), 0


def _resolve_schedule(scenario, init, schedule, crashed):
    """Replay a schedule given as [{process, message_uid}] records, in
    which the crashed process, if any, takes no step."""
    if not isinstance(schedule, list) or not all(isinstance(e, dict) for e in schedule):
        raise ConfigError("schedule must be a list of {process, message_uid} objects")
    current = init
    history = []
    for i, entry in enumerate(schedule):
        unknown = sorted(set(entry) - {"process", "message_uid"})
        if unknown:
            raise ConfigError(f"schedule[{i}]: unknown key {unknown[0]!r}")
        p = entry.get("process")
        uid = entry.get("message_uid")
        if type(p) is not int or not 0 <= p < scenario.n:
            raise ConfigError(f"schedule[{i}]: bad process {p!r}")
        if p == crashed:
            raise ConfigError(f"schedule[{i}]: process {p} is crashed")
        if uid is not None and type(uid) is not int:
            raise ConfigError(f"schedule[{i}]: bad message_uid {uid!r}")
        received = None
        if uid is not None:
            match = [m for m in current.inbox[p] if m.uid == uid]
            if not match:
                raise ConfigError(f"schedule[{i}]: no pending message with uid {uid}")
            received = match[0]
        step = Step(p, received)
        current = apply_step(current, step, scenario.system)
        history.append(step)
    return tuple(history)


def cmd_check(cfg) -> tuple:
    scenario = _scenario(cfg)
    spec = scenario.built.spec
    mode = cfg["mode"] or _MODE_FOR_CHECKER[spec and spec.checker]
    if mode not in ("lin", "sl", "wsl"):
        raise ConfigError(f"unknown check mode {mode!r}; expected lin, sl or wsl")
    if spec is None:
        raise ConfigError(f"protocol {cfg['protocol']!r} has no sequential object to check")
    tree = explore_history_tree(scenario, cfg["depth"], max_nodes=cfg["max_nodes"])

    report = {"mode": mode, "depth": cfg["depth"], "nodes": len(tree.nodes)}
    if mode == "lin":
        judged = set()  # ids of the history objects judged so far
        for nid in tree.bfs_order():
            node = tree.nodes[nid]
            if id(node.history) in judged:
                continue  # judged at an earlier node in BFS order
            judged.add(id(node.history))
            if is_linearizable(node.history, spec) is None:
                report["result"] = "violation"
                report["node"] = nid
                report["history"] = node.history.to_json()
                return _json(report), 1
        report["result"] = "holds"
        return _json(report), 0

    checker = strong_linearization_exists if mode == "sl" else write_strong_linearization_exists
    outcome = checker(tree, spec)
    report["result"] = outcome.__class__.__name__.lower()
    report["detail"] = outcome.to_json()
    return _json(report), 0 if report["result"] == "strategy" else 1


def cmd_valence(cfg) -> tuple:
    scenario = _deciding_scenario(cfg)
    verdict = classify_valence(scenario, scenario.initial(), cfg["depth"])
    report = _json({"protocol": cfg["protocol"], "valence": verdict.to_json()})
    return report, 2 if verdict.tag is ValenceTag.UNKNOWN_AT_BOUND else 0


def _audit(scenario, depth: int, max_triples: int) -> list:
    """The completed-yet-bivalent audit, completion-first, under the
    checker of the protocol's own sequential object."""
    spec = scenario.built.spec
    return completed_implies_univalent_audit(
        scenario, depth, spec, checker_mode=spec.checker, max_triples=max_triples,
        order="completion-first",
    )


def cmd_explore(cfg) -> tuple:
    scenario = _scenario(cfg)
    spec = scenario.built.spec
    if spec is None:
        raise ConfigError(f"protocol {cfg['protocol']!r} has no sequential object to audit")
    triples = _audit(scenario, cfg["depth"], cfg["max_triples"])
    report = {
        "protocol": cfg["protocol"],
        "depth": cfg["depth"],
        "checker": spec.checker,
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
    return _json(report), 1 if triples else 0


def cmd_hbi(cfg) -> tuple:
    scenario = _deciding_scenario(cfg)
    _seed_rotation(scenario, cfg["seed"])
    report = build_hbi(scenario, cfg["rounds"], search_depth=cfg["depth"])
    code = 0 if report.stuck is None and report.rounds_completed >= cfg["rounds"] else 1
    return _json(report.to_json()), code


def cmd_progress(cfg) -> tuple:
    scenario = _scenario(cfg)
    one = check_1rlf(scenario, depth=cfg["depth"])
    nb = check_nonblocking(scenario, depth=cfg["depth"])
    report = {
        "protocol": cfg["protocol"],
        "one_rlf": one.to_json(),
        "nonblocking": nb.to_json(),
        **implication(scenario, one, nb),
    }
    return _json(report), 0 if one.holds and nb.holds else 1


# --- demos ---------------------------------------------------------------------


def _demo_init_bivalent(cfg, say) -> bool:
    name = cfg["protocol"]
    scenario = _deciding_scenario(cfg)
    tester = scenario.decision_process
    if scenario.system.driver.decision_op != "TEST":
        # under another driver the probes' orders do not fix the decision:
        # the 2W1R read waits for the write of 1, and the last writer wins
        raise ConfigError(
            f"protocol {name!r} is not a test/set object; its update-first and"
            " query-first probes fix no decision"
        )
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


def _demo_audit(cfg, say, protocol, missing, outcomes, check, completes="") -> bool:
    """Passes when the protocol's first completed-yet-bivalent triple is
    refuted by its object's checker and completed an operation whose
    name starts with `completes`; missing, outcomes and check word it."""
    triples = _audit(build_scenario(protocol), cfg["depth"], max_triples=1)
    if not triples:
        say(f"no {missing} configuration found at depth {cfg['depth']}")
        return False
    t = triples[0]
    say(f"bivalent configuration at depth {t.depth} with completed: {', '.join(t.completed)}")
    say(f"{outcomes}: {t.branch0.events[-1]} vs {t.branch1.events[-1]}")
    kind = t.verdict.__class__.__name__
    say(f"{check} check on the triple: {kind}")
    return any(c.startswith(completes) for c in t.completed) and kind == "Counterexample"


def _demo_claim2(cfg, say) -> bool:
    return _demo_audit(cfg, say, "naive-tos", "completed-yet-bivalent",
                       "branch responses", "strong-linearizability")


def _demo_claim3(cfg, say) -> bool:
    scenario = build_scenario("abd-tos")
    init = scenario.initial()
    ok = True
    for p in range(scenario.n):
        msgs = init.inbox[p]
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
    scenario = build_scenario("abd-tos")
    _seed_rotation(scenario, cfg["seed"])
    rounds = cfg["rounds"]
    if rounds < 1:  # no round would schedule anything, yet the demo would pass
        raise ConfigError(f"demo hbi needs rounds of at least 1, not {rounds}")
    report = build_hbi(scenario, rounds)
    say(
        f"abd-tos adversary: {report.rounds_completed}/{rounds} rounds, "
        f"{len(report.history)} steps, {len(report.completions)} completed operations"
    )
    if report.stuck is not None:
        say(f"stuck in round {report.stuck.round} at slot {report.stuck.slot}")
    else:
        say("every scheduled process took a step each round; all traversed states bivalent")
    return (
        report.stuck is None
        and report.rounds_completed >= rounds
        and not report.completions
    )


def _demo_subclaim_wsl(cfg, say) -> bool:
    return _demo_audit(cfg, say, "abd-reg", "completed-write bivalent",
                       "read outcomes across branches", "write-strong", completes="WRITE")


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


def cmd_demo(cfg) -> tuple:
    token = cfg["claim"]
    lines: list = []
    ok = _DEMOS[token](cfg, lines.append)
    lines.append(f"[{token}] {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), 0 if ok else 1


# --- argument plumbing ----------------------------------------------------------


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "valence": cmd_valence,
    "explore": cmd_explore,
    "hbi": cmd_hbi,
    "progress": cmd_progress,
    "demo": cmd_demo,
}

# The settings each command, and each demo token, reads, with the value
# a missing or null one takes. Any other setting given to it, by flag or
# config file, is a configuration error. A null default leaves the value
# to the command: the protocol's own n and checker mode, the valence
# module's FAIR_BOUND and VALENCE_DEPTH, no crash, seed or schedule.
_READS = {
    "simulate": {"protocol": "naive-tos", "n": None, "depth": None, "crash": None,
                 "seed": None, "schedule": None},
    "check": {"protocol": "naive-tos", "n": None, "depth": 4, "mode": None, "max_nodes": 600},
    "valence": {"protocol": "naive-tos", "n": None, "depth": None},
    "explore": {"protocol": "naive-tos", "n": None, "depth": 10, "max_triples": 1},
    "hbi": {"protocol": "naive-tos", "n": None, "depth": 6, "rounds": 3, "seed": None},
    "progress": {"protocol": "naive-tos", "n": None, "depth": 6},
    "demo init-bivalent": {"protocol": "naive-tos", "n": None},
    "demo claim2": {"depth": 12},
    "demo claim3": {},
    "demo hbi": {"rounds": 3, "seed": None},
    "demo subclaim-wsl": {"depth": 16},
    "demo appendix": {},
}

_SHARED = ("out", "claim")  # every command reads out; claim names the demo
_CONFIG_KEYS = {key for reads in _READS.values() for key in reads}.union(_SHARED)
_INT_KEYS = ("n", "depth", "rounds", "crash", "seed", "max_nodes", "max_triples")

_PARSER = argparse.ArgumentParser(
    prog="linlab",
    description="simulate message-passing protocols and audit their "
    "linearizability, valence and progress properties",
)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("claim", nargs="?", choices=sorted(_DEMOS), help="demo token")
for _name in ("protocol", "n", "depth", "rounds", "crash", "mode", "seed", "out"):
    _PARSER.add_argument(f"--{_name}", type=int if _name in _INT_KEYS else None)
_PARSER.add_argument("--config", help="JSON config; overrides flags")


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
    cfg.update((k, v) for k, v in overrides.items() if v is not None)  # wins over flags
    return cfg


def _check_types(cfg: dict) -> None:
    """Values from a config file arrive unchecked. A negative depth or
    round count would run a search that vacuously holds, a budget below
    1 would stop a search before it looked at anything, and an integer
    out would name a file descriptor."""
    for name in _INT_KEYS:
        value = cfg.get(name)
        if value is not None and type(value) is not int:
            raise ConfigError(f"{name} must be an integer, not {value!r}")
    for name in ("protocol", "mode", "out"):
        value = cfg.get(name)
        if value is not None and type(value) is not str:
            raise ConfigError(f"{name} must be a string, not {value!r}")
    for name in ("depth", "rounds"):
        if cfg.get(name) is not None and cfg[name] < 0:
            raise ConfigError(f"{name} must not be negative, not {cfg[name]}")
    for name in ("max_nodes", "max_triples"):
        if cfg.get(name) is not None and cfg[name] < 1:
            raise ConfigError(f"{name} must be at least 1, not {cfg[name]}")


def _refuse_unread(name: str, cfg: dict) -> None:
    """A setting the command does not read would yield a verdict about
    something else than what was asked, so it is refused."""
    if name not in _READS:
        raise ConfigError(f"unknown command {name!r}; known: {', '.join(_READS)}")
    for key, value in cfg.items():
        if value is not None and key not in _READS[name] and key not in _SHARED:
            owners = ", ".join(owner for owner, reads in _READS.items() if key in reads)
            raise ConfigError(f"{key} applies only to {owners}, not to {name}")


def main(argv=None) -> int:
    cfg = vars(_PARSER.parse_args(argv))
    command = cfg.pop("command")
    try:
        cfg = _load_config(cfg)
        _check_types(cfg)
        name = command if cfg["claim"] is None else f"{command} {cfg['claim']}"
        _refuse_unread(name, cfg)
        for key, default in _READS[name].items():
            if cfg.get(key) is None:
                cfg[key] = default
        out = cfg["out"]
        if out is not None:  # refused before the search runs, not after
            try:
                open(out, "a").close()  # creates the file but truncates none
            except OSError as exc:
                raise ConfigError(f"cannot open out {out}: {exc.strerror}") from None
        text, code = _COMMANDS[command](cfg)
    except (ConfigError, SizeLimitError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

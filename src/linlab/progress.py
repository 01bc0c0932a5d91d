"""Progress-condition audits: lock-freedom under one crash, nonblocking
under structured crash sets, and the implication between them.

Both properties quantify over reachable configurations and crash
choices, then demand that a fair schedule of the surviving processes
completes some pending operation of a survivor. Crashing is modeled as
never scheduling a process again, so every configuration reachable with
crashed processes is also reachable fully live and a single live sweep
covers the whole quantification.

The two properties differ only in which crash sets the adversary may
pick. One-resilient lock-freedom allows any single crash. Nonblocking,
with c clients and s servers, allows any set under which a client
survives and at most c - 1 servers crash, so at least
max(0, s - (c - 1)) servers stay alive; when that floor is zero the
adversary may take every server, which the verdict flags, since it
usually signals a degenerate split rather than an interesting
guarantee.

No stall needs a fair run from every class. Apart from steps that
change nothing, no step can be undone: a send raises a channel count, a
receipt shrinks the buffer, and an idle step that changes a state but
sends nothing raises SysState.pc or SysState.done, a protocol contract
that ScriptedSystem checks as it makes each idle effect. So a fair run
that completes nothing ends in a class where every survivor is still,
its inbox empty and its idle step a no-op: a terminal component (Emerson
& Lei, "Modalities for model checking", 1987).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .model import Step, apply_step, logged_events, schedule_records
from .protocols import PROTOCOLS
from .seqspec import OpHistory
from .valence import FAIR_BOUND, Scenario, build_scenario, reach


def allowed_crash_sets(clients, servers) -> list:
    """Crash sets the nonblocking adversary may choose, smallest
    first; includes the empty set (no crash is also an adversary)."""
    clients, servers = set(clients), set(servers)
    everyone = sorted(clients | servers)
    return [
        frozenset(dead)
        for k in range(len(everyone) + 1)
        for dead in combinations(everyone, k)
        if not clients.issubset(dead)
        and len(servers.intersection(dead)) <= len(clients) - 1
    ]


@dataclass
class ProgressWitness:
    """A replayable stall: from the base history, crash the given set,
    run the survivors fairly, and no pending operation ever returns."""

    base_history: tuple
    crash_set: frozenset
    pending: tuple
    extension: tuple
    extension_quiescent: bool


@dataclass
class ProgressVerdict:
    condition: str
    witness: Optional[ProgressWitness]
    configs_checked: int
    depth: int
    exhausted: bool  # reachable space fully swept below the depth bound, no witness
    notes: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "configs_checked": self.configs_checked,
            "depth": self.depth,
            "exhausted": self.exhausted,
            "notes": dict(self.notes),
            "witness": None if self.witness is None else {
                "base": schedule_records(self.witness.base_history),
                "crash_set": sorted(self.witness.crash_set),
                "pending": list(self.witness.pending),
                "extension": schedule_records(self.witness.extension),
                "extension_quiescent": self.witness.extension_quiescent,
            },
        }


def _fair_progress(system, config, live, bound: int = FAIR_BOUND):
    """Round-robin the live processes through apply_step, oldest
    message first, and return None at the first step that completes an
    operation (raises the stepping process's SysState.done).

    A run that completes nothing is returned as (extension, quiescent),
    at most `bound` steps: quiescent once every step of a round returns
    its input (apply_step's no-op idle receipt), so every later round
    repeats it, and otherwise cut by the bound, even mid-round."""
    extension: list = []
    while True:
        start = config
        for p in live:
            if len(extension) == bound:
                return tuple(extension), False
            row = config.inbox[p]
            step = tuple.__new__(Step, (p, row[0] if row else None))  # from inbox[p]
            nxt = apply_step(config, step, system, 0 if row else -1)
            extension.append(step)
            if nxt.states[p].done > config.states[p].done:
                return None
            config = nxt
        if config is start:
            return tuple(extension), True


def _sweep(scenario: Scenario, depth: int, crash_choices, condition: str, notes: dict):
    """Shared engine: for every reachable configuration and every crash
    choice with a surviving pending operation, demand fair progress, and
    return the ProgressVerdict on `condition` with `notes` attached.

    The sweep steps, once per class, the idle receipt of each process
    whose inbox is empty, the only idle steps a fair run takes, and
    notes the still processes, whose receipt returns the class. A class
    short of `depth` stalls exactly when its survivors are all still, so
    only then is it fair-run (_fair_progress), to their no-op round. A
    class at `depth` always is, since the sweep does not see its
    successors.

    Which processes wait on an operation is read from their states (the
    implementation's `pending`); only a witness's labels are read from
    the event log, replayed from its base history.

    The sweep is exhausted when no class lies beyond `depth`: the first
    class reach yields at depth + 1 ends it unexhausted. A witness ends
    it early too, so the sweep is then not exhausted either."""
    system = scenario.system
    verdict = ProgressVerdict(condition, None, 0, depth, exhausted=False, notes=notes)
    init = scenario.initial()
    for config, hist, d in reach(scenario, init, depth + 1):
        if d > depth:
            return verdict
        verdict.configs_checked += 1
        still = {p for p, row in enumerate(config.inbox)
                 if not row and apply_step(config, (p, None), system, -1) is config}
        waiting = {p for p, s in enumerate(config.states) if s.impl.pending is not None}
        for crashed in crash_choices:
            if waiting <= crashed:
                continue
            live = [p for p in range(scenario.n) if p not in crashed]
            if d < depth and not still.issuperset(live):
                continue
            stall = _fair_progress(system, config, live)
            if stall is not None:
                survivors = tuple(
                    f"{o.op}#{o.op_id}@p{o.process}"
                    for o in OpHistory(logged_events(init, hist, system)).pending_ops()
                    if o.process not in crashed
                )
                verdict.witness = ProgressWitness(hist, frozenset(crashed), survivors, *stall)
                return verdict
    verdict.exhausted = True
    return verdict


def check_1rlf(scenario: Scenario, depth: int = 8) -> ProgressVerdict:
    """Lock-freedom against at most one crash: from every reachable
    configuration, for every single crash (or none), the survivors'
    fair schedule completes some surviving pending operation."""
    choices = [frozenset()] + [frozenset({q}) for q in range(scenario.n)]
    return _sweep(scenario, depth, choices, "1-resilient lock-freedom", {})


def check_nonblocking(scenario: Scenario, depth: int = 8) -> ProgressVerdict:
    """Nonblocking against structured crash sets (see module docstring),
    with the scenario's clients and servers as the split."""
    clients, servers = scenario.built.clients, scenario.built.servers
    server_floor = max(0, len(servers) - (len(clients) - 1))
    choices = allowed_crash_sets(clients, servers)
    return _sweep(scenario, depth, choices, "nonblocking", {
        "clients": list(clients),
        "servers": list(servers),
        "server_floor": server_floor,
        "server_floor_degenerate": server_floor == 0 and len(servers) > 0,
        "crash_sets": len(choices),
    })


def implication(scenario: Scenario, one: ProgressVerdict, nb: ProgressVerdict) -> dict:
    """Nonblocking implies 1-resilient lock-freedom whenever there are
    at least two clients (single crashes are then allowed crash sets).
    Says whether that applies to scenario, and whether its verdicts
    one (1-resilient lock-freedom) and nb (nonblocking) violate it."""
    applies = len(scenario.built.clients) >= 2
    return {
        "implication_applies": applies,
        "implication_violated": bool(applies and nb.holds and not one.holds),
    }


def implication_audit(depth: int = 6) -> list:
    """Audits every registered protocol and reports any counterexample
    to the implication, which a sound model should never produce."""
    rows = []
    for name in sorted(PROTOCOLS):
        scenario = build_scenario(name)
        one = check_1rlf(scenario, depth=depth)
        nb = check_nonblocking(scenario, depth=depth)
        rows.append({"protocol": name, "one_rlf": one.holds, "nonblocking": nb.holds,
                     **implication(scenario, one, nb)})
    return rows

"""Progress-condition audits: lock-freedom under one crash, nonblocking
under structured crash sets, and the implication between them.

Both properties quantify over reachable configurations and crash
choices, then demand that a fair schedule of the surviving processes
completes some pending operation of a survivor. Crashing is modeled as
never scheduling a process again, so every configuration reachable with
crashed processes is also reachable fully live and a single live sweep
covers the whole quantification.

The two properties differ only in which crash sets the adversary may
pick. One-resilient lock-freedom allows any single crash. Nonblocking
allows any set that leaves at least one client alive and at least
max(0, s - (c - 1)) of the s servers alive, c counting clients; when
that floor is zero or negative the adversary may take every server,
which the verdict flags, since it usually signals a degenerate split
rather than an interesting guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .model import Step, post
from .protocols import PROTOCOLS
from .seqspec import RESPONSE, OpHistory
from .valence import FAIR_BOUND, Scenario, build_scenario, reach


@dataclass(frozen=True)
class ClientServerSplit:
    clients: tuple
    servers: tuple

    @property
    def c(self) -> int:
        return len(self.clients)

    @property
    def s(self) -> int:
        return len(self.servers)

    @property
    def server_floor(self) -> int:
        return max(0, self.s - (self.c - 1))

    def allowed_crash_sets(self):
        """Crash sets the nonblocking adversary may choose, smallest
        first; includes the empty set (no crash is also an adversary)."""
        out = []
        max_client_crashes = self.c - 1
        max_server_crashes = self.s - self.server_floor
        for kc in range(max_client_crashes + 1):
            for ks in range(max_server_crashes + 1):
                for dead_c in combinations(self.clients, kc):
                    for dead_s in combinations(self.servers, ks):
                        out.append(frozenset(dead_c + dead_s))
        out.sort(key=lambda f: (len(f), tuple(sorted(f))))
        return out


def default_split(scenario: Scenario) -> ClientServerSplit:
    return ClientServerSplit(tuple(scenario.built.clients), tuple(scenario.built.servers))


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
            "witness": None
            if self.witness is None
            else {
                "base_steps": len(self.witness.base_history),
                "crash_set": sorted(self.witness.crash_set),
                "pending": list(self.witness.pending),
                "extension_steps": len(self.witness.extension),
                "extension_quiescent": self.witness.extension_quiescent,
            },
        }


def _fair_progress(scenario: Scenario, config, live, bound: int):
    """Round-robin the live processes, oldest message first, until some
    operation completes, and then return None.

    A run that completes nothing is returned as (extension, quiescent):
    it is quiescent when a whole round received and sent nothing and
    left every state as it was, so that the core (states, inboxes,
    channels) is unchanged and every later round repeats it, and
    otherwise it kept changing until the bound stopped it. A last
    round cut short by the bound never counts as quiescent.

    The run steps private working copies of config's states, inboxes
    and channel counts in place, through the protocol's transition and
    model.post, rather than building a Configuration per step. Only
    states need a snapshot per round: a round that received nothing
    and sent nothing left every inbox as it was, and one that did
    either changed the core.
    """
    transition = scenario.system.transition
    live = sorted(live)
    states = list(config.states)
    inbox = list(config.inbox)
    counts = [list(row) for row in config.channels]
    extension: list = []  # (process, received) pairs, made Steps for a stall
    while len(extension) < bound:
        before = tuple(states)
        moved = False
        turn = live[: bound - len(extension)]
        for p in turn:
            row = inbox[p]
            m = row[0] if row else None
            effect = transition(states[p], m)
            extension.append((p, m))
            if effect.events and any(ev.kind == RESPONSE for ev in effect.events):
                return None
            states[p] = effect.state
            if row:
                inbox[p] = row[1:]
                moved = True
            if effect.sends:
                post(inbox, counts[p], p, effect.sends)
                moved = True
        if len(turn) == len(live) and not moved and before == tuple(states):
            return tuple(Step(p, m) for p, m in extension), True
    return tuple(Step(p, m) for p, m in extension), False


def _sweep(scenario: Scenario, depth: int, crash_choices):
    """Shared engine: for every reachable configuration and every crash
    choice with a surviving pending operation, demand fair progress.

    Which processes wait on an operation is read from their states (the
    implementation's `pending`); the event log only labels a witness.

    Returns (witness, checked, truncated). The sweep is truncated when
    some class lies beyond `depth`: the first class reach yields at
    depth + 1 ends it. A witness ends it early too, so the sweep is
    then truncated as well."""
    checked = 0
    for config, hist, d in reach(scenario, scenario.initial(), depth + 1):
        if d > depth:
            return None, checked, True
        checked += 1
        waiting = {p for p, s in enumerate(config.states) if s.impl.pending is not None}
        for crashed in crash_choices:
            if waiting <= crashed:
                continue
            live = [p for p in range(scenario.n) if p not in crashed]
            stall = _fair_progress(scenario, config, live, FAIR_BOUND)
            if stall is not None:
                survivors = tuple(
                    f"{o.op}#{o.op_id}@p{o.process}"
                    for o in OpHistory(config.events).pending_ops()
                    if o.process not in crashed
                )
                witness = ProgressWitness(hist, frozenset(crashed), survivors, *stall)
                return witness, checked, True
    return None, checked, False


def check_1rlf(scenario: Scenario, depth: int = 8) -> ProgressVerdict:
    """Lock-freedom against at most one crash: from every reachable
    configuration, for every single crash (or none), the survivors'
    fair schedule completes some surviving pending operation."""
    choices = [frozenset()] + [frozenset({q}) for q in range(scenario.n)]
    witness, checked, truncated = _sweep(scenario, depth, choices)
    return ProgressVerdict(
        condition="1-resilient lock-freedom",
        witness=witness,
        configs_checked=checked,
        depth=depth,
        exhausted=not truncated,
    )


def check_nonblocking(scenario: Scenario, depth: int = 8) -> ProgressVerdict:
    """Nonblocking against structured crash sets (see module docstring),
    with the scenario's clients and servers as the split."""
    split = default_split(scenario)
    choices = split.allowed_crash_sets()
    witness, checked, truncated = _sweep(scenario, depth, choices)
    return ProgressVerdict(
        condition="nonblocking",
        witness=witness,
        configs_checked=checked,
        depth=depth,
        exhausted=not truncated,
        notes={
            "clients": list(split.clients),
            "servers": list(split.servers),
            "server_floor": split.server_floor,
            "server_floor_degenerate": split.server_floor == 0 and split.s > 0,
            "crash_sets": len(choices),
        },
    )


def implication(scenario: Scenario, one: ProgressVerdict, nb: ProgressVerdict) -> dict:
    """Nonblocking implies 1-resilient lock-freedom whenever there are
    at least two clients (single crashes are then allowed crash sets).
    Says whether that applies to scenario, and whether its verdicts
    one (1-resilient lock-freedom) and nb (nonblocking) violate it."""
    applies = default_split(scenario).c >= 2
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
        rows.append(
            {
                "protocol": name,
                "one_rlf": one.holds,
                "nonblocking": nb.holds,
                **implication(scenario, one, nb),
            }
        )
    return rows

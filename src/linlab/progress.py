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

from .model import SchedulingMode, apply_step, enabled_steps
from .protocols import PROTOCOLS
from .seqspec import RESPONSE, OpHistory
from .valence import FAIR_BOUND, Scenario, build_scenario, reach

AUDIT_FAIR_BOUND = 160  # implication_audit's fair-run bound


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
    holds: bool
    witness: Optional[ProgressWitness]
    configs_checked: int
    depth: int
    exhausted: bool  # reachable space fully swept below the depth bound, no witness
    notes: dict = field(default_factory=dict)

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
    """Round-robin the live processes until some operation completes.

    Returns (completed, extension, quiescent). Stops early when the
    configuration goes quiescent or spins without progress.
    """
    system = scenario.system
    live = sorted(live)
    current = config
    extension: list = []
    steps = 0
    while steps < bound:
        before = current
        for p in live:
            step = enabled_steps(current, p, SchedulingMode.EARLIEST_ONLY)[0]
            logged = len(current.events)
            current = apply_step(current, step, system)
            extension.append(step)
            steps += 1
            if any(ev.kind == RESPONSE for ev in current.events[logged:]):
                return True, tuple(extension), False
            if steps >= bound:
                break
        if current.states == before.states and current.buffer == before.buffer:
            return False, tuple(extension), True
    return False, tuple(extension), False


def _sweep(scenario: Scenario, depth: int, crash_choices, fair_bound: int):
    """Shared engine: for every reachable configuration and every crash
    choice with a surviving pending operation, demand fair progress.

    The sweep is truncated when some class lies beyond `depth`: the
    first class reach yields at depth + 1 ends it. A witness ends it
    early too, so the sweep is then truncated as well."""
    checked = 0
    for config, hist, d in reach(scenario, scenario.initial(), depth + 1):
        if d > depth:
            return True, None, checked, True
        checked += 1
        pending = [
            (o.process, f"{o.op}#{o.op_id}@p{o.process}")
            for o in OpHistory(config.events).pending_ops()
        ]
        for crashed in crash_choices:
            survivors = tuple(label for p, label in pending if p not in crashed)
            if not survivors:
                continue
            live = [p for p in range(scenario.n) if p not in crashed]
            ok, ext, quiescent = _fair_progress(scenario, config, live, fair_bound)
            if not ok:
                witness = ProgressWitness(hist, frozenset(crashed), survivors, ext, quiescent)
                return False, witness, checked, True
    return True, None, checked, False


def check_1rlf(
    scenario: Scenario, depth: int = 8, fair_bound: Optional[int] = None
) -> ProgressVerdict:
    """Lock-freedom against at most one crash: from every reachable
    configuration, for every single crash (or none), the survivors'
    fair schedule completes some surviving pending operation."""
    fair_bound = FAIR_BOUND if fair_bound is None else fair_bound
    choices = [frozenset()] + [frozenset({q}) for q in range(scenario.n)]
    holds, witness, checked, truncated = _sweep(scenario, depth, choices, fair_bound)
    return ProgressVerdict(
        condition="1-resilient lock-freedom",
        holds=holds,
        witness=witness,
        configs_checked=checked,
        depth=depth,
        exhausted=not truncated,
    )


def check_nonblocking(
    scenario: Scenario,
    split: Optional[ClientServerSplit] = None,
    depth: int = 8,
    fair_bound: Optional[int] = None,
) -> ProgressVerdict:
    """Nonblocking against structured crash sets (see module docstring)."""
    fair_bound = FAIR_BOUND if fair_bound is None else fair_bound
    split = default_split(scenario) if split is None else split
    choices = split.allowed_crash_sets()
    holds, witness, checked, truncated = _sweep(scenario, depth, choices, fair_bound)
    return ProgressVerdict(
        condition="nonblocking",
        holds=holds,
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


def implication_audit(depth: int = 6) -> list:
    """Nonblocking implies 1-resilient lock-freedom whenever there are
    at least two clients (single crashes are then allowed crash sets).
    Audits every registered protocol and reports any counterexample to
    the implication, which a sound model should never produce."""
    rows = []
    for name in sorted(PROTOCOLS):
        scenario = build_scenario(name)
        one = check_1rlf(scenario, depth=depth, fair_bound=AUDIT_FAIR_BOUND)
        nb = check_nonblocking(scenario, depth=depth, fair_bound=AUDIT_FAIR_BOUND)
        implication_applies = default_split(scenario).c >= 2
        rows.append(
            {
                "protocol": name,
                "one_rlf": one.holds,
                "nonblocking": nb.holds,
                "implication_applies": implication_applies,
                "implication_violated": bool(
                    implication_applies and nb.holds and not one.holds
                ),
            }
        )
    return rows

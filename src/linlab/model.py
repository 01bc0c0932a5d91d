"""Deterministic asynchronous message-passing execution model.

The system is a fixed set of processes exchanging messages through a
shared buffer (a multiset of sent-but-not-yet-received messages). A step
is a pair (p, m): process p receives message m, or nothing when m is the
idle receipt (None). Given the received value, the process transitions
deterministically: it moves to a new local state, sends a finite set of
messages, and may append operation events to the global log. All
nondeterminism lives in the scheduler's choice of steps.

Configurations are immutable; applying a step yields a new configuration
and never mutates its input, so exploration code may share them freely.
Message identity is the triple (seq, sender, receiver) where seq counts
sends per directed channel; identity therefore does not depend on the
order in which steps of distinct processes are applied, which is what
makes the commutation check meaningful.

Steps of distinct processes commute. Each reads and writes only its own
process's state and channel row, and consumes a message addressed to
its own process, so either step stays enabled after the other, and
both orders give the same states, buffer (payloads included) and
channels. Each step appends only its own process's events, so the two
event logs differ only in interleaving, and a decision, which a single
process returns, is the same in both. So both orders reach one valence
class (Scenario.vkey), which is what lets valence.reach put such steps
to sleep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class NotApplicable(Exception):
    """Step cannot be applied to this configuration."""

    def __init__(self, msg: str, index: Optional[int] = None):
        super().__init__(msg)
        self.index = index


class PreconditionViolated(Exception):
    """Caller broke an operation's stated precondition."""


UID_RADIX = 1024  # Message.uid packs sender and receiver ids below this


@dataclass(frozen=True, slots=True)
class Message:
    """A buffered message. Identity is (seq, sender, receiver).

    seq numbers count sends per directed channel, so the triple is unique
    within an execution and two runs that send the same payloads along
    the same channels in the same per-channel order produce identical
    messages. The payload is excluded from identity; it is determined by
    the triple anyway.
    """

    seq: int
    sender: int
    receiver: int
    payload: tuple = field(compare=False)

    @property
    def uid(self) -> int:
        # order-embedding into ints: ascending uid == ascending (seq, sender, receiver)
        return (self.seq * UID_RADIX + self.sender) * UID_RADIX + self.receiver

    def sort_key(self) -> tuple[int, int]:
        # delivery order within one receiver's view: oldest first, sender id breaking ties
        return (self.seq, self.sender)

    def __repr__(self) -> str:
        return f"<{self.sender}->{self.receiver} #{self.seq} {self.payload!r}>"


@dataclass(frozen=True, slots=True)
class Step:
    """A scheduler choice: process takes one step receiving `received`.

    received is None for the idle receipt (always applicable) or a
    buffered Message addressed to the process.
    """

    process: int
    received: Optional[Message] = None

    def __post_init__(self):
        if self.received is not None and self.received.receiver != self.process:
            raise ValueError(
                f"step of process {self.process} cannot receive a message "
                f"addressed to {self.received.receiver}"
            )

    def __repr__(self) -> str:
        return f"Step({self.process}, {self.received!r})"


@dataclass(frozen=True)
class Effect:
    """What one transition does: new state, sends, appended events."""

    state: object
    sends: tuple = ()  # tuple of (receiver, payload)
    events: tuple = ()  # tuple of OperationEvent


class SchedulingMode(Enum):
    EARLIEST_ONLY = "earliest-only"
    FULL_NONDET = "full-nondet"


@dataclass(frozen=True)
class Configuration:
    """Global system state: per-process states, buffer, event log.

    channels[p][q] is the number of messages p has sent to q so far; it
    feeds seq numbers for new sends. step_count counts applied steps.
    """

    states: tuple
    buffer: frozenset  # frozenset[Message]
    events: tuple  # tuple[OperationEvent]
    step_count: int
    channels: tuple  # tuple[tuple[int, ...], ...]

    @property
    def num_processes(self) -> int:
        return len(self.states)

    def messages_for(self, process: int) -> list[Message]:
        """Buffered messages addressed to process, oldest first."""
        msgs = [m for m in self.buffer if m.receiver == process]
        msgs.sort(key=Message.sort_key)
        return msgs

    def core_key(self) -> tuple:
        """The forward-behavior core as a hashable value, cached.

        Message equality deliberately ignores payloads (identity within
        one run is positional), but across different schedules the same
        slot can carry different payloads, so the key spells them out:
        (states, frozenset of (seq, sender, receiver, payload), channels).

        Once a configuration's key has been read, apply_step derives each
        child's key from it (the parent's buffer part minus the received
        message plus the sent ones) and parks it on the child, where this
        method picks it up on the child's first read. Keys are built from
        scratch only for configurations with no read parent: the initial
        configuration, configurations built directly, and children of
        configurations whose key nobody read, such as the inner steps of
        a fair run.
        """
        cache = self.__dict__
        key = cache.get("_core_key")
        if key is None:
            key = cache.get("_parked_key")
            if key is None:
                key = (
                    self.states,
                    frozenset((m.seq, m.sender, m.receiver, m.payload) for m in self.buffer),
                    self.channels,
                )
            cache["_core_key"] = key
        return key

    def __repr__(self) -> str:
        return (
            f"Configuration(steps={self.step_count}, buffered={len(self.buffer)}, "
            f"events={len(self.events)})"
        )


def initial_configuration(protocol) -> Configuration:
    """Fresh configuration with every process in its initial state."""
    n = protocol.num_processes
    return Configuration(
        states=tuple(protocol.init_state(p) for p in range(n)),
        buffer=frozenset(),
        events=(),
        step_count=0,
        channels=tuple(tuple(0 for _ in range(n)) for _ in range(n)),
    )


def applicable(config: Configuration, step: Step) -> bool:
    """Idle receipts always apply; a message receipt needs the message buffered."""
    if step.received is None:
        return 0 <= step.process < config.num_processes
    return step.received in config.buffer


def apply_step(config: Configuration, step: Step, protocol) -> Configuration:
    """Apply one step, returning the successor configuration.

    Deterministic and pure: same inputs, same output, inputs untouched.
    """
    if not applicable(config, step):
        raise NotApplicable(f"{step} not applicable (message not buffered?)")
    p = step.process
    effect = protocol.transition(config.states[p], step.received)

    buffer = set(config.buffer)
    if step.received is not None:
        buffer.discard(step.received)

    row = list(config.channels[p])
    for receiver, payload in effect.sends:
        buffer.add(Message(seq=row[receiver], sender=p, receiver=receiver, payload=payload))
        row[receiver] += 1

    states = list(config.states)
    states[p] = effect.state
    states = tuple(states)
    channels = list(config.channels)
    channels[p] = tuple(row)
    channels = tuple(channels)

    child = Configuration(
        states=states,
        buffer=frozenset(buffer),
        events=config.events + tuple(effect.events),
        step_count=config.step_count + 1,
        channels=channels,
    )
    parent_key = config.__dict__.get("_core_key")
    if parent_key is not None:  # derive the child's key, see core_key
        keys = parent_key[1]
        got = step.received
        if got is not None or effect.sends:
            keys = set(keys)
            if got is not None:
                keys.discard((got.seq, got.sender, got.receiver, got.payload))
            # the send loop above is not reused, so that steps with no
            # read parent (most of a fair run) pay nothing for this
            seqs = list(config.channels[p])
            for receiver, payload in effect.sends:
                keys.add((seqs[receiver], p, receiver, payload))
                seqs[receiver] += 1
            keys = frozenset(keys)
        # the derived set always contains the true one; equal sizes make
        # them equal (a received payload that differs from the buffered
        # one would leave a stale tuple behind)
        if len(keys) == len(child.buffer):
            child.__dict__["_parked_key"] = (states, keys, channels)
    return child


def apply_history(
    config: Configuration, history: Sequence[Step], protocol
) -> tuple[Configuration, list[Configuration]]:
    """Apply steps in order. Returns (final, trace incl. the start).

    Raises NotApplicable carrying the offending index if some step cannot
    be applied; nothing is mutated in that case.
    """
    trace = [config]
    current = config
    for i, step in enumerate(history):
        try:
            current = apply_step(current, step, protocol)
        except NotApplicable as exc:
            raise NotApplicable(f"step {i}: {exc}", index=i) from None
        trace.append(current)
    return current, trace


def enabled_steps(
    config: Configuration, process: int, mode: SchedulingMode
) -> tuple[Step, ...]:
    """Steps available to `process` under the given scheduling mode.

    EARLIEST_ONLY yields exactly one step: receive the oldest buffered
    message addressed to the process, falling back to the idle receipt
    only when none is pending. FULL_NONDET yields the idle receipt plus
    one step per pending message. Never empty.
    """
    pending = config.messages_for(process)
    if mode is SchedulingMode.EARLIEST_ONLY:
        if pending:
            return (Step(process, pending[0]),)
        return (Step(process, None),)
    return (Step(process, None),) + tuple(Step(process, m) for m in pending)


def events_equal_mod_interleaving(c1: Configuration, c2: Configuration) -> bool:
    """Event logs agree per process (global interleaving may differ)."""
    procs = set(ev.process for ev in c1.events) | set(ev.process for ev in c2.events)
    for p in procs:
        e1 = tuple(ev for ev in c1.events if ev.process == p)
        e2 = tuple(ev for ev in c2.events if ev.process == p)
        if e1 != e2:
            return False
    return True


def commute_check(config: Configuration, e1: Step, e2: Step, protocol) -> bool:
    """Do e1 and e2 (distinct processes) commute at config?

    True iff applying them in either order yields identical states,
    buffer, and channels, with event logs equal up to the interleaving
    of the two processes' events. Both orders must be applicable.
    """
    if e1.process == e2.process:
        raise PreconditionViolated("commute_check needs steps of distinct processes")
    if not applicable(config, e1) or not applicable(config, e2):
        raise PreconditionViolated("both steps must be applicable to the configuration")
    c12 = apply_step(apply_step(config, e1, protocol), e2, protocol)
    c21 = apply_step(apply_step(config, e2, protocol), e1, protocol)
    return (
        c12.states == c21.states
        and c12.buffer == c21.buffer
        and c12.channels == c21.channels
        and c12.step_count == c21.step_count
        and events_equal_mod_interleaving(c12, c21)
    )


def trace_records(
    initial: Configuration, history: Sequence[Step], protocol
) -> list[dict]:
    """One JSON-ready record per applied step (the wire trace format)."""
    records = []
    current = initial
    for i, step in enumerate(history):
        nxt = apply_step(current, step, protocol)
        emitted = nxt.events[len(current.events):]
        records.append(
            {
                "step_index": i,
                "process": step.process,
                "message_uid": None if step.received is None else step.received.uid,
                "events_emitted": [ev.to_json() for ev in emitted],
                "buffer_size": len(nxt.buffer),
            }
        )
        current = nxt
    return records


def audit_buffer_conservation(
    initial: Configuration, history: Sequence[Step], protocol
) -> bool:
    """Replay and check sends == receipts + final buffer, as multisets."""
    sent: set[Message] = set(initial.buffer)
    received: set[Message] = set()
    current = initial
    for step in history:
        nxt = apply_step(current, step, protocol)
        if step.received is not None:
            received.add(step.received)
        sent |= nxt.buffer - current.buffer
        current = nxt
    return sent - received == current.buffer and received <= sent

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
Message identity is (seq, sender, receiver, payload) where seq counts
sends per directed channel; identity therefore does not depend on the
order in which steps of distinct processes are applied, which is what
makes the commutation check meaningful. Since identity includes the
payload, two buffers are equal only if they carry the same payloads.

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

from dataclasses import dataclass
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
    """A buffered message. Identity is (seq, sender, receiver, payload).

    seq numbers count sends per directed channel, so (seq, sender,
    receiver) names a unique slot within an execution and two runs that
    send the same payloads along the same channels in the same
    per-channel order produce identical messages. Across different
    schedules the same slot can carry different payloads, so the payload
    is part of identity: a buffer is then a key in its own right.
    """

    seq: int
    sender: int
    receiver: int
    payload: tuple

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
        """The forward-behavior core as a hashable value: states, buffer
        (payloads included, see Message) and channels."""
        return (self.states, self.buffer, self.channels)

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

    return Configuration(
        states=states,
        buffer=frozenset(buffer),
        events=config.events + tuple(effect.events),
        step_count=config.step_count + 1,
        channels=channels,
    )


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

    True iff applying them in either order yields the same core key
    (states, buffer with payloads, channels) and step count, with event
    logs equal up to the interleaving of the two processes' events.
    Both orders must be applicable.
    """
    if e1.process == e2.process:
        raise PreconditionViolated("commute_check needs steps of distinct processes")
    if not applicable(config, e1) or not applicable(config, e2):
        raise PreconditionViolated("both steps must be applicable to the configuration")
    c12 = apply_step(apply_step(config, e1, protocol), e2, protocol)
    c21 = apply_step(apply_step(config, e2, protocol), e1, protocol)
    return (
        c12.core_key() == c21.core_key()
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

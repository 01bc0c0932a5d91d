"""Deterministic asynchronous message-passing execution model.

The system is a fixed set of processes exchanging messages through a
shared buffer of sent-but-not-yet-received messages. A step is a pair
(p, m): process p receives message m, or nothing when m is the idle
receipt (None). Given the received value, the process transitions
deterministically: it moves to a new local state, sends a finite set of
messages, and may emit operation events. All nondeterminism lives in
the scheduler's choice of steps.

The buffer is kept as one inbox per receiver: a tuple of the messages
addressed to it, oldest first by (seq, sender). Each message in a
configuration fills a unique (seq, sender, receiver) slot, so a buffer
has exactly one such layout and the inboxes compare, and key, exactly
as the set of messages would. Listing a process's pending messages is
then an index.

A configuration is the process states and the buffer, nothing else.
The event log is a function of the schedule that reached it, so it is
not stored: logged_events replays it where a report prints one.

Configurations are immutable; applying a step yields a configuration
and never mutates its input, so exploration code may share them freely.
A step that changes nothing, an idle receipt whose effect keeps the
same state object and sends nothing, returns its input configuration
itself. Callers may use `child is config` as a cheap "nothing changed"
test, but a step that changes nothing by value can still return a new,
equal configuration.

Message identity is (seq, sender, receiver, payload) where seq counts
sends per directed channel; identity therefore does not depend on the
order in which steps of distinct processes are applied, so two orders
of such steps can be compared message for message. Since identity
includes the payload, two buffers are equal only if they carry the same
payloads.

Steps of distinct processes commute. Each reads and writes only its own
process's state and channel row, and consumes a message addressed to
its own process, so either step stays enabled after the other, and
both orders reach one configuration: the same states, the decision
among them, inboxes (payloads included) and channels, so one valence
class (Scenario.vkey). That is what lets valence.reach put such steps
to sleep. Each step emits only its own process's events, so the two
orders' logs differ only in interleaving.

Message, Step and Configuration are named tuples, so building, hashing
and comparing them runs in C. A consequence: they also compare equal to
plain tuples with the same fields.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence


class NotApplicable(Exception):
    """Step cannot be applied to this configuration."""

    def __init__(self, msg: str, index: Optional[int] = None):
        super().__init__(msg)
        self.index = index


class PreconditionViolated(Exception):
    """Caller broke an operation's stated precondition."""


UID_RADIX = 1024  # Message.uid packs sender and receiver ids below this


class Message(NamedTuple):
    """A buffered message. Identity is (seq, sender, receiver, payload).

    seq numbers count sends per directed channel, so (seq, sender,
    receiver) names a unique slot within an execution and two runs that
    send the same payloads along the same channels in the same
    per-channel order produce identical messages. Across different
    schedules the same slot can carry different payloads, so the payload
    is part of identity: a buffer is then a key in its own right.

    Within one receiver's inbox the slots differ in (seq, sender), so
    messages there order as tuples without ever comparing payloads.
    """

    seq: int
    sender: int
    receiver: int
    payload: tuple

    @property
    def uid(self) -> int:
        # order-embedding into ints: ascending uid == ascending (seq, sender, receiver)
        return (self.seq * UID_RADIX + self.sender) * UID_RADIX + self.receiver

    def __repr__(self) -> str:
        return f"<{self.sender}->{self.receiver} #{self.seq} {self.payload!r}>"


class _StepFields(NamedTuple):
    process: int
    received: Optional[Message] = None


class Step(_StepFields):
    """A scheduler choice: process takes one step receiving `received`.

    received is None for the idle receipt (always applicable) or a
    buffered Message addressed to the process.
    """

    __slots__ = ()

    def __new__(cls, process: int, received: Optional[Message] = None):
        if received is not None and received.receiver != process:
            raise ValueError(
                f"step of process {process} cannot receive a message "
                f"addressed to {received.receiver}"
            )
        return tuple.__new__(cls, (process, received))

    def __repr__(self) -> str:
        return f"Step({self.process}, {self.received!r})"


@dataclass(frozen=True)
class Effect:
    """What one transition does: new state, sends, emitted events."""

    state: object
    sends: tuple = ()  # tuple of (receiver, payload)
    events: tuple = ()  # tuple of OperationEvent


class Configuration(NamedTuple):
    """Global system state: per-process states and inboxes.

    inbox[p] holds the buffered messages addressed to p, oldest first by
    (seq, sender); see the module docstring for why that layout is
    unique. channels[p][q] is the number of messages p has sent to q so
    far; it feeds seq numbers for new sends. Neither the number of steps
    taken nor the event log is recorded: both are functions of the
    history that led here (see logged_events).
    """

    states: tuple
    inbox: tuple  # tuple[tuple[Message, ...], ...], one row per receiver
    channels: tuple  # tuple[tuple[int, ...], ...]

    def core_key(self) -> tuple:
        """The configuration as a plain tuple, its core key: states,
        inboxes (payloads included, see Message) and channels."""
        return (self.states, self.inbox, self.channels)

    def __repr__(self) -> str:
        return f"Configuration(buffered={sum(map(len, self.inbox))})"


def initial_configuration(protocol) -> Configuration:
    """Fresh configuration with every process in its initial state."""
    n = protocol.num_processes
    return Configuration(
        states=tuple(protocol.init_state(p) for p in range(n)),
        inbox=((),) * n,
        channels=tuple(tuple(0 for _ in range(n)) for _ in range(n)),
    )


def _position(config: Configuration, step) -> int:
    """Index of the received message in its receiver's inbox, -1 for
    an idle receipt; NotApplicable if the step cannot apply."""
    p, received = step
    if not 0 <= p < len(config.inbox):
        raise NotApplicable(f"{step} not applicable (no process {p})")
    if received is None:
        return -1
    try:
        # equality, not bisection: a forged payload in a buffered slot
        # must not be compared by order against the real one
        return config.inbox[p].index(received)
    except ValueError:
        raise NotApplicable(f"{step} not applicable (message not buffered?)") from None


def applicable(config: Configuration, step) -> bool:
    """Idle receipts always apply; a message receipt needs the message buffered."""
    try:
        _position(config, step)
    except NotApplicable:
        return False
    return True


def apply_step(config: Configuration, step, protocol, i: Optional[int] = None) -> Configuration:
    """Apply one step, a Step or any (process, received) pair, returning
    the successor configuration.

    Deterministic and pure: same inputs, same output, inputs untouched.
    An idle receipt whose effect keeps the same state object and sends
    nothing returns `config` itself. A caller may pass the received
    message's index `i` in config.inbox[process], -1 for the idle
    receipt, to skip looking it up; the step must then match it.
    """
    p, received = step
    if i is None:
        i = _position(config, step)
    states = config.states
    effect = protocol.transition(states[p], received)
    sends = effect.sends
    if i < 0 and not sends and effect.state is states[p]:
        return config

    inbox = list(config.inbox)
    if i >= 0:
        row = inbox[p]
        inbox[p] = row[:i] + row[i + 1:]
    channels = config.channels
    if sends:
        count = list(channels[p])
        for receiver, payload in sends:
            # tuple.__new__ skips NamedTuple's Python-level __new__; rows stay sorted
            m = tuple.__new__(Message, (count[receiver], p, receiver, payload))
            count[receiver] += 1
            row = inbox[receiver]
            j = bisect_right(row, m)
            inbox[receiver] = row[:j] + (m,) + row[j:]
        channels = list(channels)
        channels[p] = tuple(count)
        channels = tuple(channels)

    states = list(states)
    states[p] = effect.state
    return Configuration(tuple(states), tuple(inbox), channels)


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


def logged_events(config: Configuration, history: Sequence[Step], protocol) -> tuple:
    """The operation events that taking `history`, which must apply,
    from `config` logs: each step's effect events, in order. An effect
    depends only on its process's state and the receipt, so only the
    states are replayed."""
    states = list(config.states)
    events: list = []
    for p, received in history:
        effect = protocol.transition(states[p], received)
        states[p] = effect.state
        events.extend(effect.events)
    return tuple(events)


def enabled_steps(config: Configuration, process: int) -> tuple[Step, ...]:
    """Steps available to `process`: the idle receipt, then one receipt
    per pending message, oldest first."""
    return (Step(process, None),) + tuple(Step(process, m) for m in config.inbox[process])


def schedule_records(history: Sequence[Step]) -> list[dict]:
    """A schedule as the {process, message_uid} records `simulate --config` replays."""
    return [{"process": p, "message_uid": None if m is None else m.uid} for p, m in history]


def trace_records(
    initial: Configuration, history: Sequence[Step], protocol
) -> list[dict]:
    """One JSON-ready record per applied step (the wire trace format).
    Raises NotApplicable, with its index, for a step that cannot apply."""
    _, trace = apply_history(initial, history, protocol)
    records = schedule_records(history)
    for i, (rec, step, current, nxt) in enumerate(zip(records, history, trace, trace[1:])):
        events = logged_events(current, (step,), protocol)
        rec.update(step_index=i, events_emitted=[ev.to_json() for ev in events],
                   buffer_size=sum(map(len, nxt.inbox)))
    return records

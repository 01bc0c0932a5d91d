"""Protocols under test and the scripted client programs that drive them.

A protocol is a deterministic per-process automaton: init_state gives
each process its initial local state, transition consumes a received
message (or the idle receipt) and returns an Effect, and invoke arms an
object operation on a process. Everything a protocol does travels
through the shared message buffer; in particular the quorum register
broadcasts to itself as well, so a process's own replica answers like
any other (one uniform code path, and the scheduler gets full control
over every delivery).

Shipped implementations:

  * naive test/set flag: a deliberately weak baseline. SET broadcasts
    the bit and completes after one more local step, with no
    acknowledgements; TEST answers from the local flag immediately.
  * quorum-replicated one-bit register: tagged writes plus majority
    acknowledgements; reads query a majority, adopt the largest tag,
    write it back, and only then return. Multi-writer instances add a
    tag-discovery round before the store round so a later write always
    installs a larger tag.
  * test/set built on the register (SET = WRITE(1), TEST = READ).
  * trivial-ack object: every operation broadcasts, waits for n-2
    replies, returns 0. Useful only as a progress-condition specimen.

Scripted drivers bind operation sequences to processes. Driver-level
signals (the "OK" handshake) are ordinary buffered messages.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .model import UID_RADIX, Effect, PreconditionViolated
from .seqspec import (
    DONE,
    IllegalOp,
    Op,
    OperationEvent,
    READ,
    REG_SPEC,
    RESPONSE,
    SequentialSpec,
    SET,
    TEST,
    TOS_SPEC,
    inv,
    res,
    write,
)

OPID_STRIDE = 16  # op_id = process * OPID_STRIDE + per-process counter


def _next_op_id(state) -> int:
    """Packed id of the process's next operation; refuses the one that
    would collide with the next process's ids."""
    if state.opcount >= OPID_STRIDE:
        raise PreconditionViolated(
            f"process {state.pid} invokes more than {OPID_STRIDE} operations;"
            " packed op ids would collide"
        )
    return state.pid * OPID_STRIDE + state.opcount


class ProtocolUnderTest:
    """Deterministic per-process automaton interface.

    Every local state is an immutable value with a `pid` field, the
    process's id, and a `pending` field, which is None exactly when the
    process has no operation in flight. ScriptedSystem reads both: it
    picks the script by `pid`, and invokes an operation or sends a
    driver tag only while `pending` is None. An idle receipt that changes
    the state must also send or complete an operation (linlab.progress).
    """

    num_processes: int = 0

    def init_state(self, process: int):
        raise NotImplementedError

    def transition(self, state, received) -> Effect:
        """One step of a process in `state` receiving `received` (a
        Message, or None for the idle receipt).

        A transition is a pure function of the state and of the
        received message's `sender` and `payload`; it never reads the
        message's `seq` or `receiver`. Its Effect holds immutable values
        only. ScriptedSystem memoizes transitions on exactly that key and
        hands the same Effect, and so the same state object, to every
        configuration that takes the step: states are shared between
        configurations and must never be mutated.
        """
        raise NotImplementedError

    def invoke(self, state, op: Op) -> Effect:
        raise NotImplementedError


# --- naive test/set flag ---------------------------------------------------


@dataclass(frozen=True)
class NaiveTosState:
    pid: int
    flag: int
    opcount: int
    pending: Optional[int]  # op_id of a SET awaiting its completion step


class NaiveTosProtocol(ProtocolUnderTest):
    """Broadcast-and-hope flag: no acknowledgements anywhere."""

    def __init__(self, n: int):
        if n < 2:
            raise PreconditionViolated("need at least a setter and a tester")
        self.num_processes = n

    def init_state(self, process: int) -> NaiveTosState:
        return NaiveTosState(pid=process, flag=0, opcount=0, pending=None)

    def transition(self, state: NaiveTosState, received) -> Effect:
        events = []
        if received is not None and received.payload[0] == "SETBIT":
            state = replace(state, flag=1)
        if state.pending is not None:
            # the one extra local step a SET takes before completing
            events.append(res(SET, state.pid, state.pending, DONE))
            state = replace(state, pending=None)
        return Effect(state, (), tuple(events))

    def invoke(self, state: NaiveTosState, op: Op) -> Effect:
        op_id = _next_op_id(state)
        state = replace(state, opcount=state.opcount + 1)
        if op.name == "SET":
            sends = tuple(
                (q, ("SETBIT",)) for q in range(self.num_processes) if q != state.pid
            )
            state = replace(state, pending=op_id)
            return Effect(state, sends, (inv(op, state.pid, op_id),))
        if op.name == "TEST":
            events = (
                inv(op, state.pid, op_id),
                res(op, state.pid, op_id, state.flag),
            )
            return Effect(state, (), events)
        raise IllegalOp(f"naive flag does not implement {op}")


# --- quorum-replicated one-bit register ------------------------------------


@dataclass(frozen=True)
class AbdState:
    pid: int
    rtag: tuple  # replica tag (counter, writer id)
    rval: int  # replica value
    opcount: int
    wcount: int  # single-writer tag counter
    pending: Optional[tuple]  # client-side phase record, see _round


_COLLECTS = {"wq": "QTR", "rq": "QVR", "ws": "ACK", "rs": "ACK"}  # reply kind per phase


class AbdRegisterProtocol(ProtocolUnderTest):
    """Majority-quorum one-bit register.

    Single-writer instances tag writes from a local counter; multi-writer
    instances first query a majority for the largest tag in circulation.
    Reads write the value they are about to return back to a majority,
    which is what keeps two sequential reads from going backwards.
    """

    def __init__(self, n: int, writers: Sequence[int], reader: int):
        if n < 3:
            raise PreconditionViolated("quorum register needs n >= 3")
        if not writers or not (0 <= reader < n):
            raise PreconditionViolated("need at least one writer and a reader")
        if any(not (0 <= w < n) for w in writers):
            raise PreconditionViolated("writer ids must be process ids")
        self.num_processes = n
        self.writers = tuple(writers)
        self.reader = reader
        self.multi_writer = len(self.writers) > 1
        self.majority = n // 2 + 1

    def init_state(self, process: int) -> AbdState:
        return AbdState(
            pid=process, rtag=(0, 0), rval=0, opcount=0, wcount=0, pending=None
        )

    def transition(self, state: AbdState, received) -> Effect:
        if received is None:
            return Effect(state, (), ())
        payload, sender = received.payload, received.sender
        kind = payload[0]

        # replica duties (always on, also while a client op is in flight)
        if kind == "QT":
            return Effect(state, ((sender, ("QTR", payload[1]) + state.rtag),), ())
        if kind == "QV":
            reply = ("QVR", payload[1]) + state.rtag + (state.rval,)
            return Effect(state, ((sender, reply),), ())
        if kind == "ST":
            _, rid, num, wid, val = payload
            if (num, wid) > state.rtag:
                state = replace(state, rtag=(num, wid), rval=val)
            return Effect(state, ((sender, ("ACK", rid)),), ())

        # client duties: collect a majority of replies for the phase in flight
        if state.pending is None or kind != _COLLECTS[state.pending[0]]:
            return Effect(state, (), ())
        phase, op_id, rid, carry, replies = state.pending
        if payload[1] != rid or sender in {r[0] for r in replies}:
            return Effect(state, (), ())
        replies = replies | {(sender,) + payload[2:]}
        if len(replies) < self.majority:
            return Effect(replace(state, pending=(phase, op_id, rid, carry, replies)), (), ())
        if phase == "wq":  # carry: the value to write
            newtag = (max(num for _, num, _ in replies) + 1, state.pid)
            return self._round(state, "ws", op_id, (newtag, carry))
        if phase == "rq":  # write back the value with the largest tag
            _, num, wid, val = max(replies, key=lambda r: (r[1], r[2]))
            return self._round(state, "rs", op_id, ((num, wid), val))
        _, value = carry  # a store round: (tag, value)
        op, result = (write(value), DONE) if phase == "ws" else (READ, value)
        return Effect(replace(state, pending=None), (), (res(op, state.pid, op_id, result),))

    def _round(self, state: AbdState, phase: str, op_id: int, carry, events=()) -> Effect:
        """Enter `phase` of operation op_id and broadcast its request: a
        tag query ("wq"), a value query ("rq", carry None) or a store of
        carry = (tag, value) ("ws", "rs"). The client phase record is
        (phase, op_id, rid, carry, replies), replies holding each
        replier's (sender,) + reply payload[2:]."""
        if phase in ("wq", "rq"):
            rid = op_id * 4
            request = ("QT" if phase == "wq" else "QV", rid)
        else:
            rid = op_id * 4 + 1
            (num, wid), value = carry
            request = ("ST", rid, num, wid, value)
        state = replace(state, pending=(phase, op_id, rid, carry, frozenset()))
        return Effect(state, tuple((q, request) for q in range(self.num_processes)), events)

    def invoke(self, state: AbdState, op: Op) -> Effect:
        if state.pending is not None:
            raise PreconditionViolated("one operation per process at a time")
        op_id = _next_op_id(state)
        state = replace(state, opcount=state.opcount + 1)
        events = (inv(op, state.pid, op_id),)
        if op.name == "WRITE":
            if state.pid not in self.writers:
                raise IllegalOp(f"process {state.pid} is not a writer")
            if self.multi_writer:
                return self._round(state, "wq", op_id, op.arg, events)
            state = replace(state, wcount=state.wcount + 1)
            return self._round(state, "ws", op_id, ((state.wcount, state.pid), op.arg), events)
        if op.name == "READ":
            if state.pid != self.reader:
                raise IllegalOp(f"process {state.pid} is not the reader")
            return self._round(state, "rq", op_id, None, events)
        raise IllegalOp(f"register does not implement {op}")


# --- test/set on top of a register -----------------------------------------


class RegisterToSAdapter(ProtocolUnderTest):
    """Runs a single-writer register and relabels ops: SET = WRITE(1),
    TEST = READ. Event logs show the flag vocabulary."""

    def __init__(self, register: AbdRegisterProtocol):
        if register.multi_writer:
            raise PreconditionViolated("flag adapter expects a single-writer register")
        self.register = register
        self.num_processes = register.num_processes

    def init_state(self, process: int):
        return self.register.init_state(process)

    @staticmethod
    def _translate(events) -> tuple:
        flag_op = {"WRITE": SET, "READ": TEST}
        return tuple(
            OperationEvent(ev.kind, flag_op[ev.op.name], ev.process, ev.op_id, ev.value)
            for ev in events
        )

    def transition(self, state, received) -> Effect:
        eff = self.register.transition(state, received)
        return Effect(eff.state, eff.sends, self._translate(eff.events))

    def invoke(self, state, op: Op) -> Effect:
        if op.name == "SET":
            eff = self.register.invoke(state, write(1))
        elif op.name == "TEST":
            eff = self.register.invoke(state, READ)
        else:
            raise IllegalOp(f"flag adapter does not implement {op}")
        return Effect(eff.state, eff.sends, self._translate(eff.events))


# --- trivial-ack object -----------------------------------------------------


@dataclass(frozen=True)
class TrivialAckState:
    pid: int
    opcount: int
    pending: Optional[tuple]  # (op_id, op name, acks frozenset)


class TrivialAckProtocol(ProtocolUnderTest):
    """Every operation broadcasts, waits for n - 2 replies, returns 0.

    Any single crash is survivable, but one crashed client plus one
    crashed server starves the remaining client (only n - 3 repliers
    are left). That gap is the point.
    """

    def __init__(self, n: int):
        if n < 3:
            raise PreconditionViolated("trivial-ack object needs n >= 3")
        self.num_processes = n
        self.acks_needed = n - 2

    def init_state(self, process: int) -> TrivialAckState:
        return TrivialAckState(pid=process, opcount=0, pending=None)

    def transition(self, state: TrivialAckState, received) -> Effect:
        if received is None:
            return Effect(state, (), ())
        kind = received.payload[0]
        if kind == "PING":
            return Effect(state, ((received.sender, ("PONG", received.payload[1])),), ())
        if kind == "PONG" and state.pending is not None:
            op_id, op_name, acks = state.pending
            if received.payload[1] == op_id and received.sender not in acks:
                acks = acks | {received.sender}
                if len(acks) >= self.acks_needed:
                    return Effect(
                        replace(state, pending=None),
                        (),
                        (res(Op(op_name), state.pid, op_id, 0),),
                    )
                return Effect(replace(state, pending=(op_id, op_name, acks)), (), ())
        return Effect(state, (), ())

    def invoke(self, state: TrivialAckState, op: Op) -> Effect:
        op_id = _next_op_id(state)
        sends = tuple(
            (q, ("PING", op_id)) for q in range(self.num_processes) if q != state.pid
        )
        state = replace(state, opcount=state.opcount + 1, pending=(op_id, op.name, frozenset()))
        return Effect(state, sends, (inv(op, state.pid, op_id),))


# --- scripted drivers -------------------------------------------------------


@dataclass(frozen=True)
class Invoke:
    op: Op


@dataclass(frozen=True)
class WaitFor:
    tag: str


@dataclass(frozen=True)
class SendTag:
    tag: str
    receiver: int


@dataclass(frozen=True)
class DriverProgram:
    """Per-process operation scripts plus which response decides a run.

    scripts[p] is process p's tuple of actions. The scripts cover
    processes 0, 1, ... up to some count, and every process after them
    has no script, so one program drives a protocol at any size. A
    run's decision is the value that decision_op returns at
    decision_process; both are None for a program that decides
    nothing."""

    scripts: tuple
    decision_process: Optional[int]
    decision_op: Optional[str]


# Process 0 tests, process 1 sets, nothing else.
DRIVER_TOS = DriverProgram(((Invoke(TEST),), (Invoke(SET),)), 0, "TEST")

# Handshaked two-writer/one-reader program. Process 0 writes 0, then
# waits for "OK" before reading; process 1 writes 1 and sends "OK" once
# its write returned. The read therefore never starts before the write
# of 1 has completed.
DRIVER_2W1R = DriverProgram(
    ((Invoke(write(0)), WaitFor("OK"), Invoke(READ)), (Invoke(write(1)), SendTag("OK", 0))),
    0,
    "READ",
)

# Processes 0 and 1 invoke one operation each; the rest stay passive.
DRIVER_CLIENTS = DriverProgram(((Invoke(Op("OP")),), (Invoke(Op("OP")),)), None, None)


_CANONICAL = weakref.WeakValueDictionary()  # field values -> the live SysState with them


@dataclass(frozen=True, eq=False, init=False)
class SysState:
    """A process's local state in a ScriptedSystem, hash-consed: while a
    SysState with given field values lives, constructing one with equal
    values returns that same object. So equal states are one object,
    and equality and hashing are identity's, which run in C; every memo
    lookup and core-key probe hashes whole states tuples. The table
    holds its objects weakly, so a state lives no longer than the
    configurations and memos that hold it."""

    pc: int
    flags: frozenset  # driver tags received so far
    impl: object
    decided: Optional[int] = None  # what the driver's decision op returned here
    done: int = 0  # this process's operations that have returned

    def __new__(cls, pc: int, flags: frozenset, impl, decided: Optional[int] = None, done: int = 0):
        key = (pc, flags, impl, decided, done)
        state = _CANONICAL.get(key)
        if state is None:
            state = object.__new__(cls)
            for name, value in zip(("pc", "flags", "impl", "decided", "done"), key):
                object.__setattr__(state, name, value)
            _CANONICAL[key] = state
        return state


class ScriptedSystem(ProtocolUnderTest):
    """A protocol composed with a driver program.

    Each step first lets the implementation consume the received message
    (driver tags are invisible to it; it sees an idle receipt instead),
    then advances the process's script as far as it can: invocations
    need the implementation idle, waits need their tag, sends need the
    previous operation finished. The value the driver's decision op
    returns is kept in the deciding process's state (SysState.decided),
    so a configuration's decision is part of its core. So is the count
    of each process's returned operations (SysState.done), which the
    script position and the implementation's `pending` already fix.
    """

    def __init__(self, inner: ProtocolUnderTest, driver: DriverProgram, name: str):
        if len(driver.scripts) > inner.num_processes:
            raise PreconditionViolated("driver has more scripts than the protocol has processes")
        if inner.num_processes > UID_RADIX:
            raise PreconditionViolated(
                f"n = {inner.num_processes} exceeds {UID_RADIX} processes;"
                " message uids would collide"
            )
        self.inner = inner
        self.driver = driver
        self.name = name
        self.num_processes = inner.num_processes
        self._effects: dict = {}  # transition memo, see transition

    def init_state(self, process: int) -> SysState:
        return SysState(pc=0, flags=frozenset(), impl=self.inner.init_state(process))

    def transition(self, state: SysState, received) -> Effect:
        """Memoized on (state, sender, payload): see the contract in
        ProtocolUnderTest.transition."""
        if received is None:
            key = (state, None)
        else:
            key = (state, received.sender, received.payload)
        effect = self._effects.get(key)
        if effect is None:
            effect = self._effects[key] = self._transition(state, received)
        return effect

    def _transition(self, state: SysState, received) -> Effect:
        pc, flags, impl = state.pc, state.flags, state.impl
        sends: list = []
        events: list = []

        if received is not None and received.payload[0] == "DRV":
            flags = flags | {received.payload[1]}
            eff = self.inner.transition(impl, None)
        else:
            eff = self.inner.transition(impl, received)
        impl = eff.state
        sends.extend(eff.sends)
        events.extend(eff.events)

        scripts = self.driver.scripts
        script = scripts[impl.pid] if impl.pid < len(scripts) else ()
        while pc < len(script):
            act = script[pc]
            if isinstance(act, WaitFor):
                if act.tag not in flags:
                    break
            elif not isinstance(act, (Invoke, SendTag)):
                raise PreconditionViolated(f"unknown driver action {act!r}")
            elif impl.pending is not None:
                break  # invocations and tag sends wait for the operation in flight
            elif isinstance(act, Invoke):
                eff = self.inner.invoke(impl, act.op)
                impl = eff.state
                sends.extend(eff.sends)
                events.extend(eff.events)
            else:
                sends.append((act.receiver, ("DRV", act.tag)))
            pc += 1

        decided, done = state.decided, state.done
        driver = self.driver
        for ev in events:
            if ev.kind == RESPONSE:
                done += 1
                if ev.process == driver.decision_process and ev.op.name == driver.decision_op:
                    decided = ev.value
        # an unchanged state comes back as the same object (SysState is
        # hash-consed), which lets apply_step recognise a step that
        # changes nothing
        return Effect(SysState(pc, flags, impl, decided, done), tuple(sends), tuple(events))


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class BuiltProtocol:
    """A ready-to-run system and the sequential object its history
    events speak (TOS_SPEC, REG_SPEC, or None when there is nothing to
    check). The clients are the processes the driver gives a script,
    the servers are the others."""

    system: ScriptedSystem
    spec: Optional[SequentialSpec] = None

    @property
    def clients(self) -> tuple:
        return tuple(p for p, script in enumerate(self.system.driver.scripts) if script)

    @property
    def servers(self) -> tuple:
        clients = self.clients
        return tuple(p for p in range(self.system.num_processes) if p not in clients)


# name -> (default n, the protocol for n, driver, sequential object)
PROTOCOLS = {
    "naive-tos": (2, NaiveTosProtocol, DRIVER_TOS, TOS_SPEC),
    "abd-tos": (3, lambda n: RegisterToSAdapter(AbdRegisterProtocol(n, writers=(1,), reader=0)),
                DRIVER_TOS, TOS_SPEC),
    "abd-reg": (3, lambda n: AbdRegisterProtocol(n, writers=(0, 1), reader=0),
                DRIVER_2W1R, REG_SPEC),
    "trivial-ack": (4, TrivialAckProtocol, DRIVER_CLIENTS, None),
}


def build_protocol(name: str, n: Optional[int] = None) -> BuiltProtocol:
    """Look a protocol up by registry name and assemble it."""
    try:
        default_n, protocol, driver, spec = PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {', '.join(sorted(PROTOCOLS))}"
        ) from None
    inner = protocol(default_n if n is None else n)
    return BuiltProtocol(ScriptedSystem(inner, driver, name), spec)

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


def _check_process_count(n: int) -> None:
    if n > UID_RADIX:
        raise PreconditionViolated(
            f"n = {n} exceeds {UID_RADIX} processes; message uids would collide"
        )


class ProtocolUnderTest:
    """Deterministic per-process automaton interface."""

    name: str = "abstract"
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

    def has_pending_op(self, state) -> bool:
        raise NotImplementedError


# --- naive test/set flag ---------------------------------------------------


@dataclass(frozen=True)
class NaiveTosState:
    pid: int
    flag: int
    opcount: int
    set_flush: Optional[int]  # op_id of a SET awaiting its completion step


class NaiveTosProtocol(ProtocolUnderTest):
    """Broadcast-and-hope flag: no acknowledgements anywhere."""

    def __init__(self, n: int):
        if n < 2:
            raise PreconditionViolated("need at least a setter and a tester")
        _check_process_count(n)
        self.name = "naive-tos"
        self.num_processes = n

    def init_state(self, process: int) -> NaiveTosState:
        return NaiveTosState(pid=process, flag=0, opcount=0, set_flush=None)

    def transition(self, state: NaiveTosState, received) -> Effect:
        events = []
        if received is not None and received.payload[0] == "SETBIT":
            state = replace(state, flag=1)
        if state.set_flush is not None:
            # the one extra local step a SET takes before completing
            events.append(res(SET, state.pid, state.set_flush, DONE))
            state = replace(state, set_flush=None)
        return Effect(state, (), tuple(events))

    def invoke(self, state: NaiveTosState, op: Op) -> Effect:
        op_id = _next_op_id(state)
        state = replace(state, opcount=state.opcount + 1)
        if op.name == "SET":
            sends = tuple(
                (q, ("SETBIT",)) for q in range(self.num_processes) if q != state.pid
            )
            state = replace(state, set_flush=op_id)
            return Effect(state, sends, (inv(op, state.pid, op_id),))
        if op.name == "TEST":
            events = (
                inv(op, state.pid, op_id),
                res(op, state.pid, op_id, state.flag),
            )
            return Effect(state, (), events)
        raise IllegalOp(f"naive flag does not implement {op}")

    def has_pending_op(self, state: NaiveTosState) -> bool:
        return state.set_flush is not None


# --- quorum-replicated one-bit register ------------------------------------


@dataclass(frozen=True)
class AbdState:
    pid: int
    rtag: tuple  # replica tag (counter, writer id)
    rval: int  # replica value
    opcount: int
    wcount: int  # single-writer tag counter
    pending: Optional[tuple]  # client-side phase record, see _handle


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
        _check_process_count(n)
        if not writers or not (0 <= reader < n):
            raise PreconditionViolated("need at least one writer and a reader")
        if any(not (0 <= w < n) for w in writers):
            raise PreconditionViolated("writer ids must be process ids")
        self.name = "abd-reg"
        self.num_processes = n
        self.writers = tuple(writers)
        self.reader = reader
        self.multi_writer = len(self.writers) > 1
        self.majority = n // 2 + 1

    def init_state(self, process: int) -> AbdState:
        return AbdState(
            pid=process, rtag=(0, 0), rval=0, opcount=0, wcount=0, pending=None
        )

    def _broadcast(self, payload) -> tuple:
        return tuple((q, payload) for q in range(self.num_processes))

    def transition(self, state: AbdState, received) -> Effect:
        if received is None:
            return Effect(state, (), ())
        return self._handle(state, received)

    def _handle(self, state: AbdState, msg) -> Effect:
        kind = msg.payload[0]
        sends: list = []
        events: list = []

        # replica duties (always on, also while a client op is in flight)
        if kind == "QT":
            _, rid = msg.payload
            sends.append((msg.sender, ("QTR", rid, state.rtag[0], state.rtag[1])))
        elif kind == "QV":
            _, rid = msg.payload
            sends.append(
                (msg.sender, ("QVR", rid, state.rtag[0], state.rtag[1], state.rval))
            )
        elif kind == "ST":
            _, rid, num, wid, val = msg.payload
            if (num, wid) > state.rtag:
                state = replace(state, rtag=(num, wid), rval=val)
            sends.append((msg.sender, ("ACK", rid)))

        # client duties (quorum collection for the phase in flight)
        elif kind == "QTR" and state.pending and state.pending[0] == "wq":
            _, rid, num, wid = msg.payload
            _, op_id, value, want_rid, replies = state.pending
            if rid == want_rid and msg.sender not in {s for s, *_ in replies}:
                replies = replies | {(msg.sender, num, wid)}
                if len(replies) >= self.majority:
                    newtag = (max(n for _, n, _ in replies) + 1, state.pid)
                    store_rid = op_id * 4 + 1
                    state = replace(
                        state,
                        pending=("ws", op_id, store_rid, newtag, value, frozenset()),
                    )
                    sends.extend(
                        self._broadcast(("ST", store_rid, newtag[0], newtag[1], value))
                    )
                else:
                    state = replace(
                        state, pending=("wq", op_id, value, want_rid, replies)
                    )
        elif kind == "QVR" and state.pending and state.pending[0] == "rq":
            _, rid, num, wid, val = msg.payload
            _, op_id, want_rid, replies = state.pending
            if rid == want_rid and msg.sender not in {s for s, *_ in replies}:
                replies = replies | {(msg.sender, num, wid, val)}
                if len(replies) >= self.majority:
                    _, num, wid, val = max(replies, key=lambda r: (r[1], r[2]))
                    store_rid = op_id * 4 + 1
                    state = replace(
                        state,
                        pending=("rs", op_id, store_rid, (num, wid), val, frozenset()),
                    )
                    sends.extend(self._broadcast(("ST", store_rid, num, wid, val)))
                else:
                    state = replace(state, pending=("rq", op_id, want_rid, replies))
        elif kind == "ACK" and state.pending and state.pending[0] in ("ws", "rs"):
            _, rid = msg.payload
            phase, op_id, want_rid, tag, value, acks = state.pending
            if rid == want_rid and msg.sender not in acks:
                acks = acks | {msg.sender}
                if len(acks) >= self.majority:
                    if phase == "ws":
                        events.append(res(write(value), state.pid, op_id, DONE))
                    else:
                        events.append(res(READ, state.pid, op_id, value))
                    state = replace(state, pending=None)
                else:
                    state = replace(
                        state, pending=(phase, op_id, want_rid, tag, value, acks)
                    )
        return Effect(state, tuple(sends), tuple(events))

    def invoke(self, state: AbdState, op: Op) -> Effect:
        if state.pending is not None:
            raise PreconditionViolated("one operation per process at a time")
        op_id = _next_op_id(state)
        state = replace(state, opcount=state.opcount + 1)
        if op.name == "WRITE":
            if state.pid not in self.writers:
                raise IllegalOp(f"process {state.pid} is not a writer")
            if self.multi_writer:
                rid = op_id * 4
                state = replace(state, pending=("wq", op_id, op.arg, rid, frozenset()))
                return Effect(
                    state, self._broadcast(("QT", rid)), (inv(op, state.pid, op_id),)
                )
            rid = op_id * 4 + 1
            tag = (state.wcount + 1, state.pid)
            state = replace(
                state,
                wcount=state.wcount + 1,
                pending=("ws", op_id, rid, tag, op.arg, frozenset()),
            )
            return Effect(
                state,
                self._broadcast(("ST", rid, tag[0], tag[1], op.arg)),
                (inv(op, state.pid, op_id),),
            )
        if op.name == "READ":
            if state.pid != self.reader:
                raise IllegalOp(f"process {state.pid} is not the reader")
            rid = op_id * 4
            state = replace(state, pending=("rq", op_id, rid, frozenset()))
            return Effect(
                state, self._broadcast(("QV", rid)), (inv(op, state.pid, op_id),)
            )
        raise IllegalOp(f"register does not implement {op}")

    def has_pending_op(self, state: AbdState) -> bool:
        return state.pending is not None


# --- test/set on top of a register -----------------------------------------


class RegisterToSAdapter(ProtocolUnderTest):
    """Runs a single-writer register and relabels ops: SET = WRITE(1),
    TEST = READ. Event logs show the flag vocabulary."""

    def __init__(self, register: AbdRegisterProtocol):
        if register.multi_writer:
            raise PreconditionViolated("flag adapter expects a single-writer register")
        self.register = register
        self.name = "abd-tos"
        self.num_processes = register.num_processes

    def init_state(self, process: int):
        return self.register.init_state(process)

    @staticmethod
    def _translate(events) -> tuple:
        out = []
        for ev in events:
            if ev.op.name == "WRITE":
                out.append(OperationEvent(ev.kind, SET, ev.process, ev.op_id, ev.value))
            elif ev.op.name == "READ":
                out.append(OperationEvent(ev.kind, TEST, ev.process, ev.op_id, ev.value))
            else:
                out.append(ev)
        return tuple(out)

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

    def has_pending_op(self, state) -> bool:
        return self.register.has_pending_op(state)


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
        _check_process_count(n)
        self.name = "trivial-ack"
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

    def has_pending_op(self, state: TrivialAckState) -> bool:
        return state.pending is not None


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
    """Per-process operation scripts plus which response decides a run."""

    scripts: tuple  # tuple of per-process action tuples, index = process
    decision_process: Optional[int]
    decision_op: Optional[str]


def make_driver_tos(protocol: ProtocolUnderTest) -> DriverProgram:
    """Process 0 tests, process 1 sets, nothing else."""
    scripts = [() for _ in range(protocol.num_processes)]
    scripts[0] = (Invoke(TEST),)
    scripts[1] = (Invoke(SET),)
    return DriverProgram(tuple(scripts), 0, "TEST")


def make_driver_2w1r(protocol: ProtocolUnderTest) -> DriverProgram:
    """Handshaked two-writer/one-reader program.

    Process 0 writes 0, then waits for "OK" before reading; process 1
    writes 1 and sends "OK" once its write returned. The read therefore
    never starts before the write of 1 has completed.
    """
    scripts = [() for _ in range(protocol.num_processes)]
    scripts[0] = (Invoke(write(0)), WaitFor("OK"), Invoke(READ))
    scripts[1] = (Invoke(write(1)), SendTag("OK", 0))
    return DriverProgram(tuple(scripts), 0, "READ")


def make_driver_clients(protocol: ProtocolUnderTest) -> DriverProgram:
    """Processes 0 and 1 invoke one operation each; the rest stay passive."""
    scripts = [() for _ in range(protocol.num_processes)]
    scripts[0] = (Invoke(Op("OP")),)
    scripts[1] = (Invoke(Op("OP")),)
    return DriverProgram(tuple(scripts), None, None)


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

    def __new__(cls, pc: int, flags: frozenset, impl, decided: Optional[int] = None):
        key = (pc, flags, impl, decided)
        state = _CANONICAL.get(key)
        if state is None:
            state = object.__new__(cls)
            for name, value in zip(("pc", "flags", "impl", "decided"), key):
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
    so a configuration's decision is part of its core.
    """

    def __init__(self, inner: ProtocolUnderTest, driver: DriverProgram, name: str):
        if len(driver.scripts) != inner.num_processes:
            raise PreconditionViolated("driver script count must match process count")
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

        script = self.driver.scripts[impl.pid]  # every inner state carries its pid
        while pc < len(script):
            act = script[pc]
            if isinstance(act, Invoke):
                if self.inner.has_pending_op(impl):
                    break
                eff = self.inner.invoke(impl, act.op)
                impl = eff.state
                sends.extend(eff.sends)
                events.extend(eff.events)
                pc += 1
            elif isinstance(act, WaitFor):
                if act.tag not in flags:
                    break
                pc += 1
            elif isinstance(act, SendTag):
                if self.inner.has_pending_op(impl):
                    break
                sends.append((act.receiver, ("DRV", act.tag)))
                pc += 1
            else:
                raise PreconditionViolated(f"unknown driver action {act!r}")

        decided = state.decided
        driver = self.driver
        for ev in events:
            if (ev.kind == RESPONSE and ev.process == driver.decision_process
                    and ev.op.name == driver.decision_op):
                decided = ev.value
        # an unchanged state comes back as the same object (SysState is
        # hash-consed), which lets apply_step recognise a step that
        # changes nothing
        return Effect(SysState(pc, flags, impl, decided), tuple(sends), tuple(events))


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class BuiltProtocol:
    """A ready-to-run system and the sequential object its history
    events speak (TOS_SPEC, REG_SPEC, or None when there is nothing to
    check). The clients are the processes the driver gives a script,
    the servers are the others, and checker_mode is the spec's checker."""

    system: ScriptedSystem
    spec: Optional[SequentialSpec] = None

    @property
    def clients(self) -> tuple:
        return tuple(p for p, script in enumerate(self.system.driver.scripts) if script)

    @property
    def servers(self) -> tuple:
        return tuple(p for p, script in enumerate(self.system.driver.scripts) if not script)

    @property
    def checker_mode(self) -> Optional[str]:
        return None if self.spec is None else self.spec.checker


def _build_naive_tos(n: Optional[int]) -> BuiltProtocol:
    n = 2 if n is None else n
    inner = NaiveTosProtocol(n)
    system = ScriptedSystem(inner, make_driver_tos(inner), "naive-tos")
    return BuiltProtocol(system, TOS_SPEC)


def _build_abd_tos(n: Optional[int]) -> BuiltProtocol:
    n = 3 if n is None else n
    inner = RegisterToSAdapter(AbdRegisterProtocol(n, writers=(1,), reader=0))
    system = ScriptedSystem(inner, make_driver_tos(inner), "abd-tos")
    return BuiltProtocol(system, TOS_SPEC)


def _build_abd_reg(n: Optional[int]) -> BuiltProtocol:
    n = 3 if n is None else n
    inner = AbdRegisterProtocol(n, writers=(0, 1), reader=0)
    system = ScriptedSystem(inner, make_driver_2w1r(inner), "abd-reg")
    return BuiltProtocol(system, REG_SPEC)


def _build_trivial_ack(n: Optional[int]) -> BuiltProtocol:
    n = 4 if n is None else n
    inner = TrivialAckProtocol(n)
    system = ScriptedSystem(inner, make_driver_clients(inner), "trivial-ack")
    return BuiltProtocol(system)


PROTOCOLS = {
    "naive-tos": _build_naive_tos,
    "abd-tos": _build_abd_tos,
    "abd-reg": _build_abd_reg,
    "trivial-ack": _build_trivial_ack,
}


def build_protocol(name: str, n: Optional[int] = None) -> BuiltProtocol:
    """Look a protocol up by registry name and assemble it."""
    try:
        builder = PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {', '.join(sorted(PROTOCOLS))}"
        ) from None
    return builder(n)

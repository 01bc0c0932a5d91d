"""Operation events, histories, and sequential object specifications.

The simulator records object operations as invocation/response event pairs
in a global log. This module defines that vocabulary: well-formedness of
event logs, the precedence (real-time) order between operations, and
the sequential specifications the consistency checkers replay candidate
orderings against.

Two object types are built in:

  * a one-bit test/set flag: a distinguished process may apply ``set``
    once (it returns ``done``), a different one may apply ``test`` once,
    and ``test`` returns 1 iff a ``set`` took effect before it;
  * a one-bit read/write register, initially 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

DONE = "done"

Value = Union[int, str, None]


class MalformedHistory(Exception):
    """Event log violates well-formedness; raised when an OpHistory is built."""


class IllegalOp(Exception):
    """Operation not permitted by the sequential specification."""


@dataclass(frozen=True)
class Op:
    """An object operation, e.g. Op("WRITE", 1) or Op("TEST")."""

    name: str
    arg: Optional[int] = None

    def __str__(self) -> str:
        if self.arg is None:
            return self.name
        return f"{self.name}({self.arg})"


TEST = Op("TEST")
SET = Op("SET")
READ = Op("READ")


def write(v: int) -> Op:
    return Op("WRITE", v)


INVOCATION = "invocation"
RESPONSE = "response"


@dataclass(frozen=True)
class OperationEvent:
    """One log entry: the start or the end of an operation instance.

    op_id identifies the operation instance; the invocation and response
    of the same instance share it. value is None for invocations.
    """

    kind: str
    op: Op
    process: int
    op_id: int
    value: Value = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "op": str(self.op),
            "process": self.process,
            "opId": self.op_id,
            "value": self.value,
        }


def inv(op: Op, process: int, op_id: int) -> OperationEvent:
    return OperationEvent(INVOCATION, op, process, op_id)


def res(op: Op, process: int, op_id: int, value: Value) -> OperationEvent:
    return OperationEvent(RESPONSE, op, process, op_id, value)


@dataclass(frozen=True)
class OpInstance:
    """A single operation occurrence reconstructed from the log."""

    op: Op
    process: int
    op_id: int
    inv_index: int
    res_index: Optional[int]  # None while pending
    value: Value  # response value; None while pending

    @property
    def complete(self) -> bool:
        return self.res_index is not None


class OpHistory:
    """An operation history: a finite sequence of well-formed events.

    Well-formedness: every response is preceded by the matching invocation
    (same op_id, op, and process), op_ids are not reused, and each process
    has at most one operation pending at a time.

    A history is immutable, so what the checkers derive from it alone
    (checkers.linearizations' precedence table and placement order) is
    kept in `_prepared`, filled on first use.
    """

    __slots__ = ("events", "_ops", "_prepared")

    def __init__(self, events: Sequence[OperationEvent] = ()):
        self.events = tuple(events)
        self._ops = self._collect()
        self._prepared = None

    def _collect(self) -> tuple[OpInstance, ...]:
        open_by_process: dict[int, int] = {}
        partial: dict[int, list] = {}
        order: list[int] = []
        for i, ev in enumerate(self.events):
            if ev.kind == INVOCATION:
                if ev.op_id in partial:
                    raise MalformedHistory(f"op_id {ev.op_id} invoked twice")
                if ev.process in open_by_process:
                    raise MalformedHistory(
                        f"process {ev.process} invokes while op "
                        f"{open_by_process[ev.process]} is pending"
                    )
                partial[ev.op_id] = [ev.op, ev.process, i, None, None]
                open_by_process[ev.process] = ev.op_id
                order.append(ev.op_id)
            elif ev.kind == RESPONSE:
                rec = partial.get(ev.op_id)
                if rec is None or rec[3] is not None:
                    raise MalformedHistory(f"response without open op_id {ev.op_id}")
                if rec[0] != ev.op or rec[1] != ev.process:
                    raise MalformedHistory(f"response mismatch for op_id {ev.op_id}")
                rec[3] = i
                rec[4] = ev.value
                del open_by_process[ev.process]
            else:
                raise MalformedHistory(f"unknown event kind {ev.kind!r}")
        return tuple(
            OpInstance(rec[0], rec[1], oid, rec[2], rec[3], rec[4])
            for oid, rec in ((oid, partial[oid]) for oid in order)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, OpHistory) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        parts = []
        for ev in self.events:
            tag = "I" if ev.kind == INVOCATION else f"R={ev.value}"
            parts.append(f"{ev.process}:{ev.op}#{ev.op_id}:{tag}")
        return f"OpHistory[{' '.join(parts)}]"

    @property
    def ops(self) -> tuple[OpInstance, ...]:
        return self._ops

    def complete_ops(self) -> tuple[OpInstance, ...]:
        return tuple(o for o in self._ops if o.complete)

    def pending_ops(self) -> tuple[OpInstance, ...]:
        return tuple(o for o in self._ops if not o.complete)

    def precedes(self, a: OpInstance, b: OpInstance) -> bool:
        """Real-time order: a's response happened before b's invocation."""
        return a.res_index is not None and a.res_index < b.inv_index

    def to_json(self) -> list[dict]:
        return [ev.to_json() for ev in self.events]


# --- sequential specifications -------------------------------------------


class SequentialSpec:
    """A sequential object: initial state and transition.

    checker names the tree checker whose property the object is studied
    under: "strong" or "write-strong".
    """

    checker: Optional[str] = None
    initial_state: Value = None

    def apply(self, state, op: Op) -> tuple[object, Value]:
        raise NotImplementedError


class ToSSpec(SequentialSpec):
    """One-bit test/set flag, initially 0; its property is strong
    linearizability."""

    checker = "strong"
    initial_state = 0

    def apply(self, state, op: Op):
        """TEST returns the bit and leaves it; SET raises it and returns done."""
        if op.name == "TEST":
            return state, state
        if op.name == "SET":
            return 1, DONE
        raise IllegalOp(f"test/set flag does not implement {op}")


class RegisterSpec(SequentialSpec):
    """One-bit read/write register, initially 0; its property is write
    strong linearizability."""

    checker = "write-strong"
    initial_state = 0

    def apply(self, state, op: Op):
        """READ returns the state; WRITE(v) installs v and returns done."""
        if op.name == "READ":
            return state, state
        if op.name == "WRITE":
            if op.arg not in (0, 1):
                raise IllegalOp(f"register holds one bit, got {op}")
            return op.arg, DONE
        raise IllegalOp(f"register does not implement {op}")


TOS_SPEC = ToSSpec()
REG_SPEC = RegisterSpec()

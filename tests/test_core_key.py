"""Configuration keys: payloads are part of message identity, and
SysState hashes are cached.

A configuration's core key is (states, inbox, channels). The inbox is a
key in its own right because a Message compares by (seq, sender,
receiver, payload).
"""

import dataclasses
import random

import pytest

from conftest import random_walk
from linlab.model import (
    Message,
    NotApplicable,
    Step,
    apply_history,
    apply_step,
    applicable,
)
from linlab.protocols import SysState
from linlab.valence import build_scenario


def test_forged_payload_step_is_not_applicable():
    # a step naming a buffered slot with another payload names a message
    # that was never sent, so it must not apply
    s = build_scenario("abd-reg")
    config = s.initial()
    while not config.buffer:
        config = apply_step(config, Step(s.built.clients[0], None), s.system)
    m = min(config.buffer, key=Message.sort_key)
    forged = Message(m.seq, m.sender, m.receiver, ("FORGED",))
    step = Step(m.receiver, forged)
    assert not applicable(config, step)
    with pytest.raises(NotApplicable):
        apply_step(config, step, s.system)


class TestSysStateHash:
    def test_equal_states_hash_equal(self):
        s = build_scenario("abd-tos")
        a = s.system.init_state(0)
        b = s.system.init_state(0)
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_hash_is_the_field_tuple_hash(self):
        s = build_scenario("abd-reg")
        _, hist = random_walk(s, random.Random(2), 12)
        final, _ = apply_history(s.initial(), hist, s.system)
        for state in final.states:
            assert hash(state) == hash((state.pc, state.flags, state.impl, state.decided))

    def test_replace_keeps_the_hash_consistent(self):
        state = build_scenario("naive-tos").system.init_state(1)
        moved = dataclasses.replace(state, pc=state.pc + 1, flags=frozenset({"OK"}), decided=1)
        assert hash(moved) == hash((moved.pc, moved.flags, moved.impl, moved.decided))
        back = dataclasses.replace(moved, pc=state.pc, flags=state.flags, decided=None)
        assert back == state and hash(back) == hash(state)

    def test_equality_compares_fields_only(self):
        state = build_scenario("naive-tos").system.init_state(0)
        assert [f.name for f in dataclasses.fields(SysState)] == [
            "pc", "flags", "impl", "decided"]
        assert state != dataclasses.replace(state, pc=state.pc + 1)
        assert state != dataclasses.replace(state, decided=0)
        assert repr(state).startswith("SysState(pc=")

"""Hash each configuration once: cached SysState hashes and derived core keys.

apply_step derives a child's core key from its parent's once the parent's
key has been read. A derived key must equal the one built from scratch on
a fresh Configuration with the same fields, which has no parent to derive
from.
"""

import dataclasses
import random

import pytest

from conftest import random_walk
from linlab.model import (
    Configuration,
    Message,
    SchedulingMode,
    Step,
    apply_history,
    apply_step,
    enabled_steps,
)
from linlab.protocols import SysState
from linlab.valence import build_scenario

PROTOCOLS = ("naive-tos", "abd-tos", "abd-reg", "trivial-ack")


def scratch_key(config: Configuration) -> tuple:
    fresh = Configuration(
        states=config.states,
        buffer=config.buffer,
        events=config.events,
        step_count=config.step_count,
        channels=config.channels,
    )
    return fresh.core_key()


def derived(config: Configuration) -> bool:
    return "_parked_key" in config.__dict__


@pytest.mark.parametrize("name", PROTOCOLS)
def test_walk_keys_match_scratch_keys(name):
    for seed in range(6):
        s = build_scenario(name)
        _, hist = random_walk(s, random.Random(seed), 24)
        config = s.initial()
        assert config.core_key() == scratch_key(config)
        for step in hist:
            config = apply_step(config, step, s.system)
            assert derived(config)
            assert config.core_key() == scratch_key(config)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_unread_parents_derive_nothing(name):
    s = build_scenario(name)
    _, hist = random_walk(s, random.Random(1), 16)
    final, trace = apply_history(s.initial(), hist, s.system)
    assert not any(derived(c) for c in trace)
    assert final.core_key() == scratch_key(final)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_successor_derives_its_scratch_key(name):
    receipts = multi_sends = 0
    for seed in range(4):
        s = build_scenario(name)
        _, hist = random_walk(s, random.Random(seed), 14)
        _, trace = apply_history(s.initial(), hist, s.system)
        for config in trace:
            config.core_key()
            for p in range(s.n):
                for step in enabled_steps(config, p, SchedulingMode.FULL_NONDET):
                    child = apply_step(config, step, s.system)
                    assert derived(child)
                    assert child.core_key() == scratch_key(child)
                    receipts += step.received is not None
                    sent = sum(child.channels[p]) - sum(config.channels[p])
                    multi_sends += sent >= 2
    assert receipts
    # naive-tos runs two processes, so no step of it sends more than one
    assert multi_sends or name == "naive-tos"


def test_mismatched_received_payload_falls_back_to_scratch():
    # a step may name a buffered message by identity alone; the derived
    # buffer part would keep the buffered tuple, so the child builds its
    # key from scratch instead
    s = build_scenario("abd-reg")
    config = s.initial()
    while not config.buffer:
        config = apply_step(config, Step(s.built.clients[0], None), s.system)
    config.core_key()
    m = min(config.buffer, key=Message.sort_key)
    forged = Message(m.seq, m.sender, m.receiver, ("FORGED",))
    child = apply_step(config, Step(m.receiver, forged), s.system)
    assert not derived(child)
    assert child.core_key() == scratch_key(child)
    assert all(t[:3] != (m.seq, m.sender, m.receiver) for t in child.core_key()[1])


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
            assert hash(state) == hash((state.pc, state.flags, state.impl))

    def test_replace_keeps_the_hash_consistent(self):
        state = build_scenario("naive-tos").system.init_state(1)
        moved = dataclasses.replace(state, pc=state.pc + 1, flags=frozenset({"OK"}))
        assert hash(moved) == hash((moved.pc, moved.flags, moved.impl))
        back = dataclasses.replace(moved, pc=state.pc, flags=state.flags)
        assert back == state and hash(back) == hash(state)

    def test_equality_compares_fields_only(self):
        state = build_scenario("naive-tos").system.init_state(0)
        assert [f.name for f in dataclasses.fields(SysState)] == ["pc", "flags", "impl"]
        assert state != dataclasses.replace(state, pc=state.pc + 1)
        assert repr(state).startswith("SysState(pc=")

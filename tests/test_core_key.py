"""Configuration keys: payloads are part of message identity, and
equal SysStates are one object.

A configuration's core key is (states, inbox, channels). The inbox is a
key in its own right because a Message compares by (seq, sender,
receiver, payload). A SysState is hash-consed, so the states tuple
compares and hashes by identity, and identity is equality. Sweeps and
fair runs key by its collapse-compressed form, a tuple of interned ids,
which must be equal exactly when the core keys are.
"""

import dataclasses
import random

import pytest

from conftest import buffer, random_walk
from linlab.model import (
    Message,
    NotApplicable,
    Step,
    apply_history,
    apply_step,
    applicable,
)
import linlab.valence as valence
from linlab.protocols import SysState
from linlab.valence import build_scenario, fair_completion, reach, staged_probe

PROTOCOLS = ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"]


def test_forged_payload_step_is_not_applicable():
    # a step naming a buffered slot with another payload names a message
    # that was never sent, so it must not apply
    s = build_scenario("abd-reg")
    config = s.initial()
    while not buffer(config):
        config = apply_step(config, Step(s.built.clients[0], None), s.system)
    m = min(buffer(config), key=lambda m: (m.seq, m.sender))
    forged = Message(m.seq, m.sender, m.receiver, ("FORGED",))
    step = Step(m.receiver, forged)
    assert not applicable(config, step)
    with pytest.raises(NotApplicable):
        apply_step(config, step, s.system)


class TestSysStateHash:
    def test_equal_states_hash_equal(self):
        s = build_scenario("abd-reg")
        rng = random.Random(2)
        finals = []
        for _ in range(8):
            _, hist = random_walk(s, rng, 12)
            finals.append(apply_history(s.initial(), hist, s.system)[0])
        states = [state for final in finals for state in final.states]
        for a in states:
            for b in states:
                assert (a == b) == (a is b)
                if a == b:
                    assert hash(a) == hash(b)
        assert s.system.init_state(0) is s.system.init_state(0)

    def test_equal_fields_are_one_object_across_scenarios(self):
        one, two = build_scenario("abd-tos"), build_scenario("abd-tos")
        assert one.system is not two.system
        assert one.system.init_state(1) is two.system.init_state(1)
        _, hist = random_walk(one, random.Random(5), 15)
        a, _ = apply_history(one.initial(), hist, one.system)
        b, _ = apply_history(two.initial(), hist, two.system)
        assert all(x is y for x, y in zip(a.states, b.states))
        state = a.states[0]
        impl = dataclasses.replace(state.impl)  # equal, but another object
        assert impl is not state.impl
        assert SysState(state.pc, frozenset(list(state.flags)), impl, state.decided) is state

    def test_replace_keeps_the_hash_consistent(self):
        state = build_scenario("naive-tos").system.init_state(1)
        moved = dataclasses.replace(state, pc=state.pc + 1, flags=frozenset({"OK"}), decided=1)
        assert moved is not state and moved != state
        back = dataclasses.replace(moved, pc=state.pc, flags=state.flags, decided=None)
        assert back is state and hash(back) == hash(state)

    def test_equality_compares_fields_only(self):
        state = build_scenario("naive-tos").system.init_state(0)
        assert [f.name for f in dataclasses.fields(SysState)] == [
            "pc", "flags", "impl", "decided"]
        assert state != dataclasses.replace(state, pc=state.pc + 1)
        assert state != dataclasses.replace(state, decided=0)
        assert repr(state).startswith("SysState(pc=")


@pytest.mark.parametrize("stop_decided", [False, True])
@pytest.mark.parametrize("name", PROTOCOLS)
def test_compact_keys_are_equal_exactly_when_core_keys_are(name, stop_decided, monkeypatch):
    # one scenario, so every sweep and fair run shares its intern table;
    # most of the sweeps' keys are derived from their parent's
    s = build_scenario(name)
    keyed = []

    def spy(real):
        def keyer(ids, config, *rest):
            key = real(ids, config, *rest)
            keyed.append((config.core_key(), key))
            return key
        return keyer

    for fn in ("_compact_key", "_child_key"):
        monkeypatch.setattr(valence, fn, spy(getattr(valence, fn)))
    starts = [s.initial()]
    for seed, steps in [(1, 6), (2, 12), (3, 18)]:
        _, hist = random_walk(s, random.Random(seed), steps)
        starts.append(apply_history(s.initial(), hist, s.system)[0])
    for start in starts:
        for _ in reach(s, start, 4, stop_decided=stop_decided):
            pass
        fair_completion(s, start)
        for q in range(s.n):
            staged_probe(s, start, q)
            fair_completion(s, start, crashed=q)
    by_core, by_key = {}, {}
    for core, key in keyed:
        assert by_core.setdefault(core, key) == key
        assert by_key.setdefault(key, core) == core
        assert all(type(part) is int for part in key)
    # keys met more than once, and several distinct ones: both directions bite
    assert len(keyed) > len(by_key) > 5

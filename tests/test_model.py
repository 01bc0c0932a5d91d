"""Execution model: steps, buffers, scheduling, commutation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlab.model import (
    Configuration,
    Effect,
    Message,
    NotApplicable,
    PreconditionViolated,
    Step,
    apply_history,
    apply_step,
    applicable,
    enabled_steps,
    initial_configuration,
    logged_events,
    trace_records,
)
from linlab.seqspec import OpHistory
from linlab.valence import build_scenario, reach

from conftest import audit_buffer_conservation, buffer, commute_check, random_walk


class TestMessageIdentity:
    @given(st.integers(0, 2**20), st.integers(0, 1023), st.integers(0, 1023))
    @settings(max_examples=60, deadline=None)
    def test_uid_injective_in_range(self, seq, sender, receiver):
        m = Message(seq=seq, sender=sender, receiver=receiver, payload=("X",))
        uid = m.uid
        assert uid % 1024 == receiver
        assert (uid // 1024) % 1024 == sender
        assert uid // (1024 * 1024) == seq

    def test_identity_includes_payload(self):
        a = Message(seq=0, sender=1, receiver=0, payload=("ST", 1))
        b = Message(seq=0, sender=1, receiver=0, payload=("QVR", 0))
        assert a != b
        assert len({a, b}) == 2

    def test_core_key_distinguishes_payloads(self):
        # same slot, different payload: behavioral identity must differ
        s = build_scenario("abd-reg")
        init = s.initial()
        a = Message(seq=0, sender=1, receiver=0, payload=("ST", 1))
        b = Message(seq=0, sender=1, receiver=0, payload=("QVR", 0))
        ca = Configuration(
            states=init.states,
            inbox=((a,),) + init.inbox[1:],
            channels=init.channels,
        )
        cb = Configuration(
            states=init.states,
            inbox=((b,),) + init.inbox[1:],
            channels=init.channels,
        )
        assert buffer(ca) != buffer(cb)
        assert ca.core_key() != cb.core_key()


class TestLoggedEvents:
    def test_a_configuration_is_states_inboxes_and_channels(self):
        assert Configuration._fields == ("states", "inbox", "channels")

    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"])
    def test_the_log_replayed_for_each_class_agrees_with_its_states(self, name):
        # the log of each class's history is well formed (OpHistory
        # refuses it otherwise) and says what the process states say:
        # returned operations, operations in flight and the decision
        s = build_scenario(name)
        init = s.initial()
        dp, op = s.decision_process, s.system.driver.decision_op
        for config, hist, _ in reach(s, init, 8):
            h = OpHistory(logged_events(init, hist, s.system))
            done = [0] * s.n
            for o in h.complete_ops():
                done[o.process] += 1
            assert [st.done for st in config.states] == done
            waiting = {p for p, st in enumerate(config.states) if st.impl.pending is not None}
            assert {o.process for o in h.pending_ops()} == waiting
            decisions = [o.value for o in h.complete_ops() if o.process == dp and o.op.name == op]
            assert s.decided(config) == (decisions[-1] if decisions else None)


class TestStepApplication:
    def test_idle_step_always_enabled(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        for p in range(s.n):
            options = enabled_steps(init, p)
            assert Step(p, None) in options

    def test_earliest_only_is_singleton(self):
        # the fair runs' oldest-first choice, inbox[p][:1], is the
        # earliest message by (seq, sender), and the first message step
        s = build_scenario("abd-reg")
        config, _ = random_walk(s, random.Random(3), 6)
        for p in range(s.n):
            pending = config.inbox[p]
            for m in pending[:1]:
                assert m == min(pending, key=lambda m: (m.seq, m.sender))
                assert enabled_steps(config, p)[1] == Step(p, m)

    def test_apply_step_is_deterministic(self):
        s = build_scenario("abd-tos")
        config, hist = random_walk(s, random.Random(7), 10)
        replay1, _ = apply_history(s.initial(), hist, s.system)
        replay2, _ = apply_history(s.initial(), hist, s.system)
        assert replay1 == replay2
        assert replay1.core_key() == replay2.core_key()
        assert trace_records(s.initial(), hist, s.system) == trace_records(
            s.initial(), hist, s.system)

    @pytest.mark.parametrize("p", [2, -1])
    def test_a_step_of_a_process_that_does_not_exist_is_refused(self, p):
        s = build_scenario("naive-tos")
        assert not applicable(s.initial(), Step(p, None))
        message = rf"^Step\({p}, None\) not applicable \(no process {p}\)$"
        with pytest.raises(NotApplicable, match=message):
            apply_step(s.initial(), Step(p, None), s.system)

    def test_receiving_absent_message_rejected(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        ghost = Message(seq=99, sender=0, receiver=1, payload=("NOPE",))
        assert not applicable(init, Step(1, ghost))
        with pytest.raises(NotApplicable):
            apply_step(init, Step(1, ghost), s.system)

    def test_step_consumes_exactly_its_message(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        # drive the setter until its broadcast is in flight
        config = apply_step(init, Step(1, None), s.system)
        sent = sorted(buffer(config) - buffer(init), key=lambda m: m.uid)
        assert sent, "invocation should broadcast something"
        target = sent[0]
        nxt = apply_step(config, Step(target.receiver, target), s.system)
        assert target not in buffer(nxt)
        assert buffer(config) - {target} <= buffer(nxt)


class TestBufferConservation:
    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"])
    def test_random_runs_conserve_messages(self, name):
        s = build_scenario(name)
        for seed in range(6):
            _, hist = random_walk(s, random.Random(seed), 20)
            assert audit_buffer_conservation(s.initial(), hist, s.system)


class TestInbox:
    """The per-receiver inboxes against the buffer-as-a-set definition."""

    WALKS = [("naive-tos", None), ("abd-tos", None), ("abd-reg", None),
             ("trivial-ack", None), ("abd-tos", 5), ("abd-reg", 5), ("trivial-ack", 6)]

    @given(st.sampled_from(WALKS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_walk_keeps_the_inbox_invariants(self, walk, seed):
        name, n = walk
        s = build_scenario(name, n)
        rng = random.Random(seed)
        config = s.initial()
        for _ in range(40):
            for q in range(s.n):
                want = sorted((m for m in buffer(config) if m.receiver == q),
                              key=lambda m: (m.seq, m.sender))
                assert list(config.inbox[q]) == want
            p = rng.randrange(s.n)
            step = rng.choice(enabled_steps(config, p))
            effect = s.system.transition(config.states[p], step.received)
            child = apply_step(config, step, s.system)

            # the buffer moves exactly as the set definition says
            counts = list(config.channels[p])
            sent = set()
            for r, payload in effect.sends:
                sent.add(Message(counts[r], p, r, payload))
                counts[r] += 1
            assert buffer(child) == (buffer(config) - {step.received}) | sent

            idle = step.received is None and not effect.sends
            assert (child is config) == (idle and effect.state is config.states[p])
            if idle and effect.state == config.states[p]:
                assert child == config
            config = child

    @given(st.sampled_from(WALKS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_index_path_matches_the_lookup(self, walk, seed):
        # apply_step with the received message's inbox index (-1 for the
        # idle receipt) is the step found by lookup, and a plain
        # (process, message) pair is accepted wherever a Step is
        name, n = walk
        s = build_scenario(name, n)
        rng = random.Random(seed)
        config = s.initial()
        for _ in range(30):
            for p, row in enumerate(config.inbox):
                for j, m in enumerate((None,) + row, -1):
                    want = apply_step(config, Step(p, m), s.system)
                    assert apply_step(config, (p, m), s.system, j) == want
                    assert apply_step(config, (p, m), s.system) == want
                    assert applicable(config, (p, m))
                    assert apply_history(config, [(p, m)], s.system)[0] == want
            p = rng.randrange(s.n)
            step = rng.choice(enabled_steps(config, p))
            config = apply_step(config, step, s.system)

    def test_plain_pair_for_an_unbuffered_message_is_not_applicable(self):
        s = build_scenario("naive-tos")
        forged = Message(seq=0, sender=1, receiver=0, payload=("X",))
        assert not applicable(s.initial(), (0, forged))
        with pytest.raises(NotApplicable):
            apply_step(s.initial(), (0, forged), s.system)

    def test_step_refuses_a_message_for_another_process(self):
        m = Message(seq=0, sender=2, receiver=1, payload=("X",))
        with pytest.raises(ValueError):
            Step(0, m)
        assert Step(1, m).received is m


class TestCommutation:
    def test_distinct_process_steps_commute_exhaustively_shallow(self):
        # breadth-first over deduplicated configs, all cross-process pairs
        s = build_scenario("naive-tos")
        seen = {s.vkey(s.initial())}
        frontier = [s.initial()]
        for _ in range(5):
            nxt_frontier = []
            for config in frontier:
                per_proc = [
                    enabled_steps(config, p)
                    for p in range(s.n)
                ]
                for p in range(s.n):
                    for q in range(p + 1, s.n):
                        for e1 in per_proc[p]:
                            for e2 in per_proc[q]:
                                assert commute_check(config, e1, e2, s.system)
                for p in range(s.n):
                    for step in per_proc[p]:
                        child = apply_step(config, step, s.system)
                        k = s.vkey(child)
                        if k not in seen:
                            seen.add(k)
                            nxt_frontier.append(child)
            frontier = nxt_frontier

    def test_same_process_pair_rejected(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        with pytest.raises(PreconditionViolated):
            commute_check(init, Step(0, None), Step(0, None), s.system)

    def test_sampled_pairs_commute_on_quorum_protocol(self):
        s = build_scenario("abd-tos")
        rng = random.Random(11)
        checked = 0
        while checked < 120:
            config, _ = random_walk(s, rng, rng.randrange(4, 16))
            p, q = rng.sample(range(s.n), 2)
            e1 = rng.choice(enabled_steps(config, p))
            e2 = rng.choice(enabled_steps(config, q))
            assert commute_check(config, e1, e2, s.system)
            checked += 1

    def test_orders_differing_only_in_a_payload_do_not_commute(self):
        # every step sends the next counter value to process 2 and keeps
        # its state, so the two orders fill the same slots with different
        # payloads and agree on everything else
        counter = itertools.count()

        class Stub:
            num_processes = 3

            def init_state(self, process):
                return process

            def transition(self, state, received):
                return Effect(state, ((2, (next(counter),)),))

        stub = Stub()
        init = initial_configuration(stub)
        e1, e2 = Step(0, None), Step(1, None)
        c12 = apply_step(apply_step(init, e1, stub), e2, stub)
        c21 = apply_step(apply_step(init, e2, stub), e1, stub)
        assert c12.states == c21.states and c12.channels == c21.channels
        assert buffer(c12) != buffer(c21)
        assert not commute_check(init, e1, e2, stub)


class TestTraceRecords:
    def test_records_carry_uid_and_process(self):
        s = build_scenario("abd-reg")
        _, hist = random_walk(s, random.Random(2), 8)
        records = trace_records(s.initial(), hist, s.system)
        assert len(records) == len(hist)
        for rec, step in zip(records, hist):
            assert rec["process"] == step.process
            expect = None if step.received is None else step.received.uid
            assert rec["message_uid"] == expect

    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"])
    def test_emitted_events_concatenate_to_the_logged_ones(self, name):
        s = build_scenario(name)
        for seed in range(6):
            _, hist = random_walk(s, random.Random(seed), 20)
            records = trace_records(s.initial(), hist, s.system)
            emitted = [ev for rec in records for ev in rec["events_emitted"]]
            logged = logged_events(s.initial(), hist, s.system)
            assert emitted == [ev.to_json() for ev in logged]

    def test_a_step_that_cannot_apply_is_refused_with_its_index(self):
        s = build_scenario("abd-reg")
        _, hist = random_walk(s, random.Random(2), 8)
        received = next(step.received for step in hist if step.received is not None)
        bad = tuple(hist) + (Step(received.receiver, received),)  # received twice
        with pytest.raises(NotApplicable) as exc:
            trace_records(s.initial(), bad, s.system)
        assert exc.value.index == len(hist)

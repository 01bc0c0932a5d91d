"""Protocols under test and the driver programs wrapped around them."""

from collections import deque
from dataclasses import replace

import pytest

from linlab.checkers import is_linearizable
from linlab.model import (
    UID_RADIX,
    PreconditionViolated,
    Step,
    apply_step,
    enabled_steps,
    initial_configuration,
)
from linlab.protocols import (
    OPID_STRIDE,
    DRIVER_TOS,
    PROTOCOLS,
    AbdRegisterProtocol,
    BuiltProtocol,
    DriverProgram,
    Invoke,
    ScriptedSystem,
    SendTag,
    WaitFor,
    build_protocol,
)
from linlab.seqspec import OpHistory, Op, READ, REG_SPEC, RESPONSE, TEST, write
from linlab.valence import Scenario, build_scenario, fair_completion, reach

from conftest import buffer


def responses(config):
    return [ev for ev in config.events if ev.kind == RESPONSE]


class TestNaiveTos:
    def test_set_invocation_broadcasts(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        config = apply_step(init, Step(1, None), s.system)
        assert len(buffer(config)) > len(buffer(init))
        assert not responses(config)
        # one more local step completes the SET, no acks involved
        config = apply_step(config, Step(1, None), s.system)
        assert [ev.value for ev in responses(config)] == ["done"]

    def test_stale_test_returns_zero_after_completed_set(self):
        s = build_scenario("naive-tos")
        config = apply_step(s.initial(), Step(1, None), s.system)
        config = apply_step(config, Step(1, None), s.system)
        assert responses(config)  # SET is complete, broadcast still in flight
        config = apply_step(config, Step(0, None), s.system)
        vals = [ev.value for ev in responses(config) if ev.op.name == "TEST"]
        assert vals == [0]

    def test_delivered_set_flips_the_tester(self):
        s = build_scenario("naive-tos")
        config = apply_step(s.initial(), Step(1, None), s.system)
        for m in sorted(buffer(config), key=lambda m: m.uid):
            if m.receiver == 0:
                config = apply_step(config, Step(0, m), s.system)
        config = apply_step(config, Step(0, None), s.system)
        vals = [ev.value for ev in responses(config) if ev.op.name == "TEST"]
        assert vals == [1]

    def test_test_alone_returns_zero(self):
        s = build_scenario("naive-tos")
        config = apply_step(s.initial(), Step(0, None), s.system)
        vals = [ev.value for ev in responses(config) if ev.op.name == "TEST"]
        assert vals == [0]

    def test_full_round_robin_completes_both_ops(self):
        # decision-agnostic round-robin until nothing changes
        s = build_scenario("naive-tos")
        config = s.initial()
        for _ in range(40):
            before = config
            for p in range(s.n):
                step = Step(p, *config.inbox[p][:1])
                config = apply_step(config, step, s.system)
            if config.states == before.states and buffer(config) == buffer(before):
                break
        assert len(responses(config)) == 2
        assert {ev.op.name for ev in responses(config)} == {"SET", "TEST"}


class TestAbdRegister:
    def test_read_from_initial_returns_zero(self):
        inner = AbdRegisterProtocol(3, writers=(1,), reader=0)
        driver = DriverProgram(
            scripts=((Invoke(READ),), (), ()),
            decision_process=0,
            decision_op="READ",
        )
        system = ScriptedSystem(inner, driver, "solo-read")
        s = Scenario(built=BuiltProtocol(system))
        run = fair_completion(s, s.initial())
        assert run.value == 0

    def test_solo_write_then_read_returns_one(self):
        inner = AbdRegisterProtocol(3, writers=(1,), reader=0)
        driver = DriverProgram(
            scripts=(
                (WaitFor("OK"), Invoke(READ)),
                (Invoke(write(1)), SendTag("OK", 0)),
                (),
            ),
            decision_process=0,
            decision_op="READ",
        )
        system = ScriptedSystem(inner, driver, "w1-then-read")
        s = Scenario(built=BuiltProtocol(system))
        run = fair_completion(s, s.initial())
        assert run.value == 1

    def test_rejects_tiny_quorum_systems(self):
        with pytest.raises(Exception):
            AbdRegisterProtocol(2, writers=(1,), reader=0)

    def test_every_shallow_completed_history_is_linearizable(self):
        # exhaustive to depth 12, deduplicated by (core, events)
        s = build_scenario("abd-reg")
        init = s.initial()
        seen = {(init.core_key(), init.events)}
        dq = deque([(init, 0)])
        checked = 0
        while dq:
            c, d = dq.popleft()
            if responses(c):
                assert is_linearizable(OpHistory(c.events), REG_SPEC) is not None
                checked += 1
            if d >= 12:
                continue
            for p in range(s.n):
                for step in enabled_steps(c, p):
                    child = apply_step(c, step, s.system)
                    k = (child.core_key(), child.events)
                    if k in seen:
                        continue
                    seen.add(k)
                    dq.append((child, d + 1))
        assert checked == 5767  # frozen: completed-op classes at depth <= 12


class TestAbdTos:
    def test_fair_run_decides_one(self):
        # SET wins the race under the oldest-first round-robin schedule
        s = build_scenario("abd-tos")
        run = fair_completion(s, s.initial())
        assert run.value in (0, 1)
        assert len(responses(run.final)) == 2

    def test_test_without_setter_returns_zero(self):
        s = build_scenario("abd-tos")
        run = fair_completion(s, s.initial(), crashed=1)
        assert run.value == 0
        assert {step.process for step in run.history} == {0, 2}

    def test_wrapped_register_keeps_quorum_liveness(self):
        # any single crash still leaves a majority of 3
        s = build_scenario("abd-tos")
        for dead in range(3):
            run = fair_completion(s, s.initial(), crashed=dead)
            if dead == s.decision_process:
                continue
            assert run.value in (0, 1)


class TestTrivialAck:
    def test_op_collects_acks_then_returns_zero(self):
        built = build_protocol("trivial-ack")
        n = built.system.num_processes
        init = initial_configuration(built.system)
        config = apply_step(init, Step(0, None), built.system)
        assert not responses(config)
        # route the broadcast to the servers, then their replies back
        for m in sorted(buffer(config), key=lambda m: m.uid):
            if m.payload[0] == "PING" and m.receiver >= 2:
                config = apply_step(config, Step(m.receiver, m), built.system)
        delivered = 0
        for _ in range(n):
            replies = [m for m in config.inbox[0] if m.payload[0] == "PONG"]
            if not replies:
                break
            config = apply_step(config, Step(0, replies[0]), built.system)
            delivered += 1
            if responses(config):
                break
        assert delivered == n - 2  # reply quota before anything returns
        assert [ev.value for ev in responses(config)] == [0]

    def test_both_clients_complete_under_fair_schedule(self):
        s = build_scenario("trivial-ack")
        run = fair_completion(s, s.initial())
        assert len(responses(run.final)) == 2
        assert all(ev.value == 0 for ev in responses(run.final))


class TestDriverPrograms:
    def test_registry_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            build_protocol("paxos")

    @pytest.mark.parametrize(
        "name,checker",
        [("naive-tos", "strong"), ("abd-tos", "strong"),
         ("abd-reg", "write-strong"), ("trivial-ack", None)],
    )
    def test_roles_come_from_the_driver_and_the_checker_from_the_spec(self, name, checker):
        built = build_protocol(name, 5)
        assert (built.clients, built.servers) == ((0, 1), (2, 3, 4))
        assert built.checker_mode == checker

    def test_tos_driver_shape(self):
        assert DRIVER_TOS.decision_process == 0
        assert DRIVER_TOS.decision_op == "TEST"

    def test_handshake_blocks_read_until_ok(self):
        # the reader's script may not pass WaitFor before the tag arrives
        s = build_scenario("abd-reg")
        config = s.initial()
        for _ in range(4):
            config = apply_step(config, Step(0, None), s.system)
        invs = [ev for ev in config.events if ev.process == 0]
        assert all(ev.op.name != "READ" for ev in invs)

    def test_busy_wait_consumes_foreign_messages(self):
        # receiving a non-tag message must not unblock the handshake
        s = build_scenario("abd-reg")
        config = apply_step(s.initial(), Step(1, None), s.system)
        qt = [m for m in config.inbox[0] if m.payload[0] != "DRV"]
        assert qt
        config = apply_step(config, Step(0, qt[0]), s.system)
        invs = [ev for ev in config.events if ev.process == 0 and ev.op.name == "READ"]
        assert not invs


class TestPackedIdentifiers:
    FIRST_OP = {"naive-tos": TEST, "abd-tos": TEST, "abd-reg": READ, "trivial-ack": Op("OP")}

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_invoke_refuses_an_op_id_past_the_stride(self, name):
        inner = build_protocol(name).system.inner
        state = inner.init_state(0)
        last = inner.invoke(replace(state, opcount=OPID_STRIDE - 1), self.FIRST_OP[name])
        assert last.events[0].op_id == OPID_STRIDE - 1
        with pytest.raises(PreconditionViolated):
            inner.invoke(replace(state, opcount=OPID_STRIDE), self.FIRST_OP[name])

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_more_processes_than_message_uids_pack_is_refused(self, name):
        assert build_protocol(name, UID_RADIX).system.num_processes == UID_RADIX
        with pytest.raises(PreconditionViolated):
            build_protocol(name, UID_RADIX + 1)


class TestClassCounts:
    """Frozen: classes reach yields to depth 10 from the initial
    configuration, and the distinct event logs among them. A protocol
    state that changes shape must still group configurations into
    exactly these classes."""

    @pytest.mark.parametrize(
        "name,n,classes,logs",
        [("naive-tos", 2, 10, 8), ("naive-tos", 3, 18, 8),
         ("abd-tos", 3, 8490, 13), ("abd-tos", 4, 23110, 8),
         ("abd-reg", 3, 11825, 12), ("abd-reg", 4, 11285, 5),
         ("trivial-ack", 4, 1340, 15), ("trivial-ack", 5, 8713, 11)],
    )
    def test_classes_and_event_logs_to_depth_10(self, name, n, classes, logs):
        s = build_scenario(name, n)
        configs = [config for config, _, _ in reach(s, s.initial(), 10)]
        assert (len(configs), len({c.events for c in configs})) == (classes, logs)

"""Protocols under test and the driver programs wrapped around them."""

from collections import deque
from dataclasses import replace

import pytest

from linlab.checkers import is_linearizable
from linlab.model import (
    UID_RADIX,
    Message,
    PreconditionViolated,
    Step,
    apply_step,
    enabled_steps,
    initial_configuration,
    logged_events,
)
from linlab.protocols import (
    OPID_STRIDE,
    DRIVER_TOS,
    PROTOCOLS,
    AbdRegisterProtocol,
    BuiltProtocol,
    DriverProgram,
    Invoke,
    RegisterToSAdapter,
    ScriptedSystem,
    SendTag,
    WaitFor,
    build_protocol,
)
from linlab.seqspec import IllegalOp, OpHistory, Op, READ, REG_SPEC, RESPONSE, TEST, write
from linlab.valence import Scenario, build_scenario, completed_count, fair_completion, reach

from conftest import buffer


def responses(events):
    return [ev for ev in events if ev.kind == RESPONSE]


class Run:
    """A configuration and the events logged by the steps that reached
    it from the initial one."""

    def __init__(self, system):
        self.system = system
        self.config = initial_configuration(system)
        self.events = ()

    def step(self, p, m=None):
        step = Step(p, m)
        self.events += logged_events(self.config, (step,), self.system)
        self.config = apply_step(self.config, step, self.system)
        return self.config


class TestNaiveTos:
    def test_set_invocation_broadcasts(self):
        s = build_scenario("naive-tos")
        run = Run(s.system)
        config = run.step(1)
        assert len(buffer(config)) > len(buffer(s.initial()))
        assert not responses(run.events)
        # one more local step completes the SET, no acks involved
        run.step(1)
        assert [ev.value for ev in responses(run.events)] == ["done"]

    def test_stale_test_returns_zero_after_completed_set(self):
        run = Run(build_scenario("naive-tos").system)
        run.step(1)
        run.step(1)
        assert responses(run.events)  # SET is complete, broadcast still in flight
        run.step(0)
        vals = [ev.value for ev in responses(run.events) if ev.op.name == "TEST"]
        assert vals == [0]

    def test_delivered_set_flips_the_tester(self):
        run = Run(build_scenario("naive-tos").system)
        config = run.step(1)
        for m in sorted(buffer(config), key=lambda m: m.uid):
            if m.receiver == 0:
                run.step(0, m)
        run.step(0)
        vals = [ev.value for ev in responses(run.events) if ev.op.name == "TEST"]
        assert vals == [1]

    def test_test_alone_returns_zero(self):
        run = Run(build_scenario("naive-tos").system)
        run.step(0)
        vals = [ev.value for ev in responses(run.events) if ev.op.name == "TEST"]
        assert vals == [0]

    def test_full_round_robin_completes_both_ops(self):
        # decision-agnostic round-robin until nothing changes
        s = build_scenario("naive-tos")
        run = Run(s.system)
        for _ in range(40):
            before = config = run.config
            for p in range(s.n):
                config = run.step(p, *config.inbox[p][:1])
            if config.states == before.states and buffer(config) == buffer(before):
                break
        assert len(responses(run.events)) == 2
        assert {ev.op.name for ev in responses(run.events)} == {"SET", "TEST"}


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

    def test_a_client_drops_replies_it_must_not_count(self):
        # process 0 of a two-writer register writes twice, its messages
        # delivered by hand: a late ACK of the first write's store round
        # and a second ACK from a replica already counted both leave the
        # second store round's state object as it was
        reg = AbdRegisterProtocol(3, writers=(0, 1), reader=0)

        def reply(effect, q):  # replica q's reply to the request `effect` broadcast
            request = dict(effect.sends)[q]
            (_, payload), = reg.transition(reg.init_state(q), Message(0, 0, q, request)).sends
            return Message(0, q, 0, payload)

        def store_round(state, op):  # invoke op and answer its tag query
            query = reg.invoke(state, op)
            state = reg.transition(query.state, reply(query, 1)).state
            return reg.transition(state, reply(query, 2))

        store = store_round(reg.init_state(0), write(1))
        late = reply(store, 2)
        state = reg.transition(store.state, reply(store, 1)).state
        done = reg.transition(state, reply(store, 0))
        assert [ev.value for ev in done.events] == ["done"]

        store = store_round(done.state, write(0))
        state = reg.transition(store.state, reply(store, 1)).state
        phase, _, rid, _, replies = state.pending
        assert phase == "ws" and late.payload[1] < rid
        assert [r[0] for r in replies] == [1]
        for dropped in (late, reply(store, 1)):
            effect = reg.transition(state, dropped)
            assert effect.state is state
            assert (effect.sends, effect.events) == ((), ())

    def test_rejects_tiny_quorum_systems(self):
        with pytest.raises(Exception):
            AbdRegisterProtocol(2, writers=(1,), reader=0)

    def test_every_shallow_completed_history_is_linearizable(self):
        # exhaustive to depth 12, deduplicated by (configuration, events)
        s = build_scenario("abd-reg")
        init = s.initial()
        seen = {(init, ())}
        dq = deque([(init, (), 0)])
        checked = 0
        while dq:
            c, log, d = dq.popleft()
            if responses(log):
                assert is_linearizable(OpHistory(log), REG_SPEC) is not None
                checked += 1
            if d >= 12:
                continue
            for p in range(s.n):
                for step in enabled_steps(c, p):
                    child = apply_step(c, step, s.system)
                    k = (child, log + logged_events(c, (step,), s.system))
                    if k in seen:
                        continue
                    seen.add(k)
                    dq.append((*k, d + 1))
        assert checked == 5767  # frozen: completed-op classes at depth <= 12


class TestAbdTos:
    def test_fair_run_decides_one(self):
        # SET wins the race under the oldest-first round-robin schedule
        s = build_scenario("abd-tos")
        run = fair_completion(s, s.initial())
        assert run.value in (0, 1)
        assert len(responses(logged_events(s.initial(), run.history, s.system))) == 2

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
        run = Run(built.system)
        config = run.step(0)
        assert not responses(run.events)
        # route the broadcast to the servers, then their replies back
        for m in sorted(buffer(config), key=lambda m: m.uid):
            if m.payload[0] == "PING" and m.receiver >= 2:
                config = run.step(m.receiver, m)
        delivered = 0
        for _ in range(n):
            replies = [m for m in config.inbox[0] if m.payload[0] == "PONG"]
            if not replies:
                break
            config = run.step(0, replies[0])
            delivered += 1
            if responses(run.events):
                break
        assert delivered == n - 2  # reply quota before anything returns
        assert [ev.value for ev in responses(run.events)] == [0]

    def test_both_clients_complete_under_fair_schedule(self):
        s = build_scenario("trivial-ack")
        run = fair_completion(s, s.initial())
        done = responses(logged_events(s.initial(), run.history, s.system))
        assert len(done) == 2
        assert all(ev.value == 0 for ev in done)


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
        assert (built.spec and built.spec.checker) == checker

    def test_tos_driver_shape(self):
        assert DRIVER_TOS.decision_process == 0
        assert DRIVER_TOS.decision_op == "TEST"

    def test_handshake_blocks_read_until_ok(self):
        # the reader's script may not pass WaitFor before the tag arrives
        run = Run(build_scenario("abd-reg").system)
        for _ in range(4):
            run.step(0)
        invs = [ev for ev in run.events if ev.process == 0]
        assert all(ev.op.name != "READ" for ev in invs)

    def test_busy_wait_consumes_foreign_messages(self):
        # receiving a non-tag message must not unblock the handshake
        run = Run(build_scenario("abd-reg").system)
        config = run.step(1)
        qt = [m for m in config.inbox[0] if m.payload[0] != "DRV"]
        assert qt
        run.step(0, qt[0])
        invs = [ev for ev in run.events if ev.process == 0 and ev.op.name == "READ"]
        assert not invs


class TestRefusals:
    @pytest.mark.parametrize(
        "writers,reader,message",
        [((), 0, "need at least one writer and a reader"),
         ((1,), 3, "need at least one writer and a reader"),
         ((1, 3), 0, "writer ids must be process ids")],
        ids=["no writer", "reader out of range", "writer out of range"],
    )
    def test_register_roles_must_be_process_ids(self, writers, reader, message):
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            AbdRegisterProtocol(3, writers=writers, reader=reader)

    def test_register_invokes_one_operation_at_a_time(self):
        inner = AbdRegisterProtocol(3, writers=(1,), reader=0)
        busy = inner.invoke(inner.init_state(0), READ).state
        with pytest.raises(PreconditionViolated, match="^one operation per process at a time$"):
            inner.invoke(busy, READ)

    @pytest.mark.parametrize(
        "process,op,message",
        [(2, write(1), "process 2 is not a writer"), (1, READ, "process 1 is not the reader")],
        ids=["write", "read"],
    )
    def test_register_refuses_an_op_outside_the_role(self, process, op, message):
        inner = AbdRegisterProtocol(3, writers=(1,), reader=0)
        with pytest.raises(IllegalOp, match=f"^{message}$"):
            inner.invoke(inner.init_state(process), op)

    def test_flag_adapter_needs_a_single_writer_register(self):
        with pytest.raises(
            PreconditionViolated, match="^flag adapter expects a single-writer register$"
        ):
            RegisterToSAdapter(AbdRegisterProtocol(3, writers=(0, 1), reader=0))

    def test_driver_with_more_scripts_than_processes_is_refused(self):
        driver = DriverProgram(((),) * 4, None, None)
        with pytest.raises(
            PreconditionViolated, match="^driver has more scripts than the protocol has processes$"
        ):
            ScriptedSystem(AbdRegisterProtocol(3, writers=(1,), reader=0), driver, "four-scripts")

    def test_unknown_driver_action_is_refused(self):
        driver = DriverProgram((("SKIP",),), None, None)
        system = ScriptedSystem(AbdRegisterProtocol(3, writers=(1,), reader=0), driver, "skip")
        with pytest.raises(PreconditionViolated, match="^unknown driver action 'SKIP'$"):
            system.transition(system.init_state(0), None)


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

    COUNTS = [("naive-tos", 2, 10, 8), ("naive-tos", 3, 18, 8),
              ("abd-tos", 3, 8490, 13), ("abd-tos", 4, 23110, 8),
              ("abd-reg", 3, 11825, 12), ("abd-reg", 4, 11285, 5),
              ("trivial-ack", 4, 1340, 15), ("trivial-ack", 5, 8713, 11)]

    @pytest.mark.parametrize("name,n,classes,logs", COUNTS)
    def test_classes_and_event_logs_to_depth_10(self, name, n, classes, logs):
        s = build_scenario(name, n)
        init = s.initial()
        hists = [hist for _, hist, _ in reach(s, init, 10)]
        logged = {logged_events(init, h, s.system) for h in hists}
        assert (len(hists), len(logged)) == (classes, logs)

    @pytest.mark.parametrize("name,n", [row[:2] for row in COUNTS])
    def test_progress_in_state_matches_the_event_log(self, name, n):
        # completed_count, the impl's pending and SysState.done say what
        # the event log says, in every class to depth 10
        s = build_scenario(name, n)
        init = s.initial()
        from_log = {}  # event log -> (responses per process, processes pending)
        for config, hist, _ in reach(s, init, 10):
            log = logged_events(init, hist, s.system)
            if log not in from_log:
                done = [0] * s.n
                for ev in responses(log):
                    done[ev.process] += 1
                pending = {o.process for o in OpHistory(log).pending_ops()}
                from_log[log] = done, pending
            done, pending = from_log[log]
            assert completed_count(config) == sum(done)
            assert [st.done for st in config.states] == done
            waiting = {p for p, st in enumerate(config.states) if st.impl.pending is not None}
            assert waiting == pending

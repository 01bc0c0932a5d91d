"""Progress conditions: single-crash lock-freedom and the quorum-split rule."""

import random
from dataclasses import dataclass, replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlab import progress
from linlab.cli import main
from linlab.model import (
    Effect,
    Message,
    PreconditionViolated,
    Step,
    apply_history,
    apply_step,
    enabled_steps,
    initial_configuration,
    logged_events,
)
from linlab.progress import (
    _fair_progress,
    allowed_crash_sets,
    check_1rlf,
    check_nonblocking,
    implication_audit,
)
from linlab.protocols import (
    PROTOCOLS,
    BuiltProtocol,
    DriverProgram,
    Invoke,
    ProtocolUnderTest,
    ScriptedSystem,
    TrivialAckProtocol,
)
from linlab.seqspec import RESPONSE, Op
from linlab.valence import (
    FAIR_BOUND,
    Scenario,
    build_scenario,
    completed_count,
    fair_completion,
    reach,
)


def crash_choices(s):
    """Every crash set either check may pick: none, any single process,
    and the nonblocking adversary's sets."""
    single = [frozenset()] + [frozenset({q}) for q in range(s.n)]
    nonblocking = allowed_crash_sets(s.built.clients, s.built.servers)
    return list(dict.fromkeys(single + nonblocking))


def nonblocking_notes(s):
    """The notes of s's nonblocking verdict; they do not depend on the depth."""
    return check_nonblocking(s, depth=1).notes


class TestCrashSets:
    def test_split_floor_formula(self):
        # max(0, s - (c - 1)): trivial-ack has c = s = 2, abd-tos n=3 has
        # c = 2, s = 1, so its adversary may take the only server
        notes = nonblocking_notes(build_scenario("trivial-ack"))
        assert (notes["clients"], notes["servers"]) == ([0, 1], [2, 3])
        assert (notes["server_floor"], notes["server_floor_degenerate"]) == (1, False)
        notes = nonblocking_notes(build_scenario("abd-tos", n=3))
        assert (notes["server_floor"], notes["server_floor_degenerate"]) == (0, True)

    def test_degenerate_floor_clamps_to_zero(self):
        # three scripted clients on a four-process trivial-ack object:
        # c = 3, s = 1, so s - (c - 1) is -1
        op = (Invoke(Op("OP")),)
        driver = DriverProgram((op, op, op), None, None)
        system = ScriptedSystem(TrivialAckProtocol(4), driver, "3c1s")
        notes = nonblocking_notes(Scenario(BuiltProtocol(system)))
        assert (notes["clients"], notes["servers"]) == ([0, 1, 2], [3])
        assert (notes["server_floor"], notes["server_floor_degenerate"]) == (0, True)
        assert notes["crash_sets"] == len(allowed_crash_sets((0, 1, 2), (3,)))

    def test_allowed_crash_sets_smallest_first(self):
        sets = allowed_crash_sets((0, 1), (2, 3))
        assert sets[0] == frozenset()
        sizes = [len(x) for x in sets]
        assert sizes == sorted(sizes)
        # at most 1 client and at most s - floor = 1 server may crash
        assert frozenset({0, 2}) in sets
        assert frozenset({0, 1}) not in sets
        assert frozenset({2, 3}) not in sets

    def test_allowed_crash_sets_match_a_brute_force_oracle(self):
        for n in range(6):
            for roles in product((True, False), repeat=n):
                clients = tuple(p for p in range(n) if roles[p])
                servers = tuple(p for p in range(n) if not roles[p])
                c, s = len(clients), len(servers)
                max_server_crashes = s - max(0, s - (c - 1))
                subsets = [tuple(p for p in range(n) if mask >> p & 1) for mask in range(2**n)]
                oracle = sorted(
                    (dead for dead in subsets
                     if set(clients) - set(dead)
                     and len(set(servers) & set(dead)) <= max_server_crashes),
                    key=lambda dead: (len(dead), dead),
                )
                got = allowed_crash_sets(clients, servers)
                assert got == [frozenset(d) for d in oracle], (clients, servers)

    def test_nonblocking_reads_protocol_roles(self):
        s = build_scenario("trivial-ack")
        assert (s.built.clients, s.built.servers) == ((0, 1), (2, 3))
        notes = nonblocking_notes(s)
        assert notes["crash_sets"] == len(allowed_crash_sets((0, 1), (2, 3)))


class TestOneResilientLockFreedom:
    def test_holds_on_every_shipped_protocol(self):
        for name in ("naive-tos", "abd-tos", "abd-reg", "trivial-ack"):
            verdict = check_1rlf(build_scenario(name), depth=5)
            assert verdict.holds, f"{name}: {verdict.notes}"
            assert verdict.witness is None

    def test_verdict_carries_exploration_size(self):
        verdict = check_1rlf(build_scenario("naive-tos"), depth=5)
        assert verdict.configs_checked > 0
        assert verdict.condition == "1-resilient lock-freedom"


class TestNonblocking:
    def test_naive_tos_has_no_servers_to_lose(self):
        verdict = check_nonblocking(build_scenario("naive-tos"), depth=5)
        assert verdict.holds

    def test_quorum_protocol_fails_the_harsh_split(self):
        # c=2, s=1: the rule demands progress with zero live servers
        verdict = check_nonblocking(build_scenario("abd-tos"), depth=5)
        assert not verdict.holds
        assert verdict.witness is not None

    def test_trivial_ack_starves_and_the_witness_replays(self):
        s = build_scenario("trivial-ack")
        verdict = check_nonblocking(s, depth=6)
        assert not verdict.holds
        w = verdict.witness
        live = [p for p in range(s.n) if p not in w.crash_set]
        config, _ = apply_history(s.initial(), w.base_history, s.system)
        assert w.pending, "a live client must have an operation in flight"
        extended = logged_events(config, w.extension, s.system)
        config, _ = apply_history(config, w.extension, s.system)
        # starved: fair extension, nothing returns
        assert not any(ev.kind == RESPONSE for ev in extended)
        assert all(step.process in live for step in w.extension)
        if w.extension_quiescent:
            # no live process can receive anything further
            for p in live:
                assert not config.inbox[p]

    def test_witness_crash_set_respects_the_split(self):
        s = build_scenario("trivial-ack")
        verdict = check_nonblocking(s, depth=6)
        notes = verdict.notes
        crashed_clients = set(verdict.witness.crash_set) & set(notes["clients"])
        crashed_servers = set(verdict.witness.crash_set) & set(notes["servers"])
        assert len(crashed_clients) <= len(notes["clients"]) - 1
        assert len(crashed_servers) <= len(notes["servers"]) - notes["server_floor"]

    def test_a_witness_leaves_the_sweep_unexhausted(self):
        # the sweep stops at the witness, so it did not cover the space
        for name in ("abd-tos", "trivial-ack"):
            verdict = check_nonblocking(build_scenario(name), depth=6)
            assert verdict.witness is not None
            assert verdict.exhausted is False
            assert verdict.to_json()["exhausted"] is False

    def test_verdict_json_roundtrips_through_repr(self):
        verdict = check_nonblocking(build_scenario("trivial-ack"), depth=5)
        out = verdict.to_json()
        assert out["condition"] == "nonblocking"
        assert out["holds"] is False
        assert out["witness"]["crash_set"] == sorted(verdict.witness.crash_set)


# (protocol, n, depth) -> (holds, exhausted) of check_1rlf, then of
# check_nonblocking, frozen from the sweep that fair-ran every (class,
# crash set) pair: depths 0 to 8 at the default n, and three sweeps
# deep enough to exhaust the space
FROZEN_VERDICTS = {
    **{("naive-tos", None, d): (True, d >= 4, True, d >= 4) for d in range(9)},
    **{(name, None, d): (True, False, d == 0, False)
       for name in ("abd-tos", "abd-reg", "trivial-ack") for d in range(9)},
    ("trivial-ack", 4, 14): (True, True, False, False),
    ("trivial-ack", 5, 30): (True, True, False, False),
    ("naive-tos", 3, 30): (True, True, True, True),
}


@pytest.mark.parametrize("case", sorted(FROZEN_VERDICTS, key=str), ids=str)
def test_verdicts_match_the_frozen_table(case):
    name, n, depth = case
    s = build_scenario(name, n)
    one, nb = check_1rlf(s, depth), check_nonblocking(s, depth)
    assert (one.holds, one.exhausted, nb.holds, nb.exhausted) == FROZEN_VERDICTS[case]


@pytest.mark.parametrize("name, n, depth", [("trivial-ack", 4, 14), ("naive-tos", 3, 30)])
def test_a_sweep_steps_each_idle_receipt_once(monkeypatch, name, n, depth):
    # both sweeps hold and exhaust (FROZEN_VERDICTS), so no class gets a
    # fair run and every idle step the sweep takes is its stillness probe:
    # one per class for each process whose inbox is empty, and no other
    idle_steps = {}

    def counting(config, step, system, i=None):
        if step[1] is None:
            key = (config.core_key(), step[0], not config.inbox[step[0]])
            idle_steps[key] = idle_steps.get(key, 0) + 1
        return apply_step(config, step, system, i)

    monkeypatch.setattr(progress, "apply_step", counting)
    s = build_scenario(name, n)
    verdict = check_1rlf(s, depth)
    assert verdict.holds and verdict.exhausted
    assert set(idle_steps.values()) == {1}
    classes = [c for c, _, d in reach(s, s.initial(), depth + 1) if d <= depth]
    assert len(classes) == verdict.configs_checked
    assert set(idle_steps) == {
        (c.core_key(), p, True) for c in classes for p, row in enumerate(c.inbox) if not row
    }


class TestImplicationAudit:
    def test_no_row_violates_the_implication(self):
        rows = implication_audit(depth=5)
        assert {r["protocol"] for r in rows} >= {
            "naive-tos",
            "abd-tos",
            "abd-reg",
            "trivial-ack",
        }
        for row in rows:
            assert not row["implication_violated"], row

    def test_separation_exists_in_the_matrix(self):
        # at least one protocol is 1RLF yet not nonblocking
        rows = implication_audit(depth=5)
        assert any(r["one_rlf"] and not r["nonblocking"] for r in rows)


class TestFairProgress:
    """The fair run that _sweep gives a class at the depth bound."""

    WALKS = [("naive-tos", None), ("abd-tos", None), ("abd-reg", None),
             ("trivial-ack", None), ("abd-tos", 5), ("trivial-ack", 6)]

    @given(st.sampled_from(WALKS), st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_stalls_replay_and_longer_bounds_extend_them(self, walk, seed, bound):
        name, n = walk
        s = build_scenario(name, n)
        rng = random.Random(seed)
        config = s.initial()
        for _ in range(6):
            for crashed in crash_choices(s):
                live = [p for p in range(s.n) if p not in crashed]
                got = _fair_progress(s.system, config, live, bound)
                full = _fair_progress(s.system, config, live)
                # no run is longer than its bound
                assert got is None or len(got[0]) <= bound
                assert full is None or len(full[0]) <= FAIR_BOUND
                if got is None:
                    assert full is None
                    cut = _fair_progress(s.system, config, live, bound - 1)
                    if cut is not None:
                        assert len(cut[0]) == bound - 1
                        # the run's next step, round-robin and oldest
                        # message first, completes an operation
                        end, _ = apply_history(config, cut[0], s.system)
                        p = live[len(cut[0]) % len(live)]
                        row = end.inbox[p]
                        after = apply_step(end, Step(p, row[0] if row else None), s.system)
                        assert completed_count(after) > completed_count(config)
                    continue
                extension, quiescent = got
                assert all(step.process in live for step in extension)
                events = logged_events(config, extension, s.system)
                assert not any(ev.kind == RESPONSE for ev in events)
                end, _ = apply_history(config, extension, s.system)
                if quiescent:
                    # it ends in a round of idle steps of the live
                    # processes that changes nothing, and with their
                    # inboxes empty every later round repeats it
                    assert extension[-len(live):] == tuple(Step(p) for p in live)
                    before, _ = apply_history(config, extension[:-len(live)], s.system)
                    assert end.core_key() == before.core_key()
                    assert not any(end.inbox[p] for p in live)
                    assert full == got
                else:
                    assert len(extension) == bound
                    assert full is None or full[0][:bound] == extension
            for _ in range(rng.randrange(1, 6)):
                p = rng.randrange(s.n)
                step = rng.choice(enabled_steps(config, p))
                config = apply_step(config, step, s.system)

    def test_a_round_cut_by_the_bound_is_not_quiescent(self):
        # at bound 1 the only round is cut after one step; the stall it
        # reports is the bound's, and the same run completes at FAIR_BOUND
        s = build_scenario("trivial-ack")
        base = apply_step(s.initial(), Step(0), s.system)  # process 0 invokes
        live = list(range(s.n))
        assert _fair_progress(s.system, base, live, 1) == ((Step(0),), False)
        assert _fair_progress(s.system, base, live, FAIR_BOUND) is None

    def test_a_run_that_turns_still_in_its_last_round_is_cut(self, monkeypatch):
        # process 1 alone writes to itself: an idle step sends ST, its
        # receipt sends ACK, and after the ACK its idle step is a no-op;
        # that no-op round is the fourth step, so bound 3 cuts the run
        calls = []
        monkeypatch.setattr(progress, "apply_step", lambda *a: calls.append(a) or apply_step(*a))
        s = build_scenario("abd-tos")
        init = s.initial()
        cut = _fair_progress(s.system, init, [1], 3)
        assert cut[1] is False and len(cut[0]) == len(calls) == 3
        del calls[:]
        extension, quiescent = _fair_progress(s.system, init, [1], 4)
        assert quiescent and len(extension) == len(calls) == 4
        assert extension[:3] == cut[0] and extension[0] == extension[3] == Step(1)
        assert [step.received.payload[0] for step in extension[1:3]] == ["ST", "ACK"]

    def test_a_round_that_sends_is_not_quiescent(self):
        # every round of Echo ends with the states and inboxes it began
        # with, but its channels keep counting: the run never settles
        system = ScriptedSystem(Echo(), DriverProgram((), None, None), "echo")
        config = initial_configuration(system)
        pings = [Message(k, 0, 1, ("PING",)) for k in range(5)]
        rounds = tuple(step for m in pings for step in (Step(0), Step(1, m)))
        assert _fair_progress(system, config, [0, 1], 10) == (rounds, False)
        # with 1 crashed the pings pile up in its inbox
        assert _fair_progress(system, config, [0], 3) == ((Step(0),) * 3, False)


@dataclass(frozen=True)
class EchoState:
    pid: int
    pending: object = None  # never an operation in flight
    ticks: int = 0  # idle steps taken, counted only by Tick


class Echo(ProtocolUnderTest):
    """Process 0 pings process 1 on every idle step, and 1 drops the
    ping: no state ever changes, yet messages flow in every round."""

    num_processes = 2

    def init_state(self, p):
        return EchoState(p)

    def transition(self, state, received):
        sends = ((1, ("PING",)),) if state.pid == 0 else ()
        return Effect(state, sends)


class Tick(Echo):
    """Every idle step counts itself and sends nothing: the state moves
    on forever without the script, a send or a receipt recording it."""

    def transition(self, state, received):
        return Effect(replace(state, ticks=state.ticks + 1))


class TestIdleStepGuard:
    """A progress check refuses a space whose idle steps could form a
    cycle: ScriptedSystem's transition refuses the first idle step that
    changes a state without sending or raising pc or done."""

    def test_the_api_refuses_an_idle_step_that_only_changes_state(self):
        system = ScriptedSystem(Tick(), DriverProgram((), None, None), "tick")
        with pytest.raises(PreconditionViolated, match="idle step of process 0"):
            check_1rlf(Scenario(BuiltProtocol(system)), depth=2)

    def test_the_cli_exits_2(self, monkeypatch, capsys):
        driver = DriverProgram((), None, None)
        monkeypatch.setitem(PROTOCOLS, "tick", (2, lambda n: Tick(), driver, None))
        assert main(["progress", "--protocol", "tick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tick: an idle step of process 0")


class TestIdleStepRule:
    """ScriptedSystem refuses a rule-breaking idle step in every search,
    not only in the progress sweep."""

    def test_a_fair_run_refuses_it(self):
        system = ScriptedSystem(Tick(), DriverProgram((), None, None), "tick")
        s = Scenario(BuiltProtocol(system))
        with pytest.raises(PreconditionViolated, match="^tick: an idle step of process 0"):
            fair_completion(s, s.initial())

    def test_simulate_exits_2(self, monkeypatch, capsys):
        driver = DriverProgram((), None, None)
        monkeypatch.setitem(PROTOCOLS, "tick", (2, lambda n: Tick(), driver, None))
        assert main(["simulate", "--protocol", "tick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tick: an idle step of process 0")

"""Valence classification, adversarial schedules, and the audits."""

import hashlib
import json
import random
from itertools import chain, groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlab.checkers import (
    Counterexample,
    ExecutionTree,
    SizeLimitError,
    is_linearizable,
    strong_linearization_exists,
    write_strong_linearization_exists,
)
from linlab.model import (
    Message,
    NotApplicable,
    PreconditionViolated,
    Step,
    apply_history,
    apply_step,
    enabled_steps,
    logged_events,
    schedule_records,
)
from linlab.seqspec import REG_SPEC, RESPONSE, TOS_SPEC, OpHistory
import linlab.valence as valence
from linlab.valence import (
    SuccessorNotFound,
    ValenceTag,
    _completion_first,
    bivalent_successor,
    build_hbi,
    build_scenario,
    classify_valence,
    completed_count,
    completed_implies_univalent_audit,
    explore_history_tree,
    fair_completion,
    staged_probe,
)

from conftest import completion_rank


def scanned_decision(s, events):
    """The decision read from an event log: the value of the last
    response of the decision op by the deciding process."""
    driver = s.system.driver
    for ev in reversed(events):
        if (ev.kind == RESPONSE and ev.process == driver.decision_process
                and ev.op.name == driver.decision_op):
            return ev.value
    return None


class TestFairSchedules:
    def test_fair_run_is_deterministic(self):
        s = build_scenario("abd-tos")
        a = fair_completion(s, s.initial())
        b = fair_completion(s, s.initial())
        assert a.value == b.value
        assert a.history == b.history

    def test_fair_run_reaches_a_decision(self):
        for name, n in (("naive-tos", None), ("abd-tos", None), ("abd-reg", None),
                        ("abd-tos", 5)):
            s = build_scenario(name, n)
            run = fair_completion(s, s.initial())
            assert run.value in (0, 1)
            logged = logged_events(s.initial(), run.history, s.system)
            assert s.decided(run.final) == scanned_decision(s, logged) == run.value

    def test_crashing_the_decider_times_out(self):
        s = build_scenario("abd-tos")
        run = fair_completion(s, s.initial(), crashed=s.decision_process)
        assert run.value is None

    @pytest.mark.parametrize("crashed", [{1}, 3, -1, "1"])
    def test_crash_argument_must_name_one_process(self, crashed):
        s = build_scenario("abd-tos")
        with pytest.raises(PreconditionViolated):
            fair_completion(s, s.initial(), crashed=crashed)

    @pytest.mark.parametrize("crashed", [True, False])
    def test_a_bool_is_not_a_process_id(self, crashed):
        # True == 1, so it would otherwise crash process 1
        s = build_scenario("naive-tos")
        with pytest.raises(PreconditionViolated):
            fair_completion(s, s.initial(), crashed=crashed)

    def test_staged_probes_hit_both_values(self):
        # holding one side back decides the race each way
        s = build_scenario("naive-tos")
        assert staged_probe(s, s.initial(), hold=0).value == 1
        assert staged_probe(s, s.initial(), hold=1).value == 0

    def test_staged_probes_on_quorum_tos(self):
        s = build_scenario("abd-tos")
        assert staged_probe(s, s.initial(), hold=0).value == 1
        assert staged_probe(s, s.initial(), hold=1).value == 0


class TestClassifyValence:
    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos"])
    def test_initial_configuration_is_bivalent(self, name):
        s = build_scenario(name)
        out = classify_valence(s, s.initial())
        assert out.tag is ValenceTag.BIVALENT
        assert set(out.certificates) == {0, 1}

    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg"])
    def test_certificates_replay_to_their_value(self, name):
        s = build_scenario(name)
        out = classify_valence(s, s.initial())
        for v, cert in out.certificates.items():
            final, _ = apply_history(s.initial(), cert, s.system)
            assert s.decided(final) == v

    def test_decided_configuration_is_valent_and_exhausted(self):
        s = build_scenario("naive-tos")
        run = fair_completion(s, s.initial())
        out = classify_valence(s, run.final)
        assert out.tag in (ValenceTag.ZERO_VALENT, ValenceTag.ONE_VALENT)
        assert out.exhausted
        assert out.depth == 0

    def test_depth_bound_matters_behind_oldest_first_probes(self):
        # after the setter's first step, every oldest-first probe sees
        # the stale side; the other certificate needs a short detour
        s = build_scenario("abd-tos")
        config, _ = apply_history(s.initial(), [Step(0, None)], s.system)
        shallow = classify_valence(s, config, depth=0)
        assert shallow.tag is ValenceTag.UNKNOWN_AT_BOUND
        assert not shallow.exhausted
        deep = classify_valence(s, config, depth=3)
        assert deep.tag is ValenceTag.BIVALENT

    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg"])
    def test_no_fair_run_repeats_within_one_classification(self, name, monkeypatch):
        # a repeated (configuration, live set) can only return a run
        # already recorded
        s = build_scenario(name)
        runs = []
        fair_run = valence._fair_run

        def spy(scenario, config, live, bound):
            runs.append((config, tuple(live)))
            return fair_run(scenario, config, live, bound)

        monkeypatch.setattr(valence, "_fair_run", spy)
        after, _ = apply_history(s.initial(), [Step(0, None)], s.system)
        for config in (s.initial(), after):
            runs.clear()
            classify_valence(s, config)
            keys = [(id(c), live) for c, live in runs]  # runs keeps each c alive
            assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n,steps", [(3, 4951), (4, 9029)])
    def test_a_cold_classification_steps_only_the_decider_past_the_bound(
        self, n, steps, monkeypatch
    ):
        # build_hbi's round-2, slot-0 candidate with an empty detour is
        # unknown-at-bound at depth 8. Past the first undecided class at
        # the bound, the sweep takes only the decider's deciding steps;
        # it made 7,618 and 18,825 apply_step calls stepping every process
        s = build_scenario("abd-tos", n)
        config = round_two_successor(s)
        calls = []

        def spy(*args):
            calls.append(args)
            return apply_step(*args)

        monkeypatch.setattr(valence, "apply_step", spy)
        out = classify_valence(s, config)
        assert (out.tag, out.exhausted, out.depth) == (ValenceTag.UNKNOWN_AT_BOUND, False, 8)
        assert len(calls) == steps

    def test_valence_json_shape(self):
        s = build_scenario("naive-tos")
        out = classify_valence(s, s.initial()).to_json()
        assert out["tag"] == "bivalent"
        assert set(out["certificates"]) == {"0", "1"}


class TestBivalentSuccessor:
    def test_quorum_tos_survives_every_forced_first_step(self):
        s = build_scenario("abd-tos")
        init = s.initial()
        for p in range(s.n):
            found = bivalent_successor(s, init, Step(p, None))
            assert found
            assert found.valence.tag is ValenceTag.BIVALENT
            assert found.new_completions == 0
            # the detour never plays the forced step itself
            assert all(
                not (st.process == p and st.received is None)
                for st in found.detour
            )

    def test_naive_tos_forced_tester_step_has_no_out(self):
        s = build_scenario("naive-tos")
        out = bivalent_successor(s, s.initial(), Step(0, None))
        assert isinstance(out, SuccessorNotFound)
        assert out.evidence, "expected opposite-valence flips as evidence"
        flip = out.evidence[0]
        assert flip["bridge_process"] == 0
        assert flip["valences"][0] != flip["valences"][1]
        for flip in out.evidence:  # each flip's detour is replayed for its fair run
            assert isinstance(flip["progress_without_that_process"], bool)

    def test_an_inapplicable_forced_step_is_refused(self):
        s = build_scenario("naive-tos")
        ghost = Message(seq=99, sender=0, receiver=1, payload=("NOPE",))
        with pytest.raises(NotApplicable, match="is not applicable at the starting configuration$"):
            bivalent_successor(s, s.initial(), Step(1, ghost))

    def test_search_reports_exploration_size(self):
        s = build_scenario("naive-tos")
        step_e = Step(0, None)
        out = bivalent_successor(s, s.initial(), step_e)
        assert out.explored == len(list(valence.reach(s, s.initial(), 6, forbid=step_e))) >= 1


class TestHbi:
    def test_three_full_rounds_on_quorum_tos(self):
        s = build_scenario("abd-tos")
        rep = build_hbi(s, rounds=3)
        assert rep.rounds_completed == 3
        assert rep.stuck is None
        assert rep.completions == ()
        assert len(rep.history) == 10  # frozen: 9 scheduled slots + 1 detour step

    def test_every_traversed_state_is_bivalent(self):
        s = build_scenario("abd-tos")
        rep = build_hbi(s, rounds=3)
        for i in range(len(rep.history) + 1):
            certs = rep.certificates_at(i)
            assert set(certs) == {0, 1}
            prefix = rep.history[:i]
            base, _ = apply_history(s.initial(), prefix, s.system)
            for v, cert in certs.items():
                final, _ = apply_history(base, cert, s.system)
                assert s.decided(final) == v

    def test_certificates_only_within_the_history(self):
        rep = build_hbi(build_scenario("abd-tos"), rounds=1)
        assert len(rep.history) == 3
        assert set(rep.certificates_at(3)) == {0, 1}
        for index in (-1, 4, 53):
            with pytest.raises(IndexError):
                rep.certificates_at(index)

    def test_a_completing_successor_when_no_other_is_found(self):
        # rotation (1, 0, 2): process 1's round-4 step has no
        # completion-free bivalent successor within depth 6, so the
        # search settles for its shallowest completing one, the step itself
        s = build_scenario("abd-tos")
        s.rotation = (1, 0, 2)
        rep = build_hbi(s, rounds=4)
        seg = rep.segments[-1]
        assert (seg.round, seg.slot, seg.process, seg.detour_len) == (4, 0, 1, 0)
        config, _ = apply_history(s.initial(), rep.history[: seg.start_index], s.system)
        step_e = rep.history[seg.start_index]
        found = bivalent_successor(s, config, step_e)
        assert (found.detour, found.new_completions) == ((), 1)
        assert found.valence.tag is ValenceTag.BIVALENT
        for cfg, _, _ in valence.reach(s, config, 6, forbid=step_e):
            succ = apply_step(cfg, step_e, s.system)
            if classify_valence(s, succ).is_bivalent:
                assert completed_count(succ) > completed_count(config)
        # the report goes on to round 4, slot 1, with SET's response logged
        assert rep.rounds_completed == 3
        assert (rep.stuck.round, rep.stuck.slot, rep.stuck.explored) == (4, 1, 51)
        assert [(ev.op.name, ev.value) for ev in rep.completions] == [("SET", "done")]

    @pytest.mark.parametrize("name,rounds", [("naive-tos", 6), ("abd-tos", 0)])
    def test_initial_certificates_without_a_segment(self, name, rounds):
        # naive-tos is stuck at round 1, slot 0; rounds=0 schedules nothing
        s = build_scenario(name)
        rep = build_hbi(s, rounds=rounds)
        assert rep.segments == [] and rep.history == ()
        certs = rep.certificates_at(0)
        assert set(certs) == {0, 1}
        for v, cert in certs.items():
            final, _ = apply_history(s.initial(), cert, s.system)
            assert s.decided(final) == v
        assert "initial" not in rep.to_json()
        with pytest.raises(IndexError):
            rep.certificates_at(1)

    def test_construction_is_deterministic(self):
        a = build_hbi(build_scenario("abd-tos"), rounds=3)
        b = build_hbi(build_scenario("abd-tos"), rounds=3)
        assert [s.scheduled_uid for s in a.segments] == [
            s.scheduled_uid for s in b.segments
        ]
        assert a.history == b.history

    def test_fourth_round_reports_stuck_without_losing_three(self):
        s = build_scenario("abd-tos")
        rep = build_hbi(s, rounds=4)
        assert rep.rounds_completed == 3
        assert rep.stuck is not None
        assert rep.stuck.round == 4

    @pytest.mark.parametrize("rotation", [(0, 0, 1), (0, 1), (1, 2, 3)])
    def test_a_rotation_that_is_not_one_slot_per_process_is_refused(self, rotation):
        s = build_scenario("abd-tos", rotation=rotation)
        with pytest.raises(PreconditionViolated) as exc:
            build_hbi(s, rounds=1)
        assert str(exc.value) == f"rotation must order every process once, not {rotation!r}"

    def test_an_initial_configuration_that_is_not_bivalent_is_refused(self):
        # trivial-ack decides nothing; the CLI refuses it before this search
        s = build_scenario("trivial-ack")
        with pytest.raises(PreconditionViolated) as exc:
            build_hbi(s, rounds=1)
        assert str(exc.value) == "initial configuration is not certified bivalent"

    def test_naive_tos_sticks_immediately_with_evidence(self):
        s = build_scenario("naive-tos")
        rep = build_hbi(s, rounds=1)
        assert rep.rounds_completed == 0
        assert rep.stuck is not None
        assert rep.stuck.round == 1 and rep.stuck.slot == 0
        assert rep.stuck.evidence

    def test_report_json_shape(self):
        rep = build_hbi(build_scenario("abd-tos"), rounds=3)
        out = rep.to_json()
        assert out["rounds_completed"] == 3
        assert len(out["segments"]) == 9
        assert out["completions"] == []


# --- frozen verdicts ------------------------------------------------------------


def digest(record) -> str:
    """A short digest of a JSON-ready record, keys sorted."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def round_two_successor(s):
    """build_hbi's round-2, slot-0 candidate with an empty detour on
    abd-tos: the first round's history, then process 0's forced step,
    replayed on s, which stays cold."""
    first = build_hbi(build_scenario(s.name, s.n), rounds=1)
    config, _ = apply_history(s.initial(), first.history, s.system)
    return apply_step(config, Step(0, config.inbox[0][0]), s.system)


def walk(name, seed) -> tuple:
    """A seeded walk: 4 to 11 random steps that decide nothing, then the
    plain fair run from there to the decision."""
    s = build_scenario(name)
    rng = random.Random(f"{name}:{seed}")
    history, config = [], s.initial()
    for _ in range(rng.randrange(4, 12)):
        steps = [step for p in range(s.n) for step in enabled_steps(config, p)
                 if s.decided(apply_step(config, step, s.system)) is None]
        step = rng.choice(steps)
        config = apply_step(config, step, s.system)
        history.append(step)
    return tuple(history) + fair_completion(s, config).history


def frozen_valence_cases():
    """(id, protocol, n, how to build the configuration, depth)."""
    for n in (3, 4):
        yield f"abd-tos-n{n}-round-2-slot-0", "abd-tos", n, round_two_successor, None
    for name in ("naive-tos", "abd-tos", "abd-reg"):
        for seed in (1, 2):
            history = walk(name, seed)
            length = len(history)
            for k in sorted({length * f // 5 for f in range(1, 5)} | {length - 3}):
                for depth in (3, 4, 6, 8):
                    def build(s, prefix=history[:k]):
                        return apply_history(s.initial(), prefix, s.system)[0]

                    yield f"{name}-walk{seed}-at{k}-d{depth}", name, None, build, depth


FROZEN_VALENCE_CASES = {case[0]: case[1:] for case in frozen_valence_cases()}

# id -> (tag, exhausted, digest of to_json()) of classify_valence on a
# cold scenario
FROZEN_VALENCE = {
    "abd-tos-n3-round-2-slot-0": ("unknown-at-bound", False, "b1abd0e557de3446"),
    "abd-tos-n4-round-2-slot-0": ("unknown-at-bound", False, "9d258aa693ac989c"),
    "naive-tos-walk1-at1-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at1-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at1-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at1-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at3-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at3-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at3-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at3-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at5-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at5-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at5-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at5-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at6-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at6-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at6-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at6-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at7-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at7-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at7-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk1-at7-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at2-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at2-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at2-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at2-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at4-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at4-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at4-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at4-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at6-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at6-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at6-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at6-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at7-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at7-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at7-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at7-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at8-d3": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at8-d4": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at8-d6": ("bivalent", False, "8a118a7b9703bc33"),
    "naive-tos-walk2-at8-d8": ("bivalent", False, "8a118a7b9703bc33"),
    "abd-tos-walk1-at5-d3": ("bivalent", False, "334bbda0ef98288d"),
    "abd-tos-walk1-at5-d4": ("bivalent", False, "334bbda0ef98288d"),
    "abd-tos-walk1-at5-d6": ("bivalent", False, "334bbda0ef98288d"),
    "abd-tos-walk1-at5-d8": ("bivalent", False, "334bbda0ef98288d"),
    "abd-tos-walk1-at10-d3": ("bivalent", False, "869c7ab76ac8ecaa"),
    "abd-tos-walk1-at10-d4": ("bivalent", False, "869c7ab76ac8ecaa"),
    "abd-tos-walk1-at10-d6": ("bivalent", False, "869c7ab76ac8ecaa"),
    "abd-tos-walk1-at10-d8": ("bivalent", False, "869c7ab76ac8ecaa"),
    "abd-tos-walk1-at16-d3": ("unknown-at-bound", False, "d2f4b58637479e73"),
    "abd-tos-walk1-at16-d4": ("unknown-at-bound", False, "b4e89c172816c4c3"),
    "abd-tos-walk1-at16-d6": ("unknown-at-bound", False, "03b0cdb2ae5d6e7e"),
    "abd-tos-walk1-at16-d8": ("0-valent", True, "fa7f57edf6b54992"),
    "abd-tos-walk1-at21-d3": ("0-valent", True, "89bc8f1da0f52023"),
    "abd-tos-walk1-at21-d4": ("0-valent", True, "e21899681a70feb0"),
    "abd-tos-walk1-at21-d6": ("0-valent", True, "e51ebe2deb18ca8f"),
    "abd-tos-walk1-at21-d8": ("0-valent", True, "d98b55f87fd333dc"),
    "abd-tos-walk1-at24-d3": ("0-valent", True, "badccba6ec246f62"),
    "abd-tos-walk1-at24-d4": ("0-valent", True, "010a484e87bfa7bf"),
    "abd-tos-walk1-at24-d6": ("0-valent", True, "f7b2baac28016137"),
    "abd-tos-walk1-at24-d8": ("0-valent", True, "a4b5abd12c52a0bd"),
    "abd-tos-walk2-at5-d3": ("bivalent", False, "e3e16824c055ca57"),
    "abd-tos-walk2-at5-d4": ("bivalent", False, "e3e16824c055ca57"),
    "abd-tos-walk2-at5-d6": ("bivalent", False, "e3e16824c055ca57"),
    "abd-tos-walk2-at5-d8": ("bivalent", False, "e3e16824c055ca57"),
    "abd-tos-walk2-at10-d3": ("bivalent", False, "07cc7b26f8bb8317"),
    "abd-tos-walk2-at10-d4": ("bivalent", False, "07cc7b26f8bb8317"),
    "abd-tos-walk2-at10-d6": ("bivalent", False, "07cc7b26f8bb8317"),
    "abd-tos-walk2-at10-d8": ("bivalent", False, "07cc7b26f8bb8317"),
    "abd-tos-walk2-at16-d3": ("unknown-at-bound", False, "d2f4b58637479e73"),
    "abd-tos-walk2-at16-d4": ("unknown-at-bound", False, "b4e89c172816c4c3"),
    "abd-tos-walk2-at16-d6": ("unknown-at-bound", False, "03b0cdb2ae5d6e7e"),
    "abd-tos-walk2-at16-d8": ("0-valent", True, "fa7f57edf6b54992"),
    "abd-tos-walk2-at21-d3": ("0-valent", True, "89bc8f1da0f52023"),
    "abd-tos-walk2-at21-d4": ("0-valent", True, "e21899681a70feb0"),
    "abd-tos-walk2-at21-d6": ("0-valent", True, "e51ebe2deb18ca8f"),
    "abd-tos-walk2-at21-d8": ("0-valent", True, "d98b55f87fd333dc"),
    "abd-tos-walk2-at24-d3": ("0-valent", True, "badccba6ec246f62"),
    "abd-tos-walk2-at24-d4": ("0-valent", True, "010a484e87bfa7bf"),
    "abd-tos-walk2-at24-d6": ("0-valent", True, "f7b2baac28016137"),
    "abd-tos-walk2-at24-d8": ("0-valent", True, "a4b5abd12c52a0bd"),
    "abd-reg-walk1-at12-d3": ("unknown-at-bound", False, "d2986480cac096eb"),
    "abd-reg-walk1-at12-d4": ("unknown-at-bound", False, "ebe7d555cc6cc514"),
    "abd-reg-walk1-at12-d6": ("unknown-at-bound", False, "dcb1855fd7888a73"),
    "abd-reg-walk1-at12-d8": ("unknown-at-bound", False, "404b6c2ccd51ed75"),
    "abd-reg-walk1-at24-d3": ("unknown-at-bound", False, "9c939c6d0f41dacb"),
    "abd-reg-walk1-at24-d4": ("unknown-at-bound", False, "f7de264990bf9964"),
    "abd-reg-walk1-at24-d6": ("unknown-at-bound", False, "527ff930cb2670a7"),
    "abd-reg-walk1-at24-d8": ("unknown-at-bound", False, "5356c3836bb14c54"),
    "abd-reg-walk1-at36-d3": ("unknown-at-bound", False, "8f55dc5ec21df8c4"),
    "abd-reg-walk1-at36-d4": ("unknown-at-bound", False, "67a7ad837d841357"),
    "abd-reg-walk1-at36-d6": ("unknown-at-bound", False, "eb11032a9b65c647"),
    "abd-reg-walk1-at36-d8": ("unknown-at-bound", False, "4023a3bace11f1c4"),
    "abd-reg-walk1-at48-d3": ("unknown-at-bound", False, "cdd84d261fb957c6"),
    "abd-reg-walk1-at48-d4": ("unknown-at-bound", False, "9ff7505131163687"),
    "abd-reg-walk1-at48-d6": ("1-valent", True, "d8bc92cbf5fc4ecd"),
    "abd-reg-walk1-at48-d8": ("1-valent", True, "baa9f86aef55a459"),
    "abd-reg-walk1-at57-d3": ("1-valent", True, "edb2be225194c332"),
    "abd-reg-walk1-at57-d4": ("1-valent", True, "126c4150e622b109"),
    "abd-reg-walk1-at57-d6": ("1-valent", True, "4ea51e6ac6288e04"),
    "abd-reg-walk1-at57-d8": ("1-valent", True, "06a5904a8021de7c"),
    "abd-reg-walk2-at11-d3": ("unknown-at-bound", False, "fab5a1637d89ea9c"),
    "abd-reg-walk2-at11-d4": ("unknown-at-bound", False, "80a0f0526a29bda2"),
    "abd-reg-walk2-at11-d6": ("unknown-at-bound", False, "a4d3f28cff09cf2c"),
    "abd-reg-walk2-at11-d8": ("unknown-at-bound", False, "d6c55e42dd576c90"),
    "abd-reg-walk2-at22-d3": ("unknown-at-bound", False, "9c939c6d0f41dacb"),
    "abd-reg-walk2-at22-d4": ("unknown-at-bound", False, "f7de264990bf9964"),
    "abd-reg-walk2-at22-d6": ("unknown-at-bound", False, "527ff930cb2670a7"),
    "abd-reg-walk2-at22-d8": ("unknown-at-bound", False, "5356c3836bb14c54"),
    "abd-reg-walk2-at33-d3": ("unknown-at-bound", False, "8f55dc5ec21df8c4"),
    "abd-reg-walk2-at33-d4": ("unknown-at-bound", False, "67a7ad837d841357"),
    "abd-reg-walk2-at33-d6": ("unknown-at-bound", False, "eb11032a9b65c647"),
    "abd-reg-walk2-at33-d8": ("unknown-at-bound", False, "4023a3bace11f1c4"),
    "abd-reg-walk2-at44-d3": ("unknown-at-bound", False, "cdd84d261fb957c6"),
    "abd-reg-walk2-at44-d4": ("unknown-at-bound", False, "9ff7505131163687"),
    "abd-reg-walk2-at44-d6": ("1-valent", True, "d8bc92cbf5fc4ecd"),
    "abd-reg-walk2-at44-d8": ("1-valent", True, "baa9f86aef55a459"),
    "abd-reg-walk2-at53-d3": ("1-valent", True, "edb2be225194c332"),
    "abd-reg-walk2-at53-d4": ("1-valent", True, "126c4150e622b109"),
    "abd-reg-walk2-at53-d6": ("1-valent", True, "4ea51e6ac6288e04"),
    "abd-reg-walk2-at53-d8": ("1-valent", True, "06a5904a8021de7c"),
}


def hbi_record(rep) -> dict:
    """Everything an HbiReport holds, JSON-ready: to_json() plus the
    schedule, the initial and per-segment certificates and the stuck
    record's evidence."""
    def certs(c):
        return {str(v): schedule_records(h) for v, h in sorted(c.items())}

    out = rep.to_json()
    out["history"] = schedule_records(rep.history)
    out["initial"] = certs(rep.initial)
    out["certificates"] = [certs(seg.certificates) for seg in rep.segments]
    out["evidence"] = None if rep.stuck is None else list(rep.stuck.evidence)
    return out


# the benchmark's adversary jobs (abd-tos, rounds=3; (1, 2, 0) is stuck
# at round 3) and naive-tos, stuck at round 1 with flip evidence:
# (protocol, n, rotation, rounds) -> digest of hbi_record
FROZEN_HBI = {
    ("abd-tos", None, (0, 1, 2), 3): "57a004ee86518516",
    ("abd-tos", None, (0, 2, 1), 3): "48b954b8e9cb1f1e",
    ("abd-tos", None, (1, 0, 2), 3): "9919c203be2a6706",
    ("abd-tos", None, (1, 2, 0), 3): "3fd892022048dc8e",  # stuck at round 3, no flip
    ("abd-tos", None, (2, 0, 1), 3): "7002fe840fc08861",
    ("abd-tos", None, (2, 1, 0), 3): "82a62b7a0f0fbb13",
    ("abd-tos", 4, None, 3): "f8d68ba9f776ef2d",
    ("naive-tos", None, None, 1): "0a6c71fc02d86504",  # stuck at round 1, one flip
}


class TestFrozenVerdicts:
    """Verdicts frozen as digests, so that a change to how a search
    steps cannot change what it finds: certificates, depths and
    exhaustion included."""

    @pytest.mark.parametrize("case", list(FROZEN_VALENCE_CASES))
    def test_classify_valence(self, case):
        name, n, build, depth = FROZEN_VALENCE_CASES[case]
        s = build_scenario(name, n)
        out = classify_valence(s, build(s), depth)
        assert (out.tag.value, out.exhausted, digest(out.to_json())) == FROZEN_VALENCE[case]

    def test_the_table_holds_every_kind_of_verdict(self):
        kinds = {(FROZEN_VALENCE[case][:2], depth)
                 for case, (_, _, _, depth) in FROZEN_VALENCE_CASES.items()}
        assert {(("unknown-at-bound", False), None), (("0-valent", True), 8),
                (("1-valent", True), 8), (("bivalent", False), 8),
                (("unknown-at-bound", False), 8), (("unknown-at-bound", False), 4)} <= kinds

    @pytest.mark.parametrize("key", list(FROZEN_HBI), ids=str)
    def test_build_hbi(self, key):
        name, n, rotation, rounds = key
        rep = build_hbi(build_scenario(name, n, rotation=rotation), rounds=rounds)
        assert digest(hbi_record(rep)) == FROZEN_HBI[key]


def sorted_layers(classes):
    """The examination order by sorting each whole layer: reach's yields
    grouped by depth, each group stably sorted by the 0/1 completion
    rank."""
    return chain.from_iterable(
        sorted(layer, key=lambda item: completion_rank(item[0]))
        for _, layer in groupby(classes, key=itemgetter(2))
    )


class TestAudit:
    @pytest.mark.parametrize("name,sweep,spec,mode", [
        ("abd-reg", 16, REG_SPEC, "write-strong"),
        ("abd-tos", 12, TOS_SPEC, "strong"),
        ("naive-tos", 14, TOS_SPEC, "strong"),
    ])
    def test_streamed_ranking_examines_as_sorted_layers_do(
        self, monkeypatch, name, sweep, spec, mode
    ):
        # _completion_first hands rank-0 classes on at discovery; the
        # audit must still classify the same classes in the same order
        real = valence.classify_valence

        def examined(completion_first):
            s = build_scenario(name)
            calls = []

            def spy(scenario, config, depth=None):
                calls.append((config.core_key(), depth))
                return real(scenario, config, depth)

            monkeypatch.setattr(valence, "classify_valence", spy)
            monkeypatch.setattr(valence, "_completion_first", completion_first)
            triples = completed_implies_univalent_audit(
                s, sweep, spec, checker_mode=mode, max_triples=1, order="completion-first"
            )
            return calls, [t.base_history for t in triples]

        streamed, sorted_ = examined(_completion_first), examined(sorted_layers)
        assert streamed == sorted_ and streamed[0]

    def test_naive_tos_single_completed_bivalent_class(self):
        s = build_scenario("naive-tos")
        triples = completed_implies_univalent_audit(
            s, depth=14, spec=TOS_SPEC, checker_mode="strong"
        )
        assert len(triples) == 1
        t = triples[0]
        assert t.depth == 2
        assert t.completed == ("SET#16",)
        assert isinstance(t.verdict, Counterexample)

    def test_orders_find_the_same_class(self):
        s1 = build_scenario("naive-tos")
        s2 = build_scenario("naive-tos")
        a = completed_implies_univalent_audit(
            s1, depth=8, spec=TOS_SPEC, checker_mode="strong", order="bfs"
        )
        b = completed_implies_univalent_audit(
            s2, depth=8, spec=TOS_SPEC, checker_mode="strong", order="completion-first"
        )
        assert len(a) == len(b) == 1
        assert a[0].base.events == b[0].base.events

    def test_completion_first_reorders_only_the_examination(self):
        # both orders sweep one breadth-first expansion; completion-first
        # examines each depth's classes stably sorted by completion rank
        def audit(order):
            s = build_scenario("abd-tos")
            return s, completed_implies_univalent_audit(
                s, 8, TOS_SPEC, order=order
            )

        s, bfs = audit("bfs")
        _, first = audit("completion-first")
        assert len(bfs) == len(first) == 73

        def rank(t):
            return completion_rank(apply_history(s.initial(), t.base_history, s.system)[0])

        for d in sorted({t.depth for t in bfs}):
            layer = [t for t in bfs if t.depth == d]
            got = [t for t in first if t.depth == d]
            assert [t.base_history for t in got] == [
                t.base_history for t in sorted(layer, key=rank)
            ]
        assert [t.depth for t in first] == sorted(t.depth for t in first)

    @pytest.mark.parametrize("kw,message", [
        ({"checker_mode": "sl"}, "checker_mode must be one of 'strong', 'write-strong', not 'sl'"),
        ({"order": "dfs"}, "order must be 'bfs' or 'completion-first', not 'dfs'"),
        ({"max_triples": 0}, "max_triples must be None or at least 1, not 0"),
        ({"max_triples": -3}, "max_triples must be None or at least 1, not -3"),
    ])
    def test_unknown_checker_mode_or_order_is_refused(self, kw, message):
        # each used to run silently: "sl" as write-strong, "dfs" as bfs,
        # and a max_triples below 1 as 1
        s = build_scenario("naive-tos")
        with pytest.raises(PreconditionViolated) as exc:
            completed_implies_univalent_audit(s, depth=14, spec=TOS_SPEC, **kw)
        assert str(exc.value) == message

    def test_max_triples_short_circuits(self):
        s = build_scenario("naive-tos")
        out = completed_implies_univalent_audit(
            s, depth=14, spec=TOS_SPEC, checker_mode="strong", max_triples=1
        )
        assert len(out) == 1

    def test_triple_tree_is_well_formed(self):
        s = build_scenario("naive-tos")
        (t,) = completed_implies_univalent_audit(
            s, depth=14, spec=TOS_SPEC, checker_mode="strong", max_triples=1
        )
        tree = t.tree()
        assert len(tree) == 3
        assert tree.nodes[tree.root].history == t.base


class TestExploreHistoryTree:
    def test_tree_is_prefix_closed_by_construction(self):
        s = build_scenario("naive-tos")
        tree = explore_history_tree(s, depth=3)
        for nid in tree.bfs_order():
            node = tree.nodes[nid]
            if node.parent is None:
                continue
            parent = tree.nodes[node.parent]
            assert node.history.events[: len(parent.history.events)] == parent.history.events

    def test_node_budget_enforced(self):
        s = build_scenario("abd-reg")
        with pytest.raises(SizeLimitError):
            explore_history_tree(s, depth=6, max_nodes=10)

    @pytest.mark.parametrize("name, depth", [("naive-tos", 4), ("abd-tos", 3), ("abd-reg", 2)])
    def test_node_budget_boundary(self, name, depth):
        s = build_scenario(name)
        size = len(explore_history_tree(s, depth))
        assert len(explore_history_tree(s, depth, max_nodes=size)) == size
        with pytest.raises(SizeLimitError,
                           match=f"^history tree exceeds {size - 1} nodes at depth {depth}$"):
            explore_history_tree(s, depth, max_nodes=size - 1)

    @pytest.mark.parametrize("name, depth, inner", [
        ("naive-tos", 6, 134), ("abd-tos", 3, 18), ("abd-reg", 3, 18), ("naive-tos", 1, 0)])
    def test_only_expanded_nodes_are_stepped(self, name, depth, inner, monkeypatch):
        s = build_scenario(name)
        calls = []

        def spy(*args):
            calls.append(args)
            return apply_step(*args)

        monkeypatch.setattr(valence, "apply_step", spy)
        tree = explore_history_tree(s, depth)
        node_depth = {tree.root: 0}
        for nid in tree.bfs_order()[1:]:
            node_depth[nid] = node_depth[tree.nodes[nid].parent] + 1
        assert len(calls) == sum(0 < d < depth for d in node_depth.values()) == inner

    @pytest.mark.parametrize("name, depth", [
        ("naive-tos", 4), ("naive-tos", 5), ("naive-tos", 6), ("abd-tos", 3), ("abd-reg", 3)])
    def test_shared_histories_match_a_fresh_history_per_node(self, name, depth):
        s = build_scenario(name)
        spec = s.built.spec
        tree = explore_history_tree(s, depth)
        ref = fresh_history_tree(s, depth)
        assert tree.bfs_order() == ref.bfs_order()
        one_per_log = {}
        for nid, node in tree.nodes.items():
            assert one_per_log.setdefault(node.history.events, node.history) is node.history
            assert node.parent == ref.nodes[nid].parent
            assert node.children == ref.nodes[nid].children
            assert node.history == ref.nodes[nid].history
            if node.parent is not None:
                parent = tree.nodes[node.parent].history
                logged = len(node.history) > len(parent)
                assert (node.history is parent) == (not logged)
            assert is_linearizable(node.history, spec) == is_linearizable(
                ref.nodes[nid].history, spec)
        for checker in (strong_linearization_exists, write_strong_linearization_exists):
            assert checker(tree, spec).to_json() == checker(ref, spec).to_json()


def fresh_history_tree(s, depth):
    """explore_history_tree built independently: a new OpHistory for
    every node, its log replayed from the root, steps taken from
    enabled_steps."""
    init = s.initial()
    tree = ExecutionTree(OpHistory())
    frontier = [(init, (), tree.root, 0)]
    for cfg, hist, nid, d in frontier:  # grows while iterated: breadth-first
        if d < depth:
            for p in range(s.n):
                for step in enabled_steps(cfg, p):
                    nxt = apply_step(cfg, step, s.system)
                    path = hist + (step,)
                    node = OpHistory(logged_events(init, path, s.system))
                    frontier.append((nxt, path, tree.add_node(node, nid), d + 1))
    return tree


class TestScenarioPlumbing:
    def test_unknown_protocol_name_raises(self):
        with pytest.raises(KeyError):
            build_scenario("two-generals")

    def test_completed_count_counts_responses(self):
        s = build_scenario("naive-tos")
        init = s.initial()
        assert completed_count(init) == 0
        two, _ = apply_history(init, [Step(1, None), Step(1, None)], s.system)
        assert completed_count(two) == 1  # SET done, TEST not started
        three, _ = apply_history(two, [Step(0, None)], s.system)
        assert completed_count(three) == 2


class TestDecisionInState:
    """Scenario.decided reads the decider's state; the event log agrees."""

    WALKS = [("naive-tos", None), ("abd-tos", None), ("abd-reg", None),
             ("trivial-ack", None), ("abd-tos", 5), ("trivial-ack", 6)]

    @given(st.sampled_from(WALKS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decided_matches_the_event_log(self, walk, seed):
        # a random prefix, a fair run that usually decides, random steps after
        name, n = walk
        s = build_scenario(name, n)
        rng = random.Random(seed)

        log = []

        def take(config, step):
            child = apply_step(config, step, s.system)
            log.extend(logged_events(config, (step,), s.system))
            assert s.decided(child) == scanned_decision(s, log)
            return child

        def any_step(config):
            return rng.choice(enabled_steps(config, rng.randrange(s.n)))

        config = s.initial()
        assert s.decided(config) is None
        for _ in range(rng.randrange(16)):
            config = take(config, any_step(config))
        for step in fair_completion(s, config).history:
            config = take(config, step)
        for _ in range(10):
            config = take(config, any_step(config))

    @given(st.sampled_from(WALKS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_step_keeps_every_other_process_state_object(self, walk, seed):
        # so no step of a process other than the decider can decide:
        # reach's one_undecided_at_bound steps only the decider past the
        # bound's first undecided class on the strength of it
        name, n = walk
        s = build_scenario(name, n)
        rng = random.Random(seed)
        config = s.initial()
        for _ in range(rng.randrange(30)):
            for p in range(s.n):
                for step in enabled_steps(config, p):
                    child = apply_step(config, step, s.system)
                    assert all(child.states[q] is config.states[q]
                               for q in range(s.n) if q != p)
            config = apply_step(
                config, rng.choice(enabled_steps(config, rng.randrange(s.n))), s.system)

"""Valence classification, adversarial schedules, and the audits."""

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
from linlab.model import PreconditionViolated, Step, apply_history, apply_step, enabled_steps
from linlab.seqspec import REG_SPEC, RESPONSE, TOS_SPEC, OpHistory
import linlab.valence as valence
from linlab.valence import (
    TIMEOUT,
    ValenceTag,
    _by_rank,
    _completion_rank,
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


def scanned_decision(s, config):
    """The decision read from the event log: the value of the last
    response of the decision op by the deciding process."""
    driver = s.system.driver
    for ev in reversed(config.events):
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
            assert s.decided(run.final) == scanned_decision(s, run.final) == run.value

    def test_crashing_the_decider_times_out(self):
        s = build_scenario("abd-tos")
        run = fair_completion(s, s.initial(), crashed=s.decision_process)
        assert run.value is TIMEOUT

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
        assert not out
        assert out.evidence, "expected opposite-valence flips as evidence"
        flip = out.evidence[0]
        assert flip["bridge_process"] == 0
        assert flip["valences"][0] != flip["valences"][1]

    def test_search_reports_exploration_size(self):
        s = build_scenario("naive-tos")
        out = bivalent_successor(s, s.initial(), Step(0, None))
        assert out.explored >= 1


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


def sorted_layers(classes, rank):
    """The examination order by sorting each whole layer: reach's yields
    grouped by depth, each group stably sorted by rank."""
    return chain.from_iterable(
        sorted(layer, key=lambda item: rank(item[0]))
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
        # _by_rank hands rank-0 classes on at discovery; the audit must
        # still classify the same classes in the same order
        real = valence.classify_valence

        def examined(by_rank):
            s = build_scenario(name)
            calls = []

            def spy(scenario, config, depth=None):
                calls.append((config.core_key(), depth))
                return real(scenario, config, depth)

            monkeypatch.setattr(valence, "classify_valence", spy)
            monkeypatch.setattr(valence, "_by_rank", by_rank)
            triples = completed_implies_univalent_audit(
                s, sweep, spec, checker_mode=mode, max_triples=1, order="completion-first"
            )
            return calls, [t.base_history for t in triples]

        streamed, sorted_ = examined(_by_rank), examined(sorted_layers)
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
            return _completion_rank(apply_history(s.initial(), t.base_history, s.system)[0])

        for d in sorted({t.depth for t in bfs}):
            layer = [t for t in bfs if t.depth == d]
            got = [t for t in first if t.depth == d]
            assert [t.base_history for t in got] == [
                t.base_history for t in sorted(layer, key=rank)
            ]
        assert [t.depth for t in first] == sorted(t.depth for t in first)

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
    every node, steps taken from enabled_steps."""
    init = s.initial()
    tree = ExecutionTree(OpHistory(init.events))
    frontier = [(init, tree.root, 0)]
    for cfg, nid, d in frontier:  # grows while iterated: breadth-first
        if d < depth:
            for p in range(s.n):
                for step in enabled_steps(cfg, p):
                    nxt = apply_step(cfg, step, s.system)
                    frontier.append((nxt, tree.add_node(OpHistory(nxt.events), nid), d + 1))
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

        def take(config, step):
            child = apply_step(config, step, s.system)
            assert s.decided(child) == scanned_decision(s, child)
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

"""The step layer's memos change no result.

ScriptedSystem memoizes transitions, and every Scenario memoizes
fair-run suffixes and the successors its classification sweeps step
to. A warm instance must answer exactly like a cold one: the same
Effects, fair runs with the same history, value and final configuration
(event log and core), and the same verdicts and schedules.
"""

import random
import sys
from itertools import permutations

import pytest

import linlab.valence as valence
from conftest import random_walk, run_corpus
from linlab.model import Step, apply_history, enabled_steps
from linlab.progress import check_1rlf
from linlab.protocols import ScriptedSystem
from linlab.seqspec import REG_SPEC, TOS_SPEC
from linlab.valence import (
    VALENCE_DEPTH,
    Scenario,
    ValenceTag,
    _compact_key,
    build_hbi,
    build_scenario,
    classify_valence,
    completed_implies_univalent_audit,
    fair_completion,
    reach,
    staged_probe,
)

PROTOCOLS = ("naive-tos", "abd-tos", "abd-reg", "trivial-ack")
AUDITS = {  # name -> (depth, spec, order) of the audit that warms the scenario
    "naive-tos": (6, TOS_SPEC, "bfs"),
    "abd-tos": (8, TOS_SPEC, "completion-first"),
    "abd-reg": (10, REG_SPEC, "completion-first"),
}


def same_run(a, b) -> None:
    assert a.history == b.history
    assert a.value == b.value
    assert a.final == b.final


def walk_configs(name, seeds, steps=12):
    """Every configuration along a few random walks (the start included)."""
    out = []
    for seed in seeds:
        s = build_scenario(name)
        _, hist = random_walk(s, random.Random(seed), steps)
        _, trace = apply_history(s.initial(), hist, s.system)
        out.extend(trace)
    return out


@pytest.fixture
def count_steps(monkeypatch):
    """apply_step calls made by valence, counted."""
    calls = [0]
    real = valence.apply_step

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(valence, "apply_step", counted)
    return calls


class TestTransitionMemo:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_memoized_effects_equal_fresh_ones(self, name):
        for s, _, hist in run_corpus([name], seeds=range(6)):
            system = s.system
            _, trace = apply_history(s.initial(), hist, system)
            for config in trace:
                for p in range(s.n):
                    for step in enabled_steps(config, p):
                        state = config.states[p]
                        fresh = ScriptedSystem(system.inner, system.driver, system.name)
                        memo = system.transition(state, step.received)
                        assert memo == fresh.transition(state, step.received)
                        # a repeated transition hands out the same Effect
                        assert system.transition(state, step.received) is memo


class TestSuffixMemo:
    @pytest.mark.parametrize("name", sorted(AUDITS))
    def test_warm_probes_equal_cold_ones(self, name, count_steps):
        depth, spec, order = AUDITS[name]
        warm = build_scenario(name)
        classify_valence(warm, warm.initial())
        completed_implies_univalent_audit(
            warm, depth, spec, max_triples=1, order=order
        )
        probes = [lambda s, c: fair_completion(s, c)]
        for q in range(warm.n):
            probes.append(lambda s, c, q=q: staged_probe(s, c, q))
            probes.append(lambda s, c, q=q: fair_completion(s, c, crashed=q))
        walked = stepped = 0
        for config in walk_configs(name, seeds=range(3))[::2]:
            for probe in probes:
                before = count_steps[0]
                got = probe(warm, config)
                stepped += count_steps[0] - before
                walked += len(got.history)
                same_run(got, probe(build_scenario(name), config))
        assert stepped < walked  # the warm scenario did reuse suffixes

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_bounded_runs_agree_with_cold_ones_in_either_order(self, name):
        for config in walk_configs(name, seeds=[0, 1], steps=6)[::3]:
            full = fair_completion(build_scenario(name), config)
            for bound in range(len(full.history) + 2):
                cold = fair_completion(build_scenario(name), config, bound=bound)
                if bound < len(full.history):
                    assert cold.value is None
                    assert len(cold.history) == bound
                # a finished run, then a shorter one: truncated all the same
                warm = build_scenario(name)
                fair_completion(warm, config)
                same_run(fair_completion(warm, config, bound=bound), cold)
                # a truncated run, then a full one: not cut short
                warm = build_scenario(name)
                same_run(fair_completion(warm, config, bound=bound), cold)
                same_run(fair_completion(warm, config), full)

    def test_suffix_reused_from_mid_run_boundary(self, count_steps):
        # a run started from a later round boundary of a finished run takes
        # the whole rest from the memo without stepping
        s = build_scenario("abd-reg")
        full = fair_completion(s, s.initial())
        boundary, _ = apply_history(s.initial(), full.history[: 2 * s.n], s.system)
        before = count_steps[0]
        rest = fair_completion(s, boundary)
        assert count_steps[0] == before
        assert rest.history == full.history[2 * s.n:]
        assert rest.value == full.value
        assert rest.final.core_key() == full.final.core_key()

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_resumed_run_returns_the_stepped_runs_final(self, name):
        # a run resumed at any round boundary of a finished run is that
        # run's tail, ending in the very configuration object it reached
        s = build_scenario(name)
        full = fair_completion(s, s.initial())
        assert len(full.history) < valence.FAIR_BOUND  # finished, so remembered
        for offset in range(s.n, len(full.history), s.n):
            boundary, _ = apply_history(s.initial(), full.history[:offset], s.system)
            rest = fair_completion(s, boundary)
            assert rest.history == full.history[offset:]
            assert rest.final is full.final


class Forgetful(dict):
    """A successor table that remembers nothing: a cold scenario."""

    def __setitem__(self, key, value):
        pass


def cold_scenario(name, **kw):
    s = build_scenario(name, **kw)
    s._successors = Forgetful()
    return s


class TestSuccessorMemo:
    @pytest.mark.parametrize("name,n,rotations", [
        ("abd-tos", 3, list(permutations(range(3)))),
        ("abd-tos", 4, [None]),
        ("naive-tos", None, [None]),
    ])
    def test_warm_hbi_equals_cold(self, name, n, rotations):
        # one warm scenario runs every rotation, and the first again last
        warm = build_scenario(name, n=n)
        for rotation in rotations + rotations[:1]:
            warm.rotation = rotation
            got = build_hbi(warm, rounds=3)
            want = build_hbi(cold_scenario(name, n=n, rotation=rotation), rounds=3)
            assert got.to_json() == want.to_json()
            assert got.history == want.history
            assert got.initial == want.initial
            assert [g.certificates for g in got.segments] == [
                w.certificates for w in want.segments
            ]
        if name == "abd-tos":
            assert warm._successors  # the warm runs did remember

    @pytest.mark.parametrize("name,depth", [
        ("naive-tos", VALENCE_DEPTH),
        ("abd-tos", VALENCE_DEPTH),
        ("abd-reg", 6),  # its depth-8 sweeps take seconds
    ])
    def test_warm_classification_equals_cold(self, name, depth):
        warm, cold = build_scenario(name), cold_scenario(name)
        for config, _, _ in reach(warm, warm.initial(), 4):
            got, want = classify_valence(warm, config, depth), classify_valence(cold, config, depth)
            assert (got.tag, got.certificates, got.exhausted, got.depth) == (
                want.tag, want.certificates, want.exhausted, want.depth
            )
        assert cold._successors == {}
        if name != "naive-tos":
            assert warm._successors

    @pytest.mark.parametrize("name", ["naive-tos", "abd-tos", "abd-reg"])
    def test_warm_sweep_yields_as_a_cold_one(self, name):
        # the same classes, histories and depths, in the same order, from
        # every class to depth 2 and a table warmed by all of them
        s = build_scenario(name)
        cold_s = Scenario(s.built)
        cold_s._successors = Forgetful()
        starts = [c for c, _, _ in reach(s, s.initial(), 2)]
        for _ in range(2):  # the first pass fills the table, the second reads it
            for start in starts:
                warm = reach(s, start, 6, stop_decided=True)
                cold = reach(cold_s, start, 6, stop_decided=True)
                assert [(c.core_key(), h, d) for c, h, d in warm] == [
                    (c.core_key(), h, d) for c, h, d in cold
                ]
        if name != "naive-tos":  # whose sweeps meet no undecided class twice
            assert s._successors

    def test_second_classification_steps_only_new_children(self, monkeypatch):
        s = build_scenario("abd-tos")
        # the first class to depth 2 that a depth-5 sweep cannot settle:
        # its classification sweeps to the bound
        config = next(
            c for c, _, _ in reach(s, s.initial(), 2)
            if classify_valence(build_scenario("abd-tos"), c, 5).tag is ValenceTag.UNKNOWN_AT_BOUND
        )
        real = valence.apply_step
        calls = []  # (no-op?, decision, child key) of each step reach takes

        def spy(cfg, step, system, i):
            child = real(cfg, step, system, i)
            if sys._getframe(1).f_code.co_name == "reach":
                calls.append((child is cfg, s.decided(child), _compact_key(s._ids, child)))
            return child

        monkeypatch.setattr(valence, "apply_step", spy)
        first = classify_valence(s, config, 5)
        cold = len(calls)
        calls.clear()
        assert classify_valence(s, config, 5) == first
        found = {_compact_key(s._ids, config)}  # the sweep's classes so far
        for noop, decided, key in calls:
            # idle no-ops and decided children are not remembered; every
            # other step the sweep takes finds a class new to it
            if not noop and decided is None:
                assert key not in found
            found.add(key)
        assert len(calls) < cold

    @pytest.mark.parametrize("name", sorted(AUDITS))
    def test_warm_audit_equals_cold(self, name, monkeypatch):
        # the audit's outer sweep and its classifications remember: the
        # second audit on the warm scenario reads the first's.
        # Every verdict must agree, not only the bivalent ones that
        # make triples.
        depth, spec, order = AUDITS[name]
        real = valence.classify_valence
        verdicts = []

        def spy(scenario, config, depth=None):
            v = real(scenario, config, depth)
            verdicts.append((v.tag, v.certificates, v.exhausted, v.depth))
            return v

        monkeypatch.setattr(valence, "classify_valence", spy)
        want = completed_implies_univalent_audit(cold_scenario(name), depth, spec, order=order)
        cold = verdicts[:]
        warm = build_scenario(name)
        for _ in range(2):
            verdicts.clear()
            assert completed_implies_univalent_audit(warm, depth, spec, order=order) == want
            assert verdicts == cold
        if name != "naive-tos":
            assert warm._successors

    def test_other_sweeps_leave_the_table_empty(self):
        # neither the progress sweep nor a forbid sweep, as
        # bivalent_successor's detour sweep is, stops at decisions
        s = build_scenario("abd-tos")
        check_1rlf(s, depth=6)
        for _ in reach(s, s.initial(), 6, forbid=Step(0, None)):
            pass
        assert s._successors == {}

    def test_a_sweep_that_stops_at_decisions_fills_the_table(self):
        s = build_scenario("abd-tos")
        for _ in reach(s, s.initial(), 6, stop_decided=True):
            pass
        assert s._successors

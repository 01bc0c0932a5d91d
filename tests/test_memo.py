"""The step layer's memos change no result.

ScriptedSystem memoizes transitions and every Scenario memoizes fair-run
suffixes. A warm instance must answer exactly like a cold one: the same
Effects, and fair runs with the same history, value and final
configuration (event log and core).
"""

import random

import pytest

import linlab.valence as valence
from conftest import random_walk, run_corpus
from linlab.model import apply_history, enabled_steps
from linlab.protocols import ScriptedSystem
from linlab.seqspec import REG_SPEC, TOS_SPEC
from linlab.valence import (
    TIMEOUT,
    build_scenario,
    classify_valence,
    completed_implies_univalent_audit,
    fair_completion,
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
                    assert cold.value is TIMEOUT
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
        assert rest.final.events == full.final.events
        assert rest.final.core_key() == full.final.core_key()

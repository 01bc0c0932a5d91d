"""The shared breadth-first engine, valence.reach, against two oracles.

The first sweeps one whole layer at a time with set semantics and keys
each configuration from scratch, spelling each message out as a
(seq, sender, receiver, payload) tuple, so it shares neither reach's
ordering, nor its early yields, nor Scenario.vkey's message key. The
second is reach without sleep sets, which applies every enabled step of
every expanded class: reach must yield exactly its sequence.

The audit's completion-first order (valence._completion_first) does not
steer the expansion. It only reorders each layer for examination, so the
ranked tests check that reordering against a plain stable sort by the
0/1 completion rank, and a class of rank 0 is handed on as soon as it is
discovered.
"""

from collections import deque

import pytest

from linlab.model import Step, apply_history, apply_step, enabled_steps
from linlab.valence import (
    _completion_first,
    build_scenario,
    fair_completion,
    reach,
)

from conftest import buffer, completion_rank

PROTOCOLS = ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"]
DEPTHS = range(7)


def scratch_key(s, config):
    messages = frozenset((m.seq, m.sender, m.receiver, m.payload) for m in buffer(config))
    return (config.states, messages, config.channels), s.decided(config)


def oracle(s, start, depth, forbid=None, stop_decided=False) -> dict:
    """Class key -> shortest distance from start, within depth."""
    found = {scratch_key(s, start): 0}
    layer = [start]
    for d in range(1, depth + 1):
        below = {}
        for config in layer:
            if stop_decided and s.decided(config) is not None:
                continue
            for p in range(s.n):
                for step in enabled_steps(config, p):
                    if step == forbid:
                        continue
                    child = apply_step(config, step, s.system)
                    below.setdefault(scratch_key(s, child), child)
        below = {k: c for k, c in below.items() if k not in found}
        found.update(dict.fromkeys(below, d))
        layer = list(below.values())
    return found


def unpruned_reach(s, start, depth, *, forbid=None, stop_decided=False):
    """reach before sleep sets: the same order and the same yields, but
    every enabled step of every expanded class is applied."""
    seen = {s.vkey(start)}
    yield start, (), 0
    layer = deque()
    if depth > 0 and not (stop_decided and s.decided(start) is not None):
        layer.append((start, ()))
    d = 0
    while layer:
        d += 1
        below = deque()
        while layer:
            config, hist = layer.popleft()
            for p in range(s.n):
                for step in enabled_steps(config, p):
                    if forbid is not None and step == forbid:
                        continue
                    child = apply_step(config, step, s.system)
                    key = s.vkey(child)
                    if key in seen:
                        continue
                    seen.add(key)
                    child_hist = hist + (step,)
                    yield child, child_hist, d
                    if d < depth and not (stop_decided and s.decided(child) is not None):
                        below.append((child, child_hist))
        layer = below


def starts(name):
    """The initial configuration and, where the plain fair run decides
    later than 12 steps in, the configuration 12 steps before it
    decides, so that decided classes lie within the depths tested."""
    s = build_scenario(name)
    out = [("init", s.initial())]
    run = fair_completion(s, s.initial())
    if s.decided(run.final) is not None and len(run.history) > 12:
        near, _ = apply_history(s.initial(), run.history[:-12], s.system)
        out.append(("near-decision", near))
    return s, out


def forced_step(s, config) -> Step:
    msgs = config.inbox[0]
    return Step(0, msgs[0] if msgs else None)


def cases():
    for name in PROTOCOLS:
        _, configs = starts(name)
        for label, _ in configs:
            for depth in DEPTHS:
                yield pytest.param(name, label, depth, id=f"{name}-{label}-d{depth}")


def swept(name, label, depth, **kw):
    s, configs = starts(name)
    start = dict(configs)[label]
    return s, start, list(reach(s, start, depth, **kw))


@pytest.mark.parametrize("name,label,depth", cases())
def test_start_first_each_class_once_depths_in_order(name, label, depth):
    s, start, out = swept(name, label, depth)
    assert out[0] == (start, (), 0)
    keys = [scratch_key(s, c) for c, _, _ in out]
    assert len(keys) == len(set(keys))
    ds = [d for _, _, d in out]
    assert ds == sorted(ds) and ds[-1] <= depth
    for config, hist, d in out:
        assert len(hist) == d
        assert apply_history(start, hist, s.system)[0] == config


@pytest.mark.parametrize("name,label,depth", cases())
@pytest.mark.parametrize("stop_decided", [False, True])
def test_classes_match_the_oracle(name, label, depth, stop_decided):
    s, start, out = swept(name, label, depth, stop_decided=stop_decided)
    want = oracle(s, start, depth, stop_decided=stop_decided)
    assert {scratch_key(s, c): d for c, _, d in out} == want


@pytest.mark.parametrize("name,label,depth", cases())
def test_forbidden_step_is_never_taken(name, label, depth):
    s, configs = starts(name)
    start = dict(configs)[label]
    e = forced_step(s, start)
    out = list(reach(s, start, depth, forbid=e))
    assert all(e not in hist for _, hist, _ in out)
    assert {scratch_key(s, c): d for c, _, d in out} == oracle(s, start, depth, forbid=e)


@pytest.mark.parametrize("name,label,depth", cases())
def test_stop_decided_never_extends_a_decision(name, label, depth):
    s, start, out = swept(name, label, depth, stop_decided=True)
    for _, hist, _ in out:
        _, trace = apply_history(start, hist, s.system)
        assert all(s.decided(c) is None for c in trace[:-1])


@pytest.mark.parametrize("name,label,depth", cases())
def test_rank_reorders_but_keeps_the_classes(name, label, depth):
    s, start, plain = swept(name, label, depth)
    ranked = list(_completion_first(iter(plain)))
    assert [d for _, _, d in ranked] == sorted(d for _, _, d in ranked)
    assert {scratch_key(s, c): d for c, _, d in ranked} == {
        scratch_key(s, c): d for c, _, d in plain
    }


# depth one past the first layer whose rank-0 classes are not all ahead
# of its rank-1 classes in discovery order (naive-tos has none)
BELOW_FIRST_REORDER = {"naive-tos": 4, "abd-tos": 6, "abd-reg": 10, "trivial-ack": 6}


@pytest.mark.parametrize("name", PROTOCOLS)
def test_rank_leaves_the_layer_below_alone(name):
    # putting a layer's rank-0 classes first reorders only its own
    # examination: the layer below is still the breadth-first
    # expansion's, stably sorted
    s = build_scenario(name)
    depth = BELOW_FIRST_REORDER[name]
    plain = list(reach(s, s.initial(), depth))
    out = list(_completion_first(reach(s, s.initial(), depth)))
    want = sorted(plain, key=lambda item: (item[2], completion_rank(item[0])))
    assert sequence(s, out) == sequence(s, want)
    moved = [item[2] for item, w in zip(plain, want) if item is not w]
    assert min(moved, default=None) == (None if name == "naive-tos" else depth - 1)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_a_rank_zero_class_is_handed_on_at_discovery(name):
    # the first class of rank 0 is handed on as soon as reach yields it,
    # before reach has yielded the rest of its layer
    s = build_scenario(name)
    pulled = []

    def spied():
        for item in reach(s, s.initial(), 9):
            pulled.append(item)
            yield item

    hot = next(item for item in _completion_first(spied()) if completion_rank(item[0]) == 0)
    assert pulled[-1] is hot
    assert [completion_rank(c) for c, _, _ in pulled] == [1] * (len(pulled) - 1) + [0]
    layer = [c for c, _, d in reach(s, s.initial(), hot[2]) if d == hot[2]]
    assert len(layer) > sum(d == hot[2] for _, _, d in pulled)


def test_stop_decided_cuts_the_sweep_at_decisions():
    s = build_scenario("naive-tos")
    free = list(reach(s, s.initial(), 6))
    stopped = list(reach(s, s.initial(), 6, stop_decided=True))
    assert len(stopped) < len(free)


# --- sleep sets: the yield sequence of the unpruned sweep ---------------------


def scrambled(items) -> list:
    # each layer in an order unrelated to discovery, so that the stable
    # sort is checked on input reach would never give it
    def key(item):
        return item[2], sum(m.seq * 7 + m.sender * 3 + m.receiver for m in buffer(item[0])) % 5

    return sorted(items, key=key)


# name -> (reach keywords, None or what reorders the yields first); a
# rank variant examines the reordered yields through _completion_first,
# and the unpruned sweep's yields, reordered the same way, are stably
# sorted by (depth, completion rank) to match. The order is a function
# of the yields alone, so every sweep is examined completion-first
VARIANTS = {
    "plain": (lambda s, start: {}, None),
    "forbid": (lambda s, start: {"forbid": forced_step(s, start)}, None),
    "stop_decided": (lambda s, start: {"stop_decided": True}, None),
    "rank": (lambda s, start: {}, list),
    "rank-completions": (lambda s, start: {"forbid": forced_step(s, start)}, list),
    "rank-scrambled": (lambda s, start: {}, scrambled),
    "rank-audit": (lambda s, start: {"stop_decided": True}, list),
}


def sequence(s, items) -> list:
    return [(s.vkey(c), hist, d) for c, hist, d in items]


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name,label,depth", cases())
def test_yields_the_unpruned_sequence(name, label, depth, variant):
    s, configs = starts(name)
    start = dict(configs)[label]
    kw, first = VARIANTS[variant]
    got = reach(s, start, depth, **kw(s, start))
    want = list(unpruned_reach(s, start, depth, **kw(s, start)))
    if first is not None:
        got = _completion_first(first(got))
        want = sorted(first(want), key=lambda item: (item[2], completion_rank(item[0])))
    assert sequence(s, got) == sequence(s, want)


# --- one undecided class at the bound ----------------------------------------

DECIDING = [name for name in PROTOCOLS if build_scenario(name).decision_process is not None]


def one_undecided_at_bound(s, items, depth) -> list:
    """The yields minus every undecided class at `depth` after the first."""
    out, first = [], True
    for item in items:
        if item[2] == depth > 0 and s.decided(item[0]) is None:
            if not first:
                continue
            first = False
        out.append(item)
    return out


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name,label,depth", [
    case for case in cases() if case.values[0] in DECIDING])
def test_one_undecided_at_bound_drops_only_the_later_undecided_classes(
    name, label, depth, warm
):
    # the decided classes at the bound are all still found, through the
    # same histories and in the same order; a warm scenario's successor
    # table, filled by a sweep past the deepest bound, changes nothing
    s, configs = starts(name)
    start = dict(configs)[label]
    if warm:
        for _ in reach(s, start, max(DEPTHS) + 1, stop_decided=True):
            pass
        # the 8 classes naive-tos reaches from its initial configuration
        # hold no dedup hit to remember
        assert bool(s._successors) == ((name, label) != ("naive-tos", "init"))
    got = reach(s, start, depth, stop_decided=True, one_undecided_at_bound=True)
    full = list(unpruned_reach(s, start, depth, stop_decided=True))
    assert sequence(s, got) == sequence(s, one_undecided_at_bound(s, full, depth))


@pytest.mark.parametrize("name,kw", [("abd-tos", {}), ("trivial-ack", {"stop_decided": True})])
def test_one_undecided_at_bound_counts_only_when_stopping_at_decisions(name, kw):
    # a sweep that expands decided classes, or has no decision to stop
    # at, yields every class at the bound
    s = build_scenario(name)
    plain = sequence(s, reach(s, s.initial(), 5, **kw))
    assert sequence(s, reach(s, s.initial(), 5, one_undecided_at_bound=True, **kw)) == plain


@pytest.mark.parametrize("name", PROTOCOLS)
def test_distinct_processes_commute_on_vkey(name):
    # the precondition of the sleep sets: both orders of two steps of
    # distinct processes reach one class, decision status included
    s, configs = starts(name)
    pairs = 0
    for _, start in configs:
        for config, _, _ in unpruned_reach(s, start, 5):
            per_proc = [
                enabled_steps(config, p) for p in range(s.n)
            ]
            for p in range(s.n):
                for q in range(p + 1, s.n):
                    for e1 in per_proc[p]:
                        for e2 in per_proc[q]:
                            c12 = apply_step(apply_step(config, e1, s.system), e2, s.system)
                            c21 = apply_step(apply_step(config, e2, s.system), e1, s.system)
                            assert s.vkey(c12) == s.vkey(c21)
                            assert scratch_key(s, c12) == scratch_key(s, c21)
                            pairs += 1
    assert pairs > 0

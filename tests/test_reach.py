"""The shared breadth-first engine, valence.reach, against an oracle.

The oracle sweeps one whole layer at a time with set semantics and keys
each configuration from scratch, so it shares neither reach's ordering,
nor its early yields, nor the derived core keys of apply_step.
"""

import pytest

from linlab.model import SchedulingMode, Step, apply_history, apply_step, enabled_steps
from linlab.valence import build_scenario, fair_completion, reach

PROTOCOLS = ["naive-tos", "abd-tos", "abd-reg", "trivial-ack"]
DEPTHS = range(7)


def scratch_key(s, config):
    buffer = frozenset((m.seq, m.sender, m.receiver, m.payload) for m in config.buffer)
    return (config.states, buffer, config.channels), s.decided(config)


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
                for step in enabled_steps(config, p, SchedulingMode.FULL_NONDET):
                    if step == forbid:
                        continue
                    child = apply_step(config, step, s.system)
                    below.setdefault(scratch_key(s, child), child)
        below = {k: c for k, c in below.items() if k not in found}
        found.update(dict.fromkeys(below, d))
        layer = list(below.values())
    return found


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
    msgs = config.messages_for(0)
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
    _, _, ranked = swept(name, label, depth, rank=lambda c: -len(c.buffer))
    assert [d for _, _, d in ranked] == sorted(d for _, _, d in ranked)
    assert {scratch_key(s, c): d for c, _, d in ranked} == {
        scratch_key(s, c): d for c, _, d in plain
    }


@pytest.mark.parametrize("name", PROTOCOLS)
def test_rank_orders_the_layer_below(name):
    # ranking the last-discovered layer-1 class first makes it the first
    # one expanded, so the first layer-2 class extends it
    s = build_scenario(name)
    plain = list(reach(s, s.initial(), 2))
    last = [c for c, _, d in plain if d == 1][-1]
    hot = scratch_key(s, last)
    out = list(reach(s, s.initial(), 2, rank=lambda c: scratch_key(s, c) != hot))
    (_, head, _), *_ = [item for item in out if scratch_key(s, item[0]) == hot]
    first2 = next(h for _, h, d in out if d == 2)
    assert first2[:1] == head


def test_stop_decided_cuts_the_sweep_at_decisions():
    s = build_scenario("naive-tos")
    free = list(reach(s, s.initial(), 6))
    stopped = list(reach(s, s.initial(), 6, stop_decided=True))
    assert len(stopped) < len(free)

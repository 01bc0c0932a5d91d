"""Shared test helpers: random protocol runs and the permutation oracle."""

import itertools
import random

from linlab.model import apply_step, enabled_steps
from linlab.seqspec import IllegalOp
from linlab.valence import Scenario, build_scenario


def perm_linearizable(h, spec):
    """Reference decision by brute force, independent of the checker.

    A history is linearizable iff some completion admits a permutation
    of its operations that respects real-time precedence and replays
    through the sequential spec with the recorded response values.
    """
    pending = sorted(h.pending_ops(), key=lambda o: o.op_id)
    choice_sets = [(None,) + spec.response_values(o.op) for o in pending]
    for assignment in itertools.product(*choice_sets):
        ops = list(h.complete_ops())
        values = {o.op_id: o.value for o in ops}
        for o, choice in zip(pending, assignment):
            if choice is not None:
                ops.append(o)
                values[o.op_id] = choice
        for order in itertools.permutations(ops):
            pos = {o.op_id: i for i, o in enumerate(order)}
            ok = True
            for a in ops:
                for b in ops:
                    # recorded precedence: a finished before b started
                    if a.complete and a.res_index < b.inv_index:
                        if pos[a.op_id] > pos[b.op_id]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                continue
            state = spec.initial_state
            for o in order:
                try:
                    state, value = spec.apply(state, o.op)
                except IllegalOp:
                    ok = False
                    break
                if value != values[o.op_id]:
                    ok = False
                    break
            if ok:
                return True
    return False


def random_walk(scenario: Scenario, rng: random.Random, steps: int):
    """Random schedule from the initial configuration.

    Returns (final configuration, history tuple). Stops early if the
    decision value is fixed, so runs stay short on small protocols.
    """
    config = scenario.initial()
    history = []
    for _ in range(steps):
        if scenario.decided(config) is not None:
            break
        p = rng.randrange(scenario.n)
        options = enabled_steps(config, p)
        step = rng.choice(options)
        config = apply_step(config, step, scenario.system)
        history.append(step)
    return config, tuple(history)


def run_corpus(protocols, seeds, steps: int = 18):
    """One (scenario, config, history) triple per (protocol, seed) pair."""
    out = []
    for name in protocols:
        for seed in seeds:
            s = build_scenario(name)
            rng = random.Random(seed)
            config, hist = random_walk(s, rng, steps)
            out.append((s, config, hist))
    return out


def random_tree(scenario, rng):
    """Small random execution tree rooted at a random-walk history."""
    from linlab.checkers import ExecutionTree
    from linlab.seqspec import OpHistory

    config, _ = random_walk(scenario, rng, rng.randrange(2, 12))
    tree = ExecutionTree(OpHistory(config.events))
    frontier = [(config, tree.root)]
    for _ in range(rng.randrange(1, 3)):
        nxt = []
        for cfg, nid in frontier:
            for p in range(scenario.n):
                steps = enabled_steps(cfg, p)
                step = rng.choice(steps)
                child = apply_step(cfg, step, scenario.system)
                cid = tree.add_node(OpHistory(child.events), nid)
                nxt.append((child, cid))
                if len(tree) >= 7:
                    return tree
        frontier = nxt
    return tree

"""Shared test helpers: random protocol runs and the reference oracles.

The oracles are plain brute-force references. The permutation oracle
re-decides linearizability apart from the checkers; the commutation and
buffer-conservation oracles check model facts the library relies on but
never computes: steps of distinct processes commute (the sleep sets in
valence.reach), and every sent message is received or still buffered.
"""

import itertools
import random
from typing import Sequence

from linlab.model import (
    Configuration,
    Message,
    PreconditionViolated,
    Step,
    applicable,
    apply_step,
    enabled_steps,
    logged_events,
)
from linlab.seqspec import DONE, IllegalOp
from linlab.valence import Scenario, build_scenario

# every value a pending operation could return in some completion, by name
RESPONSE_VALUES = {"TEST": (0, 1), "SET": (DONE,), "READ": (0, 1), "WRITE": (DONE,)}


def buffer(config: Configuration) -> frozenset:
    """Every buffered message of config, as a set."""
    return frozenset(m for row in config.inbox for m in row)


def completion_rank(config: Configuration) -> int:
    """0 when some operation has returned and some process has one
    pending, else 1: sorting each layer by it stably is the audit's
    completion-first order."""
    states = config.states
    completed = any(s.done for s in states)
    return 0 if completed and any(s.impl.pending is not None for s in states) else 1


def perm_linearizable(h, spec):
    """Reference decision by brute force, independent of the checker.

    A history is linearizable iff some completion admits a permutation
    of its operations that respects real-time precedence and replays
    through the sequential spec with the recorded response values.
    """
    pending = sorted(h.pending_ops(), key=lambda o: o.op_id)
    choice_sets = [(None,) + RESPONSE_VALUES[o.op.name] for o in pending]
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


def events_equal_mod_interleaving(log1: tuple, log2: tuple) -> bool:
    """Event logs agree per process (global interleaving may differ)."""
    procs = set(ev.process for ev in log1) | set(ev.process for ev in log2)
    for p in procs:
        e1 = tuple(ev for ev in log1 if ev.process == p)
        e2 = tuple(ev for ev in log2 if ev.process == p)
        if e1 != e2:
            return False
    return True


def commute_check(config: Configuration, e1: Step, e2: Step, protocol) -> bool:
    """Do e1 and e2 (distinct processes) commute at config?

    True iff applying them in either order yields the same configuration
    (states, inboxes with payloads, channels), and the events the two
    orders log are equal up to the interleaving of the two processes'
    events. Both orders must be applicable.
    """
    if e1.process == e2.process:
        raise PreconditionViolated("commute_check needs steps of distinct processes")
    if not applicable(config, e1) or not applicable(config, e2):
        raise PreconditionViolated("both steps must be applicable to the configuration")
    c12 = apply_step(apply_step(config, e1, protocol), e2, protocol)
    c21 = apply_step(apply_step(config, e2, protocol), e1, protocol)
    return c12.core_key() == c21.core_key() and events_equal_mod_interleaving(
        logged_events(config, (e1, e2), protocol), logged_events(config, (e2, e1), protocol)
    )


def audit_buffer_conservation(
    initial: Configuration, history: Sequence[Step], protocol
) -> bool:
    """Replay and check sends == receipts + final buffer, as multisets."""
    sent: set[Message] = set(buffer(initial))
    received: set[Message] = set()
    current = initial
    for step in history:
        nxt = apply_step(current, step, protocol)
        if step.received is not None:
            received.add(step.received)
        sent |= buffer(nxt) - buffer(current)
        current = nxt
    return sent - received == buffer(current) and received <= sent


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

    config, hist = random_walk(scenario, rng, rng.randrange(2, 12))
    tree = ExecutionTree(OpHistory(logged_events(scenario.initial(), hist, scenario.system)))
    frontier = [(config, tree.root)]
    for _ in range(rng.randrange(1, 3)):
        nxt = []
        for cfg, nid in frontier:
            for p in range(scenario.n):
                steps = enabled_steps(cfg, p)
                step = rng.choice(steps)
                child = apply_step(cfg, step, scenario.system)
                log = tree.nodes[nid].history.events + logged_events(cfg, (step,), scenario.system)
                cid = tree.add_node(OpHistory(log), nid)
                nxt.append((child, cid))
                if len(tree) >= 7:
                    return tree
        frontier = nxt
    return tree

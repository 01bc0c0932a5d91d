"""End-to-end acceptance run, one test per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s`: each test prints a
single PASS/FAIL line with its wall-clock time, so the output reads as
a checklist. Stated runtime budgets are asserted, not aspirational.
Every check here is cross-module: probes against checkers, checkers
against brute-force oracles, schedules against replay.
"""

import itertools
import random
import time

from conftest import (
    RESPONSE_VALUES,
    audit_buffer_conservation,
    commute_check,
    perm_linearizable,
    random_tree,
    random_walk,
    run_corpus,
)
from linlab.checkers import (
    Counterexample,
    Strategy,
    brute_force_strategy_oracle,
    is_linearizable,
    linearizations,
    make_triple_tree,
    strong_linearization_exists,
    write_strong_linearization_exists,
)
from linlab.model import apply_history, apply_step, enabled_steps, logged_events
from linlab.progress import (
    check_1rlf,
    check_nonblocking,
    implication_audit,
)
from linlab.protocols import PROTOCOLS
from linlab.seqspec import (
    READ,
    REG_SPEC,
    RESPONSE,
    SET,
    TEST,
    TOS_SPEC,
    OpHistory,
    inv,
    res,
    write,
)
from linlab.valence import (
    ValenceTag,
    build_hbi,
    build_scenario,
    classify_valence,
    completed_implies_univalent_audit,
    staged_probe,
)


def _line(tag, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] {status} ({elapsed:.2f}s) {detail}", flush=True)


def test_1_decision_races_and_bivalent_start():
    # Holding one contender back decides the race each way; with
    # neither held, the initial configuration commits to nothing.
    t0 = time.monotonic()
    problems = []
    for name in ("abd-tos", "naive-tos"):
        s = build_scenario(name)
        set_first = staged_probe(s, s.initial(), hold=0).value
        test_first = staged_probe(s, s.initial(), hold=1).value
        if set_first != 1:
            problems.append(f"{name}: SET-first schedule returned TEST={set_first}")
        if test_first != 0:
            problems.append(f"{name}: TEST-first schedule returned TEST={test_first}")
        out = classify_valence(s, s.initial())
        if out.tag is not ValenceTag.BIVALENT or set(out.certificates) != {0, 1}:
            problems.append(f"{name}: initial configuration classified {out.tag}")
            continue
        for v, cert in out.certificates.items():
            final, _ = apply_history(s.initial(), cert, s.system)
            if s.decided(final) != v:
                problems.append(f"{name}: certificate for {v} replays to {s.decided(final)}")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 1s")
    _line(
        "1/8 decision races + bivalent start",
        not problems,
        elapsed,
        "both schedules and both certificates on abd-tos n=3 and naive-tos n=2",
    )
    assert not problems, "; ".join(problems)


def test_2_completed_set_blocks_strong_linearization():
    t0 = time.monotonic()
    problems = []
    s = build_scenario("naive-tos")
    triples = completed_implies_univalent_audit(
        s, depth=14, spec=TOS_SPEC, checker_mode="strong"
    )
    if not triples:
        problems.append("no bivalent configuration with a completed operation found")
    for tr in triples:
        if not any(label.startswith("SET") for label in tr.completed):
            problems.append(f"depth-{tr.depth} triple completed {tr.completed}, no SET")
        if not isinstance(tr.verdict, Counterexample):
            problems.append(
                f"strong checker returned {type(tr.verdict).__name__} on a "
                f"depth-{tr.depth} triple"
            )
        tree = make_triple_tree(tr.base, tr.branch0, tr.branch1)
        if brute_force_strategy_oracle(tree, TOS_SPEC, mode="strong") is not None:
            problems.append("brute-force oracle found a strategy the checker rejected")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 10s")
    _line(
        "2/8 completed SET vs strong linearizability",
        not problems,
        elapsed,
        f"{len(triples)} triple(s) at depth <= 14 on naive-tos, "
        "counterexample confirmed by the oracle on each",
    )
    assert not problems, "; ".join(problems)


def test_3_completed_write_blocks_write_strong_linearization():
    t0 = time.monotonic()
    problems = []
    s = build_scenario("abd-reg")
    triples = completed_implies_univalent_audit(
        s,
        depth=16,
        spec=REG_SPEC,
        checker_mode="write-strong",
        max_triples=1,
        order="completion-first",
    )
    if not triples:
        problems.append("no bivalent configuration with a completed WRITE found")
        tr = None
    else:
        tr = triples[0]
        if not any(label.startswith("WRITE") for label in tr.completed):
            problems.append(f"completed operations were {tr.completed}, no WRITE")
        if not isinstance(tr.verdict, Counterexample):
            problems.append(f"checker returned {type(tr.verdict).__name__}")

        # each branch pins the order of the two writes, and they
        # disagree, so no single prefix-consistent choice serves both
        def write_orders(h):
            return {
                tuple(e.op.arg for e in lin if e.op.name == "WRITE")
                for lin in linearizations(h, REG_SPEC)
            }

        o0, o1 = write_orders(tr.branch0), write_orders(tr.branch1)
        if not (len(o0) == 1 and len(o1) == 1 and o0 | o1 == {(0, 1), (1, 0)}):
            problems.append(f"branch write orders not forced opposite: {o0} vs {o1}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 60s")
    depth = tr.depth if tr else "-"
    _line(
        "3/8 completed WRITE vs write-strong linearizability",
        not problems,
        elapsed,
        f"triple at depth {depth} on abd-reg (depth <= 16), "
        "branch linearizations force opposite write orders",
    )
    assert not problems, "; ".join(problems)


def test_4_always_bivalent_rounds_on_quorum_tos():
    t0 = time.monotonic()
    problems = []
    rep = build_hbi(build_scenario("abd-tos"), rounds=3)
    again = build_hbi(build_scenario("abd-tos"), rounds=3)
    if rep.rounds_completed < 3:
        problems.append(f"only {rep.rounds_completed} full rounds")
    if len(rep.history) < 9:
        problems.append(f"only {len(rep.history)} scheduled steps")
    if rep.stuck is not None:
        problems.append(f"stuck: {rep.stuck}")
    if rep.completions != ():
        problems.append(f"operations completed: {rep.completions}")
    for i in range(len(rep.history) + 1):
        if set(rep.certificates_at(i)) != {0, 1}:
            problems.append(f"configuration at index {i} not certified bivalent")
            break
    if rep.to_json() != again.to_json():
        problems.append("two builds of the same schedule differ")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 120s")
    _line(
        "4/8 always-bivalent schedule, abd-tos",
        not problems,
        elapsed,
        f"{rep.rounds_completed} rounds, {len(rep.history)} steps, "
        "all certified bivalent, zero completions, deterministic rebuild",
    )
    assert not problems, "; ".join(problems)


def test_4_always_bivalent_rounds_on_naive_tos():
    # The naive flag decides on the tester's first scheduled step, so
    # a full bivalence-preserving round never forms. The builder stops
    # with evidence instead of rounds; the target here is not met and
    # this test records that outcome.
    t0 = time.monotonic()
    problems = []
    rep = build_hbi(build_scenario("naive-tos"), rounds=6)
    again = build_hbi(build_scenario("naive-tos"), rounds=6)
    if rep.to_json() != again.to_json():
        problems.append("two builds of the same schedule differ")
    if rep.completions != ():
        problems.append(f"operations completed: {rep.completions}")
    if rep.rounds_completed < 6:
        stuck = rep.stuck
        where = (
            f"stuck at round {stuck.round} slot {stuck.slot}: every enabled step "
            f"for process {stuck.process} either completes its operation or fixes "
            f"the decision ({stuck.explored} candidates explored)"
            if stuck
            else "no stuck record"
        )
        problems.append(f"only {rep.rounds_completed} of 6 rounds; {where}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 120s")
    _line(
        "4/8 always-bivalent schedule, naive-tos",
        not problems,
        elapsed,
        f"{rep.rounds_completed} of 6 rounds completed",
    )
    assert not problems, "; ".join(problems)


def _random_history(rng, alphabet, max_ops=6):
    """Random well-formed history: per-process sequential, random merge."""
    n_ops = rng.randint(1, max_ops)
    per = [[] for _ in range(rng.randint(1, 3))]
    for oid in range(n_ops):
        per[rng.randrange(len(per))].append((oid, rng.choice(alphabet)))
    queues = []
    for p, ops in enumerate(per):
        q = []
        for k, (oid, op) in enumerate(ops):
            q.append(inv(op, p, oid))
            # only the last op of a process may stay pending
            if k < len(ops) - 1 or rng.random() < 0.7:
                q.append(res(op, p, oid, rng.choice(RESPONSE_VALUES[op.name])))
        if q:
            queues.append(q)
    events = []
    while queues:
        q = rng.choice(queues)
        events.append(q.pop(0))
        queues = [q for q in queues if q]
    return OpHistory(events)


def test_5_checker_agrees_with_permutation_oracle():
    t0 = time.monotonic()
    problems = []
    rng = random.Random(40)
    checked = positive = 0
    disagreements = []
    for spec, alphabet in (
        (TOS_SPEC, (SET, TEST)),
        (REG_SPEC, (write(0), write(1), READ)),
    ):
        for _ in range(120):
            h = _random_history(rng, alphabet)
            fast = is_linearizable(h, spec) is not None
            slow = perm_linearizable(h, spec)
            checked += 1
            positive += fast
            if fast != slow:
                disagreements.append((type(spec).__name__, h))
    if checked < 200:
        problems.append(f"only {checked} histories generated")
    if disagreements:
        problems.append(f"{len(disagreements)} disagreements, first: {disagreements[0]}")
    if not 0 < positive < checked:
        problems.append(f"degenerate corpus: {positive}/{checked} linearizable")
    elapsed = time.monotonic() - t0
    _line(
        "5/8 linearizability checker vs permutation oracle",
        not problems,
        elapsed,
        f"{checked} random histories (<= 6 ops, flag and register alphabets), "
        f"{positive} linearizable, full agreement",
    )
    assert not problems, "; ".join(problems)


def test_6_progress_split_and_starvation_witness():
    t0 = time.monotonic()
    problems = []
    s = build_scenario("trivial-ack")
    clients, servers = s.built.clients, s.built.servers
    if (s.n, len(clients), len(servers)) != (4, 2, 2):
        problems.append(f"unexpected shape n={s.n} c={len(clients)} s={len(servers)}")
    v1 = check_1rlf(s, depth=5)
    if not v1.holds or v1.witness is not None:
        problems.append("single-crash lock-freedom did not hold at the bound")
    v2 = check_nonblocking(s, depth=6)
    if v2.holds or v2.witness is None:
        problems.append("nonblocking verdict carried no witness")
    else:
        w = v2.witness
        crashed_clients = set(w.crash_set) & set(clients)
        crashed_servers = set(w.crash_set) & set(servers)
        if (len(crashed_clients), len(crashed_servers)) != (1, 1):
            problems.append(f"witness crash set {sorted(w.crash_set)} is not "
                            "one client plus one server")
        live = [p for p in range(s.n) if p not in w.crash_set]
        config, _ = apply_history(s.initial(), w.base_history, s.system)
        if not w.pending:
            problems.append("witness has no pending operation to starve")
        extended = logged_events(config, w.extension, s.system)
        config, _ = apply_history(config, w.extension, s.system)
        if any(ev.kind == RESPONSE for ev in extended):
            problems.append("witness extension completed an operation on replay")
        if any(step.process not in live for step in w.extension):
            problems.append("witness extension schedules a crashed process")
        if w.extension_quiescent and any(config.inbox[p] for p in live):
            problems.append("witness claims quiescence with deliverable messages")
    rows = implication_audit(depth=5)
    if {r["protocol"] for r in rows} != set(PROTOCOLS):
        problems.append("implication audit did not cover every shipped protocol")
    bad = [r["protocol"] for r in rows if r["implication_violated"]]
    if bad:
        problems.append(f"implication violated on {bad}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"over budget: {elapsed:.2f}s, limit 10s")
    _line(
        "6/8 progress conditions + starvation witness",
        not problems,
        elapsed,
        "trivial-ack n=4 c=2 s=2: lock-freedom holds under one crash, "
        "nonblocking fails with a replayable one-client-one-server crash witness",
    )
    assert not problems, "; ".join(problems)


def test_7_step_commutation_and_trace_invariants():
    t0 = time.monotonic()
    problems = []

    # exhaustive sweep on the small protocol
    s = build_scenario("naive-tos")
    seen = {s.initial().core_key(): s.initial()}
    frontier = [s.initial()]
    for _ in range(8):
        nxt = []
        for c in frontier:
            for p in range(s.n):
                for step in enabled_steps(c, p):
                    child = apply_step(c, step, s.system)
                    key = child.core_key()
                    if key not in seen:
                        seen[key] = child
                        nxt.append(child)
        frontier = nxt
    exhaustive_pairs = 0
    for c in seen.values():
        steps = [
            step
            for p in range(s.n)
            for step in enabled_steps(c, p)
        ]
        for e1, e2 in itertools.combinations(steps, 2):
            if e1.process == e2.process:
                continue
            if not commute_check(c, e1, e2, s.system):
                problems.append(f"steps fail to commute at {c.core_key()!r}")
            exhaustive_pairs += 1

    # sampled sweep on the quorum protocol
    s3 = build_scenario("abd-tos")
    rng = random.Random(77)
    sampled_pairs = 0
    while sampled_pairs < 1000:
        config, _ = random_walk(s3, rng, rng.randrange(0, 16))
        steps = [
            step
            for p in range(s3.n)
            for step in enabled_steps(config, p)
        ]
        pairs = [
            (a, b)
            for a, b in itertools.combinations(steps, 2)
            if a.process != b.process
        ]
        rng.shuffle(pairs)
        for a, b in pairs[:20]:
            if not commute_check(config, a, b, s3.system):
                problems.append("sampled step pair fails to commute on abd-tos")
            sampled_pairs += 1

    # conservation and replay determinism on every shipped protocol
    for scenario, config, hist in run_corpus(sorted(PROTOCOLS), range(6)):
        if not audit_buffer_conservation(scenario.initial(), hist, scenario.system):
            problems.append(f"buffer conservation fails on {scenario.name}")
        replayed, _ = apply_history(scenario.initial(), hist, scenario.system)
        if replayed != config:
            problems.append(f"replay of the same history diverges on {scenario.name}")

    elapsed = time.monotonic() - t0
    _line(
        "7/8 step commutation + trace invariants",
        not problems,
        elapsed,
        f"{exhaustive_pairs} exhaustive pairs over {len(seen)} naive-tos "
        f"configurations (depth 8), {sampled_pairs} sampled abd-tos pairs, "
        "conservation and replay determinism on all four protocols",
    )
    assert not problems, "; ".join(problems)


def test_8_checker_strength_ordering_on_tree_corpus():
    t0 = time.monotonic()
    problems = []
    rng = random.Random(8)
    corpus = []
    for name, spec in (
        ("naive-tos", TOS_SPEC),
        ("abd-tos", TOS_SPEC),
        ("abd-reg", REG_SPEC),
    ):
        s = build_scenario(name)
        corpus.extend((random_tree(s, rng), spec) for _ in range(40))
    strong_hits = 0
    for tree, spec in corpus:
        strong = strong_linearization_exists(tree, spec)
        if not isinstance(strong, Strategy):
            continue
        strong_hits += 1
        if not isinstance(write_strong_linearization_exists(tree, spec), Strategy):
            problems.append("strong strategy exists but write-strong checker refused")
        for nid in tree.bfs_order():
            if is_linearizable(tree.nodes[nid].history, spec) is None:
                problems.append("strong strategy exists over a non-linearizable node")
                break
    if strong_hits == 0:
        problems.append("corpus never exercised the implication")
    elapsed = time.monotonic() - t0
    _line(
        "8/8 strong implies write-strong implies linearizable",
        not problems,
        elapsed,
        f"{len(corpus)} random trees across three protocols, "
        f"{strong_hits} carried a strong strategy",
    )
    assert not problems, "; ".join(problems)

"""Linearization enumeration and the tree checkers.

Frozen candidate sets and verdicts here were derived by hand from the
sequential object semantics before the checkers ran on them; the brute
product-space oracle provides the independent opinion.
"""

import random

import pytest

from linlab.checkers import (
    Counterexample,
    ExecutionTree,
    SizeLimitError,
    Strategy,
    brute_force_strategy_oracle,
    is_linearizable,
    linearizations,
    make_triple_tree,
    strong_linearization_exists,
    write_strong_linearization_exists,
)
from linlab.model import logged_events
from linlab.seqspec import (
    DONE,
    READ,
    REG_SPEC,
    SET,
    TEST,
    TOS_SPEC,
    OpHistory,
    inv,
    res,
    write,
)
from linlab.valence import build_scenario

from conftest import random_tree, random_walk
from test_seqspec import perm_linearizable


def H(*events):
    return OpHistory(events)


SET_DONE = H(inv(SET, 1, 16), res(SET, 1, 16, DONE))
SET_DONE_TEST0 = H(
    inv(SET, 1, 16), res(SET, 1, 16, DONE), inv(TEST, 0, 0), res(TEST, 0, 0, 0)
)
SET_DONE_TEST1 = H(
    inv(SET, 1, 16), res(SET, 1, 16, DONE), inv(TEST, 0, 0), res(TEST, 0, 0, 1)
)


class TestLinearizations:
    def test_complete_history_single_candidate(self):
        cands = list(linearizations(SET_DONE, TOS_SPEC))
        assert len(cands) == 1
        assert [e.op_id for e in cands[0]] == [16]

    def test_pending_test_after_completed_set(self):
        # invocation after SET's response pins SET first in real time
        h = H(inv(SET, 1, 16), res(SET, 1, 16, DONE), inv(TEST, 0, 0))
        cands = {tuple((e.op_id, e.value) for e in c) for c in linearizations(h, TOS_SPEC)}
        assert cands == {
            ((16, DONE),),  # TEST dropped
            ((16, DONE), (0, 1)),  # TEST placed after, sees the flag
        }

    def test_concurrent_pending_test_three_candidates(self):
        h = H(inv(TEST, 0, 0), inv(SET, 1, 16), res(SET, 1, 16, DONE))
        cands = {tuple((e.op_id, e.value) for e in c) for c in linearizations(h, TOS_SPEC)}
        assert cands == {
            ((16, DONE),),  # TEST dropped
            ((16, DONE), (0, 1)),  # TEST after SET sees the flag
            ((0, 0), (16, DONE)),  # TEST linearized first misses it
        }

    def test_recorded_values_are_pinned(self):
        # TEST completed with 0 after a completed SET: impossible
        assert list(linearizations(SET_DONE_TEST0, TOS_SPEC)) == []
        assert is_linearizable(SET_DONE_TEST0, TOS_SPEC) is None

    def test_unknown_mode_is_refused(self):
        for mode in ("sl", "wsl", "Strong"):
            with pytest.raises(ValueError):
                linearizations(SET_DONE, TOS_SPEC, mode=mode)

    def test_a_prepared_history_gives_the_same_candidates(self):
        h = H(inv(TEST, 0, 0), inv(SET, 1, 16), res(SET, 1, 16, DONE))
        first = list(linearizations(h, TOS_SPEC))
        assert list(linearizations(h, TOS_SPEC)) == first
        assert list(linearizations(H(*h.events), TOS_SPEC)) == first
        pin = first[0][:1]
        for mode in ("strong", "write-strong"):
            assert list(linearizations(h, TOS_SPEC, pin, mode)) == list(
                linearizations(H(*h.events), TOS_SPEC, pin, mode))

    def test_linearization_replays_as_sequential_history(self):
        cand = is_linearizable(SET_DONE_TEST1, TOS_SPEC)
        assert cand is not None
        # one entry per operation, each answering what the spec answers
        assert len({e.op_id for e in cand}) == len(cand)
        state = TOS_SPEC.initial_state
        for e in cand:
            state, value = TOS_SPEC.apply(state, e.op)
            assert value == e.value

    def test_agreement_with_permutation_oracle_on_runs(self):
        rng = random.Random(5)
        for name in ("naive-tos", "abd-reg"):
            s = build_scenario(name)
            spec = s.built.spec
            for _ in range(25):
                _, hist = random_walk(s, rng, rng.randrange(3, 22))
                h = OpHistory(logged_events(s.initial(), hist, s.system))
                assert (is_linearizable(h, spec) is not None) == perm_linearizable(
                    h, spec
                )


class TestExecutionTree:
    def test_child_events_must_extend_parent(self):
        tree = ExecutionTree(SET_DONE)
        with pytest.raises(Exception):
            tree.add_node(H(inv(TEST, 0, 0)), tree.root)

    def test_bfs_order_parents_first(self):
        tree = make_triple_tree(SET_DONE, SET_DONE_TEST0, SET_DONE_TEST1)
        order = tree.bfs_order()
        assert order[0] == tree.root
        assert len(order) == 3


class TestStrongChecker:
    def test_single_node_tree_is_a_strategy(self):
        out = strong_linearization_exists(ExecutionTree(SET_DONE), TOS_SPEC)
        assert isinstance(out, Strategy)

    def test_chain_extension_is_a_strategy(self):
        tree = ExecutionTree(SET_DONE)
        tree.add_node(SET_DONE_TEST1, tree.root)
        out = strong_linearization_exists(tree, TOS_SPEC)
        assert isinstance(out, Strategy)
        root_lin = out.assignment[tree.root]
        assert [e.op_id for e in root_lin] == [16]

    def test_completed_set_triple_has_no_strategy(self):
        # the recorded branches force TEST on both sides of the SET
        tree = make_triple_tree(SET_DONE, SET_DONE_TEST0, SET_DONE_TEST1)
        out = strong_linearization_exists(tree, TOS_SPEC)
        assert isinstance(out, Counterexample)
        assert brute_force_strategy_oracle(tree, TOS_SPEC) is None

    def test_counterexample_core_still_fails(self):
        tree = make_triple_tree(SET_DONE, SET_DONE_TEST0, SET_DONE_TEST1)
        out = strong_linearization_exists(tree, TOS_SPEC)
        sub = ExecutionTree(tree.nodes[out.node_ids[0]].history)
        rebuilt = {out.node_ids[0]: sub.root}
        for nid in out.node_ids[1:]:
            parent = tree.nodes[nid].parent
            rebuilt[nid] = sub.add_node(tree.nodes[nid].history, rebuilt[parent])
        assert isinstance(strong_linearization_exists(sub, TOS_SPEC), Counterexample)

    def test_verdict_json_shapes(self):
        tree = make_triple_tree(SET_DONE, SET_DONE_TEST0, SET_DONE_TEST1)
        bad = strong_linearization_exists(tree, TOS_SPEC).to_json()
        assert bad["result"] == "counterexample"
        assert bad["nodes"]
        chain = ExecutionTree(SET_DONE)
        chain.add_node(SET_DONE_TEST1, chain.root)
        good = strong_linearization_exists(chain, TOS_SPEC).to_json()
        assert good["result"] == "strategy"


W0_PEND = H(inv(write(0), 0, 0), inv(write(1), 1, 16), res(write(1), 1, 16, DONE))


def _reg_branch(read_value):
    return H(
        *W0_PEND.events,
        res(write(0), 0, 0, DONE),
        inv(READ, 0, 1),
        res(READ, 0, 1, read_value),
    )


class TestWriteStrongChecker:
    def test_register_triple_fails_both_modes(self):
        # completed WRITE(1), concurrent WRITE(0), branches read 0 and 1:
        # the two branches pin opposite write orders
        tree = make_triple_tree(W0_PEND, _reg_branch(0), _reg_branch(1))
        assert isinstance(write_strong_linearization_exists(tree, REG_SPEC), Counterexample)
        assert isinstance(strong_linearization_exists(tree, REG_SPEC), Counterexample)
        assert brute_force_strategy_oracle(tree, REG_SPEC, mode="write-strong") is None

    def test_read_only_divergence_is_fine_write_strong(self):
        # branches disagree only on a read of a concurrent write
        base = H(inv(write(1), 1, 16))
        b0 = H(inv(write(1), 1, 16), inv(READ, 0, 1), res(READ, 0, 1, 0))
        b1 = H(inv(write(1), 1, 16), inv(READ, 0, 1), res(READ, 0, 1, 1))
        tree = make_triple_tree(base, b0, b1)
        assert isinstance(write_strong_linearization_exists(tree, REG_SPEC), Strategy)
        assert isinstance(strong_linearization_exists(tree, REG_SPEC), Strategy)

    def test_mode_tags_in_verdicts(self):
        tree = make_triple_tree(W0_PEND, _reg_branch(0), _reg_branch(1))
        out = write_strong_linearization_exists(tree, REG_SPEC)
        assert out.mode == "write-strong"


class TestImplicationChain:
    """strong admits a strategy => write-strong does => every node linearizable."""

    def test_implications_on_random_trees(self):
        rng = random.Random(23)
        for name, spec in (("naive-tos", TOS_SPEC), ("abd-reg", REG_SPEC)):
            s = build_scenario(name)
            for _ in range(30):
                tree = random_tree(s, rng)
                strong = strong_linearization_exists(tree, spec)
                wstrong = write_strong_linearization_exists(tree, spec)
                if isinstance(strong, Strategy):
                    assert isinstance(wstrong, Strategy)
                if isinstance(wstrong, Strategy):
                    for nid in tree.bfs_order():
                        h = tree.nodes[nid].history
                        assert is_linearizable(h, spec) is not None

    def test_differential_against_brute_oracle(self):
        rng = random.Random(31)
        s = build_scenario("naive-tos")
        agree = 0
        for _ in range(200):
            tree = random_tree(s, rng)
            fast = strong_linearization_exists(tree, TOS_SPEC)
            slow = brute_force_strategy_oracle(tree, TOS_SPEC)
            assert isinstance(fast, Strategy) == (slow is not None)
            agree += 1
        assert agree == 200


class TestOracleLimits:
    def test_node_limit_enforced(self):
        tree = ExecutionTree(H())
        with pytest.raises(SizeLimitError):
            brute_force_strategy_oracle(tree, TOS_SPEC, node_limit=0)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match=r"^unknown mode 'linear'$"):
            brute_force_strategy_oracle(ExecutionTree(H()), TOS_SPEC, mode="linear")

    def test_cand_limit_enforced(self):
        # the empty history has exactly one linearization, the empty one
        tree = ExecutionTree(H())
        with pytest.raises(SizeLimitError, match=r"^node 0 has more than 0 linearizations$"):
            brute_force_strategy_oracle(tree, TOS_SPEC, cand_limit=0)
        assert isinstance(brute_force_strategy_oracle(tree, TOS_SPEC, cand_limit=1), Strategy)


def sequential_reads(count):
    events = []
    for op_id in range(count):
        events += [inv(READ, 0, op_id), res(READ, 0, op_id, 0)]
    return H(*events)


class TestOpCap:
    def test_nine_complete_ops_are_refused(self):
        h = sequential_reads(9)
        with pytest.raises(SizeLimitError):
            is_linearizable(h, REG_SPEC)
        with pytest.raises(SizeLimitError):
            strong_linearization_exists(ExecutionTree(h), REG_SPEC)

    def test_refusal_repeats_once_the_history_is_prepared(self):
        h = sequential_reads(9)
        for _ in range(2):
            with pytest.raises(SizeLimitError):
                linearizations(h, REG_SPEC)
            assert h._prepared is not None

    def test_eight_complete_ops_are_searched(self):
        h = sequential_reads(8)
        assert len(is_linearizable(h, REG_SPEC)) == 8
        assert isinstance(strong_linearization_exists(ExecutionTree(h), REG_SPEC), Strategy)

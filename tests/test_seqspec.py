"""Sequential specs, history reconstruction, and the completion set.

The permutation oracle here is the independent reference for
linearizability: enumerate completions by hand, then try every
permutation of the operations. The main checker is tested against it
in test_checkers and in the acceptance run.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlab.seqspec import (
    DONE,
    INVOCATION,
    READ,
    REG_SPEC,
    SET,
    TEST,
    TOS_SPEC,
    IllegalOp,
    MalformedHistory,
    OpHistory,
    inv,
    op_history_from_json,
    res,
    tos_apply,
    write,
)


from conftest import perm_linearizable


def completions(h, spec):
    """Every completion of h: each pending op is either dropped (its
    invocation removed) or completed by a response appended at the end.

    Appended responses carry each value the spec allows for that op, so
    the number of completions is the product over pending ops of
    (1 + number of candidate responses). Complete ops are untouched.
    Deterministic order: pending ops by op_id; per op, drop first, then
    candidate values in spec order.
    """
    pending = sorted(h.pending_ops(), key=lambda o: o.op_id)
    choice_sets = [(None,) + spec.response_values(o.op) for o in pending]
    for assignment in itertools.product(*choice_sets):
        dropped = {o.op_id for o, c in zip(pending, assignment) if c is None}
        events = [
            ev
            for ev in h.events
            if not (ev.kind == INVOCATION and ev.op_id in dropped)
        ]
        for o, c in zip(pending, assignment):
            if c is not None:
                events.append(res(o.op, o.process, o.op_id, c))
        yield OpHistory(events)


class TestSequentialSemantics:
    def test_tos_test_after_set(self):
        state, v = tos_apply(0, SET)
        assert v == DONE
        state, v = tos_apply(state, TEST)
        assert v == 1

    def test_tos_test_alone(self):
        assert tos_apply(0, TEST) == (0, 0)

    def test_register_read_after_write(self):
        state = REG_SPEC.initial_state
        assert state == 0
        state, v = REG_SPEC.apply(state, write(1))
        assert v == DONE
        state, v = REG_SPEC.apply(state, READ)
        assert v == 1

    def test_register_rejects_wide_values(self):
        with pytest.raises(IllegalOp):
            REG_SPEC.apply(0, write(2))


class TestHistoryReconstruction:
    def test_pending_and_complete_split(self):
        h = OpHistory(
            [inv(SET, 1, 10), res(SET, 1, 10, DONE), inv(TEST, 0, 11)]
        )
        assert [o.op_id for o in h.complete_ops()] == [10]
        assert [o.op_id for o in h.pending_ops()] == [11]

    def test_response_without_invocation_rejected(self):
        with pytest.raises(MalformedHistory):
            OpHistory([res(TEST, 0, 3, 0)])

    def test_double_invocation_same_process_rejected(self):
        with pytest.raises(MalformedHistory):
            OpHistory([inv(TEST, 0, 1), inv(READ, 0, 2)])

    def test_op_id_reuse_rejected(self):
        with pytest.raises(MalformedHistory):
            OpHistory([inv(TEST, 0, 1), res(TEST, 0, 1, 0), inv(SET, 1, 1)])

    def test_precedence_reflects_real_time(self):
        h = OpHistory(
            [
                inv(SET, 1, 5),
                res(SET, 1, 5, DONE),
                inv(TEST, 0, 6),
                res(TEST, 0, 6, 1),
            ]
        )
        a, b = h.ops
        assert h.precedes(a, b)
        assert not h.precedes(b, a)

    def test_json_roundtrip(self):
        h = OpHistory([inv(write(1), 1, 2), res(write(1), 1, 2, DONE)])
        assert op_history_from_json(h.to_json()) == h


class TestCompletions:
    def test_no_pending_yields_self(self):
        h = OpHistory([inv(SET, 1, 0), res(SET, 1, 0, DONE)])
        assert list(completions(h, TOS_SPEC)) == [h]

    def test_count_matches_product_formula(self):
        # one pending TEST: drop, complete with 0, complete with 1
        h = OpHistory([inv(SET, 1, 0), res(SET, 1, 0, DONE), inv(TEST, 0, 1)])
        out = list(completions(h, TOS_SPEC))
        assert len(out) == 3
        assert all(not c.pending_ops() for c in out)

    def test_complete_ops_survive_every_completion(self):
        h = OpHistory([inv(write(0), 0, 0), inv(write(1), 1, 1)])
        for c in completions(h, REG_SPEC):
            assert len(c.pending_ops()) == 0
        # 2 pending writes, each drop-or-done: 2 * 2 completions
        assert len(list(completions(h, REG_SPEC))) == 4

    @given(st.integers(0, 1), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_product_formula_property(self, tval, set_pending, test_pending):
        events = [inv(write(tval), 1, 0), res(write(tval), 1, 0, DONE)]
        expected = 1
        if set_pending:
            events.append(inv(write(1 - tval), 0, 1))
            expected *= 2  # drop or done
        if test_pending:
            events.append(inv(READ, 2, 2))
            expected *= 3  # drop, 0, or 1
        out = list(completions(OpHistory(events), REG_SPEC))
        assert len(out) == expected
        assert len(set(out)) == expected


class TestPermutationOracleAnchors:
    """Hand-computed verdicts the oracle itself must reproduce."""

    def test_sequential_consistent_history(self):
        h = OpHistory(
            [
                inv(SET, 1, 0),
                res(SET, 1, 0, DONE),
                inv(TEST, 0, 1),
                res(TEST, 0, 1, 1),
            ]
        )
        assert perm_linearizable(h, TOS_SPEC)

    def test_stale_test_after_completed_set(self):
        # TEST invoked after SET responded cannot return 0
        h = OpHistory(
            [
                inv(SET, 1, 0),
                res(SET, 1, 0, DONE),
                inv(TEST, 0, 1),
                res(TEST, 0, 1, 0),
            ]
        )
        assert not perm_linearizable(h, TOS_SPEC)

    def test_concurrent_test_may_miss_set(self):
        h = OpHistory(
            [
                inv(TEST, 0, 1),
                inv(SET, 1, 0),
                res(SET, 1, 0, DONE),
                res(TEST, 0, 1, 0),
            ]
        )
        assert perm_linearizable(h, TOS_SPEC)

    def test_pending_write_may_take_effect(self):
        # READ=1 justified by placing the pending WRITE(1) before it
        h = OpHistory([inv(write(1), 1, 0), inv(READ, 0, 1), res(READ, 0, 1, 1)])
        assert perm_linearizable(h, REG_SPEC)

    def test_read_of_never_written_value(self):
        h = OpHistory([inv(READ, 0, 1), res(READ, 0, 1, 1)])
        assert not perm_linearizable(h, REG_SPEC)

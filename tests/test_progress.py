"""Progress conditions: single-crash lock-freedom and the quorum-split rule."""

from linlab.model import apply_history, apply_step, enabled_steps, SchedulingMode
from linlab.progress import (
    ClientServerSplit,
    check_1rlf,
    check_nonblocking,
    default_split,
    implication_audit,
)
from linlab.seqspec import RESPONSE
from linlab.valence import build_scenario


class TestCrashSets:
    def test_split_floor_formula(self):
        split = ClientServerSplit(clients=(0, 1), servers=(2, 3))
        assert split.c == 2 and split.s == 2
        assert split.server_floor == 1  # max(0, s - (c - 1))

    def test_degenerate_floor_clamps_to_zero(self):
        split = ClientServerSplit(clients=(0, 1, 2), servers=(3,))
        assert split.server_floor == 0

    def test_allowed_crash_sets_smallest_first(self):
        split = ClientServerSplit(clients=(0, 1), servers=(2, 3))
        sets = list(split.allowed_crash_sets())
        assert sets[0] == frozenset()
        sizes = [len(x) for x in sets]
        assert sizes == sorted(sizes)
        # at most 1 client and at most s - floor = 1 server may crash
        assert frozenset({0, 2}) in sets
        assert frozenset({0, 1}) not in sets
        assert frozenset({2, 3}) not in sets

    def test_default_split_reads_protocol_roles(self):
        s = build_scenario("trivial-ack")
        split = default_split(s)
        assert split.clients == (0, 1)
        assert split.servers == (2, 3)


class TestOneResilientLockFreedom:
    def test_holds_on_every_shipped_protocol(self):
        for name in ("naive-tos", "abd-tos", "abd-reg", "trivial-ack"):
            verdict = check_1rlf(build_scenario(name), depth=5)
            assert verdict.holds, f"{name}: {verdict.notes}"
            assert verdict.witness is None

    def test_verdict_carries_exploration_size(self):
        verdict = check_1rlf(build_scenario("naive-tos"), depth=5)
        assert verdict.configs_checked > 0
        assert verdict.condition == "1-resilient lock-freedom"


class TestNonblocking:
    def test_naive_tos_has_no_servers_to_lose(self):
        verdict = check_nonblocking(build_scenario("naive-tos"), depth=5)
        assert verdict.holds

    def test_quorum_protocol_fails_the_harsh_split(self):
        # c=2, s=1: the rule demands progress with zero live servers
        verdict = check_nonblocking(build_scenario("abd-tos"), depth=5)
        assert not verdict.holds
        assert verdict.witness is not None

    def test_trivial_ack_starves_and_the_witness_replays(self):
        s = build_scenario("trivial-ack")
        verdict = check_nonblocking(s, depth=6)
        assert not verdict.holds
        w = verdict.witness
        live = [p for p in range(s.n) if p not in w.crash_set]
        config, _ = apply_history(s.initial(), w.base_history, s.system)
        before = sum(1 for ev in config.events if ev.kind == RESPONSE)
        assert w.pending, "a live client must have an operation in flight"
        config, _ = apply_history(config, w.extension, s.system)
        after = sum(1 for ev in config.events if ev.kind == RESPONSE)
        assert after == before  # starved: fair extension, nothing returns
        assert all(step.process in live for step in w.extension)
        if w.extension_quiescent:
            # no live process can receive anything further
            for p in live:
                assert not config.messages_for(p)

    def test_witness_crash_set_respects_the_split(self):
        s = build_scenario("trivial-ack")
        verdict = check_nonblocking(s, depth=6)
        split = default_split(s)
        crashed_clients = set(verdict.witness.crash_set) & set(split.clients)
        crashed_servers = set(verdict.witness.crash_set) & set(split.servers)
        assert len(crashed_clients) <= split.c - 1
        assert len(crashed_servers) <= split.s - split.server_floor

    def test_a_witness_leaves_the_sweep_unexhausted(self):
        # the sweep stops at the witness, so it did not cover the space
        for name in ("abd-tos", "trivial-ack"):
            verdict = check_nonblocking(build_scenario(name), depth=6)
            assert verdict.witness is not None
            assert verdict.exhausted is False
            assert verdict.to_json()["exhausted"] is False

    def test_verdict_json_roundtrips_through_repr(self):
        verdict = check_nonblocking(build_scenario("trivial-ack"), depth=5)
        out = verdict.to_json()
        assert out["condition"] == "nonblocking"
        assert out["holds"] is False
        assert out["witness"]["crash_set"] == sorted(verdict.witness.crash_set)


class TestImplicationAudit:
    def test_no_row_violates_the_implication(self):
        rows = implication_audit(depth=5)
        assert {r["protocol"] for r in rows} >= {
            "naive-tos",
            "abd-tos",
            "abd-reg",
            "trivial-ack",
        }
        for row in rows:
            assert not row["implication_violated"], row

    def test_separation_exists_in_the_matrix(self):
        # at least one protocol is 1RLF yet not nonblocking
        rows = implication_audit(depth=5)
        assert any(r["one_rlf"] and not r["nonblocking"] for r in rows)

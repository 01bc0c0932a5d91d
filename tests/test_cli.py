"""Command-line interface: exit codes, report shapes, config handling."""

import json
import random
import re
from pathlib import Path

import pytest

from linlab import cli
from linlab.cli import main
from linlab.protocols import build_protocol

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSimulate:
    def test_jsonl_header_then_steps(self, capsys):
        code, out = run_cli(capsys, "simulate", "--protocol", "naive-tos")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["protocol"] == "naive-tos"
        assert all(rec["type"] == "step" for rec in lines[1:])
        assert len(lines) > 1

    def test_identical_invocations_are_byte_identical(self, capsys):
        _, a = run_cli(capsys, "simulate", "--protocol", "abd-tos", "--seed", "7")
        _, b = run_cli(capsys, "simulate", "--protocol", "abd-tos", "--seed", "7")
        assert a == b

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, out = run_cli(
            capsys, "simulate", "--protocol", "naive-tos", "--out", str(target)
        )
        assert code == 0
        assert target.exists()
        first = json.loads(target.read_text().splitlines()[0])
        assert first["type"] == "header"

    def test_scheduled_replay_from_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "protocol": "naive-tos",
                    # a left-out message_uid is the idle receipt too
                    "schedule": [{"process": 1, "message_uid": None}, {"process": 1}],
                }
            )
        )
        code, out = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 3  # header + the two scripted steps
        assert all((rec["process"], rec["message_uid"]) == (1, None) for rec in lines[1:])

    def test_a_simulated_run_replays_as_its_schedule(self, capsys, tmp_path):
        # 36 of the fair run's 55 steps receive a message, which the
        # replay finds by uid among the pending ones
        _, out = run_cli(capsys, "simulate", "--protocol", "abd-reg", "--seed", "3")
        steps = out.strip().splitlines()[1:]
        schedule = [
            {key: json.loads(line)[key] for key in ("process", "message_uid")} for line in steps
        ]
        assert len(schedule) == 55
        assert sum(entry["message_uid"] is not None for entry in schedule) == 36
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"protocol": "abd-reg", "schedule": schedule}))
        code, replay = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 0
        assert replay.strip().splitlines()[1:] == steps

    @pytest.mark.parametrize("name,lengths", [
        ("naive-tos", {"0": 1, "1": 4}),
        ("abd-tos", {"0": 25, "1": 32}),
        ("abd-reg", {"0": 68, "1": 55}),
    ])
    def test_printed_certificates_replay(self, capsys, tmp_path, name, lengths):
        # each certificate `valence` prints is a schedule that `simulate`
        # replays, whose last step returns the decision with its value
        golden = json.loads((GOLDEN / f"valence-{name}.json").read_text())
        certificates = json.loads(golden["stdout"])["valence"]["certificates"]
        assert {v: len(c) for v, c in certificates.items()} == lengths
        driver = build_protocol(name).system.driver
        cfgfile = tmp_path / "c.json"
        for value, schedule in certificates.items():
            cfgfile.write_text(json.dumps({"schedule": schedule}))
            code, out = run_cli(capsys, "simulate", "--protocol", name, "--config", str(cfgfile))
            assert code == 0
            steps = [json.loads(line) for line in out.strip().splitlines()[1:]]
            assert [(s["process"], s["message_uid"]) for s in steps] == [
                (e["process"], e["message_uid"]) for e in schedule
            ]
            decisions = [
                (i, ev["value"]) for i, s in enumerate(steps) for ev in s["events_emitted"]
                if ev["kind"] == "response" and ev["process"] == driver.decision_process
                and ev["op"] == driver.decision_op
            ]
            assert decisions == [(len(steps) - 1, int(value))]

    def test_crash_outside_the_system_is_a_config_error(self, capsys):
        # naive-tos has processes 0 and 1 only
        code, out = run_cli(capsys, "simulate", "--protocol", "naive-tos", "--crash", "2")
        assert code == 2
        assert out == ""

    def test_unreplayable_schedule_is_a_config_error(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "protocol": "naive-tos",
                    "schedule": [{"process": 0, "message_uid": 123456}],
                }
            )
        )
        code, _ = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 2

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"schedule": [{"process": 0, "message_uid": None},
                           {"process": 1, "message_uid": None}], "crash": 1},
             "schedule[1]: process 1 is crashed"),
            ({"schedule": [{"process": 1, "message_uid": None}], "depth": 4},
             "depth bounds the fair schedule; it does not apply beside schedule"),
            ({"schedule": [{"process": 1}, {"process": 0, "message_id": 1024}]},
             "schedule[1]: unknown key 'message_id'"),
        ],
        ids=["crashed process steps", "depth beside schedule", "misspelt message_uid"],
    )
    def test_schedule_the_run_would_not_follow_is_refused(
        self, capsys, tmp_path, config, message
    ):
        # each of these used to exit 0 with a trace that ignored the setting
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(dict(config, protocol="naive-tos")))
        code = main(["simulate", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestCheck:
    def test_lin_flags_the_naive_anomaly(self, capsys):
        code, out = run_cli(
            capsys, "check", "--protocol", "naive-tos", "--mode", "lin", "--depth", "4"
        )
        assert code == 1
        report = json.loads(out)
        assert report["result"] == "violation"
        assert report["history"]

    def test_lin_holds_on_quorum_register_shallow(self, capsys):
        code, out = run_cli(
            capsys, "check", "--protocol", "abd-reg", "--mode", "lin", "--depth", "3"
        )
        assert code == 0
        assert json.loads(out)["result"] == "holds"

    def test_sl_counterexample_on_naive_tos(self, capsys):
        code, out = run_cli(
            capsys, "check", "--protocol", "naive-tos", "--mode", "sl", "--depth", "4"
        )
        assert code == 1
        report = json.loads(out)
        assert report["result"] == "counterexample"
        assert report["detail"]["nodes"]

    def test_default_mode_follows_protocol(self, capsys):
        # abd-reg ships with the write-strong checker as its interesting one
        code, out = run_cli(capsys, "check", "--protocol", "abd-reg", "--depth", "3")
        assert json.loads(out)["mode"] == "wsl"

    def test_node_budget_overflow_is_a_limit_error(self, capsys):
        # full nondeterminism on the register blows past the default
        # node budget one level deeper
        code, _ = run_cli(capsys, "check", "--protocol", "abd-reg", "--depth", "4")
        assert code == 2

    def test_unknown_mode_is_a_config_error(self, capsys):
        code, _ = run_cli(
            capsys, "check", "--protocol", "naive-tos", "--mode", "seq"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check"], "protocol 'trivial-ack' has no sequential object to check"),
            (["explore"], "protocol 'trivial-ack' has no sequential object to audit"),
            # the mode is judged before the object it would check
            (["check", "--mode", "bogus"], "unknown check mode 'bogus'; expected lin, sl or wsl"),
        ],
    )
    def test_a_protocol_without_an_object_is_refused(self, capsys, argv, message):
        code = main([*argv, "--protocol", "trivial-ack"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestValence:
    def test_bivalent_initial_exits_zero(self, capsys):
        code, out = run_cli(capsys, "valence", "--protocol", "abd-tos")
        assert code == 0
        report = json.loads(out)
        assert report["valence"]["tag"] == "bivalent"
        assert set(report["valence"]["certificates"]) == {"0", "1"}

    def test_protocol_without_a_decision_is_refused(self, capsys):
        # trivial-ack decides nothing, so a sweep could only end unknown-at-bound
        code = main(["valence", "--protocol", "trivial-ack"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: protocol 'trivial-ack' has no decision operation to classify\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["valence"], ["hbi"], ["demo", "init-bivalent"]])
    def test_each_classifying_command_refuses_it_before_searching(
        self, monkeypatch, capsys, argv
    ):
        # hbi used to classify the initial configuration in full and only
        # then exit 2 with "initial configuration is not certified bivalent"
        def no_search(*args, **kwargs):
            raise AssertionError("searched a protocol that decides nothing")

        for name in ("classify_valence", "build_hbi", "staged_probe"):
            monkeypatch.setattr(cli, name, no_search)
        code = main([*argv, "--protocol", "trivial-ack"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: protocol 'trivial-ack' has no decision operation to classify\n"
        )


class TestExplore:
    def test_naive_tos_finds_the_triple(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--protocol", "naive-tos", "--depth", "8"
        )
        assert code == 1
        report = json.loads(out)
        assert report["triples"] == 1
        assert report["first"]["completed"] == ["SET#16"]
        assert report["first"]["verdict"] == "counterexample"

    def test_shallow_quorum_explore_is_clean(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--protocol", "abd-reg", "--depth", "6"
        )
        assert code == 0
        assert json.loads(out)["triples"] == 0


class TestHbiCommand:
    def test_three_rounds_on_quorum_tos(self, capsys):
        code, out = run_cli(
            capsys, "hbi", "--protocol", "abd-tos", "--rounds", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rounds_completed"] == 3
        assert report["completions"] == []

    def test_naive_tos_cannot_sustain_a_round(self, capsys):
        code, out = run_cli(capsys, "hbi", "--protocol", "naive-tos", "--rounds", "1")
        assert code == 1
        assert json.loads(out)["stuck"] is not None

    def test_unmet_precondition_is_an_error_line(self, capsys):
        # trivial-ack has no decision, so there is no bivalence to keep
        code = main(["hbi", "--protocol", "trivial-ack"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: protocol 'trivial-ack' has no decision operation to classify\n"
        )
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_shuffles_the_rotation(self, capsys, n, seed):
        code, out = run_cli(
            capsys, "hbi", "--protocol", "abd-tos", "--n", str(n),
            "--seed", str(seed), "--rounds", "0",
        )
        order = list(range(n))
        random.Random(seed).shuffle(order)
        assert code == 0
        assert json.loads(out)["rotation"] == order


class TestProgressCommand:
    def test_naive_tos_passes_both(self, capsys):
        code, out = run_cli(capsys, "progress", "--protocol", "naive-tos")
        assert code == 0
        report = json.loads(out)
        assert report["one_rlf"]["holds"] and report["nonblocking"]["holds"]

    def test_trivial_ack_fails_nonblocking(self, capsys):
        code, out = run_cli(capsys, "progress", "--protocol", "trivial-ack")
        assert code == 1
        report = json.loads(out)
        assert report["one_rlf"]["holds"]
        assert not report["nonblocking"]["holds"]
        assert report["nonblocking"]["witness"]["crash_set"]


class TestConfigHandling:
    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"protocol": "abd-tos"}))
        _, out = run_cli(
            capsys,
            "valence",
            "--protocol",
            "naive-tos",
            "--config",
            str(cfgfile),
        )
        assert json.loads(out)["protocol"] == "abd-tos"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"protocl": "naive-tos"}))
        code, _ = run_cli(capsys, "valence", "--config", str(cfgfile))
        assert code == 2

    def test_unknown_protocol_exits_two(self, capsys):
        code, _ = run_cli(capsys, "valence", "--protocol", "raft")
        assert code == 2

    def test_malformed_config_json_exits_two(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text("{not json")
        code, _ = run_cli(capsys, "valence", "--config", str(cfgfile))
        assert code == 2

    def test_a_config_that_is_not_an_object_exits_two(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps([{"protocol": "abd-tos"}]))
        code = main(["valence", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: config file must hold a JSON object\n"

    def test_main_builds_no_parser(self, monkeypatch):
        # the parser is built once, at import; main used to build it anew
        # for every call
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        for argv, want in ((["valence"], 0), (["check", "--depth", "2"], 0),
                           (["demo", "claim3"], 0), (["valence", "--rounds", "1"], 2)):
            assert main(argv) == want
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize(
        "config",
        [
            {"schedule": [1]},
            {"schedule": "ab"},
            {"schedule": [{"process": True}]},
            # uid 1 is pending at step 1, and True == 1
            {"protocol": "abd-reg",
             "schedule": [{"process": 0}, {"process": 1, "message_uid": True}]},
        ],
        ids=["list of ints", "string", "bool process", "bool uid"],
    )
    def test_malformed_schedule_exits_two(self, capsys, tmp_path, config):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(config))
        code, out = run_cli(capsys, "simulate", "--config", str(cfgfile))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--protocol", "naive-tos", "--depth", "-1"],
            ["explore", "--protocol", "naive-tos", "--depth", "-1"],
            ["progress", "--protocol", "naive-tos", "--depth", "-1"],
            ["valence", "--depth", "-2"],
            ["hbi", "--rounds", "-1"],
            ["simulate", "--depth", "-1"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_negative_depth_or_rounds_is_refused(self, capsys, tmp_path, argv):
        # these used to run a vacuous search and exit 0
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "must not be negative" in captured.err
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({argv[-2].lstrip("-"): int(argv[-1])}))
        code = main(argv[:-2] + ["--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "must not be negative" in captured.err

    @pytest.mark.parametrize(
        "key", ["depth", "rounds", "n", "seed", "crash", "max_nodes", "max_triples"]
    )
    @pytest.mark.parametrize("value", ["3", 2.5, True, [1]], ids=repr)
    def test_non_integer_config_value_is_refused(self, capsys, tmp_path, key, value):
        # a string depth used to end in a TypeError traceback
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: value}))
        command = "simulate" if key == "crash" else "explore"
        code = main([command, "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"{key} must be an integer" in captured.err

    @pytest.mark.parametrize("key", ["protocol", "mode", "out"])
    @pytest.mark.parametrize("value", [["abd-tos"], 987, 2.5], ids=repr)
    def test_non_string_config_value_is_refused(self, capsys, tmp_path, key, value):
        # a list protocol used to end in a TypeError traceback, and an
        # integer out was opened as a file descriptor (987 is none)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: value}))
        code = main(["check", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"{key} must be a string, not {value!r}" in captured.err

    def test_a_fault_inside_a_command_is_not_a_config_error(self, monkeypatch):
        # names are checked before a command runs, so a KeyError from
        # inside one is a fault of the program and must not exit 2
        def faulty(cfg):
            raise KeyError("fault")

        monkeypatch.setitem(cli._COMMANDS, "valence", faulty)
        with pytest.raises(KeyError):
            main(["valence"])

    @pytest.mark.parametrize("where,reason", [
        (lambda tmp: tmp / "missing" / "x.json", "No such file or directory"),
        (lambda tmp: tmp, "Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_an_out_that_cannot_be_opened_is_refused_before_the_search(
        self, capsys, monkeypatch, tmp_path, where, reason
    ):
        # it used to run the whole search, then die writing the report
        # with a traceback and exit 1, the code of a violation
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "valence", lambda cfg: ran.append(cfg) or ("", 0))
        target = where(tmp_path)
        code = main(["valence", "--out", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out, ran) == (2, "", [])
        assert captured.err == f"error: cannot open out {target}: {reason}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "naive-tos", "--n", "1"],
            ["check", "--protocol", "abd-tos", "--n", "2"],
            ["valence", "--protocol", "naive-tos", "--n", "0"],
            ["explore", "--protocol", "abd-reg", "--n", "2"],
            ["hbi", "--protocol", "abd-tos", "--n", "-1"],
            ["progress", "--protocol", "trivial-ack", "--n", "2"],
            ["demo", "init-bivalent", "--protocol", "naive-tos", "--n", "0"],
            ["valence", "--protocol", "naive-tos", "--n", "1025"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-3]} n={argv[-1]}",
    )
    def test_n_outside_the_protocol_range_is_refused(self, capsys, tmp_path, argv):
        # n = 0 used to end in a PreconditionViolated traceback, exit 1
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "bad n for" in captured.err
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"n": int(argv[-1])}))
        code = main(argv[:-2] + ["--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "bad n for" in captured.err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["check", "--protocol", "naive-tos", "--depth", "3"], "max_nodes"),
            (["explore", "--protocol", "abd-tos", "--depth", "7"], "max_triples"),
        ],
        ids=lambda x: x if isinstance(x, str) else x[0],
    )
    def test_null_config_value_means_the_default(self, capsys, tmp_path, argv, key):
        # {"max_nodes": null} used to end in a TypeError traceback
        want = run_cli(capsys, *argv)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: None}))
        assert run_cli(capsys, *argv, "--config", str(cfgfile)) == want

    def test_null_config_value_keeps_the_flag(self, capsys, tmp_path):
        # {"depth": null} beside --depth 3 used to run at the default depth 4
        want = run_cli(capsys, "check", "--protocol", "naive-tos", "--depth", "3")
        assert json.loads(want[1])["depth"] == 3
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"depth": None}))
        argv = ["check", "--protocol", "naive-tos", "--depth", "3", "--config", str(cfgfile)]
        assert run_cli(capsys, *argv) == want

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["explore", "--protocol", "naive-tos", "--depth", "8"], {"max_triples": 0}),
            (["check", "--protocol", "naive-tos", "--depth", "3"], {"max_nodes": -3}),
        ],
        ids=lambda x: x[0] if isinstance(x, list) else next(iter(x)),
    )
    def test_budget_below_one_is_refused(self, capsys, tmp_path, argv, config):
        # max_triples 0 used to report one triple and exit 1, max_nodes -3
        # to report a tree exceeding -3 nodes
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(config))
        code = main(argv + ["--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"{next(iter(config))} must be at least 1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["valence", "--protocol", "abd-tos"],
            ["hbi", "--protocol", "abd-tos"],
            ["explore", "--protocol", "naive-tos"],
            ["check", "--protocol", "naive-tos"],
            ["progress", "--protocol", "naive-tos"],
            ["demo", "init-bivalent"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_crash_outside_simulate_is_refused(self, capsys, tmp_path, argv):
        # only simulate runs a crashed schedule; the rest would ignore it
        code = main(argv + ["--crash", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "crash applies only to simulate" in captured.err
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"crash": 1}))
        code = main(argv + ["--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "crash applies only to simulate" in captured.err

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "naive-tos"],
            ["valence", "--protocol", "naive-tos"],
            ["explore", "--protocol", "naive-tos", "--depth", "2"],
            ["hbi", "--protocol", "naive-tos", "--rounds", "1"],
            ["progress", "--protocol", "naive-tos", "--depth", "2"],
            ["demo", "init-bivalent"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_mode_outside_check_is_refused(self, capsys, tmp_path, argv, form):
        # only check reads the mode; the rest would run as if it were unset
        if form == "flag":
            extra = ["--mode", "sl"]
        else:
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps({"mode": "sl"}))
            extra = ["--config", str(cfgfile)]
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"mode applies only to check, not to {argv[0]}" in captured.err


class TestDemo:
    @pytest.mark.parametrize("token", ["init-bivalent", "claim2", "claim3"])
    def test_fast_demo_tokens_pass(self, capsys, token):
        code, out = run_cli(capsys, "demo", token)
        assert code == 0
        assert f"[{token}] PASS" in out

    def test_hbi_claims_bivalence_only_when_not_stuck(self, capsys):
        code, out = run_cli(capsys, "demo", "hbi")
        assert code == 0
        assert out == (
            "abd-tos adversary: 3/3 rounds, 10 steps, 0 completed operations\n"
            "every scheduled process took a step each round; all traversed states bivalent\n"
            "[hbi] PASS\n"
        )
        code, out = run_cli(capsys, "demo", "hbi", "--seed", "1")
        assert code == 1
        assert "stuck in round 3 at slot 2" in out
        assert "all traversed states bivalent" not in out

    def test_hbi_refuses_rounds_below_one(self, capsys):
        # with no round to schedule, the demo used to claim every process
        # took a step and print PASS
        code = main(["demo", "hbi", "--rounds", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: demo hbi needs rounds of at least 1, not 0\n"

    def test_init_bivalent_refuses_a_protocol_without_a_decision(self, capsys):
        # trivial-ack decides nothing, so its staged probes could only time out
        code = main(["demo", "init-bivalent", "--protocol", "trivial-ack"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: protocol 'trivial-ack' has no decision operation to classify\n"
        )
        assert captured.out == ""

    def test_init_bivalent_refuses_a_protocol_that_is_not_test_set(self, capsys):
        # under the 2W1R driver the probes' orders fix no decision
        for argv in ([], ["--n", "4"]):
            code = main(["demo", "init-bivalent", "--protocol", "abd-reg"] + argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: protocol 'abd-reg' is not a test/set object")
        code, out = run_cli(capsys, "demo", "init-bivalent", "--protocol", "abd-tos")
        assert code == 0 and out.endswith("[init-bivalent] PASS\n")

    def test_unknown_token_exits_two(self, capsys):
        # argparse rejects tokens outside the fixed choice list
        with pytest.raises(SystemExit) as exc:
            main(["demo", "claim9"])
        assert exc.value.code == 2


# every setting a command can be given, and a valid value for each; the
# first seven are flags, the other three come only from a config file
SETTINGS = {
    "protocol": "abd-tos", "n": 3, "depth": 2, "rounds": 2, "crash": 1,
    "mode": "sl", "seed": 5, "schedule": [], "max_nodes": 7, "max_triples": 2,
}
FLAGS = ("protocol", "n", "depth", "rounds", "crash", "mode", "seed")
READ = [(name, key) for name, reads in cli._READS.items() for key in reads]
UNREAD = [(name, key) for name, reads in cli._READS.items()
          for key in SETTINGS if key not in reads]


def by_form(pairs):
    return [(name, key, form) for name, key in pairs
            for form in ("flag", "config") if form == "config" or key in FLAGS]


def given(name, key, form, tmp_path):
    """argv for `name` with `key` set to its value by flag or config."""
    if form == "flag":
        return name.split() + [f"--{key}", str(SETTINGS[key])]
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({key: SETTINGS[key]}))
    return name.split() + ["--config", str(cfgfile)]


@pytest.fixture
def recorded(monkeypatch):
    """Stub out every command and demo; return the cfgs they were given."""
    seen = []
    for command in cli._COMMANDS:
        if command != "demo":
            monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or ("", 0))
    for token in cli._DEMOS:
        monkeypatch.setitem(cli._DEMOS, token, lambda cfg, say: seen.append(cfg) or True)
    return seen


def readme_reads() -> dict:
    """The README's table of the settings each command reads, each with
    the default it shows in brackets, or None where it shows none."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text[text.index("| command | settings it reads |"):].splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        name, reads = (cell.strip() for cell in line.strip("|").split("|"))
        entries = re.findall(r"`(\w+)`(?: \(([^)]+)\))?", reads)
        # the cell holds those entries and nothing else, so no text the
        # pattern skips can hide a setting or a default
        shown = ", ".join(f"`{key}`" + (f" ({default})" if default else "")
                          for key, default in entries)
        assert reads == (shown or "none"), line
        rows[name.strip("`")] = {
            key: int(default) if default.isdigit() else default or None
            for key, default in entries
        }
    return rows


class TestSettingsTable:
    def test_one_entry_per_command_and_demo_token(self):
        want = [c for c in cli._COMMANDS if c != "demo"] + [f"demo {t}" for t in cli._DEMOS]
        assert sorted(cli._READS) == sorted(want)

    def test_settings_here_are_every_config_key(self):
        assert set(SETTINGS) == cli._CONFIG_KEYS - {"out", "claim"}
        assert (len(READ), len(UNREAD)) == (32, 88)

    def test_readme_table_matches_the_code(self):
        assert readme_reads() == cli._READS

    @pytest.mark.parametrize("name,key,form", by_form(READ))
    def test_read_setting_reaches_the_command(
        self, capsys, tmp_path, recorded, name, key, form
    ):
        code = main(given(name, key, form, tmp_path))
        assert (code, capsys.readouterr().err) == (0, "")
        [cfg] = recorded
        assert cfg[key] == SETTINGS[key]

    @pytest.mark.parametrize("name,key,form", by_form(UNREAD))
    def test_unread_setting_is_refused(self, capsys, tmp_path, recorded, name, key, form):
        code = main(given(name, key, form, tmp_path))
        captured = capsys.readouterr()
        assert (code, captured.out, recorded) == (2, "", [])
        assert captured.err.startswith(f"error: {key} applies only to ")
        assert captured.err.endswith(f", not to {name}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["demo", "claim2", "--protocol", "abd-tos"],
             "protocol applies only to simulate, check, valence, explore, hbi, "
             "progress, demo init-bivalent, not to demo claim2"),
            (["valence", "--rounds", "1"], "rounds applies only to hbi, demo hbi, not to valence"),
            (["check", "--seed", "3"], "seed applies only to simulate, hbi, demo hbi, not to check"),
        ],
        ids=["demo claim2", "valence", "check"],
    )
    def test_ignored_setting_no_longer_runs(self, capsys, argv, message):
        # each of these used to exit 0 with a verdict that ignored the setting
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["demo"], ["valence", "claim2"]], ids=" ".join)
    def test_demo_token_only_after_demo(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"unknown command {' '.join(argv)!r}" in captured.err

"""CLI goldens: the exact stdout and exit code of fixed invocations.

Each of the 30 cases below has a file tests/golden/<case>.json holding
its argv, its exit code and its stdout, compared byte for byte. The
files were frozen before the step layer was memoized,
progress-naive-tos-d4 before the breadth-first sweeps moved onto
valence.reach (it is the one case where progress's truncation rule and
classify's disagree), the check cases other than check-naive-tos-sl-d5
before the schedule tree shared one OpHistory between a node and a
child that logged nothing, and the demo cases other than demo-claim3,
hbi-abd-tos-seed1 (the adversary stuck, exit 1) and hbi-abd-tos-n4
before the quorum register's reply branches were merged into one.
progress-abd-reg-d6, progress-abd-tos-d6 and progress-trivial-ack-d6
were re-frozen when the progress sweep began to find stalls at still
classes (their nonblocking witnesses now end at the first one) and to
print each witness's base and extension as the {process, message_uid}
records that simulate --config replays. A change that alters any of
them changes a verdict, a certificate or a schedule. Regenerate them
only when such a change is intended, and list in CHANGES.md the cases
that --write names as changed:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "valence-naive-tos": ["valence", "--protocol", "naive-tos"],
    "valence-abd-tos": ["valence", "--protocol", "abd-tos"],
    "valence-abd-reg": ["valence", "--protocol", "abd-reg"],
    "hbi-abd-tos-r3": ["hbi", "--protocol", "abd-tos", "--rounds", "3"],
    "hbi-naive-tos-r6": ["hbi", "--protocol", "naive-tos", "--rounds", "6"],
    "explore-naive-tos-d12": ["explore", "--protocol", "naive-tos", "--depth", "12"],
    "explore-abd-tos-d10": ["explore", "--protocol", "abd-tos", "--depth", "10"],
    "explore-abd-reg-d10": ["explore", "--protocol", "abd-reg", "--depth", "10"],
    "progress-trivial-ack-d6": ["progress", "--protocol", "trivial-ack", "--depth", "6"],
    "progress-abd-tos-d6": ["progress", "--protocol", "abd-tos", "--depth", "6"],
    "progress-naive-tos-d4": ["progress", "--protocol", "naive-tos", "--depth", "4"],
    "simulate-abd-reg-seed3": ["simulate", "--protocol", "abd-reg", "--seed", "3"],
    "simulate-abd-tos-crash1": ["simulate", "--protocol", "abd-tos", "--crash", "1"],
    "check-naive-tos-sl-d5": ["check", "--protocol", "naive-tos", "--mode", "sl",
                              "--depth", "5"],
    "demo-claim3": ["demo", "claim3"],
    "check-abd-reg-lin-d3": ["check", "--protocol", "abd-reg", "--mode", "lin",
                             "--depth", "3"],
    "check-abd-reg-wsl-d3": ["check", "--protocol", "abd-reg", "--mode", "wsl",
                             "--depth", "3"],
    "check-abd-tos-lin-d3": ["check", "--protocol", "abd-tos", "--mode", "lin",
                             "--depth", "3"],
    "check-abd-tos-wsl-d3": ["check", "--protocol", "abd-tos", "--mode", "wsl",
                             "--depth", "3"],
    "check-naive-tos-lin-d6": ["check", "--protocol", "naive-tos", "--mode", "lin",
                               "--depth", "6"],
    "check-naive-tos-wsl-d6": ["check", "--protocol", "naive-tos", "--mode", "wsl",
                               "--depth", "6"],
    "check-abd-tos-d4": ["check", "--protocol", "abd-tos", "--depth", "4"],
    "demo-init-bivalent": ["demo", "init-bivalent"],
    "demo-claim2": ["demo", "claim2"],
    "demo-hbi": ["demo", "hbi"],
    "demo-subclaim-wsl": ["demo", "subclaim-wsl"],
    "demo-appendix": ["demo", "appendix"],
    "hbi-abd-tos-seed1": ["hbi", "--protocol", "abd-tos", "--seed", "1"],
    "hbi-abd-tos-n4": ["hbi", "--protocol", "abd-tos", "--n", "4"],
    "progress-abd-reg-d6": ["progress", "--protocol", "abd-reg", "--depth", "6"],
}


def run(argv) -> tuple:
    """Exit code and stdout of one in-process CLI call."""
    from linlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def text(record: dict) -> str:
    """A golden file's exact text, as write() lays it out."""
    return json.dumps(record, indent=1) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    golden = json.loads((GOLDEN / f"{case}.json").read_text())
    assert golden["argv"] == CASES[case]
    code, out = run(CASES[case])
    assert code == golden["exit"]
    assert out == golden["stdout"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_file_is_laid_out_as_written(case):
    # so that --write on unchanged output rewrites nothing
    raw = (GOLDEN / f"{case}.json").read_text()
    assert raw == text(json.loads(raw))


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("progress-")))
def test_progress_witness_replays_through_simulate(case, tmp_path):
    report = json.loads(json.loads((GOLDEN / f"{case}.json").read_text())["stdout"])
    for condition in ("one_rlf", "nonblocking"):
        w = report[condition]["witness"]
        if w is None:
            continue
        config = tmp_path / f"{condition}.json"
        schedule = w["base"] + w["extension"]
        config.write_text(json.dumps({"protocol": report["protocol"], "schedule": schedule}))
        code, out = run(["simulate", "--config", str(config)])
        header, *steps = (json.loads(line) for line in out.splitlines())
        assert (code, len(steps)) == (0, len(schedule))
        extension = steps[len(w["base"]):]
        assert not any(rec["process"] in w["crash_set"] for rec in extension)
        kinds = {ev["kind"] for rec in extension for ev in rec["events_emitted"]}
        assert "response" not in kinds
        if w["extension_quiescent"]:
            # the survivors' last round receives nothing and changes nothing
            survivors = header["n"] - len(w["crash_set"])
            buffered = steps[-survivors - 1]["buffer_size"] if len(steps) > survivors else 0
            for rec in extension[-survivors:]:
                assert rec["message_uid"] is None
                assert (rec["buffer_size"], rec["events_emitted"]) == (buffered, [])


def write() -> None:
    """Rewrite every golden file, and name the cases whose exit code or
    stdout changed."""
    GOLDEN.mkdir(exist_ok=True)
    unchanged = 0
    for case, argv in sorted(CASES.items()):
        code, out = run(argv)
        path = GOLDEN / f"{case}.json"
        old = json.loads(path.read_text()) if path.exists() else {}
        if (old.get("exit"), old.get("stdout")) == (code, out):
            unchanged += 1
        else:
            print(f"{case}: exit {code}, {len(out)} bytes")
        path.write_text(text({"argv": argv, "exit": code, "stdout": out}))
    print(f"{unchanged} unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()

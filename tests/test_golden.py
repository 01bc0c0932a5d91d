"""CLI goldens: the exact stdout and exit code of fixed invocations.

Each of the 30 cases below has a file tests/golden/<case>.json holding
its argv, its exit code and its stdout, compared byte for byte. The
files were frozen before the step layer was memoized,
progress-naive-tos-d4 before the breadth-first sweeps moved onto
valence.reach (it is the one case where progress's truncation rule and
classify's disagree), the check cases other than check-naive-tos-sl-d5
before the schedule tree shared one OpHistory between a node and a
child that logged nothing, and the demo cases other than demo-claim3,
hbi-abd-tos-seed1 (the adversary stuck, exit 1), hbi-abd-tos-n4 and
progress-abd-reg-d6 (which runs abd-reg's tag-query round) before the
quorum register's reply branches were merged into one. A
change that alters any of them changes a verdict, a certificate or a
schedule. Regenerate them only when such a change is intended, and say
so in CHANGES.md:

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


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        code, out = run(argv)
        record = {"argv": argv, "exit": code, "stdout": out}
        (GOLDEN / f"{case}.json").write_text(text(record))
        print(f"{case}: exit {code}, {len(out)} bytes")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()

"""Golden reports: the five commands on every problems/*.json file.

tests/golden/<problem>.json holds, per command, the exit code, the stdout
report (parsed JSON, or null when the command printed none) and the stderr
text.  Strings, booleans, integers and exit codes must match exactly, floats
to GOLDEN_RTOL relative.  The files are regenerated only for an intended
change of a report, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from blflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("finiteness", "constant", "solve-c", "verify", "flow")
GOLDEN_RTOL = 1e-12


def reports(path: Path) -> dict:
    out = {}
    for command in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(path)])
        out[command] = {"exit": code,
                        "stdout": json.loads(stdout.getvalue()) if stdout.getvalue() else None,
                        "stderr": stderr.getvalue()}
    return out


def assert_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} against {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} against {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == want or math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0), \
            f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_problem_file_reports_match_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert_matches(reports(PROBLEMS / f"{name}.json"), want, name)


def test_every_problem_file_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == \
        sorted(p.stem for p in PROBLEMS.glob("*.json"))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for problem in sorted(PROBLEMS.glob("*.json")):
        target = GOLDEN / f"{problem.stem}.json"
        target.write_text(json.dumps(reports(problem), indent=1) + "\n", encoding="utf-8")
        print(target)

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/run_young_chain.py"],
    ["scripts/run_flow_demo.py", "problems/holder_boxes.json"],
], ids=["young_chain", "flow_demo"])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("quad_tol", ["-1", "0", "nan"])
def test_flow_demo_rejects_bad_quad_tol(quad_tol):
    proc = subprocess.run([sys.executable, "scripts/run_flow_demo.py", "problems/holder_boxes.json",
                           "--quad-tol", quad_tol, "--tmax", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "finite number > 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("problem", sorted(p.name for p in (ROOT / "problems").glob("*.json")))
def test_flow_demo_on_every_problem(problem):
    proc = subprocess.run([sys.executable, "scripts/run_flow_demo.py", f"problems/{problem}"],
                          cwd=ROOT, capture_output=True, text=True)
    if json.loads((ROOT / "problems" / problem).read_text()).get("profiles"):
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.returncode == 2
        assert "needs profiles" in proc.stderr and "Traceback" not in proc.stderr

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import blflow

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("argv", [["scripts/run_young_chain.py"]], ids=["young_chain"])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("quad_tol", ["-1", "0", "nan"])
def test_flow_demo_rejects_bad_quad_tol(quad_tol):
    # the flow demo is `blflow flow --format csv`; a bad quadrature tolerance
    # is refused before any row is written
    proc = subprocess.run([sys.executable, "-m", "blflow.cli", "flow", "problems/holder_boxes.json",
                           "--format", "csv", "--tol", quad_tol, "--tmax", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "finite number > 0" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("script", SCRIPTS)
def test_scripts_import_only_the_public_api(script):
    # a script is a client of the package: it takes every name from blflow.__all__
    tree = ast.parse((ROOT / "scripts" / script).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "blflow" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "blflow":
            assert node.module == "blflow"
            assert {a.name for a in node.names} <= set(blflow.__all__)

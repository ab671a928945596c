import ast
import runpy
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import blflow
from blflow import certificate

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("argv", [["scripts/run_young_chain.py"]], ids=["young_chain"])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_young_chain_builds_one_qr(monkeypatch, capsys):
    # the walkthrough reads C off the factor its solve finished on
    qr = mock.Mock(wraps=certificate._factor)
    monkeypatch.setattr(certificate, "_factor", qr)
    runpy.run_path(str(ROOT / "scripts" / "run_young_chain.py"), run_name="__main__")
    assert "verifier: ok=True" in capsys.readouterr().out
    assert qr.call_count == 1


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

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
    # the walkthrough's C is read off its solve's last factor, and nothing is
    # factored after the solve returns
    made, solves = [], []
    factor, solve = certificate._factor, certificate.solve_s_system

    def factoring(*args):
        made.append(factor(*args))
        return made[-1]

    def solving(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    cert = mock.Mock(wraps=certificate.Factor.cert)
    monkeypatch.setattr(certificate, "_factor", factoring)
    monkeypatch.setattr(certificate, "solve_s_system", solving)
    monkeypatch.setattr(certificate.Factor, "cert", lambda self: cert(self))
    runpy.run_path(str(ROOT / "scripts" / "run_young_chain.py"), run_name="__main__")
    assert "verifier: ok=True" in capsys.readouterr().out
    [result] = solves
    assert result.factor is made[-1]
    assert cert.call_count == 1 and cert.call_args.args[0] is made[-1]


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

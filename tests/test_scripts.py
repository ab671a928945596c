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

"""The two-tree scripts import their shared harness and parse arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["bench_linear_solve", "bench_newton", "bench_cli_output",
                                  "compare_trees"])
def test_script_help_runs(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {name}.py")

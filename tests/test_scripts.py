"""The scripts under ``scripts/`` import model internals; run each at
desk size so an interface change that breaks them fails the suite."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("overfit_synthetic.py", ["--iterations", "2"]),
        ("field_properties.py", ["--n", "2", "--size", "16"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

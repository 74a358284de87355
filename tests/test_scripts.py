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


def test_cli_digest_is_reproducible(tmp_path):
    """Two runs of the pipeline, each in its own process, hash every file
    the same; a run that differs would make the digest useless as a
    byte-identity check between two trees."""
    outputs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "cli_digest.py"), str(tmp_path / name)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1]
    paths = [line.split("  ", 1)[1] for line in outputs[0]]
    assert len(paths) == 44 and "train/log.csv" in paths and "evaluate/summary.json" in paths

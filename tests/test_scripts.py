"""The scripts under ``scripts/`` import model internals; run each at
desk size so an interface change that breaks them fails the suite."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shared import SCRIPTS, load_script

CLI_DIGEST = json.loads((Path(__file__).parent / "data" / "cli_digest.json").read_text())


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
    byte-identity check between two trees. One run must also match the
    record ``scripts/cli_digest.py --record`` wrote: every file on the
    recorded numpy/OpenBLAS/kernel key, the kernel-free files on any
    kernel of the recorded numpy version."""
    outputs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "cli_digest.py"), str(tmp_path / name)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1]
    now = {path: sha for sha, path in (line.split("  ", 1) for line in outputs[0])}
    recorded = CLI_DIGEST["files"]
    assert sorted(now) == sorted(recorded)  # the same paths, and no stray .tmp file
    key, want = load_script("golden_bits").blas_key(), CLI_DIGEST["key"]
    if key != want:
        if key["numpy"] != want["numpy"]:
            pytest.skip(f"numpy {key['numpy']} is not the recorded {want['numpy']}: hashes not comparable")
        recorded = {path: r for path, r in recorded.items() if r["kernel_free"]}
    changed = [path for path, r in recorded.items() if now[path] != r["sha256"]]
    assert not changed, f"{len(changed)} of {len(recorded)} files changed bytes: {changed}"


def test_field_statistics_counts_a_nan_determinant_as_folded(monkeypatch):
    field_properties = load_script("field_properties")
    exact = field_properties.jacobian_determinant

    def one_nan(disp):
        det = exact(disp)
        det[1, 1] = np.nan  # an interior pixel
        return det

    monkeypatch.setattr(field_properties, "jacobian_determinant", one_nan)
    stats = field_properties.field_statistics(2, 16, 1.0)
    assert stats["folded"] == 2

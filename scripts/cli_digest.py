#!/usr/bin/env python3
"""Run the CLI pipeline once and print a sha256 of every file it writes.

The pipeline runs in this process through ``patchreg.cli.main``:

1. ``synth --n 4 --size 64 --seed 0`` into ``train_data/``;
2. ``synth --n 2 --size 64 --seed 10 --split test`` into ``test_data/``;
3. ``train`` of ``swin_trans_desk`` for 2 epochs at batch 2 with
   ``--seed 11``, validating on the train split, into ``train/``. Its
   learning rate of 1e-2 moves the field by about 0.16 px, enough for
   ``register``'s warped image to differ from the moving one;
4. ``register`` of the first test pair with ``train/best_checkpoint.prck``
   into ``register/``;
5. ``evaluate --threads 2`` of the test split into ``evaluate/``.

Each output line is ``sha256  relative/path``, sorted by path, for every
file under OUT_DIR. Two parts that differ between identical runs are
masked before hashing: the ``seconds`` column of ``train/log.csv`` is
dropped, and the manifest path in ``train/resolved_config.json`` is made
relative to OUT_DIR. Two trees that print the same lines wrote the same
bytes everywhere else, so comparing the output of a change with its
parent's shows whether the change altered any CLI output:

    python3 scripts/cli_digest.py OUT_DIR

OUT_DIR must be empty or absent. Float results depend on the OpenBLAS
kernel, so compare runs on one machine and kernel only.

``--record`` runs the pipeline and writes ``tests/data/cli_digest.json``
(or FILE): the BLAS key of ``golden_bits.blas_key()`` and, per path, its
sha256 and whether it is kernel-free, that is whether re-runs in
subprocesses under ``OPENBLAS_CORETYPE`` Haswell and Sandybridge hash it
the same. ``tests/test_scripts.py`` compares a run with that record. A
change that alters CLI output on purpose re-records it and says so:

    python3 scripts/cli_digest.py --record [FILE]
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from golden_bits import blas_key
from patchreg.cli import main as cli

RECORD = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_digest.json"
KERNELS = ("Haswell", "Sandybridge")


def run_pipeline(out: Path) -> None:
    """Write the pipeline's files under ``out``; the CLI's own messages go
    to stderr."""
    config = {
        "model": {"preset": "swin_trans_desk"},
        "train": {"lr": 1e-2, "max_epochs": 2, "patience": 2, "batch_size": 2},
        "data": {"manifest": "train_data/manifest.csv", "train_split": "train", "val_split": "train"},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    steps = [
        ["synth", "--n", "4", "--size", "64", "--seed", "0", "--out", str(out / "train_data")],
        ["synth", "--n", "2", "--size", "64", "--seed", "10", "--split", "test",
         "--out", str(out / "test_data")],
        ["train", "--config", str(out / "config.json"), "--out", str(out / "train"), "--seed", "11"],
        ["register", "--checkpoint", str(out / "train" / "best_checkpoint.prck"),
         "--fix", str(out / "test_data" / "synth0000_ed.pgm"),
         "--mov", str(out / "test_data" / "synth0000_es.pgm"), "--out", str(out / "register")],
        ["evaluate", "--checkpoint", str(out / "train" / "best_checkpoint.prck"),
         "--manifest", str(out / "test_data" / "manifest.csv"), "--out", str(out / "evaluate"),
         "--threads", "2"],
    ]
    with contextlib.redirect_stdout(sys.stderr):
        for argv in steps:
            rc = cli(argv)
            if rc != 0:
                raise SystemExit(f"cli_digest: patchreg {argv[0]} exited {rc}")


def masked_bytes(path: Path, out: Path) -> bytes:
    """The file's bytes, less the parts that differ between identical runs."""
    data = path.read_bytes()
    if path.name == "log.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        drop = rows[0].index("seconds")
        buf = io.StringIO()
        csv.writer(buf).writerows(row[:drop] + row[drop + 1 :] for row in rows)
        return buf.getvalue().encode()
    if path.name == "resolved_config.json":
        resolved = json.loads(data)
        manifest = Path(resolved["data"]["manifest"])
        resolved["data"]["manifest"] = manifest.relative_to(out.resolve()).as_posix()
        return json.dumps(resolved, indent=2, sort_keys=True).encode()
    return data


def digest(out_dir) -> list[str]:
    """Run the pipeline into ``out_dir`` and return one
    ``sha256  relative/path`` line per file written."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"cli_digest: {out} is not empty")
    run_pipeline(out)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [
        f"{hashlib.sha256(masked_bytes(p, out)).hexdigest()}  {p.relative_to(out).as_posix()}"
        for p in files
    ]


def hashes(lines: list[str]) -> dict[str, str]:
    """``{relative path: sha256}`` of digest lines."""
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines)}


def digest_under(coretype: str, out: Path) -> list[str]:
    """The digest lines of a run in a subprocess under ``OPENBLAS_CORETYPE``."""
    proc = subprocess.run(
        [sys.executable, __file__, str(out)], env={**os.environ, "OPENBLAS_CORETYPE": coretype},
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def record(path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        own = hashes(digest(Path(tmp) / "own"))
        others = [hashes(digest_under(k, Path(tmp) / k)) for k in KERNELS]
    files = {p: {"sha256": sha, "kernel_free": all(o.get(p) == sha for o in others)} for p, sha in own.items()}
    body = ",\n".join(f"  {json.dumps(p)}: {json.dumps(r)}" for p, r in files.items())
    path.write_text(f'{{\n "key": {json.dumps(blas_key())},\n "files": {{\n{body}\n }}\n}}\n')
    free = sum(r["kernel_free"] for r in files.values())
    print(f"recorded {len(files)} files, {free} kernel-free, to {path}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and not sys.argv[1].startswith("-"):
        print("\n".join(digest(sys.argv[1])))
    elif 2 <= len(sys.argv) <= 3 and sys.argv[1] == "--record":
        record(Path(sys.argv[2]) if len(sys.argv) == 3 else RECORD)
    else:
        raise SystemExit("usage: cli_digest.py OUT_DIR | cli_digest.py --record [FILE]")

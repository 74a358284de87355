"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchreg import dataio, models
from patchreg.cli import main
from patchreg.models import init_model, preset, save_checkpoint


def read_log(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def desk_checkpoint(tmp_path, name="desk.prck", family="pure_mlp"):
    model = init_model(preset(f"{family}_desk"))
    path = tmp_path / name
    save_checkpoint(model, path)
    return path


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--n", "1", "--size", "64", "--max-disp", "3", "--out", str(out), "--seed", "3"]) == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_five_files_plus_manifest(synth_dir):
    files = sorted(p.name for p in synth_dir.iterdir())
    assert files == [
        "manifest.csv",
        "synth0000_ed.pgm",
        "synth0000_ed_mask.pgm",
        "synth0000_es.pgm",
        "synth0000_es_mask.pgm",
        "synth0000_gt_disp.prgf",
    ]
    records = dataio.load_manifest(synth_dir / "manifest.csv")
    assert len(records) == 1 and records[0].split == "train"


def test_synth_same_seed_identical_tree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--n", "2", "--size", "32", "--out", str(out), "--seed", "9"]) == 0
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


# ---------------------------------------------------------------------------
# train


def write_train_config(tmp_path, synth_dir, epochs=3, extra_train=None):
    cfg = {
        "model": {"preset": "pure_mlp_desk"},
        "train": {
            "lr": 2e-3,
            "max_epochs": epochs,
            "patience": epochs,
            "batch_size": 1,
            "augment": {"rotate": False, "crop": False, "brightness": False,
                        "contrast": False, "sharpen": False, "blur": False, "speckle": False},
        },
        "data": {"manifest": str(synth_dir / "manifest.csv"), "val_split": "train"},
    }
    if extra_train:
        cfg["train"].update(extra_train)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_four_artifacts(tmp_path, synth_dir):
    cfg = write_train_config(tmp_path, synth_dir)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    for name in ("checkpoint.prck", "best_checkpoint.prck", "log.csv", "resolved_config.json"):
        assert (out / name).is_file(), name
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model"]["seed"] == 1
    assert resolved["train"]["lr"] == 2e-3
    rows = read_log(out / "log.csv")
    assert len(rows) == 3


def test_train_seed_repeat_identical_logs(tmp_path, synth_dir):
    cfg = write_train_config(tmp_path, synth_dir, epochs=4)
    logs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        rows = read_log(out / "log.csv")
        logs.append([(r["epoch"], r["train_loss"], r["val_loss"]) for r in rows])
    assert logs[0] == logs[1]


def test_resolved_config_reads_back_unchanged(tmp_path, synth_dir):
    cfg = write_train_config(tmp_path, synth_dir, epochs=1)
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(cfg), "--out", str(first)]) == 0
    resolved = first / "resolved_config.json"
    assert main(["train", "--config", str(resolved), "--out", str(second)]) == 0
    assert (second / "resolved_config.json").read_text() == resolved.read_text()


def test_train_missing_manifest_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    missing = tmp_path / "nowhere" / "manifest.csv"
    cfg.write_text(json.dumps({"model": {"preset": "pure_mlp_desk"}, "data": {"manifest": str(missing)}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "manifest.csv" in capsys.readouterr().err


def assert_one_line_error(rc: int, err: str, code: int) -> None:
    assert rc == code
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def train_with_config(directory, config) -> tuple[int, str]:
    """Run ``patchreg train`` on ``config`` written as JSON; return exit code, stderr."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--config", str(path), "--out", str(directory / "out")])
    return rc, err.getvalue()


# the synth_dir manifest, relative to the config file: with it only the
# config check stands between a bad rate and a training run
_SYNTH_DATA = {"manifest": "data/manifest.csv", "val_split": "train"}
_ONE_EPOCH = {"max_epochs": 1, "patience": 0}


@pytest.mark.parametrize(
    "config",
    [
        [1],
        {"model": [1]},
        {"train": [1]},
        {"data": {"manifest": 3}},
        {"model": {"dim": "x"}},
        {"model": {"scales": [{"patch": "4"}]}},
        {"model": {"preset": "pure_mlp_desk"}, "train": {"lr": math.nan}, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk"}, "train": {"lam": math.inf}, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk"}, "train": _ONE_EPOCH, "data": {**_SYNTH_DATA, "bogus": 1}},
        {"model": {"preset": "pure_mlp_desk"}, "train": _ONE_EPOCH, "data": _SYNTH_DATA, "bogus": 1},
    ],
    ids=["top-list", "model-list", "train-list", "manifest-int", "dim-str", "patch-str",
         "lr-nan", "lam-inf", "data-unknown-key", "top-unknown-key"],
)
def test_train_malformed_config_exit_2(tmp_path, synth_dir, config):
    assert_one_line_error(*train_with_config(tmp_path, config), 2)


# augmentation values numpy cannot draw from; at eight epochs each
# transform is drawn at least once, so without the config check these
# fail mid-run, after resolved_config.json is written
@pytest.mark.parametrize(
    "key, value",
    [
        ("rotate_deg", math.nan),
        ("brightness_delta", math.inf),
        ("contrast_range", [math.nan, 1.0]),
        ("crop_min_scale", 1.5),
        ("speckle_var", -0.01),
    ],
    ids=["rotate-nan", "brightness-inf", "contrast-nan", "crop-above-1", "speckle-negative"],
)
def test_train_bad_augmentation_exit_2_before_training(tmp_path, synth_dir, key, value):
    train = {"max_epochs": 8, "patience": 8, "augment": {key: value}}
    config = {"model": {"preset": "pure_mlp_desk"}, "train": train, "data": _SYNTH_DATA}
    rc, err = train_with_config(tmp_path, config)
    assert_one_line_error(rc, err, 2)
    assert f"train.augment.{key}" in err
    assert not (tmp_path / "out").exists()


# a valid config whose manifest does not exist; the fuzz replaces one
# field (or the whole config) with random JSON, so every case ends before
# training, in exit 2
_VALID_CONFIG = {
    "model": {
        "preset": "swin_trans_desk",
        "dim": 16,
        "scales": [{"patch": 4, "window": 4, "heads": 4, "weight": 1.0}],
    },
    "train": {
        "lr": 1e-3, "max_epochs": 2, "patience": 1, "batch_size": 1, "precision": "f32",
        "augment": {"rotate": False, "contrast_range": [0.8, 1.2]},
    },
    "data": {"manifest": "absent.csv", "train_split": "train", "val_split": "val"},
}
_CONFIG_PATHS = (
    [()]
    + [(section,) for section in _VALID_CONFIG]
    + [(section, key) for section, fields in _VALID_CONFIG.items() for key in fields]
    + [("model", "scales", 0, key) for key in ("patch", "window", "heads", "weight")]
    + [("train", "augment", "rotate"), ("train", "augment", "contrast_range")]
)
_config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.sampled_from(["pure_mlp_desk", "swin_trans", "f64", "train"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["model", "train", "data", "preset", "scales", "patch", "window",
                         "heads", "dim", "lr", "augment", "manifest", "val_split"]),
        inner,
        max_size=4,
    ),
    max_leaves=10,
)


def _replace(path, value):
    if not path:
        return value
    config = copy.deepcopy(_VALID_CONFIG)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@given(st.sampled_from(_CONFIG_PATHS), _config_values)
@settings(max_examples=120, deadline=None)
def test_train_fuzzed_config_exit_2(fuzz_dir, path, value):
    assert_one_line_error(*train_with_config(fuzz_dir, _replace(path, value)), 2)


# ---------------------------------------------------------------------------
# register


def test_register_identity_checkpoint(tmp_path, synth_dir):
    ckpt = desk_checkpoint(tmp_path)
    mov = synth_dir / "synth0000_es.pgm"
    out = tmp_path / "reg"
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(synth_dir / "synth0000_ed.pgm"), "--mov", str(mov),
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "disp_forward.prgf").is_file()
    assert (out / "disp_inverse.prgf").is_file()
    # zero-head model leaves the moving image untouched
    assert (out / "warped.pgm").read_bytes() == mov.read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["inverse_consistency_residual_px"] == 0.0
    assert summary["mse_warped"] == pytest.approx(summary["mse_identity"])
    assert summary["jacobian"]["neg_frac"] == 0.0


def test_register_size_mismatch_exit_2(tmp_path, synth_dir):
    ckpt = desk_checkpoint(tmp_path)
    small = tmp_path / "small.pgm"
    dataio.write_pgm(np.zeros((32, 32)), small)
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(small), "--mov", str(small),
        "--out", str(tmp_path / "reg2"), "--no-resize",
    ])
    assert rc == 2


def test_register_resizes_by_default(tmp_path, synth_dir):
    ckpt = desk_checkpoint(tmp_path)
    small = tmp_path / "small.pgm"
    dataio.write_pgm(np.random.default_rng(0).uniform(size=(32, 32)), small)
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(small), "--mov", str(small),
        "--out", str(tmp_path / "reg3"),
    ])
    assert rc == 0


def test_register_corrupt_checkpoint_exit_3(tmp_path, synth_dir):
    ckpt = desk_checkpoint(tmp_path)
    raw = bytearray(ckpt.read_bytes())
    raw[-1] ^= 0x55
    ckpt.write_bytes(bytes(raw))
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(synth_dir / "synth0000_ed.pgm"),
        "--mov", str(synth_dir / "synth0000_es.pgm"),
        "--out", str(tmp_path / "reg4"),
    ])
    assert rc == 3


def length_prefixed(header: bytes) -> bytes:
    """The bytes after a checkpoint's magic: u32 header length, header, empty payload."""
    return struct.pack("<I", len(header)) + header


def register_with_checkpoint(directory, tail: bytes) -> tuple[int, str]:
    """Run ``patchreg register`` on checkpoint ``PRCK`` + ``tail``; return exit code, stderr."""
    ckpt = directory / "bad.prck"
    ckpt.write_bytes(b"PRCK" + tail)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([
            "register", "--checkpoint", str(ckpt),
            "--fix", str(directory / "fix.pgm"), "--mov", str(directory / "mov.pgm"),
            "--out", str(directory / "reg"),
        ])
    return rc, err.getvalue()


@pytest.mark.parametrize(
    "tail",
    [
        b"\0\0",
        length_prefixed(b"{}"),
        length_prefixed(json.dumps({"sha256": hashlib.sha256(b"").hexdigest()}).encode()),
        length_prefixed(b"[1]"),
    ],
    ids=["truncated-length", "empty-object", "sha256-only", "list"],
)
def test_register_malformed_checkpoint_exit_3(tmp_path, tail):
    assert_one_line_error(*register_with_checkpoint(tmp_path, tail), 3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["sha256", "config", "params", "format_version"]), inner),
    max_leaves=8,
)


@given(
    st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(length_prefixed),
        _json_values.map(lambda v: length_prefixed(json.dumps(v).encode())),
    )
)
@settings(max_examples=60, deadline=None)
def test_register_fuzzed_checkpoint_exit_3(fuzz_dir, tail):
    assert_one_line_error(*register_with_checkpoint(fuzz_dir, tail), 3)


# ---------------------------------------------------------------------------
# evaluate


def make_eval_manifest(tmp_path, n=10, identical=False, drop_mask_for=None):
    out = tmp_path / "eval_data"
    out.mkdir()
    rows = []
    for i in range(n):
        p = dataio.synth_pair(100 + i, size=64, max_disp=2.0)
        pid = f"e{i:03d}"
        dataio.write_pgm(p.fix, out / f"{pid}_ed.pgm")
        dataio.write_mask(p.fix_mask, out / f"{pid}_ed_mask.pgm")
        if identical:
            es_img, es_mask = f"{pid}_ed.pgm", f"{pid}_ed_mask.pgm"
        else:
            dataio.write_pgm(p.mov, out / f"{pid}_es.pgm")
            dataio.write_mask(p.mov_mask, out / f"{pid}_es_mask.pgm")
            es_img, es_mask = f"{pid}_es.pgm", f"{pid}_es_mask.pgm"
        mask_cols = ["", ""] if drop_mask_for == i else [f"{pid}_ed_mask.pgm", es_mask]
        rows.append([pid, f"{pid}_ed.pgm", es_img, mask_cols[0], mask_cols[1], "test", ""])
    dataio.write_manifest(rows, out / "manifest.csv")
    return out / "manifest.csv"


def test_evaluate_ten_pairs(tmp_path):
    manifest = make_eval_manifest(tmp_path, n=10)
    ckpt = desk_checkpoint(tmp_path)
    out = tmp_path / "report"
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
               "--split", "test", "--out", str(out), "--threads", "2"])
    assert rc == 0
    jac_rows = read_log(out / "jacobian.csv")
    assert len(jac_rows) == 10
    metric_rows = read_log(out / "metrics.csv")
    assert len(metric_rows) == 30
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_pairs"] == 10
    for structure in ("lv_endo", "myocardium", "left_atrium"):
        for metric in ("dice", "hd", "msd"):
            stats = summary["structures"][structure][metric]
            assert {"mean", "std", "median", "q1", "q3"} <= set(stats)
    assert "per_patient_mean" in summary["jacobian"]
    assert "pooled" in summary["jacobian"]


def test_evaluate_identical_pairs_all_dice_one(tmp_path):
    manifest = make_eval_manifest(tmp_path, n=3, identical=True)
    ckpt = desk_checkpoint(tmp_path)
    out = tmp_path / "report"
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
               "--split", "test", "--out", str(out)])
    assert rc == 0
    assert all(float(r["dice"]) == 1.0 for r in read_log(out / "metrics.csv"))


def test_evaluate_missing_mask_skipped_exit_0(tmp_path):
    manifest = make_eval_manifest(tmp_path, n=3, drop_mask_for=1)
    ckpt = desk_checkpoint(tmp_path)
    out = tmp_path / "report"
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
               "--split", "test", "--out", str(out)])
    assert rc == 0
    assert len(read_log(out / "jacobian.csv")) == 2
    assert "e001" in (out / "skipped.log").read_text()


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_evaluate_malformed_thread_count_exit_2(tmp_path, monkeypatch, threads):
    manifest = make_eval_manifest(tmp_path, n=1)
    ckpt = desk_checkpoint(tmp_path)
    monkeypatch.setenv("PATCHREG_THREADS", threads)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                   "--split", "test", "--out", str(tmp_path / "r")])
    assert_one_line_error(rc, err.getvalue(), 2)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_evaluate_thread_flag_below_one_exit_2_before_loading(tmp_path, threads):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "absent.prck"), "--manifest",
                   str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r"), "--threads", threads])
    assert_one_line_error(rc, err.getvalue(), 2)
    assert err.getvalue() == f"error: --threads must be a positive integer, got {threads}\n"


def test_evaluate_empty_split_exit_2(tmp_path):
    manifest = make_eval_manifest(tmp_path, n=2)
    ckpt = desk_checkpoint(tmp_path)
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
               "--split", "val", "--out", str(tmp_path / "r")])
    assert rc == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_single_family_passes(capsys):
    rc = main(["gradcheck", "--family", "pure_mlp", "--probes", "6"])
    assert rc == 0
    assert "pure_mlp" in capsys.readouterr().out


def test_gradcheck_fault_injection_detected(capsys):
    rc = main(["gradcheck", "--family", "pure_mlp", "--probes", "6", "--inject-fault"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_size_guard(capsys):
    assert main(["gradcheck", "--family", "pure_mlp", "--size", "128"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "patchreg", "synth", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--max-disp" in proc.stdout

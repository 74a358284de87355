"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import math
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchreg import cli, dataio, gradcore, models, training
from patchreg.cli import main
from patchreg.gradcore import GradCheckReport, cmul
from patchreg.models import RegistrationModel, init_model, load_checkpoint, preset, save_checkpoint


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


@pytest.mark.parametrize("max_disp", ["-2", "nan", "8", "100"])
def test_synth_max_disp_outside_range_exit_2(tmp_path, max_disp):
    # the default --size is 64, so --max-disp must stay below 8
    rc, err = run_cli(["synth", "--max-disp", max_disp, "--out", str(tmp_path / "s")])
    assert_one_line_error(rc, err, 2)
    assert "--max-disp" in err and not (tmp_path / "s").exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--size", "0"), ("--size", "15")])
def test_synth_bad_seed_or_size_names_the_flag_and_writes_nothing(tmp_path, flag, value):
    out = tmp_path / "s"
    rc, err = run_cli(["synth", flag, value, "--out", str(out)])
    assert_one_line_error(rc, err, 2)
    assert err.startswith(f"error: {flag} must") and f"got {value}" in err
    assert not out.exists()


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
            "augment": False,
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


def nan_loss_at_epoch(monkeypatch, epoch):
    """Make the training pair's loss NaN at ``epoch``: with one training and
    one validation pair per epoch, that is ``_pair_loss`` call 2·epoch − 1."""
    pair_loss, calls = training._pair_loss, itertools.count(1)

    def nan_at_epoch(model, fix, mov, cfg):
        loss = pair_loss(model, fix, mov, cfg)
        return cmul(loss, math.nan) if next(calls) == 2 * epoch - 1 else loss

    monkeypatch.setattr(training, "_pair_loss", nan_at_epoch)


def test_diverged_train_keeps_the_log_of_finished_epochs(tmp_path, synth_dir, monkeypatch):
    """A loss that turns non-finite at epoch 3 ends in exit 1; the run
    leaves the log of epochs 1 and 2 and its best checkpoint."""
    nan_loss_at_epoch(monkeypatch, 3)
    out = tmp_path / "run"
    rc, err = run_cli(["train", "--config", str(write_train_config(tmp_path, synth_dir, epochs=4)),
                       "--out", str(out)])
    assert_one_line_error(rc, err, 1)
    assert "non-finite loss at epoch 3" in err
    assert [row["epoch"] for row in read_log(out / "log.csv")] == ["1", "2"]
    load_checkpoint(out / "best_checkpoint.prck")
    assert not (out / "checkpoint.prck").exists()


def test_rerun_into_the_same_directory_leaves_no_file_of_the_earlier_run(tmp_path, synth_dir, monkeypatch):
    """A run that diverges at epoch 1 in the directory of a finished run
    ends in exit 1 and leaves none of the earlier run's log and checkpoints."""
    argv = ["train", "--config", str(write_train_config(tmp_path, synth_dir, epochs=2)),
            "--out", str(tmp_path / "run")]
    assert run_cli(argv)[0] == 0
    names = ("log.csv", "best_checkpoint.prck", "checkpoint.prck")
    assert all((tmp_path / "run" / n).exists() for n in names)
    nan_loss_at_epoch(monkeypatch, 1)
    rc, err = run_cli(argv)
    assert_one_line_error(rc, err, 1)
    assert "non-finite loss at epoch 1" in err
    assert [n for n in names if (tmp_path / "run" / n).exists()] == []


def test_train_that_fails_on_its_data_leaves_out_as_it_was(tmp_path, synth_dir):
    """A run whose data fails its check (an empty 'val' split) ends in exit
    2 before it writes anything: the directory of an earlier run keeps its
    files byte for byte, and an absent --out is not created."""
    config = write_train_config(tmp_path, synth_dir, epochs=1)
    out, absent = tmp_path / "run", tmp_path / "absent"
    assert run_cli(["train", "--config", str(config), "--out", str(out)])[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    raw = json.loads(config.read_text())
    raw["model"] = {"preset": "swin_trans_desk"}
    raw["data"]["val_split"] = "val"
    config.write_text(json.dumps(raw))
    for target in (out, absent):
        rc, err = run_cli(["train", "--config", str(config), "--out", str(target)])
        assert_one_line_error(rc, err, 2)
        assert "no 'val' pairs in" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not absent.exists()


# numpy's message for an array the machine cannot hold (a `dim` or
# `image_size` far too large); raised, never allocated, since an
# overcommitting kernel may grant such a request and kill the process later
_NO_MEMORY = "Unable to allocate 11.6 TiB for an array with shape (4000000, 800000) and data type float32"


def raise_no_memory(*args, **kwargs):
    raise MemoryError(_NO_MEMORY)


def test_train_allocation_the_machine_cannot_make_exit_2(tmp_path, synth_dir, monkeypatch):
    config = write_train_config(tmp_path, synth_dir, epochs=1)
    monkeypatch.setattr(dataio, "load_image_pairs", raise_no_memory)
    out = tmp_path / "run"
    rc, err = run_cli(["train", "--config", str(config), "--out", str(out)])
    assert_one_line_error(rc, err, 2)
    assert _NO_MEMORY in err
    assert not out.exists()


def test_train_missing_manifest_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    missing = tmp_path / "nowhere" / "manifest.csv"
    cfg.write_text(json.dumps({"model": {"preset": "pure_mlp_desk"}, "data": {"manifest": str(missing)}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "manifest.csv" in capsys.readouterr().err


def run_cli(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_one_line_error(rc: int, err: str, code: int) -> None:
    assert rc == code
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def train_with_config(directory, config, *flags) -> tuple[int, str]:
    """Run ``patchreg train`` on ``config`` written as JSON; return exit code, stderr."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return run_cli(["train", "--config", str(path), "--out", str(directory / "out"), *flags])


# the synth_dir manifest, relative to the config file: with it only the
# config check stands between a bad rate and a training run
_SYNTH_DATA = {"manifest": "data/manifest.csv", "val_split": "train"}
_ONE_EPOCH = {"max_epochs": 1, "patience": 0}


def _weighted(weight):
    """A one-scale desk model; NaN < 0 is False, so a NaN weight needs its own check."""
    return {"preset": "pure_mlp_desk", "scales": [{"patch": 4, "weight": weight}]}


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
        {"model": {"preset": "pure_mlp_desk", "depth_cross": 0}, "train": _ONE_EPOCH, "data": _SYNTH_DATA},
        {"model": _weighted(math.nan), "train": _ONE_EPOCH, "data": _SYNTH_DATA},
        {"model": _weighted(math.inf), "train": _ONE_EPOCH, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk"}, "train": {**_ONE_EPOCH, "patience": -3}, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk", "seed": -2}, "train": _ONE_EPOCH, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk"}, "train": {**_ONE_EPOCH, "seed": -3}, "data": _SYNTH_DATA},
        {"model": {"preset": "pure_mlp_desk"}, "train": {"lr": 10**400}, "data": _SYNTH_DATA},
        {"model": _weighted(10**400), "train": _ONE_EPOCH, "data": _SYNTH_DATA},
    ],
    ids=["top-list", "model-list", "train-list", "manifest-int", "dim-str", "patch-str",
         "lr-nan", "lam-inf", "data-unknown-key", "top-unknown-key", "depth-cross-zero",
         "weight-nan", "weight-inf", "patience-negative", "model-seed-negative", "train-seed-negative",
         "lr-int-overflow", "weight-int-overflow"],
)
def test_train_malformed_config_exit_2(tmp_path, synth_dir, config):
    assert_one_line_error(*train_with_config(tmp_path, config), 2)
    assert not (tmp_path / "out").exists()


def test_train_deeply_nested_config_exit_2(tmp_path):
    # deeper than the interpreter's recursion limit: json raises RecursionError
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000)
    rc, err = run_cli(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert_one_line_error(rc, err, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, train, flags, message",
    [
        ({}, {"precision": "f32"}, [], "train has unknown key 'precision'"),
        ({}, {"augment": {"rotate": False}}, [], "train.augment must be bool, got dict"),
        ({}, {"literal_regularizer": False}, [], "train has unknown key 'literal_regularizer'"),
        ({"seed": -2}, {}, [], "model.seed must be a non-negative integer, got -2"),
        ({}, {"seed": -3}, [], "train.seed must be a non-negative integer, got -3"),
        ({}, {}, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        ({"hidden_ratio": 4}, {}, [], "model has unknown key 'hidden_ratio'"),
        ({"integration_steps": 7}, {}, [], "model has unknown key 'integration_steps'"),
        ({"scales": [{"patch": 4, "window": 8, "heads": 3}]}, {}, [],
         "model.scales[0].window is read by swin_trans only, not pure_mlp"),
        ({"scales": [{"patch": 4}, {"patch": 8, "heads": 2}]}, {}, [],
         "model.scales[1].heads is read by swin_trans only, not pure_mlp"),
        ({"preset": "mlp_mixer_desk", "scales": [{"patch": 4, "window": 4}]}, {}, [],
         "model.scales[0].window is read by swin_trans only, not mlp_mixer"),
    ],
    ids=["precision", "augment-object", "literal-regularizer", "model-seed", "train-seed", "seed-flag",
         "hidden-ratio", "integration-steps", "window-on-mlp", "heads-on-mlp", "window-on-mixer"],
)
def test_train_rejection_names_the_key_before_out_exists(tmp_path, synth_dir, model, train, flags, message):
    # the CLI trains in float32, the checkpoint dtype, so a precision key
    # (also one in an older resolved_config.json) is no field; neither is
    # literal_regularizer, and augment is a bool where it was an object;
    # the MLP hidden ratio and the squaring step count are constants, and
    # only swin_trans reads a scale's window and heads
    config = {"model": {"preset": "pure_mlp_desk", **model}, "train": {**_ONE_EPOCH, **train}, "data": _SYNTH_DATA}
    rc, err = train_with_config(tmp_path, config, *flags)
    assert_one_line_error(rc, err, 2)
    assert err == f"error: {message}\n"
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
        "lr": 1e-3, "max_epochs": 2, "patience": 1, "batch_size": 1,
        "augment": False,
    },
    "data": {"manifest": "absent.csv", "train_split": "train", "val_split": "val"},
}
_CONFIG_PATHS = (
    [()]
    + [(section,) for section in _VALID_CONFIG]
    + [(section, key) for section, fields in _VALID_CONFIG.items() for key in fields]
    + [("model", "scales", 0, key) for key in ("patch", "window", "heads", "weight")]
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


def test_register_allocation_the_machine_cannot_make_exit_2(tmp_path, synth_dir, monkeypatch):
    ckpt = desk_checkpoint(tmp_path)
    monkeypatch.setattr(dataio, "resize_image", raise_no_memory)
    rc, err = run_cli([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(synth_dir / "synth0000_ed.pgm"), "--mov", str(synth_dir / "synth0000_es.pgm"),
        "--out", str(tmp_path / "reg"),
    ])
    assert_one_line_error(rc, err, 2)
    assert _NO_MEMORY in err


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
    return run_cli([
        "register", "--checkpoint", str(ckpt),
        "--fix", str(directory / "fix.pgm"), "--mov", str(directory / "mov.pgm"),
        "--out", str(directory / "reg"),
    ])


@pytest.mark.parametrize(
    "tail",
    [
        b"\0\0",
        length_prefixed(b"{}"),
        length_prefixed(json.dumps({"sha256": hashlib.sha256(b"").hexdigest()}).encode()),
        length_prefixed(b"[1]"),
        length_prefixed(b"[" * 100_000),
    ],
    ids=["truncated-length", "empty-object", "sha256-only", "list", "deeply-nested"],
)
def test_register_malformed_checkpoint_exit_3(tmp_path, tail):
    assert_one_line_error(*register_with_checkpoint(tmp_path, tail), 3)


def register_with_stored_config(directory, **changes) -> tuple[int, str]:
    """Run ``patchreg register`` on a desk checkpoint whose stored config
    is updated with ``changes``; return exit code, stderr."""
    raw = desk_checkpoint(directory).read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    header["config"].update(changes)
    tail = length_prefixed(json.dumps(header).encode()) + raw[8 + hlen :]
    return register_with_checkpoint(directory, tail)


def test_register_checkpoint_with_zero_depth_cross_exit_3(tmp_path):
    """A stored config that no model accepts fails at load, as data."""
    rc, err = register_with_stored_config(tmp_path, depth_cross=0)
    assert_one_line_error(rc, err, 3)
    assert "depth_cross" in err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"hidden_ratio": 4}, "model has unknown key 'hidden_ratio'"),
        ({"integration_steps": 7}, "model has unknown key 'integration_steps'"),
        ({"scales": [{"patch": 4, "window": 8, "heads": 3, "weight": 1.0}]},
         "model.scales[0].window is read by swin_trans only, not pure_mlp"),
    ],
    ids=["hidden-ratio", "integration-steps", "window-on-mlp"],
)
def test_register_checkpoint_config_with_a_field_no_model_reads_exit_3(tmp_path, changes, message):
    # a checkpoint written while the hidden ratio and the step count were
    # config fields stores both keys; it is rejected, not read
    rc, err = register_with_stored_config(tmp_path, **changes)
    assert_one_line_error(rc, err, 3)
    assert err.endswith(f": malformed checkpoint ({message})\n"), err


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
# PGM and manifest fuzz: a malformed or unusual image or manifest ends in
# exit 0 with nothing on stderr, or in exit 2 or 3 with one error line


def assert_clean_exit(rc: int, err: str) -> None:
    assert rc in (0, 2, 3), (rc, err)
    if rc == 0:
        assert err == "", err
    else:
        assert_one_line_error(rc, err, rc)


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    """A desk checkpoint and one 64x64 pair with masks."""
    out = tmp_path_factory.mktemp("io")
    desk_checkpoint(out, "desk.prck")
    pair = dataio.synth_pair(7, size=64, max_disp=2.0)
    dataio.write_pgm(pair.fix, out / "ed.pgm")
    dataio.write_pgm(pair.mov, out / "es.pgm")
    dataio.write_mask(pair.fix_mask, out / "ed_mask.pgm")
    dataio.write_mask(pair.mov_mask, out / "es_mask.pgm")
    return out


def register_fixed_image(directory, data: bytes) -> tuple[int, str]:
    """Run ``patchreg register`` with ``data`` as the fixed image file."""
    (directory / "fuzz.pgm").write_bytes(data)
    return run_cli([
        "register", "--checkpoint", str(directory / "desk.prck"),
        "--fix", str(directory / "fuzz.pgm"), "--mov", str(directory / "es.pgm"),
        "--out", str(directory / "reg"),
    ])


def pgm(width, height, maxval=255, payload=None, header=None) -> bytes:
    """A P5 file; the payload defaults to a ramp of the right length whose
    samples do not exceed maxval."""
    if payload is None:
        n = width * height * (2 if maxval > 255 else 1)
        payload = bytes(i * 37 % (min(maxval, 255) + 1) for i in range(n))
    return (header or f"P5\n{width} {height}\n{maxval}\n".encode()) + payload


_PGM = pgm(5, 4, header=b"P5\n# comment\n5 4\n255\n")


@pytest.mark.parametrize(
    "data",
    [
        pgm(1, 1),
        pgm(1, 9),
        pgm(9, 1),
        pgm(2, 2),
        pgm(3, 5, maxval=65535),
        pgm(7, 3, maxval=1),
        pgm(5, 4, payload=bytes(20) + b"trailing bytes"),
        pgm(4, 4, header=b"P5\r4\t4 # one\n# two\n255\n"),
        pgm(150, 90),
    ],
    ids=["1x1", "1x9", "9x1", "2x2", "16-bit", "maxval-1", "trailing", "odd-whitespace", "150x90"],
)
def test_register_edge_case_pgm_exit_0(io_dir, data):
    rc, err = register_fixed_image(io_dir, data)
    assert (rc, err) == (0, "")
    assert (io_dir / "reg" / "warped.pgm").is_file()


_pgm_bytes = st.one_of(
    st.integers(0, len(_PGM) - 1).map(lambda n: _PGM[:n]),
    st.tuples(st.integers(0, len(_PGM) - 1), st.integers(0, 255)).map(
        lambda t: _PGM[: t[0]] + bytes([t[1]]) + _PGM[t[0] + 1 :]
    ),
    st.tuples(st.integers(0, len(_PGM)), st.binary(min_size=1, max_size=4)).map(
        lambda t: _PGM[: t[0]] + t[1] + _PGM[t[0] :]
    ),
    st.builds(
        lambda magic, w, h, maxval, payload: b"%s\n%s %s\n%s\n" % (magic, w, h, maxval) + payload,
        st.sampled_from([b"P5", b"P2", b"P6", b"", b"p5"]),
        st.integers(-1, 6).map(str).map(str.encode) | st.sampled_from([b"x", b"1e3", b"99999999999"]),
        st.integers(-1, 6).map(str).map(str.encode),
        st.sampled_from([b"0", b"1", b"255", b"256", b"65535", b"65536", b"-3", b"2.5"]),
        st.binary(max_size=80),
    ),
    st.binary(max_size=40),
)


@given(_pgm_bytes)
@settings(max_examples=80, deadline=None)
def test_register_fuzzed_pgm_exits_cleanly(io_dir, data):
    assert_clean_exit(*register_fixed_image(io_dir, data))


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


def test_evaluate_without_skips_removes_an_earlier_skipped_log(tmp_path):
    """A second evaluate into the same directory that skips nothing leaves
    no ``skipped.log`` from the first."""
    ckpt = desk_checkpoint(tmp_path)
    out = tmp_path / "report"
    for name, drop in (("first", 1), ("second", None)):
        (tmp_path / name).mkdir()
        manifest = make_eval_manifest(tmp_path / name, n=2, drop_mask_for=drop)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--split", "test", "--out", str(out)]) == 0
        assert (out / "skipped.log").exists() == (drop is not None)
    assert len(read_log(out / "jacobian.csv")) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_checkpoint_weight_exit_3(tmp_path, value):
    """A weight that is not finite fails at load, although its hash is valid."""
    model = init_model(preset("pure_mlp_desk"))
    names = model.params.names()
    model.params[names[len(names) // 2]].data.flat[0] = value
    ckpt = tmp_path / "bad.prck"
    save_checkpoint(model, ckpt)
    manifest = make_eval_manifest(tmp_path, n=1)
    data = manifest.parent
    for argv in (
        ["register", "--fix", str(data / "e000_ed.pgm"), "--mov", str(data / "e000_es.pgm"),
         "--out", str(tmp_path / "reg")],
        ["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "eval")],
    ):
        rc, err = run_cli(argv + ["--checkpoint", str(ckpt)])
        assert_one_line_error(rc, err, 3)
        assert "non-finite" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_evaluate_thread_flag_below_one_exit_2_before_loading(tmp_path, threads):
    rc, err = run_cli(["evaluate", "--checkpoint", str(tmp_path / "absent.prck"), "--manifest",
                       str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r"), "--threads", threads])
    assert_one_line_error(rc, err, 2)
    assert err == f"error: --threads must be a positive integer, got {threads}\n"


def test_evaluate_empty_split_exit_2(tmp_path):
    manifest = make_eval_manifest(tmp_path, n=2)
    ckpt = desk_checkpoint(tmp_path)
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
               "--split", "val", "--out", str(tmp_path / "r")])
    assert rc == 2


_MANIFEST = (
    ",".join(dataio.MANIFEST_HEADER) + "\n"
    + "p0,ed.pgm,es.pgm,ed_mask.pgm,es_mask.pgm,test,0.5\n"
    + "p1,es.pgm,ed.pgm,,,test,\n"
).encode()


def evaluate_manifest(directory, data: bytes) -> tuple[int, str]:
    """Run ``patchreg evaluate`` on the test split of manifest ``data``."""
    (directory / "fuzz.csv").write_bytes(data)
    return run_cli([
        "evaluate", "--checkpoint", str(directory / "desk.prck"),
        "--manifest", str(directory / "fuzz.csv"), "--split", "test",
        "--out", str(directory / "report"), "--threads", "1",
    ])


def test_evaluate_fuzz_manifest_base_is_valid(io_dir):
    assert evaluate_manifest(io_dir, _MANIFEST) == (0, "")


def _with_row(row: str) -> bytes:
    return _MANIFEST + row.encode() + b"\n"


@pytest.mark.parametrize(
    "data",
    [
        b"",
        _MANIFEST.splitlines(keepends=True)[0],
        b"\xef\xbb\xbf" + _MANIFEST,
        _MANIFEST.replace(b"\n", b"\r\n").replace(b"p1,", b"p1,\"", 1),
        _with_row("p2," + "x" * 200_000 + ",es.pgm,,,test,"),
        _with_row("p2," + "x" * 300 + ".pgm,es.pgm,,,test,"),
        _with_row("p2,ed.pgm\0,es.pgm,,,test,"),
        _MANIFEST + b"p2,\xff.pgm,es.pgm,,,test,\n",
        _with_row("p2,ed.pgm,es.pgm,,,test,nan"),
        _with_row("p2,ed.pgm,es.pgm,,,test,inf"),
        _with_row("p2,ed.pgm,es.pgm,,,test,-1"),
        _with_row("p2,ed.pgm,es.pgm,,,test,0"),
        _with_row("p2,ed.pgm,es.pgm,,,test,1mm"),
        _with_row("p2,fuzz.csv,es.pgm,,,test,"),
        _with_row("p2,.,es.pgm,,,test,"),
        _with_row("p0,ed.pgm,es.pgm,,,test,"),
    ],
    ids=["empty", "header-only", "bom", "unclosed-quote", "huge-field", "long-name", "nul",
         "bad-utf8", "spacing-nan", "spacing-inf", "spacing-negative", "spacing-zero",
         "spacing-unit", "manifest-as-image", "directory", "duplicate-id"],
)
def test_evaluate_malformed_manifest_exit_2(io_dir, data):
    assert_one_line_error(*evaluate_manifest(io_dir, data), 2)


def _replace_field(row: int, col: int, value: str) -> bytes:
    rows = [line.split(",") for line in _MANIFEST.decode().splitlines()]
    rows[row][col] = value
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


_manifest_bytes = st.one_of(
    st.builds(
        _replace_field,
        st.integers(0, 2),
        st.integers(0, 6),
        st.text(max_size=12)
        | st.sampled_from(["ed.pgm", "es_mask.pgm", "fuzz.csv", "val", "0.25", "1e-300", "p1", ""]),
    ),
    st.integers(0, len(_MANIFEST) - 1).map(lambda n: _MANIFEST[:n]),
    st.tuples(st.integers(0, len(_MANIFEST) - 1), st.integers(0, 255)).map(
        lambda t: _MANIFEST[: t[0]] + bytes([t[1]]) + _MANIFEST[t[0] + 1 :]
    ),
    st.binary(max_size=60),
)


@given(_manifest_bytes)
@settings(max_examples=80, deadline=None)
def test_evaluate_fuzzed_manifest_exits_cleanly(io_dir, data):
    assert_clean_exit(*evaluate_manifest(io_dir, data))


# ---------------------------------------------------------------------------
# argument errors


@pytest.mark.parametrize(
    "argv, names",
    [
        (["evaluate", "--checkpoint", "c", "--manifest", "m", "--out", "o", "--threads", "abc"],
         "--threads"),
        (["register", "--checkpoint", "c", "--fix", "f.pgm", "--out", "o"], "--mov"),
        (["align", "--fix", "f.pgm"], "align"),
        (["gradcheck", "--size", "32"], "--size"),
        (["gradcheck", "--dim", "16"], "--dim"),
        (["gradcheck", "--patch", "4"], "--patch"),
        (["gradcheck", "--depth", "1"], "--depth"),
        (["gradcheck", "--family", "pure_mlp"], "--family"),
        (["gradcheck", "--probes", "6"], "--probes"),
        (["gradcheck", "--step", "1e-5"], "--step"),
        (["gradcheck", "--threshold", "1e-4"], "--threshold"),
        (["gradcheck", "--seed", "0"], "--seed"),
        (["register", "--checkpoint", "c", "--fix", "f.pgm", "--mov", "m.pgm", "--out", "o", "--no-resize"],
         "--no-resize"),
        (["gradcheck", "--inject-fault"], "--inject-fault"),
    ],
    ids=["bad-int", "missing-flag", "unknown-subcommand",
         "gradcheck-size", "gradcheck-dim", "gradcheck-patch", "gradcheck-depth",
         "gradcheck-family", "gradcheck-probes", "gradcheck-step", "gradcheck-threshold", "gradcheck-seed",
         "register-no-resize", "gradcheck-inject-fault"],
)
def test_usage_error_is_one_line_exit_2(capsys, argv, names):
    rc = main(argv)
    captured = capsys.readouterr()
    assert_one_line_error(rc, captured.err, 2)
    assert names in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_every_family_passes(capsys):
    rc = main(["gradcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == list(models.FAMILIES)
    assert all(line.endswith(", 10 probes) ok") for line in lines), lines
    assert rc == 0


def test_gradcheck_fault_injection_detected(monkeypatch, capsys):
    # the negative control, from outside the program: a negated gelu slope
    # must print FAIL for every family, not crash
    slope = gradcore._gelu_slope
    monkeypatch.setattr(gradcore, "_gelu_slope", lambda h, t: -slope(h, t))
    rc = main(["gradcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == list(models.FAMILIES)
    assert all(line.endswith(" FAIL") for line in lines), lines
    assert rc == 1


def test_gradcheck_checks_the_desk_presets_through_the_training_loss(monkeypatch, capsys):
    calls = []

    def capture(f, params, **kwargs):
        calls.append((f(params), params, kwargs))  # f as grad_check calls it, inside the family's loop pass
        return GradCheckReport(max_rel_err=0.0, mean_rel_err=0.0, n_probes=0, probes=[], worst=None)

    monkeypatch.setattr(cli, "grad_check", capture)
    assert main(["gradcheck"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == list(models.FAMILIES)
    pair = dataio.synth_pair(0, size=32, max_disp=2.0)
    for family, (loss, params, kwargs) in zip(models.FAMILIES, calls):
        assert kwargs == {}, family  # grad_check's probes, step and seed
        cfg = replace(preset(f"{family}_desk"), image_size=32, seed=0)
        ref = RegistrationModel(cfg, dtype=np.float64, head_init="random")
        assert params.names() == ref.params.names(), family
        for name in ref.params.names():
            got, want = params[name].data, ref.params[name].data
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (family, name)
        want = training._pair_loss(ref, pair.fix, pair.mov, training.TrainConfig())
        assert loss.data.dtype == want.data.dtype and loss.data.tobytes() == want.data.tobytes(), family


def test_gradcheck_nan_error_prints_fail_and_exits_1(monkeypatch, capsys):
    # a NaN relative error (a NaN or infinite gradient on either side) is no pass
    def nan_report(f, params, **kwargs):
        return GradCheckReport(max_rel_err=math.nan, mean_rel_err=math.nan, n_probes=10, probes=[], worst=None)

    monkeypatch.setattr(cli, "grad_check", nan_report)
    rc = main(["gradcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{family}: max rel err nan (mean nan, 10 probes) FAIL" for family in models.FAMILIES]
    assert rc == 1


@pytest.mark.parametrize(
    "flag, value",
    [("--step", "inf"), ("--step", "nan"), ("--threshold", "nan"), ("--threshold", "inf"),
     ("--threshold", "0"), ("--seed", "-1"), ("--probes", "0")],
    ids=["step-inf", "step-nan", "threshold-nan", "threshold-inf", "threshold-0", "seed-neg", "probes-0"],
)
def test_gradcheck_bad_number_exit_2(flag, value):
    # gradcheck takes no numbers: a bad value for one of these flags ends
    # as an unknown flag, in one line that names it
    rc, err = run_cli(["gradcheck", flag, value])
    assert_one_line_error(rc, err, 2)
    assert err == f"error: unrecognized arguments: {flag} {value}\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "patchreg", "synth", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--max-disp" in proc.stdout

"""PGM parsing, manifests, resizing, and the synthetic pair generator."""

import numpy as np
import pytest

from patchreg.dataio import (
    ManifestError,
    PgmParseError,
    export_synth_pair,
    load_eval_pairs,
    load_image_pairs,
    load_manifest,
    read_mask,
    read_pgm,
    resize_image,
    resize_mask,
    synth_pair,
    write_manifest,
    write_mask,
    write_pgm,
)
from patchreg.filters import gaussian_blur
from patchreg.metrics import dice, warp_mask
from patchreg.svf import jacobian_determinant, read_field


# ---------------------------------------------------------------------------
# PGM


def test_read_pgm_known_bytes(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert np.allclose(img, [[0.0, 128 / 255], [1.0, 64 / 255]])


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 9)).astype(np.float64) / 255.0
    path = tmp_path / "rt.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_comment_headers_parse_identically(tmp_path):
    payload = bytes([10, 20, 30, 40])
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P5\n2 2\n255\n" + payload)
    commented = tmp_path / "commented.pgm"
    commented.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + payload)
    assert np.array_equal(read_pgm(plain), read_pgm(commented))


def test_pgm_sixteen_bit(tmp_path):
    path = tmp_path / "wide.pgm"
    values = np.array([[0, 32768], [65535, 256]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + values.tobytes())
    img = read_pgm(path)
    assert np.allclose(img, values.astype(np.float64) / 65535.0)


def test_pgm_malformed_header_names_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PgmParseError, match="byte 0"):
        read_pgm(path)
    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmParseError, match="byte"):
        read_pgm(truncated)


def test_pgm_sixteen_bit_write_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    img = rng.integers(0, 65536, size=(6, 5)).astype(np.float64) / 65535.0
    path = tmp_path / "w16.pgm"
    write_pgm(img, path, maxval=65535)
    assert np.array_equal(read_pgm(path), img)


def test_mask_round_trip(tmp_path):
    path = tmp_path / "m.pgm"
    every_byte = np.arange(256).reshape(16, 16)
    for mask in (np.random.default_rng(1).integers(0, 4, size=(11, 7)), every_byte):
        write_mask(mask, path)
        back = read_mask(path)
        assert back.dtype == np.int64 and np.array_equal(back, mask)


@pytest.mark.parametrize("label", [256, -1])
def test_write_mask_rejects_labels_outside_a_byte(tmp_path, label):
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[1, 2] = label
    with pytest.raises(ValueError, match="0..255"):
        write_mask(mask, tmp_path / "m.pgm")
    assert not (tmp_path / "m.pgm").exists()


# ---------------------------------------------------------------------------
# manifests


def write_rows(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    write_manifest(rows, path)
    return path


def touch_pgm(tmp_path, name):
    write_pgm(np.zeros((4, 4)), tmp_path / name)
    return name


def test_manifest_empty_after_header(tmp_path):
    path = write_rows(tmp_path, [])
    assert load_manifest(path) == []


def test_manifest_test_split_with_masks(tmp_path):
    names = [touch_pgm(tmp_path, n) for n in ("a.pgm", "b.pgm", "am.pgm", "bm.pgm")]
    path = write_rows(tmp_path, [["p1", names[0], names[1], names[2], names[3], "test", "0.3"]])
    recs = load_manifest(path)
    assert len(recs) == 1
    assert recs[0].split == "test"
    assert recs[0].ed_mask is not None
    assert recs[0].spacing_mm == 0.3


def test_manifest_unlabeled_rows_allowed(tmp_path):
    names = [touch_pgm(tmp_path, n) for n in ("a.pgm", "b.pgm")]
    path = write_rows(tmp_path, [["p1", names[0], names[1], "", "", "train", ""]])
    recs = load_manifest(path)
    assert recs[0].ed_mask is None and recs[0].spacing_mm is None


def test_manifest_duplicate_pair_id(tmp_path):
    names = [touch_pgm(tmp_path, n) for n in ("a.pgm", "b.pgm")]
    rows = [
        ["p1", names[0], names[1], "", "", "train", ""],
        ["p1", names[0], names[1], "", "", "val", ""],
    ]
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(write_rows(tmp_path, rows))


def test_manifest_unknown_split(tmp_path):
    names = [touch_pgm(tmp_path, n) for n in ("a.pgm", "b.pgm")]
    with pytest.raises(ManifestError, match="split"):
        load_manifest(write_rows(tmp_path, [["p1", names[0], names[1], "", "", "holdout", ""]]))


def test_manifest_missing_file_lists_row(tmp_path):
    names = [touch_pgm(tmp_path, "a.pgm")]
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(write_rows(tmp_path, [["p1", names[0], "missing.pgm", "", "", "train", ""]]))


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,foo\n")
    with pytest.raises(ManifestError, match="header"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# resizing


def test_resize_same_size_unchanged():
    img = np.random.default_rng(2).uniform(size=(32, 32))
    assert np.array_equal(resize_image(img, 32), img)


def test_resize_upscaled_ramp_stays_linear():
    w = 16
    img = np.tile(np.arange(w) / (w - 1.0), (w, 1))
    up = resize_image(img, 2 * w)
    expected = np.tile(np.arange(2 * w) * ((w - 1.0) / (2 * w - 1)) / (w - 1.0), (2 * w, 1))
    assert np.allclose(up, expected, atol=1e-6)


def test_resize_down_then_up_small_error():
    rng = np.random.default_rng(3)
    img = gaussian_blur(rng.uniform(size=(64, 64)), 3.0)
    down = resize_image(img, 32)
    back = resize_image(down, 64)
    assert np.abs(back - img)[4:-4, 4:-4].max() < 0.02


def test_resize_mask_nearest_preserves_labels():
    mask = np.random.default_rng(4).integers(0, 4, size=(32, 32))
    out = resize_mask(mask, 64)
    assert set(np.unique(out)) <= set(np.unique(mask))
    assert np.array_equal(resize_mask(mask, 32), mask)


# ---------------------------------------------------------------------------
# synthetic pairs


def test_synth_zero_displacement_identical_pair():
    p = synth_pair(0, size=32, max_disp=0.0)
    assert np.array_equal(p.fix, p.mov)
    assert np.array_equal(p.gt_disp.array, np.zeros((2, 32, 32)))
    assert np.array_equal(p.fix_mask, p.mov_mask)


def test_synth_deterministic():
    a = synth_pair(5, size=48, max_disp=2.0)
    b = synth_pair(5, size=48, max_disp=2.0)
    assert np.array_equal(a.fix, b.fix)
    assert np.array_equal(a.mov, b.mov)
    assert np.array_equal(a.gt_disp.array, b.gt_disp.array)
    c = synth_pair(6, size=48, max_disp=2.0)
    assert not np.array_equal(a.fix, c.fix)


def test_synth_flow_is_folding_free_over_seeds():
    for seed in range(100):
        p = synth_pair(seed, size=64, max_disp=3.0)
        j = jacobian_determinant(p.gt_disp)
        assert j.min() > 0.0


def test_synth_has_all_labels_and_unit_range():
    p = synth_pair(9, size=64, max_disp=2.0)
    assert set(np.unique(p.fix_mask)) == {0, 1, 2, 3}
    assert p.fix.min() >= 0.0 and p.fix.max() <= 1.0
    assert p.mov.min() >= 0.0 and p.mov.max() <= 1.0


def test_synth_mask_consistency():
    p = synth_pair(10, size=64, max_disp=3.0)
    rewarped = warp_mask(p.fix_mask, p.gt_disp)
    for label in (0, 1, 2, 3):
        assert dice(rewarped, p.mov_mask, label) == 1.0


def test_synth_moving_image_is_warped_fixed():
    from patchreg.svf import warp_image

    p = synth_pair(13, size=48, max_disp=2.5)
    rebuilt = warp_image(p.fix, p.gt_disp).data
    assert np.abs(rebuilt - p.mov).mean() == 0.0


def test_synth_displacement_peak_near_requested():
    p = synth_pair(11, size=64, max_disp=3.0)
    mag = np.sqrt(p.gt_disp.array[0] ** 2 + p.gt_disp.array[1] ** 2)
    assert 2.5 <= mag.max() <= 3.2


def test_synth_guards():
    with pytest.raises(ValueError):
        synth_pair(0, size=8)
    with pytest.raises(ValueError):
        synth_pair(0, size=32, max_disp=10.0)
    for max_disp in (-2.0, float("nan")):
        with pytest.raises(ValueError, match="max_disp"):
            synth_pair(0, size=64, max_disp=max_disp)


# ---------------------------------------------------------------------------
# export round trip


def test_export_and_reload(tmp_path):
    p = synth_pair(12, size=32, max_disp=2.0)
    row = export_synth_pair(p, tmp_path, "pair0", split="train")
    write_manifest([row], tmp_path / "manifest.csv")
    recs = load_manifest(tmp_path / "manifest.csv")
    assert len(recs) == 1
    fix = read_pgm(recs[0].ed_image)
    assert np.abs(fix - p.fix).max() <= 0.5 / 255 + 1e-12  # 8-bit quantization
    assert np.array_equal(read_mask(recs[0].ed_mask), p.fix_mask)
    gt = read_field(tmp_path / "pair0_gt_disp.prgf")
    assert np.array_equal(gt.array, p.gt_disp.array)

    pairs = load_image_pairs(tmp_path / "manifest.csv", "train", 32)
    assert len(pairs) == 1 and pairs[0].pair_id == "pair0"
    evals = load_eval_pairs(tmp_path / "manifest.csv", "train", 32)
    assert evals[0].ed_mask is not None

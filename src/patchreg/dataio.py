"""Data ingestion and synthesis: binary PGM images, pair manifests,
resizing to the working resolution, and a seeded synthetic ED/ES pair
generator with known ground-truth deformation.

On-disk conventions: grayscale images are binary PGM (P5) scaled to
[0, 1] on load; label masks are PGM files whose raw byte values are the
labels themselves; displacement fields use the flat binary field format.
Manifest CSVs have the header
``pair_id,ed_image,es_image,ed_mask,es_mask,split,spacing_mm`` with
paths relative to the manifest location.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import gaussian_blur
from .metrics import EvalPair, warp_mask
from .svf import (
    DISPLACEMENT,
    VectorField,
    aligned_grid,
    integrate_svf,
    random_smooth_velocity,
    sample,
    sample_nearest,
    warp_image,
    write_field,
)

SPLITS = ("train", "val", "test")


class PgmParseError(ValueError):
    pass


class ManifestError(ValueError):
    pass


# ---------------------------------------------------------------------------
# PGM (P5)


def _read_pgm_tokens(data: bytes, n_tokens: int, path) -> tuple[list[bytes], int]:
    """Header tokens (magic, width, height, maxval) skipping comments;
    returns tokens and the offset one whitespace byte past the last one."""
    tokens: list[bytes] = []
    pos = 0
    n = len(data)
    while len(tokens) < n_tokens:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if pos == start:
            raise PgmParseError(f"{path}: unexpected end of header at byte {pos}")
        tokens.append(data[start:pos])
    if pos >= n or not data[pos : pos + 1].isspace():
        raise PgmParseError(f"{path}: missing whitespace after header at byte {pos}")
    return tokens, pos + 1


def _parse_pgm(path) -> tuple[np.ndarray, int]:
    data = Path(path).read_bytes()
    tokens, offset = _read_pgm_tokens(data, 4, path)
    if tokens[0] != b"P5":
        raise PgmParseError(f"{path}: expected binary PGM magic 'P5', got {tokens[0]!r} at byte 0")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise PgmParseError(f"{path}: non-numeric header field before byte {offset}") from None
    if width < 1 or height < 1:
        raise PgmParseError(f"{path}: bad dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise PgmParseError(f"{path}: maxval {maxval} out of range")
    dtype = _sample_dtype(maxval)
    need = width * height * dtype.itemsize
    payload = data[offset : offset + need]
    if len(payload) != need:
        raise PgmParseError(
            f"{path}: expected {need} payload bytes at byte {offset}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(height, width), maxval


def _sample_dtype(maxval: int) -> np.dtype:
    """One byte per sample up to maxval 255, else two, most significant first."""
    return np.dtype(">u2") if maxval > 255 else np.dtype("u1")


def _write_p5(samples: np.ndarray, path, maxval: int) -> None:
    """Write integer-valued samples in 0..maxval as binary PGM."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{samples.shape[1]} {samples.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(samples.astype(_sample_dtype(maxval)).tobytes())


def read_pgm(path) -> np.ndarray:
    """Load a binary PGM as float64 intensities in [0, 1]."""
    raw, maxval = _parse_pgm(path)
    return raw / maxval


def write_pgm(img: np.ndarray, path, maxval: int = 255) -> None:
    """Write [0, 1] intensities as binary PGM. Round-trips 8-bit data exactly."""
    img = np.asarray(img, dtype=np.float64)
    _write_p5(np.clip(np.round(img * maxval), 0, maxval), path, maxval)


def read_mask(path) -> np.ndarray:
    """Load a label mask stored as PGM with literal label values."""
    raw, _ = _parse_pgm(path)
    return raw.astype(np.int64)


def write_mask(mask: np.ndarray, path) -> None:
    """Write labels 0..255 as their literal PGM sample values."""
    mask = np.asarray(mask)
    if not (mask.min() >= 0 and mask.max() <= 255):
        raise ValueError(f"{path}: mask labels must lie in 0..255, got {mask.min()}..{mask.max()}")
    _write_p5(mask, path, 255)


# ---------------------------------------------------------------------------
# manifests


@dataclass
class PairRecord:
    pair_id: str
    ed_image: Path
    es_image: Path
    ed_mask: Path | None
    es_mask: Path | None
    split: str
    spacing_mm: float | None


MANIFEST_HEADER = ["pair_id", "ed_image", "es_image", "ed_mask", "es_mask", "split", "spacing_mm"]


def load_manifest(path) -> list[PairRecord]:
    """Read and validate a pair manifest; paths resolve relative to it."""
    path = Path(path)
    base = path.parent
    records: list[PairRecord] = []
    problems: list[str] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = iter(list(reader))
        except csv.Error as e:
            raise ManifestError(f"{path}: line {reader.line_num}: {e}") from None
        try:
            header = next(rows)
        except StopIteration:
            raise ManifestError(f"{path}: empty file, expected header") from None
        if header != MANIFEST_HEADER:
            raise ManifestError(f"{path}: bad header {header}, expected {MANIFEST_HEADER}")
        for lineno, row in enumerate(rows, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(MANIFEST_HEADER):
                problems.append(f"line {lineno}: expected {len(MANIFEST_HEADER)} fields")
                continue
            pair_id, ed, es, edm, esm, split, spacing = (c.strip() for c in row)
            if pair_id in seen:
                problems.append(f"line {lineno}: duplicate pair_id '{pair_id}'")
                continue
            seen.add(pair_id)
            if split not in SPLITS:
                problems.append(f"line {lineno}: unknown split '{split}'")
                continue
            try:
                spacing_mm = float(spacing) if spacing else None
            except ValueError:
                spacing_mm = math.nan
            if spacing_mm is not None and not 0.0 < spacing_mm < math.inf:
                problems.append(f"line {lineno}: spacing_mm must be a positive number, got {spacing!r}")
                continue
            paths = {"ed_image": base / ed, "es_image": base / es}
            missing = [k for k, p in paths.items() if not p.is_file()]
            mask_paths = {}
            for key, val in (("ed_mask", edm), ("es_mask", esm)):
                if val:
                    p = base / val
                    if not p.is_file():
                        missing.append(key)
                    mask_paths[key] = p
                else:
                    mask_paths[key] = None
            if missing:
                problems.append(f"line {lineno}: missing files {missing}")
                continue
            records.append(
                PairRecord(
                    pair_id=pair_id,
                    ed_image=paths["ed_image"],
                    es_image=paths["es_image"],
                    ed_mask=mask_paths["ed_mask"],
                    es_mask=mask_paths["es_mask"],
                    split=split,
                    spacing_mm=spacing_mm,
                )
            )
    if problems:
        raise ManifestError(f"{path}: " + "; ".join(problems))
    return records


# ---------------------------------------------------------------------------
# resizing


def resize_image(img: np.ndarray, size: int) -> np.ndarray:
    """Corner-aligned bilinear resize to size x size."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if (h, w) == (size, size):
        return img.copy()
    return sample(img, aligned_grid(h, w, size, size)).data


def resize_mask(mask: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbor resize for label masks, read at the corner-aligned
    grid that :func:`resize_image` samples bilinearly."""
    mask = np.asarray(mask)
    h, w = mask.shape
    return sample_nearest(mask, aligned_grid(h, w, size, size))


# ---------------------------------------------------------------------------
# pair containers


@dataclass
class ImagePair:
    pair_id: str
    fix: np.ndarray
    mov: np.ndarray


def _split_records(manifest_path, split: str) -> list[PairRecord]:
    return [rec for rec in load_manifest(manifest_path) if rec.split == split]


def load_image_pairs(manifest_path, split: str, size: int) -> list[ImagePair]:
    """Training-ready (fixed=ED, moving=ES) image pairs from one split."""
    return [
        ImagePair(
            rec.pair_id,
            resize_image(read_pgm(rec.ed_image), size),
            resize_image(read_pgm(rec.es_image), size),
        )
        for rec in _split_records(manifest_path, split)
    ]


def load_eval_pairs(manifest_path, split: str, size: int) -> list[EvalPair]:
    """Evaluation records (images plus masks where present) from one split."""
    return [
        EvalPair(
            pair_id=rec.pair_id,
            ed_image=resize_image(read_pgm(rec.ed_image), size),
            es_image=resize_image(read_pgm(rec.es_image), size),
            ed_mask=resize_mask(read_mask(rec.ed_mask), size) if rec.ed_mask else None,
            es_mask=resize_mask(read_mask(rec.es_mask), size) if rec.es_mask else None,
            spacing_mm=rec.spacing_mm,
        )
        for rec in _split_records(manifest_path, split)
    ]


# ---------------------------------------------------------------------------
# synthetic pairs


@dataclass
class SynthPair:
    fix: np.ndarray
    mov: np.ndarray
    gt_disp: VectorField
    fix_mask: np.ndarray
    mov_mask: np.ndarray


def _ellipse(h: int, w: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return ((gy - cy) / ry) ** 2 + ((gx - cx) / rx) ** 2 <= 1.0


def synth_pair(seed: int, size: int = 64, max_disp: float = 3.0) -> SynthPair:
    """Procedural echo-like pair with a known smooth, folding-free flow.

    The fixed frame is a dark cavity inside a bright myocardial ring plus
    an atrial blob and multiplicative speckle. The moving frame is the
    fixed frame warped by the exponential of a random smooth velocity
    scaled so the displacement peaks near ``max_disp`` pixels. Masks are
    drawn from the generating ellipses and warped consistently.
    """
    if size < 16:
        raise ValueError("synthetic pairs need size >= 16")
    if not 0 <= max_disp < size / 8:
        raise ValueError(f"max_disp must lie in [0, size/8), got {max_disp!r}")
    rng = np.random.default_rng(seed)

    cy = size * rng.uniform(0.42, 0.48)
    cx = size * rng.uniform(0.46, 0.54)
    r_in_y = size * rng.uniform(0.16, 0.20)
    r_in_x = size * rng.uniform(0.13, 0.17)
    r_out_y = r_in_y + size * rng.uniform(0.08, 0.11)
    r_out_x = r_in_x + size * rng.uniform(0.08, 0.11)
    cavity = _ellipse(size, size, cy, cx, r_in_y, r_in_x)
    outer = _ellipse(size, size, cy, cx, r_out_y, r_out_x)
    ring = outer & ~cavity
    at_cy = cy + r_out_y + size * rng.uniform(0.08, 0.12)
    atrium = _ellipse(
        size, size, at_cy, cx, size * rng.uniform(0.08, 0.11), size * rng.uniform(0.10, 0.14)
    )
    atrium &= ~outer

    fix_mask = np.zeros((size, size), dtype=np.int64)
    fix_mask[cavity] = 1
    fix_mask[ring] = 2
    fix_mask[atrium] = 3

    base = np.full((size, size), 0.15)
    base[atrium] = 0.35
    base[ring] = 0.75
    base[cavity] = 0.08
    base = gaussian_blur(base, 1.0)
    speckle = gaussian_blur(rng.normal(0.0, 1.0, size=(size, size)), 1.2)
    speckle = speckle / max(np.abs(speckle).max(), 1e-12)
    fix = np.clip(base * (1.0 + 0.35 * speckle), 0.0, 1.0)

    if max_disp == 0:
        gt = VectorField(np.zeros((2, size, size)), DISPLACEMENT)
        return SynthPair(fix, fix.copy(), gt, fix_mask, fix_mask.copy())

    # two passes so the integrated displacement, not the velocity, peaks at max_disp
    vel_seed = int(rng.integers(0, 2**32))
    vel = random_smooth_velocity(vel_seed, size, size, max_disp, sigma=size / 8.0)
    disp = integrate_svf(vel)
    peak = np.sqrt(disp.array[0] ** 2 + disp.array[1] ** 2).max()
    if peak > 0:
        vel = VectorField(vel.array * (max_disp / peak), "velocity")
        disp = integrate_svf(vel)
    gt = VectorField(disp.array.copy(), DISPLACEMENT)
    mov = np.clip(warp_image(fix, gt).data, 0.0, 1.0)
    mov_mask = warp_mask(fix_mask, gt)
    return SynthPair(fix, mov, gt, fix_mask, mov_mask)


def export_synth_pair(pair: SynthPair, out_dir, pair_id: str, split: str = "train") -> list[str]:
    """Write the five files of a synthetic pair; returns its manifest row.

    The generating flow warps fixed to moving, so in manifest terms the
    fixed frame plays ED and the moving frame ES.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(pair.fix, out_dir / f"{pair_id}_ed.pgm")
    write_pgm(pair.mov, out_dir / f"{pair_id}_es.pgm")
    write_mask(pair.fix_mask, out_dir / f"{pair_id}_ed_mask.pgm")
    write_mask(pair.mov_mask, out_dir / f"{pair_id}_es_mask.pgm")
    write_field(pair.gt_disp, out_dir / f"{pair_id}_gt_disp.prgf")
    return [
        pair_id,
        f"{pair_id}_ed.pgm",
        f"{pair_id}_es.pgm",
        f"{pair_id}_ed_mask.pgm",
        f"{pair_id}_es_mask.pgm",
        split,
        "",
    ]


def write_manifest(rows: list[list[str]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)

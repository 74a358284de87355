"""Evaluation metrics: Dice, Hausdorff and mean surface distance on
label boundaries, Jacobian-determinant statistics in a region of
interest, and nearest-neighbor label-mask warping.

Labels follow the project convention 0 background, 1 left-ventricle
endocardium, 2 myocardium, 3 left atrium. Distances are in pixels at the
evaluation resolution unless a pixel spacing is supplied. A pixel is
folded when its Jacobian determinant is not ``> 0``: zero, negative or
NaN. The fold fraction ``neg_frac`` is the share of folded pixels.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gradcore import DimensionError, no_grad
from .svf import VectorField, identity_grid, jacobian_determinant, sample_nearest

LABEL_NAMES = {1: "lv_endo", 2: "myocardium", 3: "left_atrium"}
MYOCARDIUM = 2
STRUCTURE_LABELS = (1, 2, 3)


class EmptyStructureError(ValueError):
    """A metric that needs boundary pixels got an empty label set."""


def warp_mask(mask: np.ndarray, disp: VectorField) -> np.ndarray:
    """Deform an integer label mask by nearest-neighbor sampling at the
    displaced coordinates (clamp-to-edge). Labels are never blended."""
    mask = np.asarray(mask)
    h, w = mask.shape
    if (h, w) != (disp.height, disp.width):
        raise DimensionError(f"mask {mask.shape} and field {(disp.height, disp.width)} differ")
    return sample_nearest(mask, identity_grid(h, w) + disp.array)


def dice(a: np.ndarray, b: np.ndarray, label: int) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); 1.0 when both sets are empty."""
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    sa = a == label
    sb = b == label
    na, nb = int(sa.sum()), int(sb.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((sa & sb).sum()) / (na + nb)


def boundary_pixels(mask: np.ndarray, label: int) -> np.ndarray:
    """Coordinates [n, 2] (row, col) of label pixels 4-adjacent to a
    non-label pixel or the image border."""
    sel = mask == label
    padded = np.pad(sel, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    boundary = sel & ~interior
    return np.argwhere(boundary)


def surface_distances(
    a: np.ndarray, b: np.ndarray, label: int, spacing: float = 1.0
) -> tuple[float, float]:
    """(Hausdorff, mean surface distance) between the label boundaries.

    Hausdorff is the max of the two directed maxima, MSD the mean of the
    two directed means of nearest-boundary Euclidean distances.
    """
    pa = boundary_pixels(a, label)
    pb = boundary_pixels(b, label)
    if len(pa) == 0 or len(pb) == 0:
        raise EmptyStructureError(f"label {label} has an empty boundary set")
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2).astype(np.float64)
    ab = np.sqrt(d2.min(axis=1))
    ba = np.sqrt(d2.min(axis=0))
    hd = max(ab.max(), ba.max()) * spacing
    msd = 0.5 * (ab.mean() + ba.mean()) * spacing
    return float(hd), float(msd)


@dataclass
class JacobianStats:
    mean: float
    std: float
    min: float
    neg_frac: float

    @classmethod
    def of(cls, values: np.ndarray) -> "JacobianStats":
        """Statistics of determinant values; all NaN when there are none."""
        if values.size == 0:
            return cls(math.nan, math.nan, math.nan, math.nan)
        return cls(
            mean=float(values.mean()),
            std=float(values.std()),
            min=float(values.min()),
            neg_frac=float((~(values > 0)).mean()),
        )


def jacobian_stats(disp: VectorField, roi: np.ndarray, label: int) -> JacobianStats:
    """Jacobian-determinant statistics restricted to ``roi == label``."""
    roi = np.asarray(roi)
    if roi.shape != (disp.height, disp.width):
        raise DimensionError(f"roi {roi.shape} and field {(disp.height, disp.width)} differ")
    return JacobianStats.of(jacobian_determinant(disp)[roi == label])


def endpoint_error(
    estimated: VectorField, reference: VectorField, mask: np.ndarray | None = None
) -> float:
    """Mean Euclidean distance between two displacement fields, optionally
    restricted to mask > 0."""
    d = estimated.array - reference.array
    mag = np.sqrt(d[0] ** 2 + d[1] ** 2)
    if mask is not None:
        mag = mag[np.asarray(mask) > 0]
    return float(mag.mean())


# ---------------------------------------------------------------------------
# pair-level evaluation


@dataclass
class EvalPair:
    """One end-diastole / end-systole case ready for evaluation.

    ``disp_forward`` may hold a precomputed field, letting reports be
    built without a model."""

    pair_id: str
    ed_image: np.ndarray
    es_image: np.ndarray
    ed_mask: np.ndarray | None = None
    es_mask: np.ndarray | None = None
    spacing_mm: float | None = None
    disp_forward: VectorField | None = None


@dataclass
class StructureRow:
    pair_id: str
    structure: str
    dice: float
    hd: float
    msd: float


@dataclass
class EvalReport:
    rows: list[StructureRow] = field(default_factory=list)
    jacobian_rows: list[tuple[str, JacobianStats]] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    pooled_jacobian: list[float] = field(default_factory=list)

    def aggregate(self) -> dict:
        """Per-structure and Jacobian summaries: mean/std/median/quartiles."""
        out: dict = {"structures": {}, "jacobian": {}, "n_pairs": len(self.jacobian_rows)}
        for label_name in sorted({r.structure for r in self.rows}):
            sub = [r for r in self.rows if r.structure == label_name]
            entry = {}
            for metric in ("dice", "hd", "msd"):
                vals = np.array([getattr(r, metric) for r in sub], dtype=np.float64)
                vals = vals[np.isfinite(vals)]
                entry[metric] = _summary(vals)
            out["structures"][label_name] = entry
        stats = [s for _, s in self.jacobian_rows]
        per_patient_mean = np.array([s.mean for s in stats if math.isfinite(s.mean)])
        out["jacobian"]["per_patient_mean"] = _summary(per_patient_mean)
        pooled = np.array(self.pooled_jacobian, dtype=np.float64)
        out["jacobian"]["pooled"] = _summary(pooled)
        neg = np.array([s.neg_frac for s in stats if math.isfinite(s.neg_frac)])
        out["jacobian"]["neg_frac"] = _summary(neg)
        return out

    def write(self, out_dir: Path | str) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair_id", "structure", "dice", "hd", "msd"])
            for r in self.rows:
                writer.writerow([r.pair_id, r.structure, _fmt(r.dice), _fmt(r.hd), _fmt(r.msd)])
        with open(out_dir / "jacobian.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair_id", "jac_mean", "jac_std", "jac_min", "jac_neg_frac"])
            for pair_id, s in self.jacobian_rows:
                writer.writerow([pair_id, _fmt(s.mean), _fmt(s.std), _fmt(s.min), _fmt(s.neg_frac)])
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(self.aggregate(), fh, indent=2, sort_keys=True)
        if self.skipped:
            with open(out_dir / "skipped.log", "w") as fh:
                for pair_id, reason in self.skipped:
                    fh.write(f"{pair_id}: {reason}\n")


def _fmt(x: float) -> str:
    return "nan" if not math.isfinite(x) else f"{x:.6g}"


def _summary(vals: np.ndarray) -> dict:
    if vals.size == 0:
        return {"n": 0}
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    return {
        "n": int(vals.size),
        "mean": float(vals.mean()),
        "std": float(vals.std()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }


def worker_count() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, so a pinned process is not oversubscribed."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_functions(*stems):
    """The functions ``openblas_<stem>`` (``scipy_openblas_<stem>64_`` in
    numpy's wheels) of the OpenBLAS loaded in this process, all from one
    library, or None when there is none to be found (another BLAS, or no
    ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({f for line in fh for f in line.split()[5:] if "openblas" in os.path.basename(f)})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}64_", "openblas_{}"):
            funcs = [getattr(lib, name.format(stem), None) for stem in stems]
            if None not in funcs:
                return funcs
    return None


def _openblas():
    """(get, set) of the thread count of the OpenBLAS loaded in this
    process, or None when there is none to be found."""
    funcs = _openblas_functions("get_num_threads", "set_num_threads")
    if funcs is None:
        return None
    get, set_ = funcs
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def openblas_build() -> tuple[str, str] | None:
    """(version, kernel name) of the OpenBLAS loaded in this process, such
    as ``("0.3.31.188.0", "SkylakeX")``, or None when there is none to be
    found. The kernel is the one chosen at run time (``OPENBLAS_CORETYPE``
    overrides it); float results can differ between kernels."""
    funcs = _openblas_functions("get_config", "get_corename")
    if funcs is None:
        return None
    for f in funcs:
        f.argtypes, f.restype = [], ctypes.c_char_p
    config, core = (f().decode() for f in funcs)
    return config.split()[1], core


# The count is process wide, so blocks that overlap in several threads
# share one cap: the first to open reads the count, the last to close
# restores it.
_blas_lock = threading.Lock()
_blas_open = 0
_blas_before = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Cap OpenBLAS at one thread for the block, then restore the count it
    had, also when the block raises. A no-op without OpenBLAS."""
    global _blas_open, _blas_before
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_open == 0:
            _blas_before = get()
            set_(1)
        _blas_open += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_open -= 1
            if _blas_open == 0:
                set_(_blas_before)


def evaluate_pairs(model, pairs: list[EvalPair], threads: int | None = None) -> EvalReport:
    """Register each pair (end-systole moving onto end-diastole fixed),
    warp the moving mask, and collect per-structure and Jacobian metrics.

    ``model`` may be None when every pair carries a precomputed
    ``disp_forward``. Pairs without masks are skipped with a logged
    reason. Per-pair work runs on a thread pool of ``threads`` workers
    (default :func:`worker_count`), at most one per pair. Each worker
    computes the forward field only, without a graph.

    With more than one worker, OpenBLAS is capped at one thread while the
    pool runs, so each worker runs one pair on one core instead of every
    product being shared out among workers × cores BLAS threads; the
    previous count is restored when the pool ends, also when a worker
    raises. A build without OpenBLAS (MKL, Accelerate) is left as it is.
    On 2 cores this took the benchmark's infer-mlp ``evaluate`` from 9.7
    to 12.2 pairs/s (medians of 10 runs each, ``CHANGES.md``).
    """
    if threads is None:
        threads = worker_count()
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    workers = min(threads, len(pairs))

    def one(pair: EvalPair):
        """(structure rows, Jacobian stats, determinants), or a skip reason."""
        if pair.ed_mask is None or pair.es_mask is None:
            return "missing mask"
        if pair.disp_forward is not None:
            disp = pair.disp_forward
        elif model is not None:
            with no_grad():
                disp = model.displacement(model.fused_velocity(pair.ed_image, pair.es_image))
        else:
            return "no model and no precomputed field"
        warped = warp_mask(pair.es_mask, disp)
        spacing = pair.spacing_mm if pair.spacing_mm else 1.0
        rows = []
        for label in STRUCTURE_LABELS:
            d = dice(pair.ed_mask, warped, label)
            try:
                hd, msd = surface_distances(pair.ed_mask, warped, label, spacing)
            except EmptyStructureError:
                hd, msd = math.nan, math.nan
            rows.append(StructureRow(pair.pair_id, LABEL_NAMES[label], d, hd, msd))
        # dice checked ed_mask against the field's shape
        values = jacobian_determinant(disp)[np.asarray(pair.ed_mask) == MYOCARDIUM]
        return rows, JacobianStats.of(values), values

    report = EvalReport()
    scope = _one_blas_thread() if workers > 1 else contextlib.nullcontext()
    with scope, ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        outcomes = list(pool.map(one, pairs))
    for pair, outcome in zip(pairs, outcomes):
        if isinstance(outcome, str):
            report.skipped.append((pair.pair_id, outcome))
            continue
        rows, stats, values = outcome
        report.rows.extend(rows)
        report.jacobian_rows.append((pair.pair_id, stats))
        report.pooled_jacobian.extend(values.tolist())
    return report

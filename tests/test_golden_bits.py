"""Bits of one seeded training pair per shipped preset, against the file
``scripts/golden_bits.py`` writes (``tests/data/golden_bits.json``).

On the numpy version, OpenBLAS version and kernel the file was recorded
with, every array must hash the same: the loss, every parameter gradient
and the ``no_grad`` ``register`` fields. BLAS kernels round products
differently, so on any other key the float64 summaries are compared
instead, to ``RTOL`` of each array's scale. That scale is the array's
rms, but at least ``FLOOR`` times the largest rms of its kind (loss,
gradients, register fields) in the case: a gradient that is zero in
exact arithmetic (the key bias behind a softmax) holds rounding noise
only. Between the ``SkylakeX``, ``Haswell`` and ``Sandybridge`` kernels
of OpenBLAS 0.3.31 the largest deviation measured in these units was
4.5e-6 in float32 and 1.3e-14 in float64.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from patchreg import metrics

from shared import load_script

RTOL = {"float32": 1e-4, "float64": 1e-9}
FLOOR = 1e-3

golden_bits = load_script("golden_bits")
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_bits.json").read_text())


def test_golden_file_covers_every_case():
    assert tuple(GOLDEN["cases"]) == golden_bits.CASES
    assert GOLDEN["pair_seed"] == golden_bits.PAIR_SEED


def _scales(records):
    """Per array: max(rms, FLOOR * largest rms of the same kind)."""
    rms = [math.sqrt(r["sumsq"] / r["size"]) for r in records]
    kind = [r["label"].split(":")[0] for r in records]
    largest = {k: max(x for x, kk in zip(rms, kind) if kk == k) for k in set(kind)}
    return [max(x, FLOOR * largest[k]) for x, k in zip(rms, kind)]


@pytest.mark.parametrize("case", golden_bits.CASES)
def test_pair_bits_match_the_golden_file(case):
    recorded = GOLDEN["cases"][case]
    arrays = golden_bits.case_arrays(case)
    assert [label for label, _ in arrays] == [r["label"] for r in recorded]
    if golden_bits.blas_key() == GOLDEN["key"]:
        changed = [label for (label, a), r in zip(arrays, recorded) if golden_bits.digest(a) != r["sha256"]]
        assert not changed, f"{len(changed)} of {len(arrays)} arrays changed bits, first: {changed[:5]}"
        return
    _assert_within_rounding(case, arrays, recorded)


def _assert_within_rounding(case, arrays, recorded):
    """Each array's float64 summary is the recorded one to ``RTOL`` of its scale."""
    rtol = RTOL[case.split("/")[1]]
    for (label, a), r, scale in zip(arrays, recorded, _scales(recorded)):
        now = golden_bits.summary(a)
        assert now["size"] == r["size"], label
        tol = rtol * scale
        assert abs(now["sum"] - r["sum"]) <= tol * r["size"], (label, "sum", now["sum"], r["sum"])
        rms_now, rms_then = (math.sqrt(s["sumsq"] / s["size"]) for s in (now, r))
        assert abs(rms_now - rms_then) <= tol, (label, "rms", rms_now, rms_then)
        for (i, got), (j, want) in zip(now["entries"], r["entries"]):
            assert i == j and abs(got - want) <= tol, (label, i, got, want)


def test_summary_bound_separates_kernel_noise_from_a_wrong_value():
    # the summary branch accepts a last-bit change and rejects a 1e-3 one
    case = "pure_mlp_desk/float32"
    recorded = GOLDEN["cases"][case]
    scales = _scales(recorded)
    label, a = golden_bits.case_arrays(case)[1]
    r, scale = recorded[1], scales[1]
    tol = RTOL["float32"] * scale
    ulp = golden_bits.summary(np.nextafter(a, np.inf))
    off = golden_bits.summary(a + np.float32(1e-3 * scale))
    assert all(abs(e - w) <= tol for (_, e), (_, w) in zip(ulp["entries"], r["entries"])), label
    assert any(abs(e - w) > tol for (_, e), (_, w) in zip(off["entries"], r["entries"])), label


def test_bits_do_not_depend_on_the_blas_thread_count():
    """``evaluate_pairs`` registers on one BLAS thread; ``register`` and
    ``train`` use every core. On the recorded key every array keeps its
    bits. Elsewhere OpenBLAS may not: the Haswell kernel's sgemm changes
    bits with the thread count, so there the summaries must agree to the
    rounding bound."""
    case = "swin_trans_s/float32"
    free = golden_bits.case_arrays(case)
    with metrics._one_blas_thread():
        capped = golden_bits.case_arrays(case)
    assert [label for label, _ in capped] == [label for label, _ in free]
    if golden_bits.blas_key() == GOLDEN["key"]:
        changed = [label for (label, a), (_, b) in zip(free, capped) if golden_bits.digest(a) != golden_bits.digest(b)]
        assert not changed, f"{len(changed)} of {len(free)} arrays changed bits, first: {changed[:5]}"
        return
    _assert_within_rounding(case, capped, [{"label": label, **golden_bits.summary(a)} for label, a in free])

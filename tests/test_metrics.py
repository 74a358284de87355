"""Metric oracles: brute-force surface distances, hand-counted overlaps,
analytic Jacobian cases, and the evaluation report plumbing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchreg import dataio, metrics, models
from patchreg.metrics import (
    EmptyStructureError,
    EvalPair,
    JacobianStats,
    boundary_pixels,
    dice,
    endpoint_error,
    evaluate_pairs,
    jacobian_stats,
    surface_distances,
    warp_mask,
)
from patchreg.svf import DISPLACEMENT, VectorField, identity_grid, integrate_svf, random_smooth_velocity

from shared import brute_force_surface, random_mask


def const_disp(h, w, dx, dy):
    arr = np.zeros((2, h, w))
    arr[0], arr[1] = dx, dy
    return VectorField(arr, DISPLACEMENT)


# ---------------------------------------------------------------------------
# warp_mask


def test_warp_mask_zero_displacement_identity():
    mask = random_mask(0)
    out = warp_mask(mask, const_disp(24, 24, 0.0, 0.0))
    assert np.array_equal(out, mask)


def test_warp_mask_integer_translation_matches_index_shift():
    mask = random_mask(1)
    out = warp_mask(mask, const_disp(24, 24, 2.0, 0.0))
    assert np.array_equal(out[:, : 24 - 2], mask[:, 2:])


def test_warp_mask_never_invents_labels():
    mask = random_mask(2)
    mask[5:9, 5:9] = 2
    mask[12:15, 12:15] = 3
    in_labels = set(np.unique(mask))
    for seed in range(100):
        disp = VectorField(random_smooth_velocity(seed, 24, 24, 3.0).array, DISPLACEMENT)
        out = warp_mask(mask, disp)
        assert set(np.unique(out)) <= in_labels


# ---------------------------------------------------------------------------
# dice


def test_dice_identical_masks():
    mask = random_mask(3)
    assert dice(mask, mask.copy(), 1) == 1.0


def test_dice_disjoint_sets():
    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[:2, :2] = 1
    b[5:, 5:] = 1
    assert dice(a, b, 1) == 0.0


def test_dice_hand_counted_half():
    a = np.zeros((6, 6), dtype=int)
    b = np.zeros((6, 6), dtype=int)
    a[2:4, 2:4] = 1  # 4 pixels
    b[2:4, 3:5] = 1  # shifted one column, overlap 2
    assert dice(a, b, 1) == 0.5


def test_dice_both_empty_is_one():
    z = np.zeros((5, 5), dtype=int)
    assert dice(z, z, 1) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_dice_symmetric(seed):
    a, b = random_mask(seed), random_mask(seed + 777)
    assert dice(a, b, 1) == dice(b, a, 1)


# ---------------------------------------------------------------------------
# surface distances


def test_surface_distance_identical_masks():
    mask = random_mask(4)
    hd, msd = surface_distances(mask, mask.copy(), 1)
    assert hd == 0.0 and msd == 0.0


def test_surface_distance_three_four_five():
    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[0, 0] = 1
    b[3, 4] = 1
    hd, msd = surface_distances(a, b, 1)
    assert hd == 5.0 and msd == 5.0


@pytest.mark.parametrize("seed", range(25))
def test_surface_distance_matches_brute_force(seed):
    a, b = random_mask(seed + 50), random_mask(seed + 150)
    if not (a == 1).any() or not (b == 1).any():
        pytest.skip("degenerate draw")
    hd, msd = surface_distances(a, b, 1)
    ref_hd, ref_msd = brute_force_surface(a, b, 1)
    assert hd == pytest.approx(ref_hd, abs=0)
    assert msd == pytest.approx(ref_msd, rel=1e-12)


def test_surface_distance_empty_set_raises():
    a = np.zeros((5, 5), dtype=int)
    b = np.zeros((5, 5), dtype=int)
    b[2, 2] = 1
    with pytest.raises(EmptyStructureError):
        surface_distances(a, b, 1)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_hd_at_least_msd_at_least_zero(seed):
    a, b = random_mask(seed), random_mask(seed + 31)
    if not (a == 1).any() or not (b == 1).any():
        return
    hd, msd = surface_distances(a, b, 1)
    assert hd >= msd >= 0.0


def test_boundary_includes_image_border():
    mask = np.ones((4, 4), dtype=int)
    pts = boundary_pixels(mask, 1)
    assert len(pts) == 12  # border ring of a 4x4 block


# ---------------------------------------------------------------------------
# jacobian stats


def test_jacobian_stats_zero_field():
    roi = np.ones((10, 10), dtype=int)
    s = jacobian_stats(const_disp(10, 10, 0, 0), roi, 1)
    assert s.mean == pytest.approx(1.0)
    assert s.std == pytest.approx(0.0)
    assert s.min == pytest.approx(1.0)
    assert s.neg_frac == 0.0


def test_jacobian_stats_linear_expansion():
    h = w = 16
    grid = identity_grid(h, w)
    disp = VectorField(0.1 * grid.copy(), DISPLACEMENT)
    roi = np.zeros((h, w), dtype=int)
    roi[3:-3, 3:-3] = 2
    s = jacobian_stats(disp, roi, 2)
    assert s.mean == pytest.approx(1.21, abs=1e-3)


def test_jacobian_stats_empty_roi_is_undefined():
    s = jacobian_stats(const_disp(8, 8, 0, 0), np.zeros((8, 8), dtype=int), 2)
    assert all(math.isnan(v) for v in dataclasses.astuple(s))


def test_jacobian_stats_counts_a_nan_determinant_as_folded():
    disp = const_disp(8, 8, 0, 0)
    disp.array[0, 3, 3] = np.nan  # np.gradient spreads it to the 4-neighbours
    s = jacobian_stats(disp, np.ones((8, 8), dtype=int), 1)
    assert s.neg_frac == 4 / 64
    assert math.isnan(s.mean) and math.isnan(s.min)


def test_jacobian_stats_fold_fraction_bits_on_finite_values():
    values = np.random.default_rng(0).normal(1.0, 0.8, size=1000)
    assert JacobianStats.of(values).neg_frac == float((values <= 0).mean())


def test_endpoint_error_on_foreground():
    a = const_disp(8, 8, 1.0, 0.0)
    b = const_disp(8, 8, 0.0, 0.0)
    mask = np.zeros((8, 8), dtype=int)
    mask[2:4, 2:4] = 1
    assert endpoint_error(a, b, mask) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate_pairs


@pytest.fixture(scope="module")
def zero_model():
    return models.init_model(models.preset("pure_mlp_desk"))


def identity_eval_pairs(n):
    out = []
    for i in range(n):
        p = dataio.synth_pair(i, size=64, max_disp=0.0)
        out.append(EvalPair(f"pair{i}", p.fix, p.fix.copy(), p.fix_mask, p.fix_mask.copy()))
    return out


def test_identity_pairs_give_perfect_dice(zero_model):
    report = evaluate_pairs(zero_model, identity_eval_pairs(3), threads=1)
    assert len(report.jacobian_rows) == 3
    assert all(r.dice == 1.0 for r in report.rows)
    assert all(r.hd == 0.0 and r.msd == 0.0 for r in report.rows)


def test_report_row_count_matches_pairs(zero_model):
    pairs = identity_eval_pairs(4)
    report = evaluate_pairs(zero_model, pairs, threads=2)
    assert len(report.jacobian_rows) == len(pairs)
    assert len(report.rows) == 3 * len(pairs)
    assert [pair_id for pair_id, _ in report.jacobian_rows] == [p.pair_id for p in pairs]


def test_missing_mask_pairs_are_skipped(zero_model):
    pairs = identity_eval_pairs(2)
    pairs[1].es_mask = None
    report = evaluate_pairs(zero_model, pairs, threads=1)
    assert len(report.jacobian_rows) == 1
    assert report.skipped == [("pair1", "missing mask")]


def test_surface_distances_spacing_converts_units():
    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[0, 0] = 1
    b[3, 4] = 1
    hd, msd = surface_distances(a, b, 1, spacing=0.5)
    assert hd == 2.5 and msd == 2.5


def test_report_write_and_aggregate(tmp_path, zero_model):
    report = evaluate_pairs(zero_model, identity_eval_pairs(3), threads=1)
    report.write(tmp_path)
    assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == "pair_id,structure,dice,hd,msd"
    assert (
        tmp_path / "jacobian.csv"
    ).read_text().splitlines()[0] == "pair_id,jac_mean,jac_std,jac_min,jac_neg_frac"
    agg = report.aggregate()
    assert agg["n_pairs"] == 3
    assert agg["structures"]["myocardium"]["dice"]["mean"] == 1.0
    assert agg["jacobian"]["per_patient_mean"]["median"] == pytest.approx(1.0)
    assert {"mean", "std", "median", "q1", "q3"} <= set(
        agg["structures"]["lv_endo"]["hd"].keys()
    )


def test_worker_count_is_the_affinity_mask(monkeypatch):
    import os

    from patchreg.metrics import worker_count

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 8


# ---------------------------------------------------------------------------
# evaluate_pairs: forward field only, one BLAS thread per worker


@pytest.fixture(scope="module")
def random_model():
    return models.init_model(models.preset("pure_mlp_desk"), head_init="random")


def moving_eval_pairs(n):
    out = []
    for i in range(n):
        p = dataio.synth_pair(20 + i, size=64, max_disp=2.0)
        out.append(EvalPair(f"pair{i}", p.fix, p.mov, p.fix_mask, p.mov_mask))
    return out


def report_fields(report):
    return (
        [dataclasses.astuple(r) for r in report.rows],
        [(pair_id, dataclasses.astuple(s)) for pair_id, s in report.jacobian_rows],
        report.skipped,
        report.pooled_jacobian,
    )


def test_evaluate_pairs_integrates_the_forward_field_only(random_model, monkeypatch):
    pairs = moving_eval_pairs(2)
    integrations = []
    warped_by = {}

    def counting_integrate(v, *args, **kwargs):
        integrations.append(v.kind)
        return integrate_svf(v, *args, **kwargs)

    def recording_warp(mask, disp):
        warped_by[id(mask)] = disp.array
        return warp_mask(mask, disp)

    monkeypatch.setattr(models, "integrate_svf", counting_integrate)
    monkeypatch.setattr(metrics, "warp_mask", recording_warp)
    evaluate_pairs(random_model, pairs, threads=1)
    assert len(integrations) == len(pairs)
    for p in pairs:
        expected = random_model.register(p.ed_image, p.es_image).disp_forward.array
        assert np.array_equal(warped_by[id(p.es_mask)], expected)


def test_evaluate_pairs_reports_the_same_at_one_and_two_threads(random_model, monkeypatch):
    pairs = moving_eval_pairs(3)
    one = report_fields(evaluate_pairs(random_model, pairs, threads=1))
    np.testing.assert_equal(report_fields(evaluate_pairs(random_model, pairs, threads=2)), one)
    monkeypatch.setattr(metrics, "_openblas", lambda: None)
    np.testing.assert_equal(report_fields(evaluate_pairs(random_model, pairs, threads=2)), one)


def test_evaluate_pairs_caps_blas_only_for_a_pool_of_several_workers(zero_model, monkeypatch):
    counts = []
    monkeypatch.setattr(metrics, "_openblas", lambda: (lambda: 4, counts.append))
    evaluate_pairs(zero_model, identity_eval_pairs(2), threads=1)
    evaluate_pairs(zero_model, identity_eval_pairs(1), threads=4)
    assert counts == []
    evaluate_pairs(zero_model, identity_eval_pairs(2), threads=2)
    assert counts == [1, 4]


def test_overlapping_blas_caps_restore_the_count_when_the_last_one_closes(monkeypatch):
    count = [3]
    monkeypatch.setattr(metrics, "_openblas", lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    first, second = metrics._one_blas_thread(), metrics._one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert count == [1]
    first.__exit__(None, None, None)
    assert count == [1]
    second.__exit__(None, None, None)
    assert count == [3]


@pytest.fixture()
def openblas():
    blas = metrics._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can find")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)


def test_evaluate_pairs_restores_the_blas_thread_count(zero_model, openblas):
    before = openblas()
    evaluate_pairs(zero_model, identity_eval_pairs(2), threads=2)
    assert openblas() == before


def test_evaluate_pairs_restores_the_blas_thread_count_when_a_worker_raises(zero_model, openblas, monkeypatch):
    before = openblas()
    seen = []

    def failing(v):
        seen.append(openblas())
        raise RuntimeError("worker failed")

    monkeypatch.setattr(zero_model, "displacement", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        evaluate_pairs(zero_model, identity_eval_pairs(2), threads=2)
    assert seen and set(seen) == {1}
    assert openblas() == before


def test_evaluate_pairs_rejects_a_thread_count_below_one(zero_model):
    with pytest.raises(ValueError, match="threads must be a positive integer"):
        evaluate_pairs(zero_model, identity_eval_pairs(1), threads=0)

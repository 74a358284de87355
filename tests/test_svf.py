"""Field machinery: exponentiation, composition, warping, resampling,
Jacobians, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchreg.gradcore import DimensionError, Tensor, as_tensor, backward, sum_all, mul
from patchreg.svf import (
    DISPLACEMENT,
    VELOCITY,
    FieldKindError,
    VectorField,
    aligned_grid,
    compose_displacements,
    identity_grid,
    integrate_svf,
    jacobian_determinant,
    mean_interior_magnitude,
    random_smooth_velocity,
    read_field,
    resample_field,
    sample,
    sample_nearest,
    warp_image,
    write_field,
)


def const_field(h, w, dx, dy, kind=DISPLACEMENT):
    arr = np.zeros((2, h, w))
    arr[0] = dx
    arr[1] = dy
    return VectorField(arr, kind)


def interior(arr, margin):
    return arr[..., margin:-margin, margin:-margin]


# ---------------------------------------------------------------------------
# integrate_svf


def test_exp_of_zero_is_identity_exactly():
    u = integrate_svf(const_field(16, 16, 0.0, 0.0, VELOCITY))
    assert np.array_equal(u.array, np.zeros((2, 16, 16)))
    assert u.kind == DISPLACEMENT


@pytest.mark.parametrize("dx,dy", [(2.0, 0.0), (-1.5, 2.0), (0.3, -0.7)])
def test_exp_of_constant_field_is_translation(dx, dy):
    u = integrate_svf(const_field(32, 32, dx, dy, VELOCITY))
    margin = int(np.ceil(max(abs(dx), abs(dy)))) + 1
    assert np.allclose(interior(u.array[0], margin), dx, atol=1e-5)
    assert np.allclose(interior(u.array[1], margin), dy, atol=1e-5)


def test_exp_rejects_displacement_kind():
    with pytest.raises(FieldKindError):
        integrate_svf(const_field(8, 8, 0.0, 0.0, DISPLACEMENT))


def test_exp_self_convergence_7_vs_9_steps():
    # smoothing scale size/4: feature size of organ-scale motion on this grid
    for seed in range(5):
        v = random_smooth_velocity(seed, 32, 32, 2.0, sigma=8.0)
        u7 = integrate_svf(v, steps=7).array
        u9 = integrate_svf(v, steps=9).array
        assert np.abs(u7 - u9).max() < 1e-3


def test_exp_group_property_on_constant_field():
    v = const_field(32, 32, 0.8, -0.5, VELOCITY)
    once = integrate_svf(v)
    twice = compose_displacements(once, once)
    doubled = integrate_svf(const_field(32, 32, 1.6, -1.0, VELOCITY))
    assert np.allclose(interior(twice.array, 4), interior(doubled.array, 4), atol=1e-4)


def test_exp_inverse_consistency_sample():
    for seed in range(10):
        v = random_smooth_velocity(seed, 32, 32, 2.0)
        fwd = integrate_svf(v)
        bwd = integrate_svf(VectorField(-v.array, VELOCITY))
        residual = compose_displacements(bwd, fwd)
        assert mean_interior_magnitude(residual, margin=4) < 0.05


def test_exp_is_differentiable():
    v = random_smooth_velocity(3, 16, 16, 1.5)
    vt = Tensor(v.array)
    u = integrate_svf(VectorField(vt, VELOCITY))
    backward(sum_all(mul(u.data, u.data)))
    assert np.abs(vt.grad).sum() > 0


# ---------------------------------------------------------------------------
# compose_displacements


def test_compose_zero_outer_returns_inner_exactly():
    inner = VectorField(np.random.default_rng(0).normal(size=(2, 12, 12)) * 0.5, DISPLACEMENT)
    w = compose_displacements(const_field(12, 12, 0.0, 0.0), inner)
    assert np.array_equal(w.array, inner.array)


def test_compose_zero_inner_returns_outer_exactly():
    outer = VectorField(np.random.default_rng(1).normal(size=(2, 12, 12)) * 0.5, DISPLACEMENT)
    w = compose_displacements(outer, const_field(12, 12, 0.0, 0.0))
    assert np.array_equal(w.array, outer.array)


def test_compose_translations_add():
    w = compose_displacements(const_field(16, 16, 1.0, 0.0), const_field(16, 16, 0.0, 1.0))
    assert np.allclose(interior(w.array[0], 3), 1.0, atol=1e-12)
    assert np.allclose(interior(w.array[1], 3), 1.0, atol=1e-12)


def test_compose_size_mismatch():
    with pytest.raises(DimensionError):
        compose_displacements(const_field(8, 8, 0, 0), const_field(8, 9, 0, 0))


def test_compose_requires_displacements():
    with pytest.raises(FieldKindError):
        compose_displacements(const_field(8, 8, 0, 0, VELOCITY), const_field(8, 8, 0, 0))


# ---------------------------------------------------------------------------
# warp_image


def test_warp_zero_displacement_bit_exact():
    img = np.random.default_rng(2).uniform(size=(16, 16))
    out = warp_image(img, const_field(16, 16, 0.0, 0.0))
    assert np.array_equal(out.data, img)


def test_warp_translates_linear_ramp_exactly():
    w = 16
    img = np.tile(np.arange(w) / (w - 1.0), (w, 1))
    out = warp_image(img, const_field(w, w, 1.0, 0.0))
    expected = (np.arange(w - 1) + 1) / (w - 1.0)
    assert np.allclose(out.data[:, : w - 1], np.tile(expected, (w, 1)), atol=1e-12)


def test_warp_affine_image_exact_under_translation():
    # bilinear reproduces affine functions away from a 1-pixel border
    h = w = 20
    gy, gx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    img = (0.3 * gx + 0.2 * gy + 3.0) / 20.0
    disp = const_field(h, w, 0.6, -0.4)
    out = warp_image(img, disp).data
    expected = (0.3 * (gx + 0.6) + 0.2 * (gy - 0.4) + 3.0) / 20.0
    assert np.allclose(out[1:-1, 1:-1], expected[1:-1, 1:-1], atol=1e-12)


def test_warp_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(16, 16))
    disp = random_smooth_velocity(5, 16, 16, 2.0).array  # used as displacement values

    img_t = Tensor(img)
    disp_t = Tensor(disp)

    def build():
        out = warp_image(img_t, VectorField(disp_t, DISPLACEMENT))
        r = np.random.default_rng(9).normal(size=(16, 16))
        return sum_all(mul(out, Tensor(r)))

    loss = build()
    backward(loss)
    an_img = img_t.grad.copy()
    an_disp = disp_t.grad.copy()

    worst = 0.0
    for t, an in ((img_t, an_img), (disp_t, an_disp)):
        for idx in np.random.default_rng(6).integers(0, t.size, size=25):
            orig = t.data.flat[idx]
            t.data.flat[idx] = orig + 1e-6
            fp = build().item()
            t.data.flat[idx] = orig - 1e-6
            fm = build().item()
            t.data.flat[idx] = orig
            fd = (fp - fm) / 2e-6
            worst = max(worst, abs(fd - an.flat[idx]) / max(abs(fd), abs(an.flat[idx]), 1e-5))
    assert worst < 1e-4


def test_warp_constant_image_gives_the_same_displacement_gradient():
    # a numpy image is a constant with no image gradient; the
    # displacement gradient must be the one a Tensor image gives
    rng = np.random.default_rng(4)
    disp = random_smooth_velocity(5, 16, 16, 2.0).array
    for shape in ((16, 16), (3, 16, 16)):
        img = rng.uniform(size=shape)
        r = Tensor(rng.normal(size=shape))
        grads = []
        for image in (img, Tensor(img)):
            disp_t = Tensor(disp.copy())
            backward(sum_all(mul(warp_image(image, VectorField(disp_t, DISPLACEMENT)), r)))
            grads.append(disp_t.grad)
        assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sample_reads_a_2d_image_as_one_channel(dtype):
    # [h, w] and [1, 1, h, w] through sample give the bytes of [1, h, w]:
    # value, image gradient and displacement gradient
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(12, 10)).astype(dtype)
    grid = identity_grid(9, 11, dtype) * np.array([0.9, 1.3], dtype).reshape(2, 1, 1)
    disp = rng.normal(size=(2, 9, 11)).astype(dtype)
    r = rng.normal(size=(9, 11)).astype(dtype)
    runs = []
    for image, weight in ((img, r), (img[None], r[None]), (img[None, None], r[None, None])):
        img_t, disp_t = Tensor(image.copy()), Tensor(disp.copy())
        out = sample(img_t, grid, disp_t)
        backward(sum_all(mul(out, Tensor(weight))))
        runs.append((out.data.tobytes(), img_t.grad.tobytes(), disp_t.grad.tobytes()))
        assert out.shape == image.shape[:-2] + (9, 11) and img_t.grad.shape == image.shape
    assert runs[0] == runs[1] == runs[2]


def test_warp_size_mismatch():
    with pytest.raises(DimensionError):
        warp_image(np.zeros((8, 8)), const_field(9, 8, 0, 0))


def test_warp_multichannel():
    img = np.random.default_rng(7).uniform(size=(3, 10, 10))
    out = warp_image(img, const_field(10, 10, 0.0, 0.0))
    assert np.array_equal(out.data, img)


# ---------------------------------------------------------------------------
# resample_field


def test_resample_same_size_unchanged():
    f = VectorField(np.random.default_rng(8).normal(size=(2, 12, 12)), DISPLACEMENT)
    out = resample_field(f, 12, 12)
    assert np.allclose(out.array, f.array, atol=1e-12)


def test_resample_constant_unit_conversion():
    f = const_field(32, 32, 1.0, 1.0)
    out = resample_field(f, 128, 128)
    assert out.array.shape == (2, 128, 128)
    assert np.allclose(out.array, 4.0, atol=1e-6)


def test_resample_linear_field_round_trip():
    h = w = 17
    gy, gx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    arr = np.stack([0.1 * gx + 0.02 * gy, 0.05 * gx])
    f = VectorField(arr, DISPLACEMENT)
    up = resample_field(f, 2 * h - 1, 2 * w - 1)
    down = resample_field(up, h, w)
    assert np.allclose(interior(down.array, 1), interior(arr, 1), atol=1e-5)


def test_resample_is_differentiable():
    t = Tensor(np.random.default_rng(9).normal(size=(2, 8, 8)))
    out = resample_field(VectorField(t, VELOCITY), 16, 16)
    backward(sum_all(out.data))
    assert np.abs(t.grad).sum() > 0


def central_differences(build, t: Tensor, step=1e-6) -> np.ndarray:
    """d build() / d t for every entry of ``t``, by float64 central differences."""
    fd = np.zeros_like(t.data)
    for idx in range(t.size):
        orig = t.data.flat[idx]
        t.data.flat[idx] = orig + step
        fp = build().item()
        t.data.flat[idx] = orig - step
        fm = build().item()
        t.data.flat[idx] = orig
        fd.flat[idx] = (fp - fm) / (2 * step)
    return fd


@pytest.mark.parametrize("new_h,new_w", [(11, 17), (4, 5)], ids=["up", "down"])
def test_resample_gradients_match_finite_differences(new_h, new_w):
    rng = np.random.default_rng(12)
    t = Tensor(rng.normal(size=(2, 6, 9)))
    r = Tensor(rng.normal(size=(2, new_h, new_w)))

    def build():
        return sum_all(mul(resample_field(VectorField(t, VELOCITY), new_h, new_w).data, r))

    backward(build())
    assert np.allclose(t.grad, central_differences(build, t), rtol=1e-6, atol=1e-8)


def test_sample_gradients_vanish_where_coordinates_clamp():
    rng = np.random.default_rng(13)
    img = Tensor(rng.uniform(size=(2, 6, 7)))
    grid = identity_grid(5, 8)
    # offsets reach up to 4 px past every edge of the 6x7 image
    disp = Tensor(rng.uniform(-4.0, 4.0, size=(2, 5, 8)))
    r = Tensor(rng.normal(size=(2, 5, 8)))

    def build():
        return sum_all(mul(sample(img, grid, disp), r))

    backward(build())
    x, y = grid + disp.data
    clamped_x = (x <= 0) | (x >= 6)
    clamped_y = (y <= 0) | (y >= 5)
    assert clamped_x.any() and clamped_y.any() and not (clamped_x & clamped_y).all()
    assert np.all(disp.grad[0][clamped_x] == 0.0)
    assert np.all(disp.grad[1][clamped_y] == 0.0)
    assert np.allclose(disp.grad, central_differences(build, disp), rtol=1e-5, atol=1e-8)
    assert np.allclose(img.grad, central_differences(build, img), rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# sample against the clip-and-fancy-index formula it replaced (bit-exact oracle)


def oracle_sample(im, grid, disp, g):
    """Output, image gradient and disp gradient for upstream ``g``, by the
    earlier formula: np.clip cells, 2-index gathers, stacked weights."""
    c, h, w = im.shape
    x, y = grid
    if disp is not None:
        x, y = x + disp[0], y + disp[1]
        inside_x = (x > 0.0) & (x < w - 1.0)
        inside_y = (y > 0.0) & (y < h - 1.0)

    def cell(coord, n):
        clamped = np.clip(coord, 0.0, n - 1.0)
        with np.errstate(invalid="ignore"):  # a NaN coordinate casts to the lowest intp
            lo = np.clip(np.floor(clamped).astype(np.intp), 0, max(n - 2, 0))
        return lo, (clamped - lo).astype(im.dtype)

    x0, fx = cell(x, w)
    y0, fy = cell(y, h)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    data = (
        (1 - fy) * (1 - fx) * im[:, y0, x0]
        + (1 - fy) * fx * im[:, y0, x1]
        + fy * (1 - fx) * im[:, y1, x0]
        + fy * fx * im[:, y1, x1]
    )
    corners = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])[:, None]
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])[:, None]
    flat = corners + (h * w) * np.arange(c).reshape(c, 1, 1)
    gi = np.bincount(flat.ravel(), (weights * g).ravel(), minlength=c * h * w)
    gi = gi.reshape(c, h, w).astype(im.dtype)
    gd = None
    if disp is not None:
        i00, i10 = im[:, y0, x0], im[:, y0, x1]
        i01, i11 = im[:, y1, x0], im[:, y1, x1]
        ddx = ((1 - fy) * (i10 - i00) + fy * (i11 - i01)) * g
        ddy = ((1 - fx) * (i01 - i00) + fx * (i11 - i10)) * g
        gd = np.stack([ddx.sum(axis=0) * inside_x, ddy.sum(axis=0) * inside_y]).astype(disp.dtype)
    return data, gi, gd


def edge_grid(h, w, dtype):
    """Coordinates on 0 and n-1, just inside them, and beyond both."""
    xs = np.array([-2.5, -1.0, 0.0, 0.25, w - 2.0, w - 1.0, w - 0.75, w + 3.0])
    ys = np.array([-4.0, 0.0, 0.5, h - 1.5, h - 1.0, h + 0.5])
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([gx, gy]).astype(dtype)


def sampler_case(name, dtype, rng):
    """(image shape, grid, disp or None) for one case of the oracle test."""
    if name == "identity":
        return (9, 11), identity_grid(9, 11, dtype), rng.uniform(-3.0, 3.0, size=(2, 9, 11))
    if name == "upsample":
        return (5, 6), aligned_grid(5, 6, 13, 17, dtype), rng.uniform(-1.0, 1.0, size=(2, 13, 17))
    if name == "downsample":
        return (12, 10), aligned_grid(12, 10, 5, 4, dtype), None
    if name == "edges":
        return (6, 7), edge_grid(6, 7, dtype), None
    if name == "onto_edges":
        # the displaced coordinate lands exactly on 0 and n-1
        grid = identity_grid(5, 6, dtype)
        disp = np.zeros((2, 5, 6))
        disp[0, :, 1], disp[0, :, 2], disp[1, 3] = -1.0, 3.0, 1.0
        return (5, 6), grid, disp
    if name == "h1":
        return (1, 7), edge_grid(1, 7, dtype), rng.uniform(-0.5, 0.5, size=(2, 6, 8))
    if name == "w1":
        return (6, 1), edge_grid(6, 1, dtype), None
    if name == "nan":
        grid = identity_grid(4, 5, dtype).copy()
        grid[0, 1, 2] = grid[1, 2, 3] = np.nan
        return (4, 5), grid, rng.uniform(-0.5, 0.5, size=(2, 4, 5))
    if name == "f64_grid":
        return (7, 9), aligned_grid(7, 9, 10, 12, np.float64), rng.uniform(-1.0, 1.0, size=(2, 10, 12))
    raise KeyError(name)


SAMPLER_CASES = ["identity", "upsample", "downsample", "edges", "onto_edges", "h1", "w1", "nan", "f64_grid"]


@pytest.mark.parametrize("name", SAMPLER_CASES)
@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sample_is_bit_identical_to_oracle(name, c, dtype):
    rng = np.random.default_rng(17)
    (h, w), grid, disp = sampler_case(name, dtype, rng)
    im = rng.normal(size=(c, h, w)).astype(dtype)
    g = rng.normal(size=(c,) + grid.shape[1:]).astype(dtype)
    if disp is not None:
        disp = disp.astype(grid.dtype)
    ref_out, ref_gi, ref_gd = oracle_sample(im, grid, disp, g)

    out = sample(Tensor(im.copy()), grid, None if disp is None else Tensor(disp.copy()))
    gi, gd = out._backward(g)
    for label, got, ref in (("out", out.data, ref_out), ("img grad", gi, ref_gi), ("disp grad", gd, ref_gd)):
        if ref is None:
            assert got is None, label
        else:
            assert got.dtype == ref.dtype and got.shape == ref.shape, label
            assert got.tobytes() == ref.tobytes(), label
    if name == "nan":
        bad = np.isnan(grid).any(axis=0)
        assert np.isnan(out.data[:, bad]).all() and not np.isnan(out.data[:, ~bad]).any()
    # a constant disp keeps no disp gradient, and the image gradient is unchanged
    if disp is not None:
        gi_const, gd_const = sample(Tensor(im.copy()), grid, as_tensor(disp))._backward(g)
        assert gd_const is None and gi_const.tobytes() == ref_gi.tobytes()


# ---------------------------------------------------------------------------
# jacobian_determinant


def test_jacobian_identity_map():
    j = jacobian_determinant(const_field(10, 10, 0.0, 0.0))
    assert np.allclose(j, 1.0)


def test_jacobian_translation():
    j = jacobian_determinant(const_field(10, 10, 2.0, -1.0))
    assert np.allclose(j, 1.0)


def test_jacobian_linear_expansion():
    h = w = 16
    grid = identity_grid(h, w)
    f = VectorField(0.1 * grid.copy(), DISPLACEMENT)
    j = jacobian_determinant(f)
    assert np.allclose(interior(j, 1), 1.21, atol=1e-6)


def test_jacobian_requires_3x3():
    with pytest.raises(DimensionError):
        jacobian_determinant(const_field(2, 5, 0, 0))


def test_folding_free_sample():
    for seed in range(10):
        v = random_smooth_velocity(seed + 100, 32, 32, 3.0)
        j = jacobian_determinant(integrate_svf(v))
        assert (interior(j, 1) <= 0).sum() == 0


# ---------------------------------------------------------------------------
# serialization


def test_field_round_trip(tmp_path):
    arr = np.random.default_rng(10).normal(size=(2, 9, 7)).astype(np.float32)
    f = VectorField(arr, DISPLACEMENT)
    path = tmp_path / "f.prgf"
    write_field(f, path)
    back = read_field(path)
    assert np.array_equal(back.array, arr)
    assert back.kind == DISPLACEMENT
    raw = path.read_bytes()
    assert raw[:4] == b"PRGF"
    assert len(raw) == 16 + 2 * 9 * 7 * 4


def test_field_round_trip_float64(tmp_path):
    arr = np.random.default_rng(11).normal(size=(2, 5, 5))
    path = tmp_path / "f64.prgf"
    write_field(VectorField(arr, DISPLACEMENT), path)
    assert np.array_equal(read_field(path).array, arr)


def test_field_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.prgf"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_identity_grid_definition(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
    g = identity_grid(h, w)
    i, j = int(rng.integers(h)), int(rng.integers(w))
    assert g[0, i, j] == j
    assert g[1, i, j] == i


# ---------------------------------------------------------------------------
# nearest-neighbour label reads


def _cast_then_clamp(labels, grid):
    """The nearest read as it was before it clamped in float: right for
    coordinates whose rounded value fits an ``intp``."""
    h, w = labels.shape
    xi = np.clip(np.rint(grid[0]).astype(np.intp), 0, w - 1)
    yi = np.clip(np.rint(grid[1]).astype(np.intp), 0, h - 1)
    return labels[yi, xi]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coord", [1e19, -1e19, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_sample_nearest_clamps_any_coordinate_before_it_indexes(coord, axis):
    # on a 4x4 grid x = 1e19 used to overflow the index cast and read
    # column 0; clamp-to-edge reads column 3, as the bilinear sample does
    labels = np.arange(16).reshape(4, 4)
    grid = np.ones((2, 1, 1))
    grid[axis] = coord
    edge = 0 if np.isnan(coord) or coord < 0 else 3
    want = labels[1, edge] if axis == 0 else labels[edge, 1]
    assert sample_nearest(labels, grid)[0, 0] == want
    if not np.isnan(coord):  # NaN reads cell 0 in both, with a NaN weight in sample
        assert sample(labels.astype(np.float64), grid).data[0, 0] == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_reads_at_in_range_coordinates_are_unchanged(dtype):
    from patchreg.dataio import resize_mask
    from patchreg.metrics import warp_mask

    rng = np.random.default_rng(40)
    labels = rng.integers(0, 4, size=(13, 17)).astype(np.uint8)
    grid = rng.uniform(-30.0, 50.0, size=(2, 9, 11)).astype(dtype)
    grid[:, 0, :6] = [[-0.5, 0.5, 1.5, 2.5, 11.5, 16.5]] * 2  # ties round to even
    assert sample_nearest(labels, grid).tobytes() == _cast_then_clamp(labels, grid).tobytes()
    for size in (1, 2, 7, 13, 29, 64):
        want = _cast_then_clamp(labels, aligned_grid(13, 17, size, size))
        assert resize_mask(labels, size).tobytes() == want.tobytes()
    disp = VectorField(rng.normal(0.0, 4.0, size=(2, 13, 17)).astype(dtype), DISPLACEMENT)
    want = _cast_then_clamp(labels, identity_grid(13, 17) + disp.array)
    assert warp_mask(labels, disp).tobytes() == want.tobytes()

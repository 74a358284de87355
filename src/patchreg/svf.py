"""Stationary-velocity-field machinery.

Velocity fields are turned into displacement fields by scaling and
squaring; displacements drive a differentiable bilinear warp, and fields
can be resampled between grids with the value rescaling that keeps units
consistent. Every bilinear read in the package (warp, compose, resample,
image resize, augmentation crop and rotation) goes through one kernel,
:func:`sample`, which reads an image of shape ``[..., h, w]`` as it is
(a 2-d image, a field's ``[2, h, w]``) at absolute coordinates built
from :func:`identity_grid` or :func:`aligned_grid`; :func:`sample_nearest`
reads label masks at such grids.

Conventions, fixed project wide:

* a field is a ``[2, h, w]`` array; channel 0 is x displacement
  (columns), channel 1 is y displacement (rows); origin top left;
* values are in pixels of the field's own grid;
* all sampling clamps coordinates to the image edge, so tests exclude
  the affected border; a NaN coordinate reads NaN, never out of range.

A :func:`sample` node keeps one flat corner index and the two in-cell
fractions per output pixel, plus the coordinates and the four corner
values only when the displacement needs a gradient; its backward
rebuilds the rest.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .gradcore import (
    ContractError,
    DimensionError,
    Tensor,
    _node,
    add,
    as_tensor,
    cmul,
)
from .files import write_file
from .filters import gaussian_blur


class FieldKindError(ValueError):
    """A velocity was required where a displacement was given, or vice versa."""


VELOCITY = "velocity"
DISPLACEMENT = "displacement"
_KINDS = (VELOCITY, DISPLACEMENT)


class VectorField:
    """A 2-channel vector field on an h-by-w grid, velocity or displacement."""

    __slots__ = ("data", "kind")

    def __init__(self, data, kind: str):
        if kind not in _KINDS:
            raise FieldKindError(f"unknown field kind '{kind}'")
        t = as_tensor(data)
        if t.ndim != 3 or t.shape[0] != 2:
            raise DimensionError(f"vector field must be [2, h, w], got {t.shape}")
        self.data = t
        self.kind = kind

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def array(self) -> np.ndarray:
        """The raw [2, h, w] values (detached view)."""
        return self.data.data

    def __repr__(self) -> str:
        return f"VectorField({self.kind}, {self.height}x{self.width})"


_GRID_CACHE: dict[tuple[int, int, str], np.ndarray] = {}


def identity_grid(h: int, w: int, dtype=np.float64) -> np.ndarray:
    """Identity coordinate grid: channel 0 holds column index j, channel 1 row index i."""
    key = (h, w, np.dtype(dtype).str)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        gy, gx = np.meshgrid(np.arange(h, dtype=dtype), np.arange(w, dtype=dtype), indexing="ij")
        grid = np.stack([gx, gy])
        grid.setflags(write=False)
        _GRID_CACHE[key] = grid
    return grid


def aligned_grid(src_h: int, src_w: int, out_h: int, out_w: int, dtype=np.float64) -> np.ndarray:
    """Corner-aligned coordinates of an out_h x out_w grid in a src_h x src_w
    image: the output's corner pixels land on the input's corner pixels."""
    sx = (src_w - 1) / (out_w - 1) if out_w > 1 else 0.0
    sy = (src_h - 1) / (out_h - 1) if out_h > 1 else 0.0
    return identity_grid(out_h, out_w, dtype) * np.array([sx, sy], dtype=dtype).reshape(2, 1, 1)


def _cell(coord: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower cell index and in-cell fraction, in ``coord``'s dtype, of
    clamp-to-edge coordinates on an axis of length n. The last cell is
    [n-2, n-1], so a coordinate at n-1 has fraction 1. A NaN coordinate
    keeps a NaN fraction and gets cell 0."""
    frac = np.maximum(coord, 0.0)
    np.minimum(frac, n - 1.0, out=frac)
    lo = np.floor(frac)
    np.fmax(lo, 0.0, out=lo)  # a NaN cell becomes 0, so the index cast never sees a NaN
    np.minimum(lo, max(n - 2, 0), out=lo)
    np.subtract(frac, lo, out=frac)  # exact: the clamped coordinate minus its cell
    return lo.astype(np.intp), frac


def sample(img, grid: np.ndarray, disp: Tensor | None = None) -> Tensor:
    """Differentiable clamp-to-edge bilinear read of ``img`` [..., h, w].

    ``grid`` is [2, H, W] of absolute coordinates (channel 0 x, channel 1
    y); ``disp``, when given, is a [2, H, W] tensor of pixel offsets added
    to it. Output is [..., H, W], ``img``'s leading axes kept. Gradients
    are computed for ``img`` (in its shape) and ``disp`` unless they are
    constants (an ``img`` that is not a Tensor is one); ``disp``'s
    gradient is zero where a coordinate is clamped. A NaN coordinate
    reads cell 0 with a NaN weight, so its output is NaN.

    The leading axes of ``img`` count as one channel axis c, and the four
    corners are gathered from ``img`` flattened to [c, h*w] at
    one flat index ``i00`` plus the offsets 1 (next column) and w (next
    row), which are 0 on an axis of length 1. The node keeps ``i00`` and
    the fractions; its backward rebuilds the weights and corner indices.
    When ``disp`` needs a gradient it also keeps the coordinates (for the
    clamp masks) and the four corner values.
    """
    img = as_tensor(img)
    im = img.data
    h, w = im.shape[-2:]
    c = math.prod(im.shape[:-2])
    x, y = grid
    if disp is not None:
        x, y = x + disp.data[0], y + disp.data[1]
    x0, fx = _cell(x, w)
    y0, fy = _cell(y, h)
    fx, fy = fx.astype(im.dtype, copy=False), fy.astype(im.dtype, copy=False)
    dx, dy = int(w > 1), w if h > 1 else 0
    i00 = y0 * w + x0
    flat = im.reshape(c, h * w)
    offsets = (0, dx, dy, dx + dy)
    corners = None
    if disp is not None and disp.requires_grad:
        corners = [np.take(flat, i00 + off, axis=1) for off in offsets]
    else:
        x = y = None

    def corner(k):
        """Corner k's values, gathered when needed unless the node keeps them."""
        return np.take(flat, i00 + offsets[k], axis=1) if corners is None else corners[k]

    gx, gy = 1 - fx, 1 - fy
    data = gy * gx * corner(0)
    data += gy * fx * corner(1)
    data += fy * gx * corner(2)
    data += fy * fx * corner(3)

    def backward_fn(g):
        gi = gd = None
        g = g.reshape((c,) + i00.shape)
        gx, gy = 1 - fx, 1 - fy
        if img.requires_grad:
            # one bincount over (corner, channel, pixel), the order that fixes its float sums
            index = np.empty((4, c, i00.size), np.intp)
            np.add(i00.reshape(1, -1), (h * w) * np.arange(c).reshape(c, 1), out=index[0])
            for off, out in zip(offsets[1:], index[1:]):
                np.add(index[0], off, out=out)
            weight = np.empty((4,) + g.shape, np.result_type(fx, g))
            for wk, out in zip((gy * gx, gy * fx, fy * gx, fy * fx), weight):
                np.multiply(wk, g, out=out)
            gi = np.bincount(index.ravel(), weight.ravel(), minlength=c * h * w)
            gi = gi.reshape(im.shape).astype(im.dtype)
        if corners is not None:
            v00, v01, v10, v11 = corners
            ddx = (gy * (v01 - v00) + fy * (v11 - v10)) * g
            ddy = (gx * (v10 - v00) + fx * (v11 - v01)) * g
            gd = np.empty((2,) + i00.shape, disp.dtype)
            np.multiply(ddx.sum(axis=0), (x > 0.0) & (x < w - 1.0), out=gd[0])
            np.multiply(ddy.sum(axis=0), (y > 0.0) & (y < h - 1.0), out=gd[1])
        return gi, gd

    out = data.reshape(im.shape[:-2] + i00.shape)
    return _node(out, (img,) if disp is None else (img, disp), backward_fn)


def sample_nearest(labels: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Clamp-to-edge nearest-neighbour read of ``labels`` [h, w] at the
    absolute coordinates ``grid`` [2, H, W]; labels are never blended.
    A coordinate is clamped before it becomes an index, as in
    :func:`sample`, so any float reads an edge cell, and a NaN reads
    cell 0."""
    h, w = labels.shape
    return labels[_nearest(grid[1], h), _nearest(grid[0], w)]


def _nearest(coord: np.ndarray, n: int) -> np.ndarray:
    """Nearest clamp-to-edge index on an axis of length n; NaN gives 0."""
    i = np.rint(coord)
    np.fmax(i, 0.0, out=i)  # fmax lifts a NaN to 0, so the cast never sees one
    np.minimum(i, n - 1.0, out=i)
    return i.astype(np.intp)


def warp_image(img, disp: VectorField) -> Tensor:
    """Deform an image [h, w] by a displacement field of the same size.

    ``out(i, j) = img(i + dy(i,j), j + dx(i,j))`` with bilinear
    interpolation and clamp-to-edge; differentiable in the displacement
    and in the image, unless it is a constant (not a Tensor).
    """
    if disp.kind != DISPLACEMENT:
        raise FieldKindError(f"warp_image needs a displacement field, got {disp.kind}")
    img = as_tensor(img)
    if img.shape != (disp.height, disp.width):
        raise DimensionError(
            f"warp_image needs a {disp.height}x{disp.width} image, the displacement's size, got {img.shape}"
        )
    return sample(img, identity_grid(disp.height, disp.width, img.dtype), disp.data)


def compose_displacements(outer: VectorField, inner: VectorField) -> VectorField:
    """Displacement of the composed map ``(Id + outer) o (Id + inner)``.

    Returned field w satisfies Id + w = (Id + outer)(Id + inner), i.e.
    ``w = inner + outer sampled at (Id + inner)``.
    """
    if outer.kind != DISPLACEMENT or inner.kind != DISPLACEMENT:
        raise FieldKindError("compose_displacements needs two displacement fields")
    if (outer.height, outer.width) != (inner.height, inner.width):
        raise DimensionError(
            f"cannot compose {outer.height}x{outer.width} with {inner.height}x{inner.width}"
        )
    grid = identity_grid(inner.height, inner.width, outer.data.dtype)
    sampled = sample(outer.data, grid, inner.data)
    return VectorField(add(inner.data, sampled), DISPLACEMENT)


SQUARING_STEPS = 7  # the registration model's step count, as in VoxelMorph's integrator


def integrate_svf(v: VectorField, steps: int = SQUARING_STEPS) -> VectorField:
    """Exponentiate a stationary velocity field by scaling and squaring.

    The velocity is divided by 2**steps and the resulting small
    displacement is composed with itself ``steps`` times. With enough
    steps the result is folding free (positive Jacobian determinant) for
    smooth bounded velocities. Differentiable.
    """
    if v.kind != VELOCITY:
        raise FieldKindError(f"integrate_svf needs a velocity field, got {v.kind}")
    if steps < 1:
        raise ContractError("integration needs at least one squaring step")
    u = VectorField(cmul(v.data, 1.0 / (2.0**steps)), DISPLACEMENT)
    for _ in range(steps):
        u = compose_displacements(u, u)
    return u


def resample_field(f: VectorField, size: int) -> VectorField:
    """Resample a field to a size x size grid and convert its values to the
    new grid's pixel units (x channel scaled by size/width, y by size/height)."""
    if size < 1:
        raise ContractError("target size must be at least 1x1")
    grid = aligned_grid(f.height, f.width, size, size, f.data.dtype)
    resized = sample(f.data, grid)
    scale = np.array([size / f.width, size / f.height], dtype=f.data.dtype).reshape(2, 1, 1)
    return VectorField(cmul(resized, scale), f.kind)


def jacobian_determinant(disp: VectorField) -> np.ndarray:
    """Per-pixel Jacobian determinant of the map Id + displacement.

    Central differences in the interior, one-sided at the borders.
    Evaluation only; not differentiable.
    """
    if disp.kind != DISPLACEMENT:
        raise FieldKindError(f"jacobian_determinant needs a displacement, got {disp.kind}")
    if disp.height < 3 or disp.width < 3:
        raise DimensionError("field must be at least 3x3 for difference stencils")
    u = disp.array.astype(np.float64)
    dux_dy, dux_dx = np.gradient(u[0])
    duy_dy, duy_dx = np.gradient(u[1])
    return (1.0 + dux_dx) * (1.0 + duy_dy) - dux_dy * duy_dx


def mean_interior_magnitude(field: VectorField, margin: int = 1) -> float:
    """Mean vector magnitude over the interior, excluding ``margin`` border pixels."""
    u = field.array
    core = u[:, margin : u.shape[1] - margin, margin : u.shape[2] - margin]
    return float(np.sqrt(core[0] ** 2 + core[1] ** 2).mean())


def random_smooth_velocity(
    seed: int, h: int, w: int, max_magnitude: float, sigma: float | None = None
) -> VectorField:
    """Gaussian-smoothed random velocity scaled to a peak vector magnitude.

    Deterministic per seed; the workhorse behind synthetic deformations
    and the statistical field properties in the test suite.
    """
    if sigma is None:
        sigma = max(h, w) / 8.0
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 1.0, size=(2, h, w))
    smooth = gaussian_blur(raw, sigma)
    mag = np.sqrt(smooth[0] ** 2 + smooth[1] ** 2).max()
    if mag > 0 and max_magnitude > 0:
        smooth = smooth * (max_magnitude / mag)
    else:
        smooth = np.zeros_like(smooth)
    return VectorField(smooth, VELOCITY)


# ---------------------------------------------------------------------------
# flat binary serialization ("PRGF": magic, u32 h, u32 w, u32 dtype code)

_MAGIC = b"PRGF"
_DTYPE_CODES = {0: "<f4", 1: "<f8"}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_field(f: VectorField, path) -> None:
    """Write a displacement field: 16-byte header then row-major x channel
    followed by y channel, little endian."""
    arr = f.array
    code = _CODE_FOR[arr.dtype]
    header = struct.pack("<4sIII", _MAGIC, f.height, f.width, code)
    write_file(path, header, np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def read_field(path) -> VectorField:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated field header")
        magic, h, w, code = struct.unpack("<4sIII", header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if code not in _DTYPE_CODES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        dt = np.dtype(_DTYPE_CODES[code])
        payload = fh.read()
    expect = 2 * h * w * dt.itemsize
    if len(payload) != expect:
        raise ValueError(f"{path}: expected {expect} payload bytes, got {len(payload)}")
    flat = np.frombuffer(payload, dtype=dt)
    arr = flat.reshape(2, h, w).astype(dt.type)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: field contains non-finite values")
    return VectorField(arr, DISPLACEMENT)

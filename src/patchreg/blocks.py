"""Patch-token building blocks: patch embedding, per-token MLP block,
token/channel mixing block, windowed cross-attention block.

Tokens are a plain :class:`~patchreg.gradcore.Tensor` of shape
[grid * grid, dim] in row-major order over a square grid (row i,
column j -> index i*grid + j); the window partition relies on that
order. Each block is built for its grid and checks the token count
(and, for cross attention, the width) it is given. Blocks are pure functions of
(inputs, params) and pre-norm residual throughout. All three block
kinds end in the same sub-layer, the pre-norm MLP branch :class:`Mlp`
``fc2(gelu(fc1(norm(x))))``, which is one fused op,
:func:`~patchreg.gradcore.mlp_branch`; each block adds its own residual.
Its hidden width is :data:`HIDDEN_RATIO` times the token width in every
block (the token-mixing MLP of :class:`MixerBlock` has its own width).
Window geometry (:class:`WindowPartition`) is fixed by the grid, so a
cross-attention block builds it once.
"""

from __future__ import annotations

import math

import numpy as np

from .gradcore import (
    DimensionError,
    ParamSet,
    Tensor,
    add,
    gather_rows,
    gelu,  # noqa: F401  not called here; perfbench/tests checks its tracer patches blocks.gelu
    layer_norm,
    linear,
    mlp_branch,
    transpose,
    window_attention,
)


HIDDEN_RATIO = 4  # MLP hidden width / token width, as in ViT and MLP-Mixer


def _tile(a: np.ndarray, tile: int) -> np.ndarray:
    """[h, w] -> [n_tiles, tile*tile]: tile x tile blocks in row-major block order."""
    h, w = a.shape
    tiles = a.reshape(h // tile, tile, w // tile, tile).transpose(0, 2, 1, 3)
    return tiles.reshape(-1, tile * tile)


class PatchEmbed:
    """Linear projection of non-overlapping patch tiles into token vectors."""

    def __init__(self, pset: ParamSet, prefix: str, patch: int, dim: int):
        self.patch = patch
        self.w = pset.add(f"{prefix}.w", (patch * patch, dim))
        self.b = pset.add(f"{prefix}.b", (dim,), init="zeros")

    def __call__(self, img: np.ndarray) -> Tensor:
        img = np.asarray(img)
        if img.ndim != 2:
            raise DimensionError(f"patch embedding expects a 2-d image, got {img.shape}")
        h, w = img.shape
        p = self.patch
        if h % p or w % p:
            raise DimensionError(f"patch {p} does not divide image {h}x{w}")
        return linear(_tile(img, p), self.w, self.b)


class Mlp:
    """Pre-norm MLP branch fc2(gelu(fc1(norm(x)))) over the last axis, one
    :func:`~patchreg.gradcore.mlp_branch` call.

    Returns the branch only; the caller adds the residual.
    """

    def __init__(self, pset: ParamSet, prefix: str, dim: int, hidden: int):
        self.norm_g = pset.add(f"{prefix}.norm.g", (dim,), init="ones")
        self.norm_b = pset.add(f"{prefix}.norm.b", (dim,), init="zeros")
        self.w1 = pset.add(f"{prefix}.fc1.w", (dim, hidden))
        self.b1 = pset.add(f"{prefix}.fc1.b", (hidden,), init="zeros")
        self.w2 = pset.add(f"{prefix}.fc2.w", (hidden, dim))
        self.b2 = pset.add(f"{prefix}.fc2.b", (dim,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return mlp_branch(x, self.norm_g, self.norm_b, self.w1, self.b1, self.w2, self.b2)


def _token_hidden(n_tokens: int) -> int:
    """Hidden width of the token-mixing MLP."""
    return max(n_tokens // 2, 8)


class MlpBlock:
    """Residual per-token MLP: x + mlp(x). Tokens never mix."""

    def __init__(self, pset: ParamSet, prefix: str, dim: int):
        self.mlp = Mlp(pset, prefix, dim, HIDDEN_RATIO * dim)

    def __call__(self, x: Tensor) -> Tensor:
        return add(x, self.mlp(x))


class MixerBlock:
    """Token mixing then channel mixing, each residual.

    Token mixing runs :class:`Mlp` ``tok`` on the transposed
    [dim, n_tokens] map, so its weights are tied to a fixed token count.
    Channel mixing ``ch`` matches :class:`MlpBlock`.
    """

    def __init__(self, pset: ParamSet, prefix: str, dim: int, n_tokens: int):
        self.n_tokens = n_tokens
        self.tok = Mlp(pset, f"{prefix}.tok", n_tokens, _token_hidden(n_tokens))
        self.ch = Mlp(pset, f"{prefix}.ch", dim, HIDDEN_RATIO * dim)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[0] != self.n_tokens:
            raise DimensionError(
                f"mixer block configured for {self.n_tokens} tokens, got {x.shape[0]}"
            )
        y = add(x, transpose(self.tok(transpose(x))))
        return add(y, self.ch(y))


# ---------------------------------------------------------------------------
# window partitioning


def _region_labels(grid: int, window: int) -> np.ndarray:
    """Label the 9 rectangles that stay contiguous under the half-window roll."""
    bands = np.digitize(np.arange(grid), (grid - window, grid - window // 2))
    return bands[:, None] * 3 + bands[None, :]


class WindowPartition:
    """Window geometry of a square grid x grid token grid.

    ``perm`` [n_windows, window**2] lists the row-major tokens of each
    window; ``inv`` [grid*grid] gives each token's place in the
    windows read in order. The shifted variant rolls the grid cyclically
    by half a window in both axes first, and its ``mask`` is the additive
    attention mask [n_windows, window**2, window**2]: 0 where both tokens
    come from the same rolled region, -inf across the region boundaries
    the roll introduces. Unshifted, ``mask`` is None. The windows of
    :meth:`split` and ``mask`` are the operands of
    :func:`~patchreg.gradcore.window_attention` as they are.
    """

    def __init__(self, grid: int, window: int, shifted: bool):
        if grid % window:
            raise DimensionError(f"window {window} does not divide grid {grid}x{grid}")
        idx = np.arange(grid * grid, dtype=np.intp).reshape(grid, grid)
        if shifted:
            idx = np.roll(idx, (-(window // 2), -(window // 2)), axis=(0, 1))
        self.perm = _tile(idx, window)
        self.inv = np.argsort(self.perm, axis=None)
        self.mask = None
        if shifted:
            labels = _region_labels(grid, window).reshape(-1)[self.perm]
            self.mask = np.where(labels[:, :, None] == labels[:, None, :], 0.0, -np.inf)

    def split(self, tokens: Tensor) -> Tensor:
        """Row-major [grid*grid, d] tokens -> windows [n_windows, window**2, d]."""
        return gather_rows(tokens, self.perm)

    def merge(self, windows: Tensor) -> Tensor:
        """Inverse of :meth:`split`: windows back to row-major tokens."""
        return gather_rows(windows, self.inv)


def relative_position_index(window: int) -> np.ndarray:
    """[window**2, window**2] index into a (2w-1)**2 bias table."""
    coords = np.stack(
        np.meshgrid(np.arange(window), np.arange(window), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    rel = coords[:, None, :] - coords[None, :, :]
    idx = (rel[..., 0] + window - 1) * (2 * window - 1) + (rel[..., 1] + window - 1)
    return idx.astype(np.intp)


class SwinCrossBlock:
    """Windowed multi-head cross attention between two token tensors.

    Queries come from the moving-image features, keys and values from the
    fixed-image features. Attention runs twice, once on normal window
    partitions of both maps and once with the query map partitioned after
    a half-window cyclic roll (masked across rolled-in boundaries) while
    keys keep the normal partition. Each pass is one fused
    :func:`~patchreg.gradcore.window_attention` call on the partition's
    windows with the shared relative-position bias ``[t, t, heads]``;
    the op splits the heads, so the block never handles them. The two
    outputs are summed, projected, skip-connected to the fixed features,
    and passed through a residual per-token MLP. The block is built for
    one grid and width and raises :class:`~patchreg.gradcore.DimensionError`
    unless both inputs are [grid * grid, dim].

    The key bias ``k.b`` cannot change any output: it adds q·b_k to every
    logit of a query row, and the softmax over keys cancels it. It is kept
    on purpose, to match Swin's qkv projection, the recorded
    ``param_tables.json`` and the golden bits.
    """

    def __init__(self, pset: ParamSet, prefix: str, dim: int, grid: int, window: int, heads: int):
        if dim % heads:
            raise DimensionError(f"dim {dim} not divisible by {heads} heads")
        self.normal = WindowPartition(grid, window, False)
        # a window covering the whole grid already connects every token,
        # so the second pass runs unshifted and unmasked
        self.shifted = WindowPartition(grid, window, True) if window < grid else self.normal
        self.dim = dim
        self.window = window
        self.heads = heads
        self.grid = grid
        self.scale = 1.0 / math.sqrt(dim // heads)
        self.norm_fix_g = pset.add(f"{prefix}.norm_fix.g", (dim,), init="ones")
        self.norm_fix_b = pset.add(f"{prefix}.norm_fix.b", (dim,), init="zeros")
        self.norm_mov_g = pset.add(f"{prefix}.norm_mov.g", (dim,), init="ones")
        self.norm_mov_b = pset.add(f"{prefix}.norm_mov.b", (dim,), init="zeros")
        self.wq = pset.add(f"{prefix}.q.w", (dim, dim))
        self.bq = pset.add(f"{prefix}.q.b", (dim,), init="zeros")
        self.wk = pset.add(f"{prefix}.k.w", (dim, dim))
        self.bk = pset.add(f"{prefix}.k.b", (dim,), init="zeros")
        self.wv = pset.add(f"{prefix}.v.w", (dim, dim))
        self.bv = pset.add(f"{prefix}.v.b", (dim,), init="zeros")
        self.wo = pset.add(f"{prefix}.out.w", (dim, dim))
        self.bo = pset.add(f"{prefix}.out.b", (dim,), init="zeros")
        self.bias_table = pset.add(
            f"{prefix}.relpos", ((2 * window - 1) ** 2, heads), init="zeros"
        )
        self._rel_index = relative_position_index(window)
        self.mlp = Mlp(pset, f"{prefix}.mlp", dim, HIDDEN_RATIO * dim)

    def _bias(self) -> Tensor:
        return gather_rows(self.bias_table, self._rel_index)

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, bias: Tensor, layout: WindowPartition):
        """One pass: row-major queries split by ``layout`` against the
        normal-layout key and value windows, merged back to row-major."""
        return layout.merge(window_attention(layout.split(q), k, v, bias, layout.mask, self.scale))

    def __call__(self, fix: Tensor, mov: Tensor) -> Tensor:
        built = (self.grid * self.grid, self.dim)
        if fix.shape != built or mov.shape != built:
            raise DimensionError(
                f"fixed {fix.shape} and moving {mov.shape} tokens must both be {built} "
                f"for the block's {self.grid}x{self.grid} grid"
            )
        nk = layer_norm(fix, self.norm_fix_g, self.norm_fix_b)
        nq = layer_norm(mov, self.norm_mov_g, self.norm_mov_b)
        k = self.normal.split(linear(nk, self.wk, self.bk))
        v = self.normal.split(linear(nk, self.wv, self.bv))
        q = linear(nq, self.wq, self.bq)
        bias = self._bias()
        summed = add(
            self._attend(q, k, v, bias, self.normal),
            self._attend(q, k, v, bias, self.shifted),
        )
        y = add(fix, linear(summed, self.wo, self.bo))
        return add(y, self.mlp(y))

"""Patch-token building blocks: patch embedding, per-token MLP block,
token/channel mixing block, windowed cross-attention block.

A :class:`TokenMap` holds tokens in row-major grid order (row i, column
j -> index i*grid_w + j); the window partition relies on that order.
Blocks are pure functions of (inputs, params) and pre-norm residual
throughout. All three block kinds end in the same sub-layer, the
pre-norm MLP branch :class:`Mlp` ``fc2(gelu(fc1(norm(x))))``, which is
one fused op, :func:`~patchreg.gradcore.mlp_branch`; each block adds
its own residual. Window geometry (:class:`WindowPartition`) is fixed
by the grid, so a cross-attention block builds it once.
"""

from __future__ import annotations

import math

import numpy as np

from .gradcore import (
    DimensionError,
    ParamSet,
    Tensor,
    add,
    as_tensor,
    gather_rows,
    gelu,  # noqa: F401  not called here; perfbench/tests checks its tracer patches blocks.gelu
    layer_norm,
    linear,
    mlp_branch,
    reshape,
    transpose,
    window_attention,
)


class TokenMap:
    """Tokens on a grid: ``data`` is [grid_h * grid_w, dim], row major."""

    __slots__ = ("grid_h", "grid_w", "dim", "data")

    def __init__(self, grid_h: int, grid_w: int, data: Tensor):
        data = as_tensor(data)
        if data.ndim != 2 or data.shape[0] != grid_h * grid_w:
            raise DimensionError(
                f"token data {data.shape} does not match grid {grid_h}x{grid_w}"
            )
        self.grid_h = grid_h
        self.grid_w = grid_w
        self.dim = data.shape[1]
        self.data = data

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    def with_data(self, data: Tensor) -> "TokenMap":
        return TokenMap(self.grid_h, self.grid_w, data)


def _tile(a: np.ndarray, tile: int) -> np.ndarray:
    """[h, w] -> [n_tiles, tile*tile]: tile x tile blocks in row-major block order."""
    h, w = a.shape
    tiles = a.reshape(h // tile, tile, w // tile, tile).transpose(0, 2, 1, 3)
    return tiles.reshape(-1, tile * tile)


class PatchEmbed:
    """Linear projection of non-overlapping patch tiles into token vectors."""

    def __init__(self, pset: ParamSet, prefix: str, patch: int, dim: int):
        self.patch = patch
        self.dim = dim
        self.w = pset.add(f"{prefix}.w", (patch * patch, dim))
        self.b = pset.add(f"{prefix}.b", (dim,), init="zeros")

    def __call__(self, img: np.ndarray) -> TokenMap:
        img = np.asarray(img)
        if img.ndim != 2:
            raise DimensionError(f"patch embedding expects a 2-d image, got {img.shape}")
        h, w = img.shape
        p = self.patch
        if h % p or w % p:
            raise DimensionError(f"patch {p} does not divide image {h}x{w}")
        return TokenMap(h // p, w // p, linear(_tile(img, p), self.w, self.b))


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

    def __init__(self, pset: ParamSet, prefix: str, dim: int, hidden_ratio: int = 4):
        self.mlp = Mlp(pset, prefix, dim, hidden_ratio * dim)

    def __call__(self, x: TokenMap) -> TokenMap:
        return x.with_data(add(x.data, self.mlp(x.data)))


class MixerBlock:
    """Token mixing then channel mixing, each residual.

    Token mixing runs :class:`Mlp` ``tok`` on the transposed
    [dim, n_tokens] map, so its weights are tied to a fixed token count.
    Channel mixing ``ch`` matches :class:`MlpBlock`.
    """

    def __init__(self, pset: ParamSet, prefix: str, dim: int, n_tokens: int, hidden_ratio: int = 4):
        self.n_tokens = n_tokens
        self.tok = Mlp(pset, f"{prefix}.tok", n_tokens, _token_hidden(n_tokens))
        self.ch = Mlp(pset, f"{prefix}.ch", dim, hidden_ratio * dim)

    def __call__(self, x: TokenMap) -> TokenMap:
        if x.n_tokens != self.n_tokens:
            raise DimensionError(
                f"mixer block configured for {self.n_tokens} tokens, got {x.n_tokens}"
            )
        y = add(x.data, transpose(self.tok(transpose(x.data))))
        return x.with_data(add(y, self.ch(y)))


# ---------------------------------------------------------------------------
# window partitioning


def _region_labels(grid_h: int, grid_w: int, window: int) -> np.ndarray:
    """Label the 9 rectangles that stay contiguous under the half-window roll."""
    s = window // 2

    def bands(n: int) -> np.ndarray:
        return np.digitize(np.arange(n), (n - window, n - s))

    return bands(grid_h)[:, None] * 3 + bands(grid_w)[None, :]


class WindowPartition:
    """Window geometry of a grid_h x grid_w token grid.

    ``perm`` puts row-major tokens in window order (n_windows blocks of
    window**2); ``inv`` undoes it. The shifted variant rolls the grid
    cyclically by half a window in both axes first, and its ``mask`` is
    the additive attention mask [n_windows, window**2, window**2]: 0
    where both tokens come from the same rolled region, -inf across the
    region boundaries the roll introduces. Unshifted, ``mask`` is None.
    """

    def __init__(self, grid_h: int, grid_w: int, window: int, shifted: bool):
        if grid_h % window or grid_w % window:
            raise DimensionError(f"window {window} does not divide grid {grid_h}x{grid_w}")
        self.window = window
        self.n_windows = (grid_h // window) * (grid_w // window)
        idx = np.arange(grid_h * grid_w, dtype=np.intp).reshape(grid_h, grid_w)
        if shifted:
            idx = np.roll(idx, (-(window // 2), -(window // 2)), axis=(0, 1))
        self.perm = _tile(idx, window).reshape(-1)
        self.inv = np.empty_like(self.perm)
        self.inv[self.perm] = np.arange(self.perm.size, dtype=np.intp)
        self.mask = None
        if shifted:
            labels = _region_labels(grid_h, grid_w, window).reshape(-1)[self.perm]
            labels = labels.reshape(self.n_windows, window * window)
            self.mask = np.where(labels[:, :, None] == labels[:, None, :], 0.0, -np.inf)

    def split(self, tokens: Tensor) -> Tensor:
        """Row-major [grid_h*grid_w, d] tokens -> windows [n_windows, window**2, d]."""
        windows = gather_rows(tokens, self.perm)
        return reshape(windows, (self.n_windows, self.window * self.window, tokens.shape[-1]))

    def merge(self, windows: Tensor) -> Tensor:
        """Inverse of :meth:`split`: windows back to row-major tokens."""
        return gather_rows(reshape(windows, (self.perm.size, windows.shape[-1])), self.inv)


def relative_position_index(window: int) -> np.ndarray:
    """Flat [window**2 * window**2] index into a (2w-1)**2 bias table."""
    coords = np.stack(
        np.meshgrid(np.arange(window), np.arange(window), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    rel = coords[:, None, :] - coords[None, :, :]
    idx = (rel[..., 0] + window - 1) * (2 * window - 1) + (rel[..., 1] + window - 1)
    return idx.reshape(-1).astype(np.intp)


class SwinCrossBlock:
    """Windowed multi-head cross attention between two token maps.

    Queries come from the moving-image features, keys and values from the
    fixed-image features. Attention runs twice, once on normal window
    partitions of both maps and once with the query map partitioned after
    a half-window cyclic roll (masked across rolled-in boundaries) while
    keys keep the normal partition. Each pass is one fused
    :func:`~patchreg.gradcore.window_attention` call with the shared
    relative-position bias. The two outputs are summed, projected,
    skip-connected to the fixed features, and passed through a residual
    per-token MLP. The block is built for one grid and rejects others.
    """

    def __init__(
        self,
        pset: ParamSet,
        prefix: str,
        dim: int,
        grid_h: int,
        grid_w: int,
        window: int,
        heads: int,
        hidden_ratio: int = 4,
    ):
        if dim % heads:
            raise DimensionError(f"dim {dim} not divisible by {heads} heads")
        self.normal = WindowPartition(grid_h, grid_w, window, False)
        # a window covering the whole grid already connects every token,
        # so the second pass runs unshifted and unmasked
        use_shift = window < min(grid_h, grid_w)
        self.shifted = WindowPartition(grid_h, grid_w, window, True) if use_shift else self.normal
        self.dim = dim
        self.window = window
        self.heads = heads
        self.head_dim = dim // heads
        self.grid_h = grid_h
        self.grid_w = grid_w
        self.scale = 1.0 / math.sqrt(self.head_dim)
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
        self.mlp = Mlp(pset, f"{prefix}.mlp", dim, hidden_ratio * dim)

    def _heads_split(self, tokens: Tensor, layout: WindowPartition) -> Tensor:
        """Row-major tokens -> [n_windows, heads, window**2, head_dim]."""
        windows = layout.split(tokens)
        t = reshape(windows, windows.shape[:2] + (self.heads, self.head_dim))
        return transpose(t, (0, 2, 1, 3))

    def _heads_merge(self, t: Tensor, layout: WindowPartition) -> Tensor:
        n_win, _, wsq, _ = t.shape
        out = reshape(transpose(t, (0, 2, 1, 3)), (n_win, wsq, self.dim))
        return layout.merge(out)

    def _bias(self) -> Tensor:
        wsq = self.window * self.window
        b = gather_rows(self.bias_table, self._rel_index)
        b = reshape(b, (wsq, wsq, self.heads))
        return transpose(b, (2, 0, 1))

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, bias: Tensor, layout: WindowPartition):
        """One pass: queries split by ``layout`` against the normal-layout
        keys and values (head-split)."""
        mask = None if layout.mask is None else layout.mask[:, None]
        out = window_attention(self._heads_split(q, layout), k, v, bias, mask, self.scale)
        return self._heads_merge(out, layout)

    def __call__(self, fix: TokenMap, mov: TokenMap) -> TokenMap:
        built = (self.grid_h, self.grid_w, self.dim)
        if {(m.grid_h, m.grid_w, m.dim) for m in (fix, mov)} != {built}:
            raise DimensionError(
                f"fixed and moving token maps must match the block's {self.grid_h}x{self.grid_w} "
                f"grid of width {self.dim}"
            )
        nk = layer_norm(fix.data, self.norm_fix_g, self.norm_fix_b)
        nq = layer_norm(mov.data, self.norm_mov_g, self.norm_mov_b)
        k = self._heads_split(linear(nk, self.wk, self.bk), self.normal)
        v = self._heads_split(linear(nk, self.wv, self.bv), self.normal)
        q = linear(nq, self.wq, self.bq)
        bias = self._bias()
        summed = add(
            self._attend(q, k, v, bias, self.normal),
            self._attend(q, k, v, bias, self.shifted),
        )
        y = add(fix.data, linear(summed, self.wo, self.bo))
        return fix.with_data(add(y, self.mlp(y)))

"""Patch-token building blocks: patch embedding, per-token MLP block,
token/channel mixing block, windowed cross-attention block.

A :class:`TokenMap` holds tokens in row-major grid order (row i, column
j -> index i*grid_w + j); the window partition relies on that order.
Blocks are pure functions of (inputs, params) and pre-norm residual
throughout.
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
    cadd,
    cmul,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    matmul,
    reshape,
    softmax,
    transpose,
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


class PatchEmbed:
    """Linear projection of non-overlapping patch tiles into token vectors."""

    def __init__(self, pset: ParamSet, prefix: str, patch: int, dim: int):
        self.patch = patch
        self.dim = dim
        self.w = pset.add(f"{prefix}.w", (patch * patch, dim))
        self.b = pset.add(f"{prefix}.b", (dim,), init="zeros")

    def __call__(self, img) -> TokenMap:
        t = as_tensor(img)
        if t.ndim != 2:
            raise DimensionError(f"patch embedding expects a 2-d image, got {t.shape}")
        h, w = t.shape
        p = self.patch
        if h % p or w % p:
            raise DimensionError(f"patch {p} does not divide image {h}x{w}")
        gh, gw = h // p, w // p
        tiles = reshape(t, (gh, p, gw, p))
        tiles = transpose(tiles, (0, 2, 1, 3))
        tiles = reshape(tiles, (gh * gw, p * p))
        return TokenMap(gh, gw, linear(tiles, self.w, self.b))


def extract_patches(img: np.ndarray, patch: int) -> np.ndarray:
    """Plain numpy version of the tiling, [n_tokens, patch*patch]."""
    h, w = img.shape
    gh, gw = h // patch, w // patch
    return (
        img.reshape(gh, patch, gw, patch).transpose(0, 2, 1, 3).reshape(gh * gw, patch * patch)
    )


class MlpBlock:
    """Residual per-token MLP: x + fc2(gelu(fc1(norm(x)))). Tokens never mix."""

    def __init__(self, pset: ParamSet, prefix: str, dim: int, hidden_ratio: int = 4):
        hidden = hidden_ratio * dim
        self.norm_g = pset.add(f"{prefix}.norm.g", (dim,), init="ones")
        self.norm_b = pset.add(f"{prefix}.norm.b", (dim,), init="zeros")
        self.w1 = pset.add(f"{prefix}.fc1.w", (dim, hidden))
        self.b1 = pset.add(f"{prefix}.fc1.b", (hidden,), init="zeros")
        self.w2 = pset.add(f"{prefix}.fc2.w", (hidden, dim))
        self.b2 = pset.add(f"{prefix}.fc2.b", (dim,), init="zeros")

    def __call__(self, x: TokenMap) -> TokenMap:
        t = layer_norm(x.data, self.norm_g, self.norm_b)
        t = linear(t, self.w1, self.b1)
        t = gelu(t)
        t = linear(t, self.w2, self.b2)
        return x.with_data(add(x.data, t))


class MixerBlock:
    """Token mixing then channel mixing, each residual.

    Token mixing transposes to [dim, n_tokens] and runs
    norm -> linear -> gelu -> linear across the token axis, so its
    weights are tied to a fixed token count. Channel mixing matches
    :class:`MlpBlock`.
    """

    def __init__(
        self,
        pset: ParamSet,
        prefix: str,
        dim: int,
        n_tokens: int,
        hidden_ratio: int = 4,
        token_hidden: int | None = None,
    ):
        self.n_tokens = n_tokens
        if token_hidden is None:
            token_hidden = max(n_tokens // 2, 8)
        self.tok_norm_g = pset.add(f"{prefix}.tok.norm.g", (n_tokens,), init="ones")
        self.tok_norm_b = pset.add(f"{prefix}.tok.norm.b", (n_tokens,), init="zeros")
        self.tok_w1 = pset.add(f"{prefix}.tok.fc1.w", (n_tokens, token_hidden))
        self.tok_b1 = pset.add(f"{prefix}.tok.fc1.b", (token_hidden,), init="zeros")
        self.tok_w2 = pset.add(f"{prefix}.tok.fc2.w", (token_hidden, n_tokens))
        self.tok_b2 = pset.add(f"{prefix}.tok.fc2.b", (n_tokens,), init="zeros")
        hidden = hidden_ratio * dim
        self.ch_norm_g = pset.add(f"{prefix}.ch.norm.g", (dim,), init="ones")
        self.ch_norm_b = pset.add(f"{prefix}.ch.norm.b", (dim,), init="zeros")
        self.ch_w1 = pset.add(f"{prefix}.ch.fc1.w", (dim, hidden))
        self.ch_b1 = pset.add(f"{prefix}.ch.fc1.b", (hidden,), init="zeros")
        self.ch_w2 = pset.add(f"{prefix}.ch.fc2.w", (hidden, dim))
        self.ch_b2 = pset.add(f"{prefix}.ch.fc2.b", (dim,), init="zeros")

    def __call__(self, x: TokenMap) -> TokenMap:
        if x.n_tokens != self.n_tokens:
            raise DimensionError(
                f"mixer block configured for {self.n_tokens} tokens, got {x.n_tokens}"
            )
        t = transpose(x.data)
        t = layer_norm(t, self.tok_norm_g, self.tok_norm_b)
        t = linear(t, self.tok_w1, self.tok_b1)
        t = gelu(t)
        t = linear(t, self.tok_w2, self.tok_b2)
        y = add(x.data, transpose(t))
        t = layer_norm(y, self.ch_norm_g, self.ch_norm_b)
        t = linear(t, self.ch_w1, self.ch_b1)
        t = gelu(t)
        t = linear(t, self.ch_w2, self.ch_b2)
        return x.with_data(add(y, t))


# ---------------------------------------------------------------------------
# window partitioning


def _window_permutation(grid_h: int, grid_w: int, window: int, shifted: bool):
    """Token permutation grouping the grid into window x window tiles.

    For the shifted variant the grid is cyclically rolled by half a
    window in both axes first. Returns (perm, inverse_perm); applying
    ``perm`` puts tokens in window order, n_win blocks of window**2.
    """
    idx = np.arange(grid_h * grid_w, dtype=np.intp).reshape(grid_h, grid_w)
    if shifted:
        s = window // 2
        idx = np.roll(idx, (-s, -s), axis=(0, 1))
    nh, nw = grid_h // window, grid_w // window
    perm = (
        idx.reshape(nh, window, nw, window).transpose(0, 2, 1, 3).reshape(-1)
    )
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.intp)
    return perm, inv


def _region_labels(grid_h: int, grid_w: int, window: int) -> np.ndarray:
    """Label the 9 rectangles that stay contiguous under the half-window roll."""
    s = window // 2
    labels = np.zeros((grid_h, grid_w), dtype=np.intp)
    h_slices = (slice(0, grid_h - window), slice(grid_h - window, grid_h - s), slice(grid_h - s, grid_h))
    w_slices = (slice(0, grid_w - window), slice(grid_w - window, grid_w - s), slice(grid_w - s, grid_w))
    region = 0
    for hs in h_slices:
        for ws in w_slices:
            labels[hs, ws] = region
            region += 1
    return labels


def shifted_window_mask(grid_h: int, grid_w: int, window: int) -> np.ndarray:
    """Additive attention mask [n_win, window**2, window**2] for shifted
    partitions: 0 where both tokens come from the same rolled region,
    -inf across region boundaries introduced by the roll."""
    s = window // 2
    labels = _region_labels(grid_h, grid_w, window)
    rolled = np.roll(labels, (-s, -s), axis=(0, 1))
    nh, nw = grid_h // window, grid_w // window
    win_labels = (
        rolled.reshape(nh, window, nw, window).transpose(0, 2, 1, 3).reshape(-1, window * window)
    )
    same = win_labels[:, :, None] == win_labels[:, None, :]
    mask = np.where(same, 0.0, -np.inf)
    return mask


class WindowPartition:
    """Result of partitioning a token map into attention windows."""

    def __init__(self, source: TokenMap, window: int, shifted: bool):
        if source.grid_h % window or source.grid_w % window:
            raise DimensionError(
                f"window {window} does not divide grid {source.grid_h}x{source.grid_w}"
            )
        self.window = window
        self.shifted = shifted
        self.grid_h = source.grid_h
        self.grid_w = source.grid_w
        self._perm, self._inv = _window_permutation(source.grid_h, source.grid_w, window, shifted)
        n_win = (source.grid_h // window) * (source.grid_w // window)
        self.n_windows = n_win
        self.windows = reshape(
            gather_rows(source.data, self._perm), (n_win, window * window, source.dim)
        )
        self.mask = (
            shifted_window_mask(source.grid_h, source.grid_w, window) if shifted else None
        )

    def merge(self, windows: Tensor) -> TokenMap:
        """Inverse operation: restore original token order from window order."""
        dim = windows.shape[-1]
        flat = reshape(windows, (self.grid_h * self.grid_w, dim))
        return TokenMap(self.grid_h, self.grid_w, gather_rows(flat, self._inv))


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
    keys keep the normal partition. The two outputs are summed, projected,
    skip-connected to the fixed features, and passed through a residual
    per-token MLP.
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
        if grid_h % window or grid_w % window:
            raise DimensionError(f"window {window} does not divide grid {grid_h}x{grid_w}")
        self.dim = dim
        self.window = window
        self.heads = heads
        self.head_dim = dim // heads
        self.grid_h = grid_h
        self.grid_w = grid_w
        # a window covering the whole grid already connects every token,
        # so the second pass runs unshifted and unmasked
        self.use_shift = window < min(grid_h, grid_w)
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
        hidden = hidden_ratio * dim
        self.mlp_norm_g = pset.add(f"{prefix}.mlp.norm.g", (dim,), init="ones")
        self.mlp_norm_b = pset.add(f"{prefix}.mlp.norm.b", (dim,), init="zeros")
        self.mlp_w1 = pset.add(f"{prefix}.mlp.fc1.w", (dim, hidden))
        self.mlp_b1 = pset.add(f"{prefix}.mlp.fc1.b", (hidden,), init="zeros")
        self.mlp_w2 = pset.add(f"{prefix}.mlp.fc2.w", (hidden, dim))
        self.mlp_b2 = pset.add(f"{prefix}.mlp.fc2.b", (dim,), init="zeros")

    def _heads_split(self, windows: Tensor) -> Tensor:
        n_win, wsq, dim = windows.shape
        t = reshape(windows, (n_win, wsq, self.heads, self.head_dim))
        return transpose(t, (0, 2, 1, 3))

    def _heads_merge(self, t: Tensor) -> Tensor:
        n_win, _, wsq, _ = t.shape
        out = transpose(t, (0, 2, 1, 3))
        return reshape(out, (n_win, wsq, self.dim))

    def _bias(self) -> Tensor:
        wsq = self.window * self.window
        b = gather_rows(self.bias_table, self._rel_index)
        b = reshape(b, (wsq, wsq, self.heads))
        return transpose(b, (2, 0, 1))

    def _attend(self, q_part: WindowPartition, k_part: WindowPartition, v_part: WindowPartition):
        q = self._heads_split(q_part.windows)
        k = self._heads_split(k_part.windows)
        v = self._heads_split(v_part.windows)
        logits = cmul(matmul(q, transpose(k, (0, 1, 3, 2))), self.scale)
        logits = add(logits, self._bias())
        if q_part.mask is not None:
            logits = cadd(logits, q_part.mask[:, None, :, :])
        attn = softmax(logits)
        out = matmul(attn, v)
        return q_part.merge(self._heads_merge(out))

    def __call__(self, fix: TokenMap, mov: TokenMap) -> TokenMap:
        if (fix.grid_h, fix.grid_w, fix.dim) != (mov.grid_h, mov.grid_w, mov.dim):
            raise DimensionError("fixed and moving token maps must share grid and width")
        nk = layer_norm(fix.data, self.norm_fix_g, self.norm_fix_b)
        nq = layer_norm(mov.data, self.norm_mov_g, self.norm_mov_b)
        fix_n = fix.with_data(linear(nk, self.wk, self.bk))
        fix_v = fix.with_data(linear(nk, self.wv, self.bv))
        mov_q = mov.with_data(linear(nq, self.wq, self.bq))

        k_norm = WindowPartition(fix_n, self.window, False)
        v_norm = WindowPartition(fix_v, self.window, False)
        q_norm = WindowPartition(mov_q, self.window, False)
        q_shift = WindowPartition(mov_q, self.window, self.use_shift)

        out_normal = self._attend(q_norm, k_norm, v_norm)
        out_shifted = self._attend(q_shift, k_norm, v_norm)
        summed = add(out_normal.data, out_shifted.data)
        y = add(fix.data, linear(summed, self.wo, self.bo))
        t = layer_norm(y, self.mlp_norm_g, self.mlp_norm_b)
        t = linear(t, self.mlp_w1, self.mlp_b1)
        t = gelu(t)
        t = linear(t, self.mlp_w2, self.mlp_b2)
        return fix.with_data(add(y, t))


# parameter-count formulas, used by the docs and checked in the tests
def mlp_block_param_count(dim: int, hidden_ratio: int = 4) -> int:
    hidden = hidden_ratio * dim
    return 2 * dim + (dim * hidden + hidden) + (hidden * dim + dim)


def mixer_block_param_count(
    dim: int, n_tokens: int, hidden_ratio: int = 4, token_hidden: int | None = None
) -> int:
    if token_hidden is None:
        token_hidden = max(n_tokens // 2, 8)
    token = 2 * n_tokens + (n_tokens * token_hidden + token_hidden) + (
        token_hidden * n_tokens + n_tokens
    )
    return token + mlp_block_param_count(dim, hidden_ratio)


def swin_block_param_count(dim: int, window: int, heads: int, hidden_ratio: int = 4) -> int:
    attn = 4 * dim + 4 * (dim * dim + dim) + (2 * window - 1) ** 2 * heads
    return attn + mlp_block_param_count(dim, hidden_ratio)


def patch_embed_param_count(patch: int, dim: int) -> int:
    return patch * patch * dim + dim

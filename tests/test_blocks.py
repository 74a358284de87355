"""Block-level oracles: hand-indexed patch extraction, straight-line
recompositions, brute-force window/mask enumeration, dense attention."""

import numpy as np
import pytest

from patchreg import gradcore as gc
from patchreg.blocks import (
    MixerBlock,
    MlpBlock,
    PatchEmbed,
    SwinCrossBlock,
    TokenMap,
    WindowPartition,
    _tile as extract_patches,
    _token_hidden,
)
from patchreg.gradcore import DimensionError, ParamSet, Tensor, grad_check


def rand_tokens(seed, gh, gw, dim, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return TokenMap(gh, gw, Tensor(rng.normal(size=(gh * gw, dim)).astype(dtype)))


def randomize(pset: ParamSet, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    for _, t in pset.items():
        t.data[...] = rng.normal(0, scale, size=t.shape)


# numpy mirrors of the kernels, same operation order (bit-exact oracles)


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * g + b


def np_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x**3)
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t)


# ---------------------------------------------------------------------------
# patch_embed


def test_patch_embed_full_scale_shape():
    ps = ParamSet(0, dtype=np.float32)
    embed = PatchEmbed(ps, "e", patch=4, dim=128)
    img = np.random.default_rng(0).uniform(size=(128, 128)).astype(np.float32)
    tokens = embed(img)
    assert (tokens.grid_h, tokens.grid_w, tokens.dim) == (32, 32, 128)
    assert tokens.data.shape == (1024, 128)


def test_patch_embed_constant_image_gives_identical_tokens():
    ps = ParamSet(1, dtype=np.float64)
    embed = PatchEmbed(ps, "e", patch=4, dim=8)
    tokens = embed(np.full((16, 16), 0.37)).data.data
    assert np.allclose(tokens, tokens[0])


def test_patch_extraction_matches_hand_indexing():
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    tiles = extract_patches(img, 4)
    assert tiles.shape == (4, 16)
    for ti, (r0, c0) in enumerate([(0, 0), (0, 4), (4, 0), (4, 4)]):
        expected = [img[r0 + a, c0 + b] for a in range(4) for b in range(4)]
        assert tiles[ti].tolist() == expected


def test_patch_embed_equals_manual_tiling_plus_linear():
    ps = ParamSet(2, dtype=np.float64)
    embed = PatchEmbed(ps, "e", patch=4, dim=8)
    randomize(ps, seed=3)
    img = np.random.default_rng(4).uniform(size=(8, 8))
    out = embed(img).data.data
    manual = extract_patches(img, 4) @ embed.w.data + embed.b.data
    assert np.array_equal(out, manual)


def test_patch_embed_indivisible_size():
    ps = ParamSet(3)
    embed = PatchEmbed(ps, "e", patch=4, dim=8)
    with pytest.raises(DimensionError):
        embed(np.zeros((10, 12)))


# ---------------------------------------------------------------------------
# mlp_block


def test_mlp_block_zeroed_second_linear_is_identity():
    ps = ParamSet(4, dtype=np.float64)
    block = MlpBlock(ps, "b", dim=6)
    block.mlp.w2.data[...] = 0.0
    x = rand_tokens(5, 3, 4, 6)
    out = block(x)
    assert np.array_equal(out.data.data, x.data.data)


def test_mlp_block_token_permutation_equivariance():
    ps = ParamSet(6, dtype=np.float64)
    block = MlpBlock(ps, "b", dim=5)
    randomize(ps, 7)
    x = rand_tokens(8, 4, 4, 5)
    perm = np.random.default_rng(9).permutation(16)
    out_then_perm = block(x).data.data[perm]
    permuted_in = TokenMap(4, 4, Tensor(x.data.data[perm]))
    perm_then_out = block(permuted_in).data.data
    assert np.array_equal(out_then_perm, perm_then_out)


def test_mlp_block_matches_straight_line_recomposition():
    ps = ParamSet(10, dtype=np.float64)
    block = MlpBlock(ps, "b", dim=6)
    randomize(ps, 11)
    x = rand_tokens(12, 2, 3, 6)
    out = block(x).data.data
    t = np_layer_norm(x.data.data, block.mlp.norm_g.data, block.mlp.norm_b.data)
    t = t @ block.mlp.w1.data + block.mlp.b1.data
    t = np_gelu(t)
    t = t @ block.mlp.w2.data + block.mlp.b2.data
    assert np.array_equal(out, x.data.data + t)


# ---------------------------------------------------------------------------
# mixer_block


def test_mixer_block_zeroed_second_linears_is_identity():
    ps = ParamSet(13, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=5, n_tokens=12)
    block.tok.w2.data[...] = 0.0
    block.ch.w2.data[...] = 0.0
    x = rand_tokens(14, 3, 4, 5)
    assert np.array_equal(block(x).data.data, x.data.data)


def test_mixer_token_mixing_keeps_constant_rows_constant():
    # identical token vectors, zero token-mixing biases: the mixing
    # sublayer must not break the symmetry between tokens
    ps = ParamSet(15, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=4, n_tokens=9)
    randomize(ps, 16)
    block.tok.norm_b.data[...] = 0.0
    block.tok.b1.data[...] = 0.0
    block.tok.b2.data[...] = 0.0
    block.ch.w2.data[...] = 0.0  # silence channel mixing to observe token sublayer
    row = np.random.default_rng(17).normal(size=4)
    x = TokenMap(3, 3, Tensor(np.tile(row, (9, 1))))
    out = block(x).data.data
    assert np.allclose(out, out[0])


def test_mixer_block_matches_straight_line_recomposition():
    ps = ParamSet(18, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=5, n_tokens=16)
    randomize(ps, 19)
    x = rand_tokens(20, 4, 4, 5)
    out = block(x).data.data

    t = x.data.data.T
    t = np_layer_norm(t, block.tok.norm_g.data, block.tok.norm_b.data)
    t = t @ block.tok.w1.data + block.tok.b1.data
    t = np_gelu(t)
    t = t @ block.tok.w2.data + block.tok.b2.data
    y = x.data.data + t.T
    t = np_layer_norm(y, block.ch.norm_g.data, block.ch.norm_b.data)
    t = t @ block.ch.w1.data + block.ch.b1.data
    t = np_gelu(t)
    t = t @ block.ch.w2.data + block.ch.b2.data
    assert np.array_equal(out, y + t)


def test_mixer_block_rejects_wrong_token_count():
    ps = ParamSet(21, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=4, n_tokens=16)
    with pytest.raises(DimensionError):
        block(rand_tokens(22, 3, 3, 4))


# ---------------------------------------------------------------------------
# window partition


def brute_force_windows(grid, window, shifted):
    """Window index sets by explicit loops; shifted rolls by half a window."""
    s = window // 2 if shifted else 0
    sets = []
    for wi in range(grid // window):
        for wj in range(grid // window):
            idxs = []
            for a in range(window):
                for b in range(window):
                    i = (wi * window + a + s) % grid
                    j = (wj * window + b + s) % grid
                    idxs.append(i * grid + j)
            sets.append(idxs)
    return sets


def brute_force_region(i, grid, window):
    s = window // 2
    if i < grid - window:
        return 0
    if i < grid - s:
        return 1
    return 2


def test_partition_round_trip_bit_exact():
    for shifted in (False, True):
        x = rand_tokens(23, 4, 4, 5)
        part = WindowPartition(4, 4, 2, shifted)
        merged = part.merge(part.split(x.data))
        assert np.array_equal(merged.data, x.data.data)


def test_partition_normal_4x4_window2_matches_enumeration():
    x = rand_tokens(24, 4, 4, 3)
    part = WindowPartition(4, 4, 2, False)
    windows = part.split(x.data).data
    for wi, idxs in enumerate(brute_force_windows(4, 2, shifted=False)):
        assert np.array_equal(windows[wi], x.data.data[idxs])


def test_partition_shifted_windows_match_enumeration():
    x = rand_tokens(25, 4, 4, 3)
    part = WindowPartition(4, 4, 2, True)
    windows = part.split(x.data).data
    for wi, idxs in enumerate(brute_force_windows(4, 2, shifted=True)):
        assert np.array_equal(windows[wi], x.data.data[idxs])


def test_shifted_mask_matches_brute_force_region_labels():
    grid, window = 4, 2
    part = WindowPartition(grid, grid, window, True)
    assert part.mask is not None
    sets = brute_force_windows(grid, window, shifted=True)
    for wi, idxs in enumerate(sets):
        for a, ta in enumerate(idxs):
            for b, tb in enumerate(idxs):
                ra = (
                    brute_force_region(ta // grid, grid, window),
                    brute_force_region(ta % grid, grid, window),
                )
                rb = (
                    brute_force_region(tb // grid, grid, window),
                    brute_force_region(tb % grid, grid, window),
                )
                expected = 0.0 if ra == rb else -np.inf
                assert part.mask[wi, a, b] == expected
    # the roll must actually forbid something
    assert np.isneginf(part.mask).any()


def test_partition_rejects_indivisible_grid():
    with pytest.raises(DimensionError):
        WindowPartition(3, 3, 2, False)


# ---------------------------------------------------------------------------
# swin cross block


def swin_reference(block, fix, mov, grid):
    """Dense per-window attention with explicit loops and the same
    region-label mask; mirrors the block's arithmetic in numpy."""
    window, heads, dim = block.window, block.heads, block.dim
    dh = dim // heads
    scale = 1.0 / np.sqrt(dh)
    nk = np_layer_norm(fix, block.norm_fix_g.data, block.norm_fix_b.data)
    nq = np_layer_norm(mov, block.norm_mov_g.data, block.norm_mov_b.data)
    q = nq @ block.wq.data + block.bq.data
    k = nk @ block.wk.data + block.bk.data
    v = nk @ block.wv.data + block.bv.data

    bias = np.zeros((heads, window * window, window * window))
    for h in range(heads):
        for a in range(window * window):
            for b in range(window * window):
                di = a // window - b // window
                dj = a % window - b % window
                bias[h, a, b] = block.bias_table.data[
                    (di + window - 1) * (2 * window - 1) + (dj + window - 1), h
                ]

    use_shift = window < grid
    total = np.zeros_like(q)
    for shifted in (False, True):
        eff_shift = shifted and use_shift
        q_sets = brute_force_windows(grid, window, shifted=eff_shift)
        k_sets = brute_force_windows(grid, window, shifted=False)
        for q_idxs, k_idxs in zip(q_sets, k_sets):
            for h in range(heads):
                qh = q[q_idxs, h * dh : (h + 1) * dh]
                kh = k[k_idxs, h * dh : (h + 1) * dh]
                vh = v[k_idxs, h * dh : (h + 1) * dh]
                logits = qh @ kh.T * scale + bias[h]
                if eff_shift:
                    for a, ta in enumerate(q_idxs):
                        for b, tb in enumerate(q_idxs):
                            ra = (
                                brute_force_region(ta // grid, grid, window),
                                brute_force_region(ta % grid, grid, window),
                            )
                            rb = (
                                brute_force_region(tb // grid, grid, window),
                                brute_force_region(tb % grid, grid, window),
                            )
                            if ra != rb:
                                logits[a, b] = -np.inf
                attn = np.exp(logits - logits.max(axis=-1, keepdims=True))
                attn = attn / attn.sum(axis=-1, keepdims=True)
                assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
                for a, ta in enumerate(q_idxs):
                    total[ta, h * dh : (h + 1) * dh] += attn[a] @ vh
    y = fix + (total @ block.wo.data + block.bo.data)
    t = np_layer_norm(y, block.mlp.norm_g.data, block.mlp.norm_b.data)
    t = np_gelu(t @ block.mlp.w1.data + block.mlp.b1.data)
    return y + (t @ block.mlp.w2.data + block.mlp.b2.data)


def test_swin_block_matches_dense_attention_oracle():
    grid, window, heads, dim = 8, 4, 2, 8
    ps = ParamSet(30, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, grid, window, heads)
    randomize(ps, 31, scale=0.3)
    fix = rand_tokens(32, grid, grid, dim)
    mov = rand_tokens(33, grid, grid, dim)
    out = block(fix, mov).data.data
    ref = swin_reference(block, fix.data.data, mov.data.data, grid)
    assert np.abs(out - ref).max() < 1e-5


def test_swin_block_whole_grid_window_matches_oracle():
    # window == grid: single window, shifted pass degenerates to normal
    grid, window, heads, dim = 4, 4, 1, 6
    ps = ParamSet(34, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, grid, window, heads)
    randomize(ps, 35, scale=0.3)
    x = rand_tokens(36, grid, grid, dim)
    out = block(x, x).data.data
    ref = swin_reference(block, x.data.data, x.data.data, grid)
    assert np.abs(out - ref).max() < 1e-5


def test_swin_block_zero_values_reduces_to_residual_path():
    grid, window, heads, dim = 4, 2, 2, 8
    ps = ParamSet(37, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, grid, window, heads)
    randomize(ps, 38, scale=0.3)
    block.wv.data[...] = 0.0
    block.bv.data[...] = 0.0
    block.bo.data[...] = 0.0
    fix = rand_tokens(39, grid, grid, dim)
    mov = rand_tokens(40, grid, grid, dim)
    out = block(fix, mov).data.data
    y = fix.data.data
    t = np_layer_norm(y, block.mlp.norm_g.data, block.mlp.norm_b.data)
    t = np_gelu(t @ block.mlp.w1.data + block.mlp.b1.data)
    expected = y + (t @ block.mlp.w2.data + block.mlp.b2.data)
    assert np.allclose(out, expected, atol=1e-12)


def test_swin_block_permutation_equivariance_whole_grid():
    grid, dim = 4, 6
    ps = ParamSet(41, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, grid, window=grid, heads=2)
    randomize(ps, 42, scale=0.3)
    block.bias_table.data[...] = 0.0
    fix = rand_tokens(43, grid, grid, dim)
    mov = rand_tokens(44, grid, grid, dim)
    perm = np.random.default_rng(45).permutation(grid * grid)
    base = block(fix, mov).data.data
    out_perm = block(
        TokenMap(grid, grid, Tensor(fix.data.data[perm])),
        TokenMap(grid, grid, Tensor(mov.data.data[perm])),
    ).data.data
    assert np.allclose(base[perm], out_perm, atol=1e-10)


def test_swin_block_rejects_wrong_grid():
    # 2x8 has the 4x4 grid's token count and is divisible by the window,
    # so only the grid check stops the built layouts permuting it
    ps = ParamSet(46, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", 8, 4, 4, window=2, heads=2)
    good = rand_tokens(47, 4, 4, 8)
    for bad in (rand_tokens(48, 2, 8, 8), rand_tokens(49, 4, 8, 8)):
        for fix, mov in ((bad, bad), (good, bad), (bad, good)):
            with pytest.raises(DimensionError):
                block(fix, mov)


# ---------------------------------------------------------------------------
# differentiability of every block


def scalar_readout(t: gc.Tensor, seed=0):
    r = np.random.default_rng(seed).normal(size=t.shape)
    return gc.sum_all(gc.mul(t, Tensor(r)))


@pytest.mark.parametrize("kind", ["mlp", "mixer", "swin", "embed"])
def test_blocks_pass_grad_check(kind):
    ps = ParamSet(50, dtype=np.float64)
    grid, dim = 4, 8
    if kind == "embed":
        block = PatchEmbed(ps, "e", patch=4, dim=dim)
        img = np.random.default_rng(51).uniform(size=(16, 16))
        f = lambda params: scalar_readout(block(img).data)
    elif kind == "mlp":
        block = MlpBlock(ps, "b", dim)
        x = rand_tokens(52, grid, grid, dim)
        f = lambda params: scalar_readout(block(x).data)
    elif kind == "mixer":
        block = MixerBlock(ps, "b", dim, n_tokens=grid * grid)
        x = rand_tokens(53, grid, grid, dim)
        f = lambda params: scalar_readout(block(x).data)
    else:
        block = SwinCrossBlock(ps, "s", dim, grid, grid, window=2, heads=2)
        fix = rand_tokens(54, grid, grid, dim)
        mov = rand_tokens(55, grid, grid, dim)
        f = lambda params: scalar_readout(block(fix, mov).data)
    randomize(ps, 56, scale=0.3)
    report = grad_check(f, ps, n_probes=25, step=1e-5, seed=57)
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# parameter counts match the published formulas


def mlp_param_count(dim: int, hidden: int) -> int:
    return 2 * dim + (dim * hidden + hidden) + (hidden * dim + dim)


def mlp_block_param_count(dim: int, hidden_ratio: int = 4) -> int:
    return mlp_param_count(dim, hidden_ratio * dim)


def mixer_block_param_count(dim: int, n_tokens: int, hidden_ratio: int = 4) -> int:
    token = mlp_param_count(n_tokens, _token_hidden(n_tokens))
    return token + mlp_block_param_count(dim, hidden_ratio)


def swin_block_param_count(dim: int, window: int, heads: int, hidden_ratio: int = 4) -> int:
    attn = 4 * dim + 4 * (dim * dim + dim) + (2 * window - 1) ** 2 * heads
    return attn + mlp_block_param_count(dim, hidden_ratio)


def patch_embed_param_count(patch: int, dim: int) -> int:
    return patch * patch * dim + dim


def test_param_count_formulas():
    dim, grid = 16, 8
    ps = ParamSet(60)
    MlpBlock(ps, "m", dim)
    assert ps.n_values() == mlp_block_param_count(dim)

    ps = ParamSet(61)
    MixerBlock(ps, "x", dim, n_tokens=grid * grid)
    assert ps.n_values() == mixer_block_param_count(dim, grid * grid)

    ps = ParamSet(62)
    SwinCrossBlock(ps, "s", dim, grid, grid, window=4, heads=4)
    assert ps.n_values() == swin_block_param_count(dim, window=4, heads=4)

    ps = ParamSet(63)
    PatchEmbed(ps, "e", patch=4, dim=dim)
    assert ps.n_values() == patch_embed_param_count(4, dim)

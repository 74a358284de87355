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
    WindowPartition,
    _tile as extract_patches,
    _token_hidden,
)
from patchreg.gradcore import DimensionError, ParamSet, Tensor, grad_check

from shared import scalar_readout


def rand_tokens(seed, gh, gw, dim, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(gh * gw, dim)).astype(dtype))


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
    u = c * (x + 0.044715 * (x * x * x))  # the kernel's product order, not pow
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t)


# ---------------------------------------------------------------------------
# patch_embed


def test_patch_embed_full_scale_shape():
    ps = ParamSet(0, dtype=np.float32)
    embed = PatchEmbed(ps, "e", patch=4, dim=128)
    img = np.random.default_rng(0).uniform(size=(128, 128)).astype(np.float32)
    tokens = embed(img)
    assert tokens.shape == (32 * 32, 128)


def test_patch_embed_constant_image_gives_identical_tokens():
    ps = ParamSet(1, dtype=np.float64)
    embed = PatchEmbed(ps, "e", patch=4, dim=8)
    tokens = embed(np.full((16, 16), 0.37)).data
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
    out = embed(img).data
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
    assert np.array_equal(out.data, x.data)


def test_mlp_block_token_permutation_equivariance():
    ps = ParamSet(6, dtype=np.float64)
    block = MlpBlock(ps, "b", dim=5)
    randomize(ps, 7)
    x = rand_tokens(8, 4, 4, 5)
    perm = np.random.default_rng(9).permutation(16)
    out_then_perm = block(x).data[perm]
    permuted_in = Tensor(x.data[perm])
    perm_then_out = block(permuted_in).data
    assert np.array_equal(out_then_perm, perm_then_out)


def test_mlp_block_matches_straight_line_recomposition():
    ps = ParamSet(10, dtype=np.float64)
    block = MlpBlock(ps, "b", dim=6)
    randomize(ps, 11)
    x = rand_tokens(12, 2, 3, 6)
    out = block(x).data
    t = np_layer_norm(x.data, block.mlp.norm_g.data, block.mlp.norm_b.data)
    t = t @ block.mlp.w1.data + block.mlp.b1.data
    t = np_gelu(t)
    t = t @ block.mlp.w2.data + block.mlp.b2.data
    assert np.array_equal(block.mlp(x).data, t)  # the branch, before the residual rounds
    assert np.array_equal(out, x.data + t)


# ---------------------------------------------------------------------------
# mixer_block


def test_mixer_block_zeroed_second_linears_is_identity():
    ps = ParamSet(13, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=5, n_tokens=12)
    block.tok.w2.data[...] = 0.0
    block.ch.w2.data[...] = 0.0
    x = rand_tokens(14, 3, 4, 5)
    assert np.array_equal(block(x).data, x.data)


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
    x = Tensor(np.tile(row, (9, 1)))
    out = block(x).data
    assert np.allclose(out, out[0])


def test_mixer_block_matches_straight_line_recomposition():
    ps = ParamSet(18, dtype=np.float64)
    block = MixerBlock(ps, "b", dim=5, n_tokens=16)
    randomize(ps, 19)
    x = rand_tokens(20, 4, 4, 5)
    out = block(x).data

    t = x.data.T
    t = np_layer_norm(t, block.tok.norm_g.data, block.tok.norm_b.data)
    t = t @ block.tok.w1.data + block.tok.b1.data
    t = np_gelu(t)
    t = t @ block.tok.w2.data + block.tok.b2.data
    y = x.data + t.T
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
        part = WindowPartition(4, 2, shifted)
        merged = part.merge(part.split(x))
        assert np.array_equal(merged.data, x.data)


def test_partition_normal_4x4_window2_matches_enumeration():
    x = rand_tokens(24, 4, 4, 3)
    part = WindowPartition(4, 2, False)
    windows = part.split(x).data
    for wi, idxs in enumerate(brute_force_windows(4, 2, shifted=False)):
        assert np.array_equal(windows[wi], x.data[idxs])


def test_partition_shifted_windows_match_enumeration():
    x = rand_tokens(25, 4, 4, 3)
    part = WindowPartition(4, 2, True)
    windows = part.split(x).data
    for wi, idxs in enumerate(brute_force_windows(4, 2, shifted=True)):
        assert np.array_equal(windows[wi], x.data[idxs])


def test_shifted_mask_matches_brute_force_region_labels():
    grid, window = 4, 2
    part = WindowPartition(grid, window, True)
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
        WindowPartition(3, 2, False)


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
    block = SwinCrossBlock(ps, "s", dim, grid, window, heads)
    randomize(ps, 31, scale=0.3)
    fix = rand_tokens(32, grid, grid, dim)
    mov = rand_tokens(33, grid, grid, dim)
    out = block(fix, mov).data
    ref = swin_reference(block, fix.data, mov.data, grid)
    assert np.abs(out - ref).max() < 1e-5


def test_swin_block_whole_grid_window_matches_oracle():
    # window == grid: single window, shifted pass degenerates to normal
    grid, window, heads, dim = 4, 4, 1, 6
    ps = ParamSet(34, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, window, heads)
    randomize(ps, 35, scale=0.3)
    x = rand_tokens(36, grid, grid, dim)
    out = block(x, x).data
    ref = swin_reference(block, x.data, x.data, grid)
    assert np.abs(out - ref).max() < 1e-5


def test_swin_block_zero_values_reduces_to_residual_path():
    grid, window, heads, dim = 4, 2, 2, 8
    ps = ParamSet(37, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, window, heads)
    randomize(ps, 38, scale=0.3)
    block.wv.data[...] = 0.0
    block.bv.data[...] = 0.0
    block.bo.data[...] = 0.0
    fix = rand_tokens(39, grid, grid, dim)
    mov = rand_tokens(40, grid, grid, dim)
    out = block(fix, mov).data
    y = fix.data
    t = np_layer_norm(y, block.mlp.norm_g.data, block.mlp.norm_b.data)
    t = np_gelu(t @ block.mlp.w1.data + block.mlp.b1.data)
    expected = y + (t @ block.mlp.w2.data + block.mlp.b2.data)
    assert np.allclose(out, expected, atol=1e-12)


def test_swin_block_permutation_equivariance_whole_grid():
    grid, dim = 4, 6
    ps = ParamSet(41, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", dim, grid, window=grid, heads=2)
    randomize(ps, 42, scale=0.3)
    block.bias_table.data[...] = 0.0
    fix = rand_tokens(43, grid, grid, dim)
    mov = rand_tokens(44, grid, grid, dim)
    perm = np.random.default_rng(45).permutation(grid * grid)
    base = block(fix, mov).data
    out_perm = block(
        Tensor(fix.data[perm]),
        Tensor(mov.data[perm]),
    ).data
    assert np.allclose(base[perm], out_perm, atol=1e-10)


def test_swin_block_rejects_wrong_grid():
    # the 32 tokens of a 4x8 grid, and 16 tokens of the wrong width
    ps = ParamSet(46, dtype=np.float64)
    block = SwinCrossBlock(ps, "s", 8, 4, window=2, heads=2)
    good = rand_tokens(47, 4, 4, 8)
    for bad in (rand_tokens(48, 4, 8, 8), rand_tokens(49, 4, 4, 6)):
        for fix, mov in ((bad, bad), (good, bad), (bad, good)):
            with pytest.raises(DimensionError):
                block(fix, mov)


def head_layout_attention(q, k, v, bias, mask, scale):
    """Reference for window_attention with the heads split outside it:
    q, k, v [n_windows, heads, t, head_dim], bias [heads, t, t], mask
    None or [n_windows, 1, t, t]; the arithmetic in the same order."""
    scale = q.dtype.type(scale)
    if mask is not None:
        mask = np.asarray(mask, dtype=q.dtype)
    qs = q.data * scale
    kd, vd = k.data, v.data
    p = qs @ kd.swapaxes(-1, -2)
    p += bias.data
    if mask is not None:
        p += mask
    p -= np.fmax.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gv = p.swapaxes(-1, -2) @ g
        gs = g @ vd.swapaxes(-1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = gs @ kd
        gq *= scale
        gk = gs.swapaxes(-1, -2) @ qs
        return gq, gk, gv, gs.sum(axis=0)

    return gc._node(p @ vd, (q, k, v, bias), backward_fn)


def head_layout_swin(block, fix, mov):
    """The block's forward with the head split, head merge and bias
    transpose done by graph nodes outside the fused op."""
    heads, wsq = block.heads, block.window * block.window

    def heads_split(tokens, layout):
        windows = layout.split(tokens)
        t = gc.reshape(windows, windows.shape[:2] + (heads, block.dim // heads))
        return gc.transpose(t, (0, 2, 1, 3))

    def heads_merge(t, layout):
        n_win = t.shape[0]
        return layout.merge(gc.reshape(gc.transpose(t, (0, 2, 1, 3)), (n_win, wsq, block.dim)))

    def attend(q, k, v, bias, layout):
        mask = None if layout.mask is None else layout.mask[:, None]
        out = head_layout_attention(heads_split(q, layout), k, v, bias, mask, block.scale)
        return heads_merge(out, layout)

    bias = gc.reshape(gc.gather_rows(block.bias_table, block._rel_index), (wsq, wsq, heads))
    bias = gc.transpose(bias, (2, 0, 1))
    nk = gc.layer_norm(fix, block.norm_fix_g, block.norm_fix_b)
    nq = gc.layer_norm(mov, block.norm_mov_g, block.norm_mov_b)
    k = heads_split(gc.linear(nk, block.wk, block.bk), block.normal)
    v = heads_split(gc.linear(nk, block.wv, block.bv), block.normal)
    q = gc.linear(nq, block.wq, block.bq)
    summed = gc.add(attend(q, k, v, bias, block.normal), attend(q, k, v, bias, block.shifted))
    y = gc.add(fix, gc.linear(summed, block.wo, block.bo))
    return gc.add(y, block.mlp(y))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "grid, window, heads, dim",
    [(8, 4, 2, 8), (4, 4, 2, 6)],
    ids=["shifted", "whole-grid"],
)
def test_swin_block_bit_exact_to_head_layout_oracle(dtype, grid, window, heads, dim):
    readout = np.random.default_rng(64).normal(size=(grid * grid, dim)).astype(dtype)
    results = []
    for forward in (lambda block, fix, mov: block(fix, mov), head_layout_swin):
        ps = ParamSet(60, dtype=dtype)
        block = SwinCrossBlock(ps, "s", dim, grid, window, heads)
        randomize(ps, 61, scale=0.3)
        fix = rand_tokens(62, grid, grid, dim, dtype)
        mov = rand_tokens(63, grid, grid, dim, dtype)
        out = forward(block, fix, mov)
        by_leaf = gc.backward(gc.sum_all(gc.mul(out, readout)))
        grads = [by_leaf[fix], by_leaf[mov]] + [by_leaf[t] for _, t in ps.items()]
        results.append([out.data] + grads)
    assert (block.shifted is block.normal) == (window == grid)
    names = ["out", "fix", "mov"] + ps.names()
    for name, new, old in zip(names, *results):
        assert new.dtype == old.dtype == dtype, name
        assert new.shape == old.shape and new.tobytes() == old.tobytes(), name


# ---------------------------------------------------------------------------
# differentiability of every block


@pytest.mark.parametrize("kind", ["mlp", "mixer", "swin", "embed"])
def test_blocks_pass_grad_check(kind):
    ps = ParamSet(50, dtype=np.float64)
    grid, dim = 4, 8
    if kind == "embed":
        block = PatchEmbed(ps, "e", patch=4, dim=dim)
        img = np.random.default_rng(51).uniform(size=(16, 16))
        f = lambda params: scalar_readout(block(img))
    elif kind == "mlp":
        block = MlpBlock(ps, "b", dim)
        x = rand_tokens(52, grid, grid, dim)
        f = lambda params: scalar_readout(block(x))
    elif kind == "mixer":
        block = MixerBlock(ps, "b", dim, n_tokens=grid * grid)
        x = rand_tokens(53, grid, grid, dim)
        f = lambda params: scalar_readout(block(x))
    else:
        block = SwinCrossBlock(ps, "s", dim, grid, window=2, heads=2)
        fix = rand_tokens(54, grid, grid, dim)
        mov = rand_tokens(55, grid, grid, dim)
        f = lambda params: scalar_readout(block(fix, mov))
    randomize(ps, 56, scale=0.3)
    report = grad_check(f, ps, n_probes=25, step=1e-5, seed=57)
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# parameter counts match the published formulas


def mlp_param_count(dim: int, hidden: int) -> int:
    return 2 * dim + (dim * hidden + hidden) + (hidden * dim + dim)


def mlp_block_param_count(dim: int) -> int:
    return mlp_param_count(dim, 4 * dim)  # hidden ratio 4


def mixer_block_param_count(dim: int, n_tokens: int) -> int:
    token = mlp_param_count(n_tokens, _token_hidden(n_tokens))
    return token + mlp_block_param_count(dim)


def swin_block_param_count(dim: int, window: int, heads: int) -> int:
    attn = 4 * dim + 4 * (dim * dim + dim) + (2 * window - 1) ** 2 * heads
    return attn + mlp_block_param_count(dim)


def patch_embed_param_count(patch: int, dim: int) -> int:
    return patch * patch * dim + dim


def n_values(pset: ParamSet) -> int:
    return sum(t.size for _, t in pset.items())


def test_param_count_formulas():
    dim, grid = 16, 8
    ps = ParamSet(60)
    MlpBlock(ps, "m", dim)
    assert n_values(ps) == mlp_block_param_count(dim)

    ps = ParamSet(61)
    MixerBlock(ps, "x", dim, n_tokens=grid * grid)
    assert n_values(ps) == mixer_block_param_count(dim, grid * grid)

    ps = ParamSet(62)
    SwinCrossBlock(ps, "s", dim, grid, window=4, heads=4)
    assert n_values(ps) == swin_block_param_count(dim, window=4, heads=4)

    ps = ParamSet(63)
    PatchEmbed(ps, "e", patch=4, dim=dim)
    assert n_values(ps) == patch_embed_param_count(4, dim)

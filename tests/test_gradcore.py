"""Kernel-level checks of the autodiff engine against finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchreg import gradcore as gc
from patchreg.gradcore import (
    ContractError,
    DimensionError,
    ParamSet,
    Tensor,
    backward,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    softmax,
)


def fd_check(build, arrays, n_probes=30, step=1e-5, seed=0):
    """Central finite differences of a scalar graph vs analytic grads.

    ``build`` maps a list of Tensors (one per array) to a scalar Tensor.
    Returns the max relative error over random coordinates of every input.
    """
    tensors = [Tensor(a.astype(np.float64)) for a in arrays]
    out = build(tensors)
    backward(out)
    analytic = [t.grad.copy() for t in tensors]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        ti = int(rng.integers(len(tensors)))
        if tensors[ti].size == 0:
            continue
        idx = int(rng.integers(tensors[ti].size))
        orig = tensors[ti].data.flat[idx]
        tensors[ti].data.flat[idx] = orig + step
        fp = build(tensors).item()
        tensors[ti].data.flat[idx] = orig - step
        fm = build(tensors).item()
        tensors[ti].data.flat[idx] = orig
        fd = (fp - fm) / (2 * step)
        an = float(analytic[ti].flat[idx])
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
    return worst


def scalar_readout(t, seed=0):
    """Project a tensor to a scalar with a fixed random weighting."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=t.shape)
    return gc.sum_all(gc.mul(t, Tensor(r.astype(np.float64))))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_hand_dot():
    out = matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0], [4.0]])))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_finite_difference():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
    err = fd_check(lambda ts: scalar_readout(matmul(ts[0], ts[1])), [a, b])
    assert err < 1e-6


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(4, 5, 2))
    out = matmul(Tensor(a), Tensor(b))
    for i in range(4):
        assert np.allclose(out.data[i], a[i] @ b[i])
    err = fd_check(lambda ts: scalar_readout(matmul(ts[0], ts[1])), [a, b])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    x = np.random.default_rng(2).normal(size=(3, 4))
    out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, x)


def test_linear_hand_value():
    out = linear(Tensor([[1.0, 1.0]]), Tensor([[1.0], [2.0]]), Tensor([3.0]))
    assert out.data.tolist() == [[6.0]]


def test_linear_finite_difference_all_inputs():
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(4, 8)), rng.normal(size=(8, 2)), rng.normal(size=2)
    err = fd_check(lambda ts: scalar_readout(linear(*ts)), [x, w, b], n_probes=40)
    assert err < 1e-6


def test_linear_shape_errors():
    with pytest.raises(DimensionError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(DimensionError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_maps_to_zero():
    out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    # unit variance, so only the fixed eps (1e-5) moves the values
    assert np.allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + 1e-5), rtol=0, atol=1e-12)


def test_layer_norm_finite_difference():
    rng = np.random.default_rng(4)
    x, g, b = rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)
    err = fd_check(lambda ts: scalar_readout(layer_norm(*ts)), [x, g, b], n_probes=40)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# gelu


def test_gelu_at_zero_and_asymptotes():
    out = gelu(Tensor([0.0, 10.0, -10.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-4
    assert abs(out.data[2]) < 1e-4


def test_gelu_finite_difference():
    x = np.random.default_rng(5).normal(size=(4, 5))
    err = fd_check(lambda ts: scalar_readout(gelu(ts[0])), [x])
    assert err < 1e-5


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    for c in (-3.0, 0.0, 100.0):
        out = softmax(Tensor([[c, c, c]]))
        assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_hand_value():
    out = softmax(Tensor([[0.0, np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_gradient():
    x = np.random.default_rng(6).normal(size=(4, 9))
    out = softmax(Tensor(x))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
    err = fd_check(lambda ts: scalar_readout(softmax(ts[0])), [x])
    assert err < 1e-5


def test_softmax_with_minus_inf_mask():
    x = np.array([[1.0, -np.inf, 2.0]])
    out = softmax(Tensor(x))
    assert out.data[0, 1] == 0.0
    assert np.allclose(out.data.sum(), 1.0)


# ---------------------------------------------------------------------------
# window_attention


def attention_inputs(seed, n=3, heads=2, t=5, d=6):
    """q, k, v [n, t, d], a bias [t, t, heads] shared by the n windows,
    and a constant mask [n, t, t] whose every row holds at least one
    -inf entry and at least one finite one."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(n, t, d)) for _ in range(3))
    bias = rng.normal(size=(t, t, heads))
    mask = np.where(rng.uniform(size=(n, t, t)) < 0.4, -np.inf, 0.0)
    keep = rng.integers(t, size=(n, t, 1))
    drop = (keep + rng.integers(1, t, size=keep.shape)) % t
    np.put_along_axis(mask, keep, 0.0, axis=-1)
    np.put_along_axis(mask, drop, -np.inf, axis=-1)
    return [q, k, v, bias], mask


def composite_attention(q, k, v, bias, mask, scale):
    """The unfused chain on [n, heads, t, d // heads] head splits:
    matmul -> cmul -> add -> cadd -> softmax -> matmul, heads merged back."""
    n, t, d = q.shape
    heads = bias.shape[-1]

    def split(a):
        return gc.transpose(gc.reshape(a, (n, t, heads, d // heads)), (0, 2, 1, 3))

    logits = gc.cmul(matmul(split(q), gc.transpose(split(k), (0, 1, 3, 2))), scale)
    logits = gc.cadd(gc.add(logits, gc.transpose(bias, (2, 0, 1))), mask[:, None])
    out = matmul(softmax(logits), split(v))
    return gc.reshape(gc.transpose(out, (0, 2, 1, 3)), (n, t, d))


def test_window_attention_finite_difference_with_mask():
    arrays, mask = attention_inputs(7)
    assert np.isneginf(mask).any(axis=-1).all() and np.isfinite(mask).any(axis=-1).all()
    scale = 1.0 / np.sqrt(3.0)
    err = fd_check(
        lambda ts: scalar_readout(gc.window_attention(*ts, mask, scale)),
        arrays,
        n_probes=80,
    )
    assert err < 1e-6


def test_window_attention_matches_composite_chain():
    arrays, mask = attention_inputs(8)
    scale = 1.0 / np.sqrt(3.0)
    results = []
    for op in (
        lambda q, k, v, b: gc.window_attention(q, k, v, b, mask, scale),
        lambda q, k, v, b: composite_attention(q, k, v, b, mask, scale),
    ):
        ts = [Tensor(a.copy()) for a in arrays]
        out = op(*ts)
        backward(scalar_readout(out, seed=9))
        results.append([out.data] + [t.grad for t in ts])
    for name, fused, oracle in zip(("out", "q", "k", "v", "bias"), *results):
        np.testing.assert_allclose(fused, oracle, rtol=1e-12, err_msg=name)


def test_window_attention_shape_errors():
    (q, k, v, bias), mask = attention_inputs(10)
    with pytest.raises(DimensionError, match="bias"):
        gc.window_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(bias[:1]), None, 1.0)
    with pytest.raises(DimensionError, match="mask"):
        gc.window_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(bias), mask[:1], 1.0)
    with pytest.raises(DimensionError, match="share"):
        gc.window_attention(Tensor(q), Tensor(k[:1]), Tensor(v), Tensor(bias), None, 1.0)
    with pytest.raises(DimensionError, match="heads dividing 6"):
        gc.window_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(bias[..., :1].repeat(4, -1)), None, 1.0)
    with pytest.raises(DimensionError, match="mask"):
        gc.window_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(bias), mask[:, None], 1.0)


# ---------------------------------------------------------------------------
# gather_rows


def test_gather_rows_permutation_finite_difference():
    # rows of a [2, 3, 3] operand are its 6 rows of width 3, as in [6, 3]
    perm = np.random.default_rng(3).permutation(6)
    for shape, idx in (((6, 3), perm), ((2, 3, 3), perm.reshape(2, 3))):
        x = np.random.default_rng(4).normal(size=shape)
        t = Tensor(x)
        out = gc.gather_rows(t, idx)
        backward(scalar_readout(out))
        assert out.shape == idx.shape + (3,) and t.grad.shape == shape
        err = fd_check(lambda ts: scalar_readout(gc.gather_rows(ts[0], idx)), [x])
        assert err < 1e-7
    with pytest.raises(DimensionError, match="2 or more axes"):
        gc.gather_rows(Tensor(np.zeros(6)), perm)


def test_gather_rows_duplicated_index_finite_difference():
    idx = np.array([[4, 0, 4], [1, 4, 0]])  # row 4 thrice, rows 2 and 3 never
    for shape in ((5, 2), (5, 1, 2)):
        x = np.random.default_rng(5).normal(size=shape)
        t = Tensor(x)
        out = gc.gather_rows(t, idx)
        backward(scalar_readout(out))
        assert out.shape == (2, 3, 2) and t.grad.shape == shape
        err = fd_check(lambda ts: scalar_readout(gc.gather_rows(ts[0], idx)), [x])
        assert err < 1e-7


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
    backward(gc.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_hand_quadratic():
    x = Tensor([1.0, 2.0])
    backward(gc.sum_all(gc.mul(x, x)))
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_fanout_sums_both_paths():
    x = Tensor(np.random.default_rng(8).normal(size=5))
    loss = gc.add(gc.sum_all(x), gc.sum_all(gc.cmul(x, 2.0)))
    backward(loss)
    assert np.allclose(x.grad, 3.0)


def test_backward_requires_scalar_root():
    x = Tensor(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        backward(gc.mul(x, x))


def test_backward_accumulates_on_repeat():
    x = Tensor([1.0, 2.0])
    loss = gc.sum_all(gc.mul(x, x))
    backward(loss)
    backward(loss)
    assert x.grad.tolist() == [4.0, 8.0]


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
    w = Tensor(np.random.default_rng(10).normal(size=(4, 4)))
    nodes = [matmul(x, w)]
    nodes.append(gelu(nodes[-1]))
    nodes.append(softmax(nodes[-1]))
    nodes.append(gc.sum_all(gc.mul(nodes[-1], nodes[0])))
    assert x.grad is None and w.grad is None
    backward(nodes[-1])
    assert all(n.grad is None for n in nodes)
    assert x.grad.shape == x.shape and x.grad.dtype == x.dtype
    assert w.grad.shape == w.shape and w.grad.dtype == w.dtype


def test_leaf_grad_is_created_in_leaf_dtype_and_zeroable():
    x = Tensor(np.ones(3, dtype=np.float32))
    x.zero_grad()
    assert x.grad is None
    backward(gc.sum_all(x))  # the incoming gradient is a read-only broadcast view
    assert x.grad.dtype == np.float32 and x.grad.tolist() == [1.0, 1.0, 1.0]
    x.zero_grad()
    assert x.grad.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# constants: an operand that is not a Tensor gets no edge and no gradient

_ONE_CONSTANT_OPS = {
    "add": (gc.add, [(3, 4), (4,)]),
    "sub": (gc.sub, [(3, 4), (3, 4)]),
    "mul": (gc.mul, [(3, 4), (1, 4)]),
    "linear": (linear, [(3, 4), (4, 5), (5,)]),
    "layer_norm": (layer_norm, [(3, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("name", sorted(_ONE_CONSTANT_OPS))
def test_numpy_operand_leaves_other_gradients_bit_identical(name):
    op, shapes = _ONE_CONSTANT_OPS[name]
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=s) for s in shapes]
    for const in range(len(arrays)):
        full = [Tensor(a.copy()) for a in arrays]
        backward(scalar_readout(op(*full)))
        mixed = [a.copy() if i == const else Tensor(a.copy()) for i, a in enumerate(arrays)]
        out = op(*mixed)
        assert out.requires_grad and out._parents[const] is None
        backward(scalar_readout(out))
        for i, (f, m) in enumerate(zip(full, mixed)):
            if i != const:
                assert np.array_equal(m.grad, f.grad), (name, const, i)


def test_op_on_numpy_operands_only_is_a_constant():
    rng = np.random.default_rng(12)
    c = linear(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2))
    assert not c.requires_grad and c._backward is None and c._parents == ()
    root = gc.sum_all(gelu(c))
    assert not root.requires_grad and root._backward is None
    backward(root)
    assert root.grad is None and c.grad is None
    p = Tensor(rng.normal(size=(3, 2)))
    backward(gc.sum_all(gc.mul(p, c)))
    assert c.grad is None and np.array_equal(p.grad, c.data)


def test_deep_chain_does_not_recurse():
    x = Tensor([1.0])
    y = x
    for _ in range(5000):
        y = gc.cmul(y, 1.0)
    backward(gc.sum_all(y))
    assert x.grad.tolist() == [1.0]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mul_gradient_is_other_operand(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=4))
    b = Tensor(rng.normal(size=4))
    backward(gc.sum_all(gc.mul(a, b)))
    assert np.allclose(a.grad, b.data)
    assert np.allclose(b.grad, a.data)


def test_broadcast_add_sums_gradient():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros(4))
    backward(gc.sum_all(gc.add(a, b)))
    assert np.allclose(b.grad, 3.0)


# ---------------------------------------------------------------------------
# multi-shape finite-difference property (module invariant)


@pytest.mark.parametrize("shape", [(2, 3), (5, 4), (7, 7)])
def test_kernels_pass_fd_on_multiple_shapes(shape):
    rng = np.random.default_rng(hash(shape) % (2**32))
    n, d = shape
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    b = rng.normal(size=d)

    def build(ts):
        t = linear(ts[0], ts[1], ts[2])
        t = layer_norm(t, ts[3], ts[4])
        t = gelu(t)
        t = softmax(t)
        return scalar_readout(t)

    err = fd_check(build, [x, w, b, np.ones(d), np.zeros(d)], n_probes=40)
    assert err < 1e-5


def test_forward_backward_bit_identical_rerun():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 6)))
        w = Tensor(rng.normal(size=(6, 6)))
        out = gc.sum_all(gelu(matmul(x, w)))
        backward(out)
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# ParamSet


def test_paramset_same_seed_bit_identical():
    def build(seed):
        ps = ParamSet(seed, dtype=np.float32)
        ps.add("a", (4, 4))
        ps.add("b", (4,), init="zeros")
        ps.add("c", (3, 2))
        return {n: t.data.copy() for n, t in ps.items()}

    first, second = build(123), build(123)
    for name in first:
        assert np.array_equal(first[name], second[name])
    assert not np.array_equal(build(124)["a"], first["a"])


def test_paramset_rejects_duplicates():
    ps = ParamSet(0)
    ps.add("a", (2,))
    with pytest.raises(ContractError):
        ps.add("a", (2,))


def test_trunc_normal_bounded():
    ps = ParamSet(0, dtype=np.float64)
    t = ps.add("w", (1000,), std=0.02)
    assert np.abs(t.data).max() <= 0.04


# ---------------------------------------------------------------------------
# grad_check harness


def _quadratic(params):
    # 0.5 * p.Ap + b.p with known curvature, gradient O(1)
    p = params["p"]
    return gc.add(gc.cmul(gc.sum_all(gc.mul(p, p)), 0.5), gc.sum_all(gc.cmul(p, 2.0)))


def test_grad_check_quadratic_nearly_exact():
    ps = ParamSet(0, dtype=np.float64)
    ps.add("p", (10,))
    report = grad_check(_quadratic, ps, n_probes=10, step=1e-5, seed=0)
    assert report.max_rel_err < 1e-8


def test_grad_check_reads_an_unreached_parameter_as_zero_gradient():
    ps = ParamSet(0, dtype=np.float64)
    ps.add("p", (10,))
    unused = ps.add("unused", (10,))
    report = grad_check(_quadratic, ps, n_probes=20, step=1e-5, seed=0)
    assert unused.grad is None
    assert any(p.name == "unused" and p.analytic == 0.0 for p in report.probes)
    assert report.max_rel_err < 1e-8


def test_grad_check_gelu_composite():
    ps = ParamSet(1, dtype=np.float64)
    ps.add("w", (6, 6), std=0.5)

    def f(params):
        return gc.sum_all(gelu(gc.mul(params["w"], params["w"])))

    report = grad_check(f, ps, n_probes=12, step=1e-5, seed=0)
    assert report.max_rel_err < 1e-5


def test_grad_check_detects_corrupted_backward():
    ps = ParamSet(2, dtype=np.float64)
    ps.add("w", (6, 6), std=0.5)

    def f(params):
        return gc.sum_all(gelu(params["w"]))

    gc.set_grad_fault(True)
    try:
        report = grad_check(f, ps, n_probes=12, step=1e-5, seed=0)
    finally:
        gc.set_grad_fault(False)
    assert report.max_rel_err > 1e-2


def test_grad_check_rejects_float32_params():
    ps = ParamSet(4, dtype=np.float32)
    ps.add("p", (4,))
    with pytest.raises(ContractError, match="float64"):
        grad_check(_quadratic, ps, n_probes=2)


def test_grad_check_deterministic():
    ps = ParamSet(3, dtype=np.float64)
    ps.add("p", (8,))
    r1 = grad_check(_quadratic, ps, n_probes=5, seed=42)
    r2 = grad_check(_quadratic, ps, n_probes=5, seed=42)
    assert [p.index for p in r1.probes] == [p.index for p in r2.probes]
    assert r1.max_rel_err == r2.max_rel_err


# ---------------------------------------------------------------------------
# no_grad: op outputs are constants on the calling thread


def test_ops_under_no_grad_return_constants_and_backward_is_a_no_op():
    rng = np.random.default_rng(20)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((5, 4), (4, 3), (3,)))

    def forward():
        h = gelu(linear(x, w, b))
        return h, gc.sum_all(gc.mul(h, h))

    with gc.no_grad():
        h, root = forward()
    for t in (h, root):
        assert not t.requires_grad and t._backward is None and t._parents == ()
    backward(root)
    assert root.grad is None and all(t.grad is None for t in (x, w, b))
    recorded_h, recorded_root = forward()
    assert recorded_root.requires_grad
    assert np.array_equal(h.data, recorded_h.data) and np.array_equal(root.data, recorded_root.data)


def test_no_grad_nests_and_restores_after_an_exception():
    x = Tensor(np.ones(3))
    with gc.no_grad():
        with gc.no_grad():
            assert not gc.neg(x).requires_grad
        assert not gc.neg(x).requires_grad
    assert gc.neg(x).requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with gc.no_grad():
            raise RuntimeError("inside")
    assert gc.neg(x).requires_grad


def test_no_grad_is_thread_local():
    import threading

    x = Tensor(np.ones(3))
    entered, checked, seen = threading.Event(), threading.Event(), {}

    def worker_inside():
        with gc.no_grad():
            entered.set()
            checked.wait(10)
            seen["worker"] = gc.neg(x).requires_grad

    thread = threading.Thread(target=worker_inside)
    thread.start()
    assert entered.wait(10)
    seen["main"] = gc.neg(x).requires_grad
    checked.set()
    thread.join(10)
    assert seen == {"main": True, "worker": False}

    def worker_outside():
        seen["worker"] = gc.neg(x).requires_grad

    with gc.no_grad():
        thread = threading.Thread(target=worker_outside)
        thread.start()
        thread.join(10)
        seen["main"] = gc.neg(x).requires_grad
    assert seen == {"main": False, "worker": True}


# ---------------------------------------------------------------------------
# mlp_branch: the fused layer_norm -> fc1 -> gelu -> fc2 sub-layer

_MLP_NAMES = ("x", "gamma", "beta", "w1", "b1", "w2", "b2")


def mlp_operands(seed, n, d, hidden, d_out=None, dtype=np.float64):
    """x [n, d] and the six parameters, scaled so gelu sees both signs."""
    rng = np.random.default_rng(seed)
    d_out = d if d_out is None else d_out
    shapes = [(n, d), (d,), (d,), (d, hidden), (hidden,), (hidden, d_out), (d_out,)]
    scales = [1.0, 0.5, 0.5, 1.0 / np.sqrt(d), 0.5, 1.0 / np.sqrt(hidden), 0.5]
    arrays = [rng.normal(0.0, s, size=shape) for shape, s in zip(shapes, scales)]
    arrays[1] += 1.0
    return [a.astype(dtype) for a in arrays]


def composite_mlp(x, gamma, beta, w1, b1, w2, b2):
    """The unfused chain: layer_norm -> linear -> gelu -> linear."""
    return linear(gelu(linear(layer_norm(x, gamma, beta), w1, b1)), w2, b2)


def run_mlp(op, arrays, transposed):
    """``op``'s output and the gradients of all seven operands under a
    fixed readout in the operands' dtype; a transposed input is the view
    a mixer token sub-layer gets."""
    ts = [Tensor(a.T.copy() if transposed and i == 0 else a.copy()) for i, a in enumerate(arrays)]
    x = gc.transpose(ts[0]) if transposed else ts[0]
    out = op(x, *ts[1:])
    r = np.random.default_rng(21).normal(size=out.shape).astype(out.dtype)
    backward(gc.sum_all(gc.mul(out, Tensor(r))))
    return out.data, [t.grad for t in ts]


def test_mlp_branch_finite_difference_all_seven_operands():
    ps = ParamSet(22, dtype=np.float64)
    for name, a in zip(_MLP_NAMES, mlp_operands(23, n=5, d=6, hidden=9, d_out=4)):
        ps.add(name, a.shape).data[...] = a

    def f(params):
        return scalar_readout(gc.mlp_branch(*(params[n] for n in _MLP_NAMES)), seed=24)

    report = grad_check(f, ps, n_probes=120, step=1e-6, seed=25)
    assert {p.name for p in report.probes} == set(_MLP_NAMES)
    assert report.max_rel_err < 1e-6, report.worst


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "transposed"])
def test_mlp_branch_is_bit_identical_to_the_composite_chain(dtype, transposed):
    arrays = mlp_operands(26, n=640, d=128, hidden=512, dtype=dtype)
    fused_out, fused_grads = run_mlp(gc.mlp_branch, arrays, transposed)
    chain_out, chain_grads = run_mlp(composite_mlp, arrays, transposed)
    assert fused_out.dtype == dtype
    assert np.array_equal(fused_out, chain_out)
    for name, fused, chain in zip(_MLP_NAMES, fused_grads, chain_grads):
        assert fused.dtype == dtype and np.array_equal(fused, chain), name

    x = arrays[0].T.copy().T if transposed else arrays[0]
    params = [Tensor(a) for a in arrays[1:]]
    with gc.no_grad():
        graphless = gc.mlp_branch(x, *params)
    constant = gc.mlp_branch(x, *arrays[1:])  # no Tensor operand: no graph either
    assert not graphless.requires_grad and not constant.requires_grad
    assert np.array_equal(graphless.data, fused_out)
    assert np.array_equal(constant.data, fused_out)


def _kept_bytes(node):
    """ndarray bytes in ``node``'s backward closure, the operands' own arrays left out."""
    operands = {id(p.data) for p in node._parents if p is not None}
    cells = (c.cell_contents for c in node._backward.__closure__)
    return sum(a.nbytes for a in cells if isinstance(a, np.ndarray) and id(a) not in operands)


@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "transposed"])
def test_mlp_branch_and_layer_norm_nodes_keep_no_rebuildable_array(transposed):
    # mlp_branch keeps h and tanh(h) [n, hidden] plus each row's mean and
    # 1/sigma; x-hat, the fc1 input and gelu(h) are rebuilt in the backward.
    # layer_norm keeps the row statistics only.
    n, d, hidden = 64, 16, 48
    arrays = mlp_operands(32, n=n, d=d, hidden=hidden)
    ts = [Tensor(a.T.copy() if transposed and i == 0 else a) for i, a in enumerate(arrays)]
    x = gc.transpose(ts[0]) if transposed else ts[0]
    item = x.data.itemsize
    assert _kept_bytes(gc.mlp_branch(x, *ts[1:])) <= 2 * n * hidden * item + 4 * n * item
    assert _kept_bytes(layer_norm(x, ts[1], ts[2])) <= 4 * n * item


@pytest.mark.parametrize("n, d, transposed", [(1600, 128, False), (128, 1024, True)], ids=["rows", "transposed"])
def test_mlp_branch_without_a_graph_holds_one_hidden_width_array(n, d, transposed):
    # no graph: tanh(h) lives one row block at a time and gelu(h) overwrites
    # h, so the forward never holds a second [n, hidden] array. The
    # transposed case is a mixer token MLP's input, a view from .T
    hidden = 512
    arrays = mlp_operands(38, n=n, d=d, hidden=hidden, dtype=np.float32)
    x = arrays[0].T.copy().T if transposed else arrays[0]
    params = [Tensor(a) for a in arrays[1:]]
    item = x.itemsize
    with gc.no_grad():
        tracemalloc.start()
        try:
            out = gc.mlp_branch(x, *params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (n, d) and not out.requires_grad
    assert peak <= n * hidden * item + 2 * n * d * item, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "transposed"])
def test_mlp_branch_row_blocks_are_bit_identical_at_block_edges(monkeypatch, dtype, transposed):
    # 1000 values per block: h [43, 96] runs four blocks of 10 rows and one
    # of 3, the x-hat rebuild of [43, 24] one block of 41 rows and one of 2
    arrays = mlp_operands(33, n=43, d=24, hidden=96, dtype=dtype)
    chain_out, chain_grads = run_mlp(composite_mlp, arrays, transposed)
    monkeypatch.setattr(gc, "_ROW_BLOCK", 1000)
    assert len(gc._row_blocks(np.empty((43, 96)))) == 5
    fused_out, fused_grads = run_mlp(gc.mlp_branch, arrays, transposed)
    assert fused_out.dtype == dtype and np.array_equal(fused_out, chain_out)
    for name, fused, chain in zip(_MLP_NAMES, fused_grads, chain_grads):
        assert fused.dtype == dtype and np.array_equal(fused, chain), name


def test_mlp_branch_finite_difference_across_row_blocks(monkeypatch):
    monkeypatch.setattr(gc, "_ROW_BLOCK", 100)  # h [23, 30]: blocks of 3 rows and one of 2
    ps = ParamSet(34, dtype=np.float64)
    for name, a in zip(_MLP_NAMES, mlp_operands(35, n=23, d=7, hidden=30, d_out=5)):
        ps.add(name, a.shape).data[...] = a

    def f(params):
        return scalar_readout(gc.mlp_branch(*(params[n] for n in _MLP_NAMES)), seed=36)

    report = grad_check(f, ps, n_probes=120, step=1e-6, seed=37)
    assert {p.name for p in report.probes} == set(_MLP_NAMES)
    assert report.max_rel_err < 1e-6, report.worst


def test_mlp_branch_shape_errors():
    x, g, b, w1, b1, w2, b2 = mlp_operands(27, n=3, d=4, hidden=6)
    with pytest.raises(DimensionError, match="input"):
        gc.mlp_branch(x[None], g, b, w1, b1, w2, b2)
    with pytest.raises(DimensionError, match="scale/shift"):
        gc.mlp_branch(x, g[:2], b, w1, b1, w2, b2)
    with pytest.raises(DimensionError, match="fc1"):
        gc.mlp_branch(x, g, b, w1[:2], b1, w2, b2)
    with pytest.raises(DimensionError, match="fc2"):
        gc.mlp_branch(x, g, b, w1, b1, w2[:2], b2)


def test_grad_check_detects_corrupted_mlp_branch_backward():
    ps = ParamSet(28, dtype=np.float64)
    for name, a in zip(_MLP_NAMES, mlp_operands(29, n=4, d=5, hidden=7)):
        ps.add(name, a.shape).data[...] = a

    def f(params):
        return scalar_readout(gc.mlp_branch(*(params[n] for n in _MLP_NAMES)), seed=30)

    gc.set_grad_fault(True)
    try:
        report = grad_check(f, ps, n_probes=40, step=1e-6, seed=31)
    finally:
        gc.set_grad_fault(False)
    assert report.max_rel_err > 1e-2

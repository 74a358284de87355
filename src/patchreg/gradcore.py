"""Minimal reverse-mode automatic differentiation on numpy arrays.

Provides exactly the differentiable kernels the registration networks
need. A :class:`Tensor` wraps a float32 or float64 array; an operation
with a graph gives its output a node that holds the edges to its
operands' nodes (a leaf's edge is the leaf itself) and a backward
closure. The closure captures the arrays its arithmetic reads, never a
Tensor, so the graph holds no op output that no backward reads: it is
freed as soon as the caller drops it. :func:`backward` replays the
closures in reverse topological order, visiting each node once and
dropping its closure and saved arrays right after, so a graph can be
walked once. One rule for data: an op operand that is not a
:class:`Tensor` (a numpy array or a scalar) is a constant.
:func:`as_tensor` marks it, the op's node keeps no edge to it, and an
output whose operands are all constants is a constant too and has no
node; :func:`backward` never reaches one. Images,
loss targets and sampling grids are such constants. :func:`add`,
:func:`sub` and :func:`mul` broadcast a constant only: an operand that
needs a gradient must have the output's shape. Inside a
:func:`no_grad` block every operand counts as a constant, so every op
output is a constant and a forward pass keeps no graph; the mode is per
thread. No tensor keeps a gradient: :func:`backward` returns the
gradients of the leaves it reaches (parameters, inputs) in a dict keyed
by tensor, and drops each intermediate gradient as soon as it has been
passed on. A caller that sums several roots, such as a training batch,
passes one dict to each call.

Besides the elementary kernels there are two fused kernels.
:func:`window_attention` is the windowed attention of the swin family:
``softmax(scale * q @ kᵀ + bias + mask) @ v`` on ``[n_windows, t, d]``
windows, with the heads split inside as views. The scale is folded into
``q`` before the product, so the ``[n_windows, heads, t, t]`` logits
live in one buffer that the bias (from a contiguous ``[heads, t, t]``
copy), the mask and the softmax update in place; the node keeps the
scaled ``q``, ``k``, ``v`` and the probabilities. The mask may
hold ``-inf`` as long as every row of every window keeps a finite logit.
:func:`mlp_branch` is the pre-norm MLP sub-layer every block ends in,
``gelu(layer_norm(x) @ w1 + b1) @ w2 + b2``, with the arithmetic of
that chain in the same order, so it is bit-identical to it. With a graph
its node keeps only the pre-activation h and each row's mean and 1/σ;
the backward rebuilds x̂, the fc1 input, tanh of the gelu polynomial of
h and gelu(h) from them with the forward's ufuncs, and the elementwise
chains of both directions run in row blocks between whole-matrix
products. Without a graph it runs the same forward, with gelu(h)
written over h, and keeps nothing.
:func:`layer_norm` likewise keeps the row statistics, not x̂.

float64 is the precision for finite-difference verification, float32 the
training dtype. Every kernel here is checked against central finite
differences in the test suite; :func:`grad_check` is the harness.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """An operation was called outside its stated contract."""


class DimensionError(ValueError):
    """Array shapes do not satisfy an operation's requirements."""


_FLOAT_TYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    """Whether ops on this thread record a graph; see :func:`no_grad`."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Within the block, on the calling thread only, every op output is a
    constant with no node, so the arrays of a forward pass are freed as
    soon as nothing else references them."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


class _Node:
    """An op output's place in the graph: one edge per operand (the
    operand's node, the operand itself for a leaf, None for a constant)
    and the closure that maps the output's gradient to the operands'.
    It holds no value; the closure keeps what the backward reads."""

    __slots__ = ("_parents", "_backward")

    def __init__(self, parents, backward_fn):
        self._parents = parents
        self._backward = backward_fn


class Tensor:
    """Array value, optionally produced by a graph node.

    ``Tensor(x)`` is a differentiated leaf (a parameter, an input under
    test): it has no node, and :func:`backward` returns its gradient
    under the tensor itself as key. A non-leaf's ``_node`` routes its
    gradient to its operands until :func:`backward` has walked it; the
    node does not keep ``data``. ``requires_grad`` is False for a
    constant (see the module docstring), which has no node.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = True
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def _edge(t: Tensor) -> _Node | Tensor | None:
    """A node's edge to operand ``t``: its node, ``t`` itself for a leaf,
    None for a constant."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _node(data, parents, backward_fn) -> Tensor:
    """An op's output. A constant parent's edge is None, so ``backward_fn``'s
    value in its slot is dropped; with no edge left, or under
    :func:`no_grad`, the output is a constant. ``backward_fn`` must not
    capture a Tensor, or it keeps that tensor's value alive."""
    out = Tensor.__new__(Tensor)
    out.data = data
    edges = tuple(map(_edge, parents)) if _GRAD_MODE.enabled else ()
    out.requires_grad = edges.count(None) < len(edges)
    out._node = _Node(edges, backward_fn) if out.requires_grad else None
    return out


def as_tensor(x) -> Tensor:
    """``x`` if it is a Tensor, else ``x`` wrapped as a constant."""
    if isinstance(x, Tensor):
        return x
    t = Tensor(x)
    t.requires_grad = False
    return t


def _check_broadcast(op: str, a: Tensor, b: Tensor, shape: tuple[int, ...]) -> None:
    """An operand that needs a gradient must have the output's ``shape``, so
    its gradient is the output's; a constant may broadcast."""
    if (a.requires_grad and a.data.shape != shape) or (b.requires_grad and b.data.shape != shape):
        raise DimensionError(
            f"{op} of shapes {a.shape} and {b.shape}: an operand that needs a gradient "
            f"must have the output's shape {shape}"
        )


# ---------------------------------------------------------------------------
# elementwise / structural kernels


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    _check_broadcast("add", a, b, data.shape)

    def backward_fn(g):
        return g, g

    return _node(data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    _check_broadcast("sub", a, b, data.shape)

    def backward_fn(g):
        return g, -g

    return _node(data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    _check_broadcast("mul", a, b, data.shape)
    # each side keeps the other's value, and only when it needs a gradient
    ka = b.data if a.requires_grad else None
    kb = a.data if b.requires_grad else None

    def backward_fn(g):
        return None if ka is None else g * ka, None if kb is None else g * kb

    return _node(data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g):
        return (-g,)

    return _node(-a.data, (a,), backward_fn)


def cadd(a: Tensor, k) -> Tensor:
    """Add a constant (scalar or array) cast to ``a``'s dtype."""
    return add(a, np.asarray(k, dtype=a.dtype))


def cmul(a: Tensor, k) -> Tensor:
    """Multiply by a constant (scalar or array) cast to ``a``'s dtype."""
    return mul(a, np.asarray(k, dtype=a.dtype))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, plain 2-d or batched with identical leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    if (
        a.ndim < 2
        or b.ndim < 2
        or a.ndim != b.ndim
        or a.shape[-1] != b.shape[-2]
        or a.shape[:-2] != b.shape[:-2]
    ):
        raise DimensionError(f"cannot matmul shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    data = ad @ bd

    def backward_fn(g):
        ga = g @ bd.swapaxes(-1, -2)
        gb = ad.swapaxes(-1, -2) @ g
        return ga, gb

    return _node(data, (a, b), backward_fn)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward_fn(g):
        return (g.transpose(inv),)

    return _node(data, (a,), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    orig = a.data.shape

    def backward_fn(g):
        return (g.reshape(orig),)

    return _node(data, (a,), backward_fn)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows of ``a`` viewed as [rows, a.shape[-1]] at ``idx`` of any shape;
    the output is ``idx.shape + (a.shape[-1],)`` and duplicate indices sum
    in the backward, which returns the gradient in ``a``'s shape.

    When ``idx`` is a permutation of the rows the backward is a gather
    by the inverse permutation; otherwise it is one ``np.bincount``.
    """
    if a.ndim < 2:
        raise DimensionError(f"gather_rows needs an operand of 2 or more axes, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    shape, dtype = a.shape, a.dtype
    m = shape[-1]
    n = math.prod(shape[:-1])
    data = a.data.reshape(n, m)[idx]
    rows = idx.ravel() % max(n, 1)  # negative indices count from the end
    if rows.size == n and np.all(np.bincount(rows, minlength=n) == 1):
        inv = np.empty_like(rows)
        inv[rows] = np.arange(n, dtype=np.intp)

        def backward_fn(g):
            return (g.reshape(n, m)[inv].reshape(shape),)

    else:

        def backward_fn(g):
            flat = rows[:, None] * m + np.arange(m, dtype=np.intp)
            z = np.bincount(flat.ravel(), g.ravel(), minlength=n * m)
            return (z.reshape(shape).astype(dtype),)

    return _node(data, (a,), backward_fn)


def slice_tensor(a: Tensor, key) -> Tensor:
    """Basic (non-fancy) slicing with scatter backward into a new C-order
    array of ``a``'s shape."""
    data = a.data[key]
    shape, dtype = a.shape, a.dtype

    def backward_fn(g):
        z = np.zeros(shape, dtype)
        z[key] = g
        return (z,)

    return _node(data, (a,), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.dtype)
    shape = a.shape

    def backward_fn(g):
        return (np.broadcast_to(g, shape),)

    return _node(data, (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    data = np.asarray(a.data.mean(), dtype=a.dtype)
    shape = a.shape

    def backward_fn(g):
        return (np.broadcast_to(g / n, shape),)

    return _node(data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# neural-network kernels


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` with the bias broadcast over rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear: bias {b.shape} does not match output width {w.shape[1]}")
    xd = x.data
    data = xd @ w.data + b.data
    wd = w.data if x.requires_grad else None  # read only for x's gradient

    def backward_fn(g):
        return None if wd is None else g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _node(data, (x, w, b), backward_fn)


_LN_EPS = 1e-5


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x̂, mean and 1/σ of the last axis: x̂ = (x - mean) * (1 / sqrt(var +
    _LN_EPS)), with the biased variance. x̂ is a new array in ``x``'s memory
    layout; :func:`_renormalize` rebuilds it bit for bit from ``x``, the
    mean and 1/σ, so a graph node keeps those two instead of x̂."""
    mean = x.mean(axis=-1, keepdims=True)
    xhat = x - mean
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    return xhat, mean, inv


# Values per row block of the elementwise chains that layer_norm and
# mlp_branch run with a graph. A block's operands and temporaries stay in
# cache from one step of a chain to the next, and its temporaries are
# small, so the heap hands the same pages back for every block.
_ROW_BLOCK = 1 << 15


def _row_blocks(a: np.ndarray) -> list:
    """Slices of ``a``'s first axis, each about ``_ROW_BLOCK`` values; one
    slice of everything for a 1-d ``a``, whose one axis is the row."""
    if a.ndim < 2:
        return [slice(None)]
    n = a.shape[0]
    step = max(_ROW_BLOCK // max(a.size // max(n, 1), 1), 1)
    return [slice(r, r + step) for r in range(0, n, step)]


def _renormalize(x: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x̂ of :func:`_normalize` rebuilt in row blocks, with the same ufuncs
    in the same order, into a new array in ``x``'s memory layout."""
    xhat = np.empty_like(x)
    for s in _row_blocks(x):
        b = np.subtract(x[s], mean[s], out=xhat[s])
        b *= inv[s]
    return xhat


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray):
    """Gradients of x, gamma and beta for ``xhat * gamma + beta``."""
    d = xhat.shape[-1]
    flat_g = g.reshape(-1, d)
    ggamma = (flat_g * xhat.reshape(-1, d)).sum(axis=0)
    gbeta = flat_g.sum(axis=0)
    h = g * gamma
    m = (h * xhat).mean(axis=-1, keepdims=True)
    h -= h.mean(axis=-1, keepdims=True)
    h -= xhat * m
    h *= inv
    return h, ggamma, gbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (biased
    estimator), then scale and shift. The node keeps the mean and 1/σ
    of each row, not x̂."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: scale/shift must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    xd, gd = x.data, gamma.data
    data, mean, inv = _normalize(xd)
    data *= gd  # x̂ is rebuilt in the backward
    data += beta.data

    def backward_fn(g):
        return _layer_norm_grads(g, _renormalize(xd, mean, inv), inv, gd)

    return _node(data, (x, gamma, beta), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """t = tanh(c * (h + 0.044715 * h³)) into ``out`` (default a new array);
    gelu(h) = 0.5 * h * (1 + t).

    Powers are written as products: numpy's float ``pow`` costs many
    times more than the multiplies.
    """
    t = np.multiply(h, h, out=np.empty_like(h) if out is None else out)  # an array even for 0-d h
    t *= h
    t *= 0.044715
    t += h
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_slope(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gelu'(h) = 0.5 * (1 + t) + 0.5 * h * (1 - t²) * c * (1 + 3 * 0.044715 * h²)
    in a new array, given ``t = _gelu_tanh(h)``."""
    du = h * h
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    s = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, s, out=s)
    dh = h * 0.5
    dh *= s
    dh *= du
    np.add(t, 1.0, out=s)
    s *= 0.5
    s += dh
    return s


def _gelu_value(h: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """gelu(h) = 0.5 * h * (1 + t) into ``out`` (default a new array),
    given ``t = _gelu_tanh(h)``."""
    a = np.multiply(h, 0.5, out=out)
    a *= np.add(t, 1.0)
    return a


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = as_tensor(x)
    xd = x.data
    t = _gelu_tanh(xd)
    data = _gelu_value(xd, t)

    def backward_fn(g):
        return (g * _gelu_slope(xd, t),)

    return _node(data, (x,), backward_fn)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction.

    Rows may contain ``-inf`` entries (masked logits) as long as at
    least one entry per row is finite.
    """
    x = as_tensor(x)
    s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _node(s, (x,), backward_fn)


def window_attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor, mask, scale: float) -> Tensor:
    """Attention inside windows: ``softmax(scale * q @ kᵀ + bias + mask) @ v``.

    ``q``, ``k``, ``v`` and the output are ``[n_windows, t, d]``; ``k`` is
    passed untransposed. ``bias`` is ``[t, t, heads]``, learnable and
    shared by every window; its last axis is the head count, which must
    divide ``d``, and each operand is viewed as ``[n_windows, heads, t,
    d // heads]``. ``mask`` is None or a constant ``[n_windows, t, t]``
    shared by the heads and added after the bias; its entries may be
    ``-inf``, but every row of every window must keep at least one
    finite logit, or that row's softmax is NaN.

    ``scale`` multiplies ``q``, not the logits, so the logits are computed
    once into one buffer; bias, mask, the max-subtracted softmax and its
    normalisation all update that buffer in place. The bias is added from
    a contiguous ``[heads, t, t]`` copy: the add reads it once per window,
    and through the strided head-last view it took about four times as
    long. The node keeps the scaled ``q``, ``k``, ``v`` and the
    probabilities. The backward
    returns the gradients of ``q``, ``k``, ``v`` and ``bias`` in their
    input shapes; the bias gradient is the logits gradient summed over
    the window axis.
    """
    q, k, v, bias = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(bias)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"window_attention: q, k, v must share one [n_windows, t, d] shape, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    n, t, d = q.shape
    heads = bias.shape[-1] if bias.ndim else 0
    if bias.shape != (t, t, heads) or heads == 0 or d % heads:
        raise DimensionError(f"window_attention: bias {bias.shape} is not [{t}, {t}, heads dividing {d}]")
    if mask is not None:
        mask = np.asarray(mask, dtype=q.dtype)
        if mask.shape != (n, t, t):
            raise DimensionError(f"window_attention: mask {mask.shape} is not {(n, t, t)}")
    split = (n, t, heads, d // heads)
    scale = q.dtype.type(scale)
    qs, kd, vd = (a.data.reshape(split).transpose(0, 2, 1, 3) for a in (q, k, v))
    qs = qs * scale
    p = qs @ kd.swapaxes(-1, -2)
    p += np.ascontiguousarray(bias.data.transpose(2, 0, 1))
    if mask is not None:
        p += mask[:, None]
    p -= np.fmax.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def merged(a, b):
        """``a @ b`` on split heads, written straight into [n, t, d] rows."""
        out = np.empty((n, t, d), np.result_type(a, b))
        np.matmul(a, b, out=out.reshape(split).transpose(0, 2, 1, 3))
        return out

    def backward_fn(g):
        g = g.reshape(split).transpose(0, 2, 1, 3)
        gv = merged(p.swapaxes(-1, -2), g)
        gs = g @ vd.swapaxes(-1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = merged(gs, kd)
        gq *= scale
        return gq, merged(gs.swapaxes(-1, -2), qs), gv, gs.sum(axis=0).transpose(1, 2, 0)

    return _node(merged(p, vd), (q, k, v, bias), backward_fn)


def mlp_branch(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm MLP branch ``gelu(layer_norm(x) @ w1 + b1) @ w2 + b2`` as one node.

    ``x`` is ``[n, d]`` and may be a transposed view; the normalisation
    runs over its last axis, as :func:`layer_norm`, and :func:`gelu` is
    the tanh approximation. Every step is the arithmetic of that
    composite chain in the same order, updated in place where the chain
    would allocate a fresh array, so values and gradients are
    bit-identical to it.

    Each product is one whole-matrix BLAS call, and the elementwise
    chains between them (bias add, tanh, gelu, its slope, the x̂ and
    fc1-input rebuild) run in row blocks of about ``_ROW_BLOCK`` values
    that write into whole-matrix buffers; in the forward
    ``t = tanh(c·(h + 0.044715·h³))`` lives one row block at a time. A graph
    node keeps only the pre-activation ``h = y @ w1 + b1`` and each
    row's mean and 1/σ, besides the operand arrays it reads (``x``, γ,
    β, ``w1`` and ``w2``).
    The backward rebuilds t once, into a buffer that lives for that
    call and feeds both gelu(h) = 0.5·h·(1 + t) and its slope, and x̂
    and the ``fc1`` input ``y = x̂·γ + β``, all with the forward's
    ufuncs; it reuses the gelu(h) buffer for the gradient of ``h``.

    Otherwise (under :func:`no_grad`, or with constant operands) the
    forward is the same arithmetic, so its output has the bits of the
    graph one on any BLAS; gelu(h) overwrites h, and nothing is kept.
    """
    ops = tuple(as_tensor(t) for t in (x, gamma, beta, w1, b1, w2, b2))
    x, gamma, beta, w1, b1, w2, b2 = ops
    if x.ndim != 2:
        raise DimensionError(f"mlp_branch: input must be [n, d], got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"mlp_branch: scale/shift must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    if w1.ndim != 2 or w1.shape[0] != d or b1.shape != w1.shape[1:]:
        raise DimensionError(f"mlp_branch: fc1 {w1.shape} + {b1.shape} does not fit width {d}")
    hidden = w1.shape[1]
    if w2.ndim != 2 or w2.shape[0] != hidden or b2.shape != w2.shape[1:]:
        raise DimensionError(f"mlp_branch: fc2 {w2.shape} + {b2.shape} does not fit hidden width {hidden}")
    xd, gd, bd, w1d, b1d, w2d, b2d = (t.data for t in ops)
    keep = _GRAD_MODE.enabled and any(t.requires_grad for t in ops)  # else the output is a constant
    y, mean, inv = _normalize(xd)  # keeps a transposed input's layout
    y *= gd  # x̂ and y are rebuilt in the backward
    y += bd
    h = y @ w1d
    del y
    a = np.empty_like(h) if keep else h  # without a graph gelu(h) overwrites h
    for s in _row_blocks(h):
        hb = np.add(h[s], b1d, out=h[s])
        _gelu_value(hb, _gelu_tanh(hb), out=a[s])
    data = a @ w2d
    data += b2d
    if not keep:
        return _node(data, ops, None)

    def backward_fn(g):
        t = np.empty_like(h)
        a = np.empty_like(h)
        for s in _row_blocks(h):
            _gelu_value(h[s], _gelu_tanh(h[s], out=t[s]), out=a[s])
        gw2 = a.T @ g
        gh = np.matmul(g, w2d.T, out=a)  # gelu(h) is no longer needed
        for s in _row_blocks(h):
            np.multiply(gh[s], _gelu_slope(h[s], t[s]), out=gh[s])
        del t
        xhat = _renormalize(xd, mean, inv)
        y = np.empty_like(xhat)
        for s in _row_blocks(y):
            yb = np.multiply(xhat[s], gd, out=y[s])
            yb += bd
        gw1 = y.T @ gh
        del y
        gx, ggamma, gbeta = _layer_norm_grads(gh @ w1d.T, xhat, inv, gd)
        return gx, ggamma, gbeta, gw1, gh.sum(axis=0), gw2, g.sum(axis=0)

    return _node(data, ops, backward_fn)


# ---------------------------------------------------------------------------
# graph traversal


def _toposort(root: _Node | Tensor) -> list[_Node | Tensor]:
    """The nodes and leaves ``root`` reaches, each after its parents."""
    order: list[_Node | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            for p in node._parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
    return order


def _walked(g):
    raise ContractError("graph already walked by backward; build it again")


def backward(root: Tensor, grads: dict[Tensor, np.ndarray] | None = None) -> dict[Tensor, np.ndarray]:
    """d(root)/d(leaf) for every leaf the root reaches, keyed by leaf.

    The root must be scalar. Each node is visited exactly once, in
    reverse topological order, and a non-leaf node's gradient lives only
    until it has been passed to its parents. Each leaf's gradient is a
    new array of its shape and dtype; given ``grads``, it is added into
    the leaf's entry there instead, when there is one, and ``grads`` is
    returned. Constants are never reached: no node keeps an edge to
    one, and a constant root adds nothing.

    A graph is walked once: each node drops its edges and closure once
    visited, so its saved arrays are freed during the walk, and a later
    walk that reaches it raises :class:`ContractError`. Leaves and the
    root's value are kept.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    grads = {} if grads is None else grads
    if not root.requires_grad:
        return grads
    start = _edge(root)
    order = _toposort(start)
    flowing: dict[int, np.ndarray] = {id(start): np.ones_like(root.data)}
    while order:
        node = order.pop()
        g = flowing.pop(id(node), None)
        if isinstance(node, Tensor):  # a leaf
            if g is None:
                continue
            if node in grads:
                grads[node] += g
            else:
                grads[node] = np.array(g, dtype=node.data.dtype)
            continue
        backward_fn, parents = node._backward, node._parents
        node._backward, node._parents = _walked, ()
        if g is None:
            continue
        for parent, pg in zip(parents, backward_fn(g)):
            if parent is None or pg is None:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
    return grads


# ---------------------------------------------------------------------------
# parameters


_INIT_STD = 0.02  # scale of the truncated-normal weight init


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until everything lies within 2 std.

    Each round draws one value for every entry still out of range, in
    ascending flat-index order, and checks only those new draws; entries
    already in range are not looked at again.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)  # a view: ``out`` is a fresh C-order array
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out


class ParamSet:
    """Named collection of learnable leaf tensors with seeded init.

    Parameters are created in a fixed order, so re-initializing with the
    same seed reproduces every value bit for bit at a fixed precision.
    Given ``values`` (name -> array, such as a checkpoint's), :meth:`add`
    pops each parameter's value from that dict and draws nothing; what
    is left in it afterwards belongs to no parameter. It holds values
    only: the parameters' gradients are in the dict :func:`backward`
    returns, keyed by the tensors of :meth:`items`.
    """

    def __init__(self, seed: int, dtype=np.float32, values: dict[str, np.ndarray] | None = None):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        if self.dtype.type not in _FLOAT_TYPES:
            raise ContractError(f"unsupported parameter dtype {self.dtype}")
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(self.seed)
        self._values = values

    def add(self, name: str, shape, init: str = "trunc_normal") -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        shape = tuple(int(s) for s in shape)
        if init not in ("trunc_normal", "zeros", "ones"):
            raise ContractError(f"unknown init '{init}'")
        if self._values is not None:
            if name not in self._values:
                raise ContractError(f"parameter {name} has no stored value")
            arr = self._values.pop(name)
            if arr.shape != shape:
                raise DimensionError(
                    f"parameter {name}: stored shape {arr.shape} != model shape {shape}"
                )
        elif init == "trunc_normal":
            arr = _trunc_normal(self._rng, shape, _INIT_STD)
        elif init == "zeros":
            arr = np.zeros(shape)
        else:
            arr = np.ones(shape)
        t = Tensor(arr.astype(self.dtype, order="C"))  # Adam walks it flat
        self._params[name] = t
        return t

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, arr in arrays.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise DimensionError(
                    f"parameter {name}: stored shape {arr.shape} != model shape {t.data.shape}"
                )
            t.data[...] = arr.astype(self.dtype)


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class ProbeResult:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    mean_rel_err: float
    n_probes: int
    probes: list[ProbeResult]
    worst: ProbeResult


_GRAD_CHECK_DENOM_FLOOR = 1e-5


def grad_check(
    f,
    params: ParamSet,
    n_probes: int = 10,
    step: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` against central finite
    differences at ``n_probes`` randomly chosen parameter coordinates.

    ``f`` must be a pure scalar function of the parameter values; the
    analytic gradients are what one :func:`backward` of it returns. The
    relative error denominator is floored at 1e-5 so that coordinates
    where both gradients vanish do not dominate the report. A NaN
    relative error (a NaN or infinite gradient on either side) counts as
    the worst: ``max_rel_err`` is then NaN and ``worst`` is that probe.
    """
    if n_probes < 1:
        raise ContractError("n_probes must be >= 1")
    if not (math.isfinite(step) and step > 0):
        raise ContractError(f"step must be finite and positive, got {step}")
    if params.dtype != np.float64:
        raise ContractError("grad_check needs float64 parameters; the step is below float32 resolution")
    names = params.names()
    sizes = np.array([params[n].size for n in names], dtype=np.int64)
    if sizes.sum() == 0:
        raise ContractError("parameter set is empty")
    cum = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    flat_picks = rng.integers(0, cum[-1], size=n_probes)

    out = f(params)
    if out.size != 1:
        raise ContractError("grad_check target must be scalar")
    grads = backward(out)
    analytic = {n: grads.get(params[n]) for n in names}  # None: the output does not depend on it

    probes: list[ProbeResult] = []
    for flat in flat_picks:
        which = int(np.searchsorted(cum, flat, side="right"))
        name = names[which]
        idx = int(flat - (cum[which] - sizes[which]))
        t = params[name]
        orig = t.data.flat[idx]
        with no_grad():
            t.data.flat[idx] = orig + step
            fp = f(params).item()
            t.data.flat[idx] = orig - step
            fm = f(params).item()
        t.data.flat[idx] = orig
        fd = (fp - fm) / (2.0 * step)
        an = 0.0 if analytic[name] is None else float(analytic[name].flat[idx])
        rel = abs(fd - an) / max(abs(fd), abs(an), _GRAD_CHECK_DENOM_FLOOR)
        probes.append(ProbeResult(name, idx, an, fd, rel))

    rels = np.array([p.rel_err for p in probes])
    worst = int(np.argmax(rels))  # the first NaN, if there is one
    return GradCheckReport(
        max_rel_err=float(rels[worst]),
        mean_rel_err=float(rels.mean()),
        n_probes=len(probes),
        probes=probes,
        worst=probes[worst],
    )

"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient and a backward
closure; ``Tensor.backward()`` runs the tape in reverse topological order.
The op set is exactly what training calls: ``add`` and ``mul`` (also ``+``
and ``*``), ``tsum``, ``take`` (also ``[]``), ``relu`` and ``sigmoid``,
plus fused ops that put a whole sublayer on the tape as one node with a
hand-written backward (the losses in :mod:`hngen.losses` and
``cacai.synthesize`` are built the same way): ``linear``,
``l2_normalize``, and the graph blocks' node attention, edge attention and
post-norm FFN tail (``masked_attention``, ``endpoint_attention``,
``residual_ffn_tail``). Each fused forward pass does the arithmetic of the
composed ops it replaces, in their order, so its values match them bit for
bit; ``tests/oracles.py`` keeps the composed forms. One stable softmax,
``_softmax``, serves the node attention and the losses. Gradient-blocking
(``detach``) is the primitive behind the two-stage training contract, so
it is exact: a detached tensor shares data but carries no tape.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import kernels
from .errors import ShapeError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # make ndarray <op> Tensor defer to the Tensor's reflected operators
    __array_priority__ = 1000

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(
            data, np.ndarray
        ) else data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def backward(self, grad: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        _accumulate(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(data) -> Tensor:
    """A leaf tensor that the optimizers update."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # The copy of a view does two jobs. It keeps a stored gradient from
        # aliasing another tensor's data, and it makes every stored gradient
        # C-contiguous. The second matters too: numpy's reductions and
        # products sum in an order that depends on the layout, so dropping
        # the copy changes later gradients in the last bit. A fused op's
        # backward therefore hands over gradients in the layout the composed
        # ops would have.
        t.grad = g.copy() if g.base is not None or g.flags.writeable is False else g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w.T + b`` over the last axis of ``x``: one tape node.

    ``w`` is ``(out, in)``. Leading dims of ``x`` are flattened into the
    rows of a single 2-D product, forward and backward, so an N-D input
    never forms per-row ``(in, out)`` gradient temporaries. A parent's
    gradient is computed only when that parent requires grad.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    in_dim = w.data.shape[1]
    if x.shape[-1] != in_dim:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight in dim {in_dim}")

    def backward(g):
        gx = _affine_backward(g, x.data, w, b, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx)

    return _make(_affine(x.data, w.data, b.data), (x, w, b), backward)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w.T + b`` as one 2-D product over the rows of ``x``'s leading dims."""
    rows = x.reshape(-1, w.shape[1])
    return (rows @ w.T + b).reshape(x.shape[:-1] + (w.shape[0],))


def _affine_backward(g, x: np.ndarray, w: Tensor, b: Tensor, need_x: bool):
    """Accumulate the gradients of ``_affine``'s weight and bias; return the
    input's (None unless ``need_x``)."""
    out_dim, in_dim = w.data.shape
    g2 = g.reshape(-1, out_dim)
    if w.requires_grad:
        _accumulate(w, g2.T @ x.reshape(-1, in_dim))
    if b.requires_grad:
        _accumulate(b, g2.sum(axis=0))
    return (g2 @ w.data).reshape(x.shape) if need_x else None


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


# -- indexing -----------------------------------------------------------------


def take(a, key) -> Tensor:
    """Indexing with slices, integer arrays or masks.

    The backward pass scatters with ``np.bincount`` over the flat source
    positions that ``key`` picks. It adds repeated positions in the same
    sequential order as ``np.add.at``, so the result is the same bit for
    bit, without ``add.at``'s per-element cost.
    """
    a = as_tensor(a)
    out_data = a.data[key]

    def backward(g):
        src = np.arange(a.data.size).reshape(a.data.shape)[key]
        _accumulate(a, _scatter(src, g, a.data.shape))

    return _make(out_data, (a,), backward)


def _scatter(src: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of ``shape`` plus ``g`` added at the flat positions ``src``;
    repeated positions add in ``np.ravel`` order, as ``np.add.at`` does."""
    size = math.prod(shape)
    return np.bincount(np.ravel(src), weights=np.ravel(g), minlength=size).reshape(shape)


# -- elementwise nonlinearities ----------------------------------------------


def _sqrt_or_zero_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(x) where x > 0 and 0 elsewhere, the mask x > 0)."""
    pos = x > 0
    return np.where(pos, np.sqrt(np.where(pos, x, 1.0)), 0.0), pos


def _sqrt_or_zero_backward(g: np.ndarray, out: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The input's gradient of ``_sqrt_or_zero_forward``: 0 where x <= 0."""
    return np.where(pos, g * 0.5 / np.where(pos, out, 1.0), 0.0)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _make(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-sum-exp, softmax) over the last axis, shifted by the row max, or
    by 0 where that is not finite; an entry of -inf gets weight exactly 0."""
    m = np.max(x, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    return np.squeeze(np.log(s) + m, axis=-1), e / s


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


# -- fused attention sublayers -------------------------------------------------
#
# Each is one tape node whose forward pass does the arithmetic of the
# composed ops it replaces, in their order and on views with the same
# strides, so its values match them bit for bit. Each backward pass hands
# its parents gradients in the layout the composed ops gave them, and their
# gradients match bit for bit too; ``tests/oracles.py`` keeps the composed
# forms.


def masked_attention(q, k, v, blocked: np.ndarray, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product attention with hard-masked keys.

    ``q``, ``k`` and ``v`` are (B, D), split into ``heads`` heads of
    hd = D / heads channels. ``blocked`` (B, B) is True where query i may not
    attend to key j: that logit is -inf, so its weight is exactly zero.
    A query with every key blocked raises. Returns the heads' merged outputs
    ``softmax(q kᵀ / sqrt(hd)) v`` (B, D), one tape node, and the weights
    (H, B, B) as a tensor off the tape.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    b, d = q.shape
    hd = d // heads
    blocked = np.asarray(blocked, dtype=bool)
    if np.any(blocked.all(axis=-1)):
        raise ShapeError("masked_attention: a query has no unmasked keys")
    qh, kh, vh = (np.swapaxes(x.data.reshape(b, heads, hd), 0, 1) for x in (q, k, v))
    scale = 1.0 / np.sqrt(hd)
    scores = (qh @ np.swapaxes(kh, 1, 2)) * scale
    _, p = _softmax(np.where(blocked, -np.inf, scores))
    out_data = np.swapaxes(p @ vh, 0, 1).reshape(b, d)

    def merged(gh):  # (H, B, hd) -> (B, D), a C-contiguous copy
        return np.swapaxes(gh, 0, 1).reshape(b, d)

    def backward(g):
        g_pv = np.ascontiguousarray(np.swapaxes(g.reshape(b, heads, hd), 0, 1))
        if q.requires_grad or k.requires_grad:
            g_p = g_pv @ np.swapaxes(vh, -1, -2)
            g_scores = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                _accumulate(q, merged(g_scores @ kh))
            if k.requires_grad:
                g_kt = np.swapaxes(qh, -1, -2) @ g_scores  # (H, hd, B)
                _accumulate(k, merged(np.swapaxes(g_kt, 1, 2)))
        if v.requires_grad:
            _accumulate(v, merged(np.swapaxes(p, -1, -2) @ g_pv))

    return _make(out_data, (q, k, v), backward), Tensor(p)


def endpoint_attention(q, k, v, i: np.ndarray, j: np.ndarray, heads: int) -> Tensor:
    """Attention of each query row over exactly two tokens, rows ``i[r]``
    and ``j[r]`` of the keys ``k`` and values ``v``: one tape node.

    ``q`` is (P, D) and ``k``, ``v`` are (B, D), split into ``heads`` heads of
    hd channels. With two tokens the softmax is a sigmoid of the score
    difference: per head p = sigmoid(q (k_i - k_j) / sqrt(hd)), and the
    output (P, D) is v_j + p (v_i - v_j). The backward pass scatters the key
    and value gradients to the token rows with the ``np.bincount`` scatter
    of ``take``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    n, d = q.shape
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    k_diff = k.data[i] - k.data[j]
    s = (q.data * k_diff).reshape(n, heads, hd).sum(axis=-1) * scale
    p = _sigmoid(s)  # (P, H)
    v_j = v.data[j].reshape(n, heads, hd)
    v_diff = v.data[i].reshape(n, heads, hd) - v_j
    out_data = (v_j + p.reshape(n, heads, 1) * v_diff).reshape(n, d)

    def backward(g):
        g3 = g.reshape(n, heads, hd)
        cols = np.arange(d)
        src_i, src_j = i[:, None] * d + cols, j[:, None] * d + cols
        if q.requires_grad or k.requires_grad:
            g_p = (g3 * v_diff).sum(axis=-1)
            g_s = (g_p * p * (1.0 - p) * scale)[:, :, None]
            if q.requires_grad:
                _accumulate(q, (g_s * k_diff.reshape(n, heads, hd)).reshape(n, d))
            if k.requires_grad:
                g_kd = g_s * q.data.reshape(n, heads, hd)
                _accumulate(k, _scatter(src_i, g_kd, k.shape) - _scatter(src_j, g_kd, k.shape))
        if v.requires_grad:
            g_vi = g3 * p.reshape(n, heads, 1)
            _accumulate(v, _scatter(src_i, g_vi, v.shape) + _scatter(src_j, g3 - g_vi, v.shape))

    return _make(out_data, (q, k, v), backward)


def residual_ffn_tail(pre, ln1: "LayerNorm", fc1: "Linear", fc2: "Linear",
                      ln2: "LayerNorm") -> Tensor:
    """The post-norm residual FFN sublayer ``LN2(FFN(x) + x)`` with
    ``x = LN1(pre)`` and ``FFN = fc2(relu(fc1(.)))``: one tape node.

    Of the activations it keeps only what its backward pass reads: both
    normalized inputs, ``x`` and the ReLU output.
    """
    pre = as_tensor(pre)
    bar, xhat1, std1 = _layer_norm_forward(pre.data, ln1.gain.data, ln1.bias.data, ln1.eps)
    h = np.maximum(_affine(bar, fc1.weight.data, fc1.bias.data), 0.0)
    out_data, xhat2, std2 = _layer_norm_forward(
        _affine(h, fc2.weight.data, fc2.bias.data) + bar, ln2.gain.data, ln2.bias.data, ln2.eps
    )

    def backward(g):
        g_sum = _layer_norm_backward(g, ln2.gain, ln2.bias, xhat2, std2, True)
        g_h = _affine_backward(g_sum, h, fc2.weight, fc2.bias, True)
        g_bar = g_sum + _affine_backward(g_h * (h > 0), bar, fc1.weight, fc1.bias, True)
        g_pre = _layer_norm_backward(g_bar, ln1.gain, ln1.bias, xhat1, std1, pre.requires_grad)
        if g_pre is not None:
            _accumulate(pre, g_pre)

    params = (ln1.gain, ln1.bias, fc1.weight, fc1.bias, fc2.weight, fc2.bias, ln2.gain, ln2.bias)
    return _make(out_data, (pre,) + params, backward)


# -- kernel-backed pairwise op -----------------------------------------------


def hadamard_pairs(z) -> Tensor:
    """Elementwise products of the pairs i <= j, (B, D) -> (B(B+1)/2, D)."""
    z = as_tensor(z)
    out_data = kernels.hadamard_pairs(z.data)

    def backward(g):
        _accumulate(z, kernels.hadamard_pairs_grad(z.data, g))

    return _make(out_data, (z,), backward)


# -- fused normalizations ------------------------------------------------------


def l2_normalize(x) -> Tensor:
    """Row-normalize to unit L2 norm over the last axis: one tape node.

    The forward pass is ``x / sqrt(sum(x * x, -1))``. The backward pass adds
    x's gradient shares in the order the composed ops did, the division's
    first and then the two factors of ``x * x``. A zero row maps to the
    unit vector 1/sqrt(D) in every channel and passes no gradient back.
    """
    x = as_tensor(x)
    out_data, norm = _l2_rows_forward(x.data)

    def backward(g):
        g_div, g_sq = _l2_rows_backward(g, x.data, norm)
        _accumulate(x, g_div)
        _accumulate(x, g_sq)
        _accumulate(x, g_sq)

    return _make(out_data, (x,), backward)


def _l2_rows_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / sqrt(sum(x * x, -1)), that norm with the last axis kept). A zero
    row gives 1/sqrt(D) in every channel and the norm inf, which zeroes its
    gradient in ``_l2_rows_backward``."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    zero = sq <= 0.0
    norm = np.where(zero, np.inf, np.sqrt(sq))
    return np.where(zero, 1.0 / math.sqrt(x.shape[-1]), x / norm), norm


def _l2_rows_backward(g: np.ndarray, x: np.ndarray, norm: np.ndarray):
    """x's gradient shares in ``_l2_rows_forward``: the division's, and the
    one that each of the two factors of ``x * x`` gets. The caller adds the
    first and then the second twice, the order of the composed ops."""
    g_norm = (-g * x / (norm * norm)).sum(axis=-1, keepdims=True)
    return g / norm, g_norm * 0.5 / norm * x


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """(output, normalized input, std) of a layer norm over the last axis.

    The means are a sum times 1/n, the arithmetic of the composed ops, so
    the values match them bit for bit."""
    inv_n = 1.0 / float(x.shape[-1])
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered / std
    return xhat * gain + bias, xhat, std


def _layer_norm_backward(g, gain: Tensor, bias: Tensor, xhat, std, need_x: bool):
    """Accumulate the gain and bias gradients of ``_layer_norm_forward``;
    return the input's (None unless ``need_x``)."""
    if gain.requires_grad:
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
    if bias.requires_grad:
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
    if not need_x:
        return None
    gx = g * gain.data
    return (
        gx - gx.mean(axis=-1, keepdims=True)
        - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    ) / std


# -- modules ------------------------------------------------------------------


class Module:
    """Base for parameterized components; collects named parameters, which
    are its ``Tensor`` attributes and those of its submodules."""

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Module):
                for sub, p in value.named_parameters().items():
                    out[f"{name}.{sub}"] = p
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for sub, p in item.named_parameters().items():
                            out[f"{name}.{i}.{sub}"] = p
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Linear(Module):
    """Affine map y = x W^T + b with Xavier-uniform init."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = parameter(rng.uniform(-bound, bound, size=(out_dim, in_dim)))
        self.bias = parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """The gain, bias and eps of a layer norm over the last axis;
    ``residual_ffn_tail`` applies it."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = parameter(np.ones(dim))
        self.bias = parameter(np.zeros(dim))
        self.eps = eps


class FeedForward(Module):
    """The parameters of a position-wise two-layer ReLU network,
    ``fc2(relu(fc1(x)))``; ``residual_ffn_tail`` applies it."""

    def __init__(self, dim: int, expansion: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, dim * expansion, rng)
        self.fc2 = Linear(dim * expansion, dim, rng)


class AdamW:
    """AdamW with decoupled weight decay (Loshchilov & Hutter, ICLR 2019)
    over named parameter groups, stepping only what got a gradient.

    ``groups`` maps a name to ``(params, lr)``. ``lr[name]`` holds each
    group's rate, which a schedule may change between steps, and
    ``group_of[i]`` names the group of ``params[i]``. The parameters, first
    moments ``m`` and second moments ``v`` live in three flat float64
    buffers, each parameter at ``segments[i]``; every ``params[i].data`` is
    a reshaped view into ``data``, so code that sets a parameter writes in
    place (``p.data[...] = x``). ``step`` raises if a parameter's data no
    longer views its segment.

    Skip rule: a parameter whose ``grad`` is None keeps its data, moments
    and step count ``steps[i]``; the others advance their own count and take
    the update (PyTorch's form, with c_k = 1 - beta_k^t)::

        m = g + b1 (m - g);  v = g^2 + b2 (v - g^2)
        x *= 1 - lr wd
        x -= (lr sqrt(c2) / c1) m / (sqrt(v) + eps sqrt(c2))

    So one optimizer serves every stage of a training step. The gradients
    are gathered into one scratch buffer, allocated once, and the update
    runs in place over each maximal run of adjacent parameters that got a
    gradient and share a step count and a group.
    """

    def __init__(
        self,
        groups: dict[str, tuple[Sequence[Tensor], float]],
        weight_decay: float = 0.0,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.lr = {name: float(lr) for name, (_, lr) in groups.items()}
        members = {name: list(params) for name, (params, _) in groups.items()}
        self.params = [p for params in members.values() for p in params]
        self.group_of = [name for name, params in members.items() for _ in params]
        self.weight_decay = float(weight_decay)
        self.betas = betas
        self.eps = eps
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.segments = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.data = np.empty(bounds[-1])
        self.m = np.zeros(bounds[-1])
        self.v = np.zeros(bounds[-1])
        self.steps = [0] * len(self.params)
        self._grad = np.empty(bounds[-1])
        self._grad_views = []
        for p, seg in zip(self.params, self.segments):
            self.data[seg] = p.data.ravel()
            p.data = self.data[seg].reshape(p.data.shape)
            self._grad_views.append(self._grad[seg].reshape(p.data.shape))
        self._views = [p.data for p in self.params]

    def step(self) -> None:
        present = []
        for i, p in enumerate(self.params):
            if p.data is not self._views[i]:
                raise RuntimeError(
                    f"parameter {i} {p.data.shape} no longer views the optimizer "
                    "buffer; write parameters in place"
                )
            if p.grad is not None:
                self._grad_views[i][...] = p.grad
                present.append(i)
        runs: list[list] = []  # [start, stop, step count, group]
        for i in present:
            t = self.steps[i] = self.steps[i] + 1
            seg, group = self.segments[i], self.group_of[i]
            if runs and runs[-1][1:] == [seg.start, t, group]:
                runs[-1][1] = seg.stop
            else:
                runs.append([seg.start, seg.stop, t, group])
        for lo, hi, t, group in runs:
            self._update(slice(lo, hi), t, self.lr[group])

    def _update(self, seg: slice, t: int, lr: float) -> None:
        b1, b2 = self.betas
        x, m, v, g = self.data[seg], self.m[seg], self.v[seg], self._grad[seg]
        m -= g
        m *= b1
        m += g
        g *= g
        v -= g
        v *= b2
        v += g
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        np.sqrt(v, out=g)  # g is scratch from here on
        g += self.eps * math.sqrt(c2)
        np.divide(m, g, out=g)
        g *= lr * math.sqrt(c2) / c1
        if self.weight_decay:
            x *= 1.0 - lr * self.weight_decay
        x -= g

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

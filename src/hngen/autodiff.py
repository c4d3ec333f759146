"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient and a backward
closure; ``Tensor.backward()`` runs the tape in reverse topological order.
The op set is exactly what the model needs (broadcast arithmetic, matmul,
reductions, indexing, the usual nonlinearities, a masked softmax and a
stable logsumexp), plus fused ``linear`` and ``layer_norm`` ops that put a
whole affine map or normalization on the tape as one node with a
hand-written backward. Gradient-blocking (``detach``) is the primitive behind
the two-stage training contract, so it is exact: a detached tensor shares
data but carries no tape.

Heavy pairwise ops (``hadamard_pairs``, ``pairwise_sqdist``) call the numpy
kernels in :mod:`hngen.kernels`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __pow__(self, exponent):
        return pow_scalar(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    @property
    def T(self):
        if self.ndim != 2:
            raise ShapeError("T is defined for 2-D tensors only")
        return swapaxes(self, 0, 1)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(data) -> Tensor:
    """A leaf tensor that the optimizers update."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
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


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def pow_scalar(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)
    out_data = a.data**e

    def backward(g):
        _accumulate(a, g * e * a.data ** (e - 1.0))

    return _make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w.T + b`` over the last axis of ``x``: one tape node.

    ``w`` is ``(out, in)``. Leading dims of ``x`` are flattened into the
    rows of a single 2-D product, forward and backward, so an N-D input
    never forms per-row ``(in, out)`` gradient temporaries. A parent's
    gradient is computed only when that parent requires grad.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out_dim, in_dim = w.data.shape
    if x.shape[-1] != in_dim:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight in dim {in_dim}")
    rows = x.data.reshape(-1, in_dim)
    out_data = (rows @ w.data.T + b.data).reshape(x.shape[:-1] + (out_dim,))

    def backward(g):
        g2 = g.reshape(-1, out_dim)
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, g2.T @ rows)
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp; entries below -1e30 act as -inf."""
    a = as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    soft = e / s
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        gk = np.expand_dims(g, axis) if not keepdims else g
        _accumulate(a, gk * soft)

    return _make(out_data, (a,), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        _accumulate(a, np.swapaxes(g, ax1, ax2))

    return _make(out_data, (a,), backward)


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
        buf = np.bincount(np.ravel(src), weights=np.ravel(g), minlength=a.data.size)
        _accumulate(a, buf.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def concatenate(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _make(out_data, parts, backward)


# -- elementwise nonlinearities ----------------------------------------------


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def sqrt_or_zero(a) -> Tensor:
    """sqrt(x) for x > 0, exactly 0 (with zero gradient) at x <= 0.

    Keeps pairwise-distance math exact for coincident points: the forward
    value is untouched for positive inputs and the backward pass never
    divides by zero.
    """
    a = as_tensor(a)
    pos = a.data > 0
    out_data = np.where(pos, np.sqrt(np.where(pos, a.data, 1.0)), 0.0)

    def backward(g):
        _accumulate(a, np.where(pos, g * 0.5 / np.where(pos, out_data, 1.0), 0.0))

    return _make(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def masked_softmax(scores, blocked: np.ndarray) -> Tensor:
    """Softmax over the last axis with hard-masked positions.

    ``blocked`` is a boolean array (broadcastable to ``scores``); blocked
    positions get exactly zero weight, as if their logit were -inf. A row
    with every position blocked is a caller error and raises.
    """
    scores = as_tensor(scores)
    blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), scores.shape)
    if np.any(blocked.all(axis=-1)):
        raise ShapeError("masked_softmax: a row has no unmasked positions")
    neg = np.where(blocked, -np.inf, scores.data)
    m = np.max(neg, axis=-1, keepdims=True)
    e = np.where(blocked, 0.0, np.exp(np.where(blocked, 0.0, scores.data - m)))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(scores, p * (g - inner))

    return _make(p, (scores,), backward)


# -- kernel-backed pairwise ops ----------------------------------------------


def hadamard_pairs(z) -> Tensor:
    """Elementwise products of the pairs i <= j, (B, D) -> (B(B+1)/2, D)."""
    z = as_tensor(z)
    out_data = kernels.hadamard_pairs(z.data)

    def backward(g):
        _accumulate(z, kernels.hadamard_pairs_grad(z.data, g))

    return _make(out_data, (z,), backward)


def mirror_pairs(e, b: int) -> Tensor:
    """Packed pair rows (B(B+1)/2, ...) -> (B, B, ...), row (i, j) at [i, j]
    and [j, i]. The gradient of row (i, j) is g_ij + g_ji, and g_ii on the
    diagonal."""
    e = as_tensor(e)
    i, j = kernels.pair_rows(b)
    out_data = np.empty((b, b) + e.shape[1:])
    out_data[i, j] = e.data
    out_data[j, i] = e.data
    diag = (i == j).reshape((-1,) + (1,) * (e.ndim - 1))

    def backward(g):
        upper = g[i, j]
        _accumulate(e, np.where(diag, upper, upper + g[j, i]))

    return _make(out_data, (e,), backward)


def pairwise_sqdist(z) -> Tensor:
    """Squared distances for ordered pairs (B, D) -> (B, B)."""
    z = as_tensor(z)
    out_data = kernels.pairwise_sqdist(z.data)

    def backward(g):
        _accumulate(z, kernels.pairwise_sqdist_grad(z.data, g))

    return _make(out_data, (z,), backward)


# -- composite helpers --------------------------------------------------------


def l2_normalize(x) -> Tensor:
    """Row-normalize to unit L2 norm; raises on zero rows."""
    x = as_tensor(x)
    sq = tsum(mul(x, x), axis=-1, keepdims=True)
    if np.any(sq.data <= 0.0):
        raise ShapeError("cannot L2-normalize a zero-norm row")
    return div(x, sqrt(sq))


def layer_norm(x, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift: one tape node.

    The forward pass does the arithmetic of the composed ops (sum times
    1/n for the means), so its values match them bit for bit; the backward
    pass is the analytic layer-norm gradient.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / float(x.shape[-1])
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered / std
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            _accumulate(x, (
                gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            ) / std)

    return _make(out_data, (x, gain, bias), backward)


def log1p_sum_exp(u, valid: np.ndarray, axis: int = -1) -> Tensor:
    """log(1 + sum over valid lanes of exp(u)), stable.

    Invalid lanes are replaced by a large negative sentinel whose exp
    underflows to exactly zero, so they contribute neither value nor
    gradient.
    """
    u = as_tensor(u)
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), u.shape)
    masked = add(mul(u, valid.astype(np.float64)), (~valid) * -1e9)
    zshape = list(u.shape)
    zshape[axis if axis >= 0 else u.ndim + axis] = 1
    zero = Tensor(np.zeros(zshape))
    return logsumexp(concatenate([zero, masked], axis=axis), axis=axis)


# -- modules ------------------------------------------------------------------


class Module:
    """Base for parameterized components; collects named parameters."""

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
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

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        w = self.weight.detach() if frozen else self.weight
        b = self.bias.detach() if frozen else self.bias
        return linear(x, w, b)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = parameter(np.ones(dim))
        self.bias = parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, self.eps)


class FeedForward(Module):
    """Position-wise two-layer ReLU network."""

    def __init__(self, dim: int, expansion: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, dim * expansion, rng)
        self.fc2 = Linear(dim * expansion, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(relu(self.fc1(x)))


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

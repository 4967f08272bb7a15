"""Rank-4 tensors (batch, channel, height, width) with graph-based reverse-mode autodiff.

float32 is the working precision; float64 acts as a shadow mode for tight
gradient checks. An operation whose output participates in gradient
tracking gives that output a node: a creation sequence number, the inputs
that require grad, and the backward rule. ``backward`` collects the nodes
reachable from the loss, runs their rules newest first and releases each
node once its rule has run, so each forward graph supports exactly one
backward pass. Graphs share no state, and a graph nobody runs backward on
is freed with its tensors.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Shape4 = tuple[int, int, int, int]

__all__ = [
    "Tensor",
    "RunningStats",
    "no_grad",
    "backward",
    "zeros",
    "full",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "add_scalar",
    "absolute",
    "relu",
    "sigmoid",
    "sum_all",
    "mean_all",
    "diff_x",
    "diff_y",
    "concat_channels",
    "conv2d",
    "batch_norm",
    "bilinear_resize",
    "spatial_map",
    "global_avg_pool",
    "dense",
]


class Tensor:
    """Dense (n, c, h, w) float array, optionally participating in gradient recording.

    ``grad`` is lazily allocated the first time a gradient is accumulated and
    has the same shape and dtype as ``data``. A zero channel count is allowed
    so that channel concatenation has an identity element; all other
    dimensions must be positive.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ValueError(f"tensors are rank 4 (n, c, h, w), got shape {arr.shape}")
        n, c, h, w = arr.shape
        if n < 1 or c < 0 or h < 1 or w < 1:
            raise ValueError(f"invalid tensor shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node = None  # (sequence, parents, back) while recorded; _CONSUMED after backward

    @property
    def shape(self) -> Shape4:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def zeros(shape: Shape4, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape: Shape4, value: float, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Autodiff graph
# ---------------------------------------------------------------------------


_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar("guidedepth_grad_enabled", default=True)
_SEQ = itertools.count()  # creation order of nodes; backward runs them newest first
_CONSUMED = object()  # replaces the node of a tensor whose backward rule has run


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording in the current thread or task; outputs
    created inside do not require grad."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _track(data: np.ndarray, back: Callable[[np.ndarray], None], *inputs: Tensor) -> Tensor:
    """Wrap an op's output; while recording, give it a node when any input requires grad."""
    parents = tuple(t for t in inputs if t.requires_grad) if _GRAD_ENABLED.get() else ()
    out = Tensor(data, requires_grad=bool(parents))
    if parents:
        out._node = (next(_SEQ), parents, back)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _graph(loss: Tensor) -> list[Tensor]:
    """Tensors with a node reachable from ``loss``, in ascending creation order."""
    found, seen, stack = [], {id(loss)}, [loss]
    while stack:
        t = stack.pop()
        if t._node is None:
            continue
        if t._node is _CONSUMED:
            raise RuntimeError("backward through a graph that an earlier backward already consumed")
        found.append(t)
        for p in t._node[1]:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    found.sort(key=lambda t: t._node[0])
    return found


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tracked tensor reachable from ``loss``.

    The graph is consumed: each rule runs once and its node is released as
    soon as it has run, so calling ``backward`` again on the same graph
    raises. Leaf gradients accumulate across calls until reset.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ValueError(f"backward needs a scalar (1,1,1,1) loss, got {loss.shape}")
    if not loss.requires_grad:
        raise RuntimeError("loss does not participate in gradient recording")
    if loss._node is None:
        raise RuntimeError("loss is a leaf: no operation was recorded")
    nodes = _graph(loss)
    loss.grad = np.ones_like(loss.data)
    while nodes:
        t = nodes.pop()
        back, t._node = t._node[2], _CONSUMED
        if t.grad is not None:
            back(t.grad)


# ---------------------------------------------------------------------------
# Elementwise and reduction operations
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _track(a.data + b.data, back, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _track(a.data - b.data, back, a, b)


def _unbroadcast(g: np.ndarray, shape: Shape4) -> np.ndarray:
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] > 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must be broadcast-compatible (rank 4 both)."""
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"mul: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _track(data, back, a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    if not np.isfinite(data).all():
        raise FloatingPointError("div produced non-finite values")

    def back(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * data / b.data)

    return _track(data, back, a, b)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)

    def back(g):
        _accum(a, g * s)

    return _track(a.data * s, back, a)


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)

    def back(g):
        _accum(a, g)

    return _track(a.data + c, back, a)


def absolute(a: Tensor) -> Tensor:
    # subgradient at 0 is 0, via sign(0) == 0

    def back(g):
        _accum(a, g * np.sign(a.data))

    return _track(np.abs(a.data), back, a)


def relu(a: Tensor) -> Tensor:

    def back(g):
        _accum(a, g * (a.data > 0))

    return _track(np.maximum(a.data, 0), back, a)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split by sign to avoid exp overflow
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    s = s.astype(x.dtype)

    def back(g):
        _accum(a, g * s * (1.0 - s))

    return _track(s, back, a)


def sum_all(a: Tensor) -> Tensor:

    def back(g):
        _accum(a, np.broadcast_to(g.reshape(()), a.shape).astype(a.data.dtype))

    return _track(a.data.sum(dtype=a.data.dtype).reshape(1, 1, 1, 1), back, a)


def mean_all(a: Tensor) -> Tensor:
    count = a.data.size

    def back(g):
        _accum(a, np.broadcast_to(g.reshape(()) / count, a.shape).astype(a.data.dtype))

    return _track((a.data.sum(dtype=a.data.dtype) / count).reshape(1, 1, 1, 1), back, a)


def diff_x(a: Tensor) -> Tensor:
    """Forward difference along width: out[..., j] = a[..., j+1] - a[..., j]."""
    if a.shape[3] < 2:
        raise ValueError("diff_x needs width >= 2")

    def back(g):
        if a.requires_grad:
            da = np.zeros_like(a.data)
            da[..., 1:] += g
            da[..., :-1] -= g
            _accum(a, da)

    return _track(a.data[..., 1:] - a.data[..., :-1], back, a)


def diff_y(a: Tensor) -> Tensor:
    """Forward difference along height: out[..., i, :] = a[..., i+1, :] - a[..., i, :]."""
    if a.shape[2] < 2:
        raise ValueError("diff_y needs height >= 2")

    def back(g):
        if a.requires_grad:
            da = np.zeros_like(a.data)
            da[:, :, 1:, :] += g
            da[:, :, :-1, :] -= g
            _accum(a, da)

    return _track(a.data[:, :, 1:, :] - a.data[:, :, :-1, :], back, a)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ValueError(f"concat_channels: spatial/batch mismatch {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError("concat_channels: dtype mismatch")

    def back(g):
        _accum(a, g[:, :ca])
        _accum(b, g[:, ca:])

    return _track(np.concatenate([a.data, b.data], axis=1), back, a, b)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    weight is (c_out, c_in, kh, kw); bias is broadcast as (1, c_out, 1, 1).
    Gradients are produced for the input, the weight and the bias.
    """
    n, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ValueError(f"conv2d: input has {ci} channels, weight expects {ci_w}")
    if bias.shape != (1, co, 1, 1):
        raise ValueError(f"conv2d: bias shape {bias.shape} != (1, {co}, 1, 1)")
    if stride < 1 or padding < 0:
        raise ValueError("conv2d: stride must be >= 1 and padding >= 0")
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d: non-positive output dims ({oh}, {ow})")

    p = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out_data = np.einsum("nihwkl,oikl->nohw", win, weight.data, optimize=True)
    out_data = (out_data + bias.data).astype(x.data.dtype, copy=False)

    def back(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))
        if weight.requires_grad:
            _accum(weight, np.einsum("nihwkl,nohw->oikl", win, g, optimize=True))
        if x.requires_grad:
            hp, wp = h + 2 * p, w + 2 * p
            gd = np.zeros((n, co, hp - kh + 1, wp - kw + 1), dtype=g.dtype)
            gd[:, :, ::stride, ::stride] = g
            gp = np.pad(gd, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
            gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
            wflip = weight.data[:, :, ::-1, ::-1]
            dxp = np.einsum("nohwkl,oikl->nihw", gwin, wflip, optimize=True)
            _accum(x, dxp[:, :, p : p + h, p : p + w])

    return _track(out_data, back, x, weight, bias)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


BN_EPS = 1e-5  # added to the variance before the square root
BN_MOMENTUM = 0.1  # weight of the current batch in the running averages


@dataclass
class RunningStats:
    """Exponential moving averages of per-channel batch statistics."""

    mean: np.ndarray  # (1, c, 1, 1)
    var: np.ndarray  # (1, c, 1, 1)
    initialized: bool = False

    @classmethod
    def for_channels(cls, c: int, dtype=np.float32) -> "RunningStats":
        return cls(np.zeros((1, c, 1, 1), dtype=dtype), np.ones((1, c, 1, 1), dtype=dtype))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats, train: bool) -> Tensor:
    """Per-channel normalization over (n, h, w); backward through batch stats is exact.

    Train mode normalizes with batch statistics (biased variance) and updates
    the running averages in place. Eval mode uses the running statistics and
    raises if they were never updated.
    """
    n, c, h, w = x.shape
    if gamma.shape != (1, c, 1, 1) or beta.shape != (1, c, 1, 1):
        raise ValueError(f"batch_norm: gamma/beta must be (1, {c}, 1, 1)")

    if train:
        m = x.data.mean(axis=(0, 2, 3), keepdims=True)
        v = x.data.var(axis=(0, 2, 3), keepdims=True)
        stats.mean = ((1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * m).astype(stats.mean.dtype)
        stats.var = ((1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * v).astype(stats.var.dtype)
        stats.initialized = True
    else:
        if not stats.initialized:
            raise RuntimeError("batch_norm: eval mode before any running-stat update")
        m = stats.mean.astype(x.data.dtype)
        v = stats.var.astype(x.data.dtype)

    inv = 1.0 / np.sqrt(v + x.data.dtype.type(BN_EPS))
    xhat = (x.data - m) * inv

    count = n * h * w

    def back(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=(0, 2, 3), keepdims=True))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=(0, 2, 3), keepdims=True))
        if x.requires_grad:
            dxhat = g * gamma.data
            if train:
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                dx = inv / count * (count * dxhat - s1 - xhat * s2)
            else:
                dx = dxhat * inv
            _accum(x, dx.astype(x.data.dtype, copy=False))

    return _track((gamma.data * xhat + beta.data).astype(x.data.dtype, copy=False), back, x, gamma, beta)


# ---------------------------------------------------------------------------
# Separable spatial linear maps: bilinear resize and friends
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _interp_matrix(n_in: int, n_out: int, dtype_name: str) -> np.ndarray:
    """Row-stochastic 1-D bilinear sampling matrix, half-pixel centers, clamped."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    t = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - t)
    np.add.at(m, (rows, i1), t)
    return m.astype(np.dtype(dtype_name))


def spatial_map(x: Tensor, row_map: np.ndarray, col_map: np.ndarray) -> Tensor:
    """Apply fixed linear maps along height and width: out = row_map @ x @ col_map.T.

    The maps are constants; gradients flow to ``x`` only. Backward applies the
    transposed maps, which is exact for any linear resampling or blurring.
    """
    if row_map.shape[1] != x.shape[2] or col_map.shape[1] != x.shape[3]:
        raise ValueError(
            f"spatial_map: maps {row_map.shape}/{col_map.shape} do not fit input {x.shape}"
        )
    y = np.einsum("ah,nchw->ncaw", row_map, x.data, optimize=True)
    y = np.einsum("bw,ncaw->ncab", col_map, y, optimize=True)

    def back(g):
        if x.requires_grad:
            gy = np.einsum("bw,ncab->ncaw", col_map, g, optimize=True)
            _accum(x, np.einsum("ah,ncaw->nchw", row_map, gy, optimize=True).astype(x.data.dtype, copy=False))

    return _track(y.astype(x.data.dtype, copy=False), back, x)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize to (out_h, out_w) with half-pixel-center sampling and border clamping."""
    if out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize: target dims must be >= 1")
    dt = x.data.dtype.name
    return spatial_map(x, _interp_matrix(x.shape[2], out_h, dt), _interp_matrix(x.shape[3], out_w, dt))


# ---------------------------------------------------------------------------
# Pooling and dense
# ---------------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape

    def back(g):
        if x.requires_grad:
            _accum(x, np.broadcast_to(g / (h * w), x.shape).astype(x.data.dtype))

    return _track(x.data.mean(axis=(2, 3), keepdims=True), back, x)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on the channel vector of a (n, c, 1, 1) tensor.

    weight is stored rank-4 as (c_out, c_in, 1, 1); bias as (1, c_out, 1, 1).
    """
    n, ci, h, w = x.shape
    if (h, w) != (1, 1):
        raise ValueError(f"dense: input must be (n, c, 1, 1), got {x.shape}")
    co, ci_w, kh, kw = weight.shape
    if (kh, kw) != (1, 1) or ci_w != ci:
        raise ValueError(f"dense: weight {weight.shape} incompatible with input {x.shape}")
    if bias.shape != (1, co, 1, 1):
        raise ValueError(f"dense: bias shape {bias.shape} != (1, {co}, 1, 1)")

    w2 = weight.data.reshape(co, ci)
    xv = x.data.reshape(n, ci)
    out_data = (xv @ w2.T + bias.data.reshape(1, co)).reshape(n, co, 1, 1)

    def back(g):
        g2 = g.reshape(n, co)
        if bias.requires_grad:
            _accum(bias, g2.sum(axis=0).reshape(1, co, 1, 1))
        if weight.requires_grad:
            _accum(weight, (g2.T @ xv).reshape(co, ci, 1, 1))
        if x.requires_grad:
            _accum(x, (g2 @ w2).reshape(n, ci, 1, 1))

    return _track(out_data.astype(x.data.dtype, copy=False), back, x, weight, bias)

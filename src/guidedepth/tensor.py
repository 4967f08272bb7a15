"""Rank-4 tensors (batch, channel, height, width) with graph-based reverse-mode autodiff.

float32 is the working precision; float64 acts as a shadow mode for tight
gradient checks. Each tensor has a small grad record: ``requires_grad``,
``grad`` and ``node``. An operation whose output participates in gradient
tracking gives the output's record a node: a creation sequence number, the
records of the inputs that require grad, the backward rule and, for some
ops, a rebuild. The graph links records, never tensors, so it holds no
activation by itself: a rule captures the records it accumulates into and
only the arrays it reads.

- ``conv2d``: the input (only when the weight takes a gradient) and the weight;
- ``mul``: the other operand of each input that requires grad;
- ``div``: the divisor and the output;
- ``absolute``: the input; ``relu`` and ``sigmoid``: the output;
- ``batch_norm_relu``: the input, a 1-bit mask of its positive outputs and
  per-channel vectors;
- ``spatial_map``: its two constant maps;
- ``add``, ``sub``, ``affine``, ``sum_all``, ``mean_all``, ``concat_channels``
  and ``global_avg_pool``: no array.

A rule that reads an input's array captures ``_kept(input)``. It and every
rebuild are one kind of function: of a sample slice ``s``, all samples by
default, returning those samples of the array. A rebuild recomputes them
bitwise from arrays its node keeps anyway; while the producer's node is live,
``_kept`` hands out that rebuild instead of the output array (recomputation
instead of storage, Chen et al., arXiv 1604.06174). Two ops offer one:
``batch_norm_relu``, from its input and per-channel vectors, and ``mul`` when
both operands require grad and so are both kept. So a batch norm output that a
conv reads, or a gated product, is freed during the forward and built again, a
block or a sample at a time, when its reader's rule runs.

``backward`` collects the nodes reachable from the loss, runs their rules
newest first and releases each node once its rule has run, so each forward
graph supports exactly one backward pass. Graphs share no state, and a graph
nobody runs backward on is freed with its tensors.

Gradient arrays are shared, never copied: a rule may hand its incoming
gradient ``g``, or a view of it, to several inputs, and ``_accum`` keeps the
first gradient a tensor receives by reference. So no backward rule and no
``_accum`` writes into ``g`` or into a stored ``.grad``; each builds any array
it changes itself.

``parallel_map(fn, items)`` is ``[fn(item) for item in items]`` spread over one
worker per core: the calling thread runs the first item and walks on from there,
and the module's one pool per host, of ``cores - 1`` threads, takes the others
from the last, until they meet. Each call runs in a
copy of the caller's context (so ``no_grad`` holds in it), and numpy's bundled
OpenBLAS is held at one thread while the calls run, so that the workers, not
BLAS, use the cores. ``evaluate`` maps its passes with it.

The batch-wide ops of a training step split their batch over it too. An op
splits while gradients record, outside any ``parallel_map`` call, when its batch
has more than one sample. It then cuts its samples (its channels, for batch
norm) into one contiguous block per core (at most ``CONV_WORKERS`` for a conv)
and runs one block per worker:

- ``conv2d``: the forward, the crop-and-bias copy into the output, and the
  backward's one pass of weight and input gradients, which walks each sample
  in bands of whole input rows (``BAND``);
- ``batch_norm_relu`` (channels): the statistics, the output, the packing of
  its 1-bit mask and the backward;
- ``mul``: the forward and the rule;
- ``spatial_map``: both maps' GEMMs, one sample at a time, forward and backward;
- ``add``, ``concat_channels`` and ``global_avg_pool``: the forward;
- ``_accum``: the add of a second gradient to a tensor's first.

Outside its blocks the calling thread sums a conv's per-sample weight gradient
products in sample order (Python's ``sum``), updates per-channel vectors and
takes each conv's bias gradient as one whole-batch sum: all ten of a ``guidedepth`` batch-4 step
at 96x128 cost 0.35-0.6 ms (2-vCPU VM), too little to split. So every GEMM of a
recorded step of more than one sample runs in a block, with BLAS held at one
thread, and none wakes a second BLAS thread to compete with the workers. Every
block runs the code a serial run does on its samples or channels, so a split
gives bitwise the numbers of the serial run with BLAS at one thread, whatever
the core count. A batch of one, a ``no_grad`` forward and an op inside a
``parallel_map`` call (``evaluate``'s passes) run as one block on the calling
thread and do not touch the pool. A block pass that fills one array runs
through ``_split``, which on one block calls the op's block function once, on
the whole batch, so that its ufunc allocates the result as the op's plain
expression would. Only a pass that fills several (``conv2d``'s backward,
``batch_norm_relu``) calls ``_each`` itself.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import itertools
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

Shape4 = tuple[int, int, int, int]

__all__ = [
    "Tensor",
    "RunningStats",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "affine",
    "absolute",
    "relu",
    "sigmoid",
    "sum_all",
    "mean_all",
    "concat_channels",
    "conv2d",
    "batch_norm_relu",
    "bilinear_resize",
    "spatial_map",
    "global_avg_pool",
]


class _GradRecord:
    """The part of a tensor the graph links: whether it takes a gradient, the
    gradient so far, and the node of the op that made it (``None`` for a leaf)."""

    __slots__ = ("requires_grad", "grad", "node")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        # (sequence, parent records, back rule, rebuild or None) while recorded; _CONSUMED after backward
        self.node = None


class Tensor:
    """Dense (n, c, h, w) float array, optionally participating in gradient recording.

    ``grad`` is ``None`` until a gradient reaches the tensor; it then has the
    same shape and dtype as ``data`` and may share memory with other
    gradients, so it is never written in place. It may also be a read-only
    broadcast view, as the gradient of a sum, a mean or a pooled average is.
    ``requires_grad`` and ``grad`` live in the tensor's grad record.
    """

    __slots__ = ("data", "_rec")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        elif np.dtype(dtype) not in (np.float32, np.float64):
            raise ValueError(f"tensors are float32 or float64, got dtype {np.dtype(dtype)}")
        arr = arr.astype(dtype, copy=False)
        if arr.ndim != 4:
            raise ValueError(f"tensors are rank 4 (n, c, h, w), got shape {arr.shape}")
        n, c, h, w = arr.shape
        if n < 1 or c < 1 or h < 1 or w < 1:
            raise ValueError(f"invalid tensor shape {arr.shape}")
        self.data = arr
        self._rec = _GradRecord(bool(requires_grad))

    @property
    def requires_grad(self) -> bool:
        return self._rec.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self._rec.requires_grad = bool(value)

    @property
    def grad(self) -> np.ndarray | None:
        return self._rec.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._rec.grad = value

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


# ---------------------------------------------------------------------------
# Autodiff graph
# ---------------------------------------------------------------------------


_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar("guidedepth_grad_enabled", default=True)
_SEQ = itertools.count()  # creation order of nodes; backward runs them newest first
_CONSUMED = object()  # replaces a record's node once its backward rule has run


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording in the current thread or task; outputs
    created inside do not require grad."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _parents(*inputs: Tensor) -> tuple[_GradRecord, ...]:
    """Records of the inputs that require grad; none while not recording."""
    if not _GRAD_ENABLED.get():
        return ()
    return tuple(t._rec for t in inputs if t._rec.requires_grad)


def _track(
    data: np.ndarray,
    back: Callable[[np.ndarray], None],
    *inputs: Tensor,
    rebuild: Callable[..., np.ndarray] | None = None,
) -> Tensor:
    """Wrap an op's output; while recording, give it a node when any input requires grad.

    ``rebuild``, when given, recomputes the samples of a slice of ``data``, all by
    default, bitwise from arrays the node keeps anyway (see ``_kept``).
    """
    parents = _parents(*inputs)
    out = Tensor(data, requires_grad=bool(parents))
    if parents:
        out._rec.node = (next(_SEQ), parents, back, rebuild)
    return out


def _kept(t: Tensor) -> Callable[..., np.ndarray]:
    """A function of a sample slice ``s``, all samples by default, returning
    ``t.data[s]``, for a rule to capture: the rebuild of the node that made ``t``
    while that node is live, otherwise one that holds ``t.data`` and returns a view
    of it. A rebuild computes just the samples ``s``, with the per-element ops of
    the whole one, so a reader can take its input one block or sample at a time."""
    node = t._rec.node
    if node is not None and node is not _CONSUMED and node[3] is not None:
        return node[3]
    data = t.data
    return lambda s=slice(None): data[s]


def _accum(r: _GradRecord, g: np.ndarray) -> None:
    """Add ``g`` to the record's gradient; the first gradient is stored by reference,
    so neither array may be written to afterwards (see the module docstring)."""
    if r.requires_grad:
        r.grad = g if r.grad is None else _plus(r.grad, g)


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` for two arrays of one rank-4 shape, split over the batch (see the
    module docstring); either may be a read-only broadcast view."""
    blocks = _blocks(a.shape[0], a.shape[0])
    return _split(lambda blk, o: np.add(a[blk], b[blk], out=o), blocks, a.shape, np.result_type(a, b))


def _graph(loss: _GradRecord) -> list[_GradRecord]:
    """Records with a node reachable from ``loss``, in ascending creation order."""
    found, seen, stack = [], {id(loss)}, [loss]
    while stack:
        r = stack.pop()
        if r.node is None:
            continue
        if r.node is _CONSUMED:
            raise RuntimeError("backward through a graph that an earlier backward already consumed")
        found.append(r)
        for p in r.node[1]:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    found.sort(key=lambda r: r.node[0])
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
        raise RuntimeError(f"backward: loss {loss!r} does not participate in gradient recording")
    if loss._rec.node is None:
        raise RuntimeError(f"backward: loss {loss!r} is a leaf: no operation was recorded")
    nodes = _graph(loss._rec)
    loss.grad = np.ones_like(loss.data)
    while nodes:
        r = nodes.pop()
        back, r.node = r.node[2], _CONSUMED
        if r.grad is not None:
            back(r.grad)


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
    ra, rb = a._rec, b._rec

    def back(g):
        _accum(ra, g)
        _accum(rb, g)

    return _track(_plus(a.data, b.data), back, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    ra, rb = a._rec, b._rec

    def back(g):
        _accum(ra, g)
        _accum(rb, -g)

    return _track(a.data - b.data, back, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two operands of one batch whose other dims broadcast
    (rank 4 both); a batch mismatch is refused. So samples ``s`` of the product read
    only samples ``s`` of each operand: a block's gradient sums only over its own
    samples, and the rebuild of ``s`` is the product of the operands' ``s``. An
    operand's gradient, one ``_split`` each, is ``g`` times the other operand
    summed with ``keepdims`` over the dims the operand broadcast along."""
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"mul: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} hold different batches; both must hold one batch")
    try:
        shape = np.broadcast(a.data, b.data).shape
    except ValueError as exc:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc
    n, dt = shape[0], a.data.dtype
    ra, rb, a_shape, b_shape = a._rec, b._rec, a.shape, b.shape
    blocks = _blocks(n, n)
    keep_b = _kept(b) if ra.requires_grad else None  # the gradient of a reads b, and that of b reads a
    keep_a = _kept(a) if rb.requires_grad else None

    def back(g):
        for r, keep, s in ((ra, keep_b, a_shape), (rb, keep_a, b_shape)):
            if keep is None:
                continue
            axes = tuple(i for i in range(1, 4) if s[i] < shape[i])  # the dims this operand broadcast along

            def grad(blk, o):  # run by the _split below, within this iteration
                if not axes:
                    return np.multiply(g[blk], keep(blk), out=o)
                return np.multiply(g[blk], keep(blk)).sum(axis=axes, keepdims=True, out=o)

            _accum(r, _split(grad, blocks, s, dt))

    def rebuild(s=slice(None)):  # the samples ``s``
        return np.multiply(keep_a(s), keep_b(s))

    out = _split(lambda blk, o: np.multiply(a.data[blk], b.data[blk], out=o), blocks, shape, dt)
    both = keep_a is not None and keep_b is not None
    return _track(out, back, a, b, rebuild=rebuild if both else None)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    if not np.isfinite(data).all():
        raise FloatingPointError(f"div produced non-finite values: numerator {a.shape}, divisor {b.shape}")
    ra, rb, keep_b = a._rec, b._rec, _kept(b)

    def back(g):
        bd = keep_b()
        if ra.requires_grad:
            _accum(ra, g / bd)
        if rb.requires_grad:
            _accum(rb, -g * data / bd)

    return _track(data, back, a, b)


def affine(a: Tensor, s: float, c: float) -> Tensor:
    """``a * s + c`` elementwise, with ``s`` and ``c`` cast to ``a``'s dtype."""
    s, c = a.data.dtype.type(s), a.data.dtype.type(c)
    ra = a._rec

    def back(g):
        _accum(ra, g * s)

    return _track(a.data * s + c, back, a)


def absolute(a: Tensor) -> Tensor:
    # subgradient at 0 is 0, via sign(0) == 0
    ra, keep_a = a._rec, _kept(a)

    def back(g):
        _accum(ra, g * np.sign(keep_a()))

    return _track(np.abs(a.data), back, a)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    ra = a._rec

    def back(g):
        _accum(ra, np.multiply(g, out > 0, dtype=g.dtype))

    return _track(out, back, a)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e) / (1.0 + e)
    ra = a._rec

    def back(g):
        _accum(ra, g * s * (1.0 - s))

    return _track(s, back, a)


def sum_all(a: Tensor) -> Tensor:
    return _sum_over(a, 1)  # dividing by 1 is exact


def mean_all(a: Tensor) -> Tensor:
    return _sum_over(a, a.data.size)


def _sum_over(a: Tensor, count: int) -> Tensor:
    """The sum of all of ``a``'s elements divided by ``count``, as a (1, 1, 1, 1) tensor."""
    ra, dt, shape = a._rec, a.data.dtype, a.shape

    def back(g):
        _accum(ra, np.broadcast_to((g.reshape(()) / count).astype(dt, copy=False), shape))

    return _track((a.data.sum(dtype=dt) / count).reshape(1, 1, 1, 1), back, a)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ValueError(f"concat_channels: spatial/batch mismatch {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"concat_channels: dtype mismatch {a.data.dtype} {a.shape} vs {b.data.dtype} {b.shape}")
    ra, rb, shape = a._rec, b._rec, (na, ca + cb, ha, wa)
    blocks = _blocks(na, na)
    out = _split(lambda blk, o: np.concatenate([a.data[blk], b.data[blk]], axis=1, out=o), blocks, shape, a.dtype)

    def back(g):
        _accum(ra, g[:, :ca])
        _accum(rb, g[:, ca:])

    return _track(out, back, a, b)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


STACK_MAX_K = 32  # conv2d stacks all taps into one matmul operand while c_in * kh * kw is at most this
# A split conv2d uses at most this many workers, each with its own padded sample and matmul buffer in
# the forward and dilated gradient grid and band buffer in the backward. With one a core a guidedepth
# step peaked at 131.8 MiB on 4 and 8 cores against 126.1 on 2 (181 MiB while each worker held a
# whole-frame gradient stack, which set this cap); the cost is that on a host of more than 2 cores a
# conv still runs on 2.
CONV_WORKERS = 2
# conv2d's backward walks each sample in bands of max(1, BAND // width) whole input rows. On a 2-vCPU
# AVX-512 VM a band's input gradient is bitwise that of one whole-frame GEMM at 1,024 columns (not at
# 512, for some 3-channel convs), and alternating train steps at 1,024 and 2,048 took a median 0.98 of
# the 2,048 time per pair.
BAND = 1024


def _taps(flat: np.ndarray, kh: int, kw: int, row: int, stride: int, m: int) -> list[np.ndarray]:
    """``flat[..., stride * q + k * row + l] for q < m`` for each kernel tap ``(k, l)``,
    row-major; each is a basic strided slice, so writing to it writes ``flat``."""
    span = stride * (m - 1) + 1
    offsets = (k * row + l for k in range(kh) for l in range(kw))
    return [flat[..., o : o + span : stride] for o in offsets]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    weight is (c_out, c_in, kh, kw); bias is broadcast as (1, c_out, 1, 1); all
    three share one dtype. Gradients are produced for the input, the weight and the bias.

    Layout: a padded sample, with rows of length ``wp``, is flattened to
    ``(c_in, rows * wp)``. Output ``(i, j)`` then reads flat position
    ``stride * (i * wp + j) + k * wp + l`` for tap ``(k, l)``, so on an output
    grid of ``oh`` rows by ``wp`` columns every tap is one strided slice of
    the flat input (see ``_taps``) and no window matrix is built.

    The conv's shapes pick one of two layouts of the forward's operands
    ``X_t``, with ``W_t`` the weight columns of each:

    - stacked, when ``kh * kw > 1`` and ``c_in * kh * kw <= STACK_MAX_K`` (a
      3-channel 3x3 conv): all tap slices are copied into one operand, as a
      matmul over 3 channels costs about as much as one over 27 (over 16,
      copying 2 taps cost more than the matmul it saved);
    - per tap, otherwise: one matmul per tap on its strided slice as it is.

    The forward is ``grid = sum over t of W_t @ X_t``, cropped of the junk
    columns ``ow..wp`` of each row; the padded input gets the extra zero rows
    the last row's junk columns read. The forward runs one sample at a time:
    it copies each sample into one reused zero-padded buffer (a stacked conv
    builds that sample's operand from it) and sums the taps into the sample's
    rows of ``grid`` through a one-sample matmul buffer, so no whole-batch
    padded copy, stacked operand or matmul buffer exists, and each sample
    runs the GEMMs of a batch of one.

    The backward shifts the gradient, not the input (kn2row, arXiv
    1709.03395): plane ``t`` of a gradient stack ``G`` holds, at each input
    position, the output gradient that tap ``t`` carries there, so with ``W``
    the weight as ``(kh * kw * c_out, c_in)`` and ``X`` the input,
    ``dx = W.T @ G`` and, per tap, ``dW += G @ X.T``. Only the input's own rows
    and columns take a gradient, and ``G`` is built for them one band of whole
    rows at a time, ``max(1, BAND // w)`` rows a band. Per sample, ``g[s]`` is
    copied once into a zeroed dilated grid, at rows ``stride * i + kh - 1`` and
    columns ``stride * j + kw - 1``. Plane ``(k, l)`` of input rows ``[r0, r1)``
    is then the window of that grid at rows ``[r0, r1) + p + kh - 1 - k`` and
    columns ``[0, w) + p + kw - 1 - l``, copied into one reused band buffer.
    Per band, one ``W.T @ G_band`` writes the band's rows of ``dx`` straight
    into the C-contiguous ``(n, c_in, h, w)`` gradient, and one
    ``G_band @ X_band.T`` is added into the sample's ``dW``; no whole-frame
    stack, padded input or padded ``dx`` exists. A 1x1, stride-1, unpadded
    conv's one plane is ``g[s]`` itself, taken whole as one band. Stacked,
    ``dW = sum over n of g_grid @ X_0.T`` with the gradient zero-padded to the
    grid is 2-3x faster, and the bands give only ``dx``. At stride ``s``,
    ``G`` is ``s**2`` times sparser, so strided per-tap convs multiply mostly
    zeros.

    The graph keeps ``weight.data`` and, only when the weight takes a gradient,
    ``_kept(x)``, but neither the padded input nor the stacked operand: the
    backward reads the input one sample at a time, through the slice argument of
    ``_kept(x)`` (a batch norm output or a gated product is rebuilt one sample at
    a time), and a stacked conv builds its padded sample and operand again from
    it, so a rebuilt input never exists whole beside ``dx``. The forward frees
    its padded sample and matmul buffer before the crop copy. A grid with no
    junk columns (``wp == ow``, as in a 1x1 unpadded conv) takes the bias in
    place and is itself the output, so it is not copied.

    When the op splits (see the module docstring), its samples are cut into one
    block per core, at most ``CONV_WORKERS``, on ``parallel_map``: each block
    has its own padded sample and matmul buffer in the forward, its own dilated
    grid and band buffer in the backward, and writes its own rows of ``grid``,
    of the output and of ``dx``. The backward runs one pass per block, which
    walks each sample's bands once for both gradients; ``sum`` adds the
    per-sample weight gradient products in sample order. The bias gradient is
    one ``g.sum(axis=(0, 2, 3))`` on the calling thread.
    """
    n, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    shapes = f"input {x.shape}, weight {weight.shape}"
    if ci != ci_w:
        raise ValueError(f"conv2d: input has {ci} channels, weight expects {ci_w} ({shapes})")
    if bias.shape != (1, co, 1, 1):
        raise ValueError(f"conv2d: bias shape {bias.shape} != (1, {co}, 1, 1) ({shapes})")
    if not x.dtype == weight.dtype == bias.dtype:
        dtypes = f"input {x.dtype}, weight {weight.dtype}, bias {bias.dtype}"
        raise ValueError(f"conv2d: dtype mismatch: {dtypes} ({shapes})")
    if not (isinstance(stride, numbers.Integral) and isinstance(padding, numbers.Integral)):
        raise ValueError(f"conv2d: stride and padding must be integers, got {stride!r} and {padding!r} ({shapes})")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: stride must be >= 1 and padding >= 0, got {stride} and {padding} ({shapes})")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv2d: non-positive output dims ({oh}, {ow}) ({shapes}, stride {stride}, padding {padding})"
        )

    p = padding
    wp = w + 2 * p
    m = oh * wp
    # the last tap's slice ends (kh - 1) * wp + kw + stride * (m - 1) into the flat input
    rows = max(h + 2 * p, -(-((kh - 1) * wp + kw + stride * (m - 1)) // wp))
    wt = weight.data.transpose(0, 2, 3, 1).reshape(co, -1)  # (co, kh * kw * ci), tap-major columns
    stacked = kh * kw > 1 and ci * kh * kw <= STACK_MAX_K
    k = wt.shape[1] if stacked else ci  # weight columns per operand
    xd, wd, rx, rw, rb, dt = x.data, weight.data, x._rec, weight._rec, bias._rec, x.data.dtype

    def padded(xd):  # each sample flat, (ci, rows * wp), through one reused zero-padded buffer
        xp = np.zeros((ci, rows, wp), dtype=dt) if rows > h or p else None
        for xs in xd:
            if xp is not None:
                xp[:, p : p + h, p : p + w] = xs
                xs = xp
            yield xs.reshape(ci, -1)

    def operands(xf):  # of one flat padded sample
        views = _taps(xf, kh, kw, wp, stride, m)
        return [np.concatenate(views)] if stacked else views

    blocks = _blocks(n, n, most=CONV_WORKERS)

    def fill(blk, o):  # the grid rows ``o`` of the samples ``blk``, through one padded sample and one matmul buffer
        tmp = np.empty((co, m), dtype=dt) if not stacked and kh * kw > 1 else None
        for ys, xf in zip(o, padded(xd[blk])):
            ops = operands(xf)
            np.matmul(wt[:, :k], ops[0], out=ys)
            for t in range(1, len(ops)):
                ys += np.matmul(wt[:, t * k : (t + 1) * k], ops[t], out=tmp)
        return o

    grid = _split(fill, blocks, (n, co, m), dt, np.empty((n, co, m), dtype=dt)).reshape(n, co, oh, wp)

    def crop(blk, o):  # the grid of the samples ``blk`` without its junk columns, plus the bias, into ``o``
        return np.add(grid[blk, ..., :ow], bias.data, out=o)

    out_data = _split(crop, blocks, (n, co, oh, ow), dt, grid if wp == ow else None)  # no junk columns: in place
    keep_x = _kept(x) if rw.requires_grad else None  # only the weight gradient reads the input

    def back(g):
        direct = kh * kw == stride == 1 and not p  # a gradient stack's one plane is the whole of g[s]
        wg = wd.transpose(2, 3, 0, 1).reshape(-1, ci)  # (kh * kw * co, ci), rows as in a gradient stack
        dx = np.empty((n, ci, h * w), dtype=dt) if rx.requires_grad else None
        stack = dx is not None or (keep_x is not None and not stacked)  # a pass walks gradient bands
        nb = h if direct else max(1, min(h, BAND // w))  # input rows a band
        bands = [(r, min(r + nb, h)) for r in range(0, h, nb)]

        def grads(blk):
            """Each sample's weight gradient product, in sample order, and its input gradient into
            ``dx``, each when taken. The input is read a sample at a time, so a rebuilt one never exists whole."""
            dws = []
            xfs = None
            if keep_x is not None:
                xs = (keep_x(slice(s, s + 1))[0] for s in range(blk.start, blk.stop))
                xfs = padded(xs) if stacked else (xi.reshape(ci, -1) for xi in xs)
            if stack and not direct:
                a, b = p + kh - 1, p + kw - 1  # the row and column of the grid where tap (0, 0)'s window starts
                dil = np.zeros((co, h + p + max(p, kh - 1), w + p + max(p, kw - 1)), dtype=dt)
                put = dil[:, kh - 1 :: stride, kw - 1 :: stride][:, :oh, :ow]
                wins = [dil[:, a - k : a - k + h, b - l : b - l + w] for k in range(kh) for l in range(kw)]
                buf = np.empty((kh * kw * co, nb, w), dtype=dt)
            for s in range(blk.start, blk.stop):
                xf = None if xfs is None else next(xfs)
                if stacked and xf is not None:
                    dws.append(np.pad(g[s], ((0, 0), (0, 0), (0, wp - ow))).reshape(co, m) @ operands(xf)[0].T)
                    xf = None  # the bands take no weight gradient
                if not stack:
                    continue
                if not direct:
                    put[...] = g[s]
                dw = None
                for r0, r1 in bands:
                    if direct:
                        gb = g[s].reshape(co, -1)
                    else:
                        for t, win in enumerate(wins):
                            buf[t * co : (t + 1) * co, : r1 - r0] = win[:, r0:r1]
                        gb = buf[:, : r1 - r0].reshape(-1, (r1 - r0) * w)
                    cols = slice(r0 * w, r1 * w)
                    if xf is not None:
                        d = gb @ xf[:, cols].T
                        dw = d if dw is None else np.add(dw, d, out=dw)
                    if dx is not None:
                        np.matmul(wg.T, gb, out=dx[s, :, cols])
                if dw is not None:
                    dws.append(dw)
            return dws

        if rb.requires_grad:
            _accum(rb, g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))
        dws = [d for products in _each(grads, blocks) for d in products]
        if dws:
            dw = sum(dws)  # in sample order, as numpy's sum over a batch axis adds them
            if stacked:
                _accum(rw, dw.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2))
            else:
                _accum(rw, dw.reshape(kh, kw, co, ci).transpose(2, 3, 0, 1))
        if dx is not None:
            _accum(rx, dx.reshape(n, ci, h, w))

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


def batch_norm_relu(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats) -> Tensor:
    """Train-mode per-channel normalization over (n, h, w), then ReLU, as one op.

    Normalizes with batch statistics (biased variance) and updates the running
    averages in place; in eval mode ``blocks.ConvBN`` folds them into the conv before.
    With ``m`` the batch mean, ``inv = 1 / sqrt(var + eps)`` and ``a = gamma * inv`` the
    output is ``max((x - m) * a + beta, 0)``. The forward builds it in one array:
    ``x - m``, squared in place for the variance, is overwritten by the rebuild.
    While it records a node the op keeps only ``x``, a 1-bit mask of ``out > 0``
    (``np.packbits``) and per-channel vectors (Rota Bulo et al., arXiv
    1712.02616). Its node's rebuild recomputes the output from ``x``, ``m``,
    ``a`` and ``beta`` with the forward's own ops, so bitwise: a conv that reads
    the output captures that rebuild (``_kept``) and not the output. The
    backward is exact through the batch
    statistics (Ioffe & Szegedy, arXiv 1502.03167): with ``gm = g * (out > 0)``,
    ``s1 = sum(gm)`` and ``s2 = sum(gm * x) - m * s1`` (no full-size temporary) over the N = n * h * w
    positions, ``dx = a * gm - k * (x - m) - a * s1 / N`` with ``k = a * inv**2 * s2 / N``,
    ``dgamma = inv * s2`` and ``dbeta = s1``.

    Every step is per channel. When the op splits (see the module docstring),
    the channels are cut into one block per core, of at least two channels, on
    ``parallel_map``: each block takes its statistics, builds its output and
    packs its own mask, and in the backward unpacks it and takes its sums and
    input gradient, on its own slice. The rebuild takes a sample slice, all
    samples by default, and computes just those samples, with the forward's
    per-element ops, so a conv reading the output one sample at a time never
    holds it whole.
    """
    n, c, h, w = x.shape
    if gamma.shape != (1, c, 1, 1) or beta.shape != (1, c, 1, 1):
        raise ValueError(
            f"batch_norm_relu: gamma {gamma.shape} and beta {beta.shape} must be (1, {c}, 1, 1), input {x.shape}"
        )
    axes = (0, 2, 3)
    xd, gd, bd, dt = x.data, gamma.data, beta.data, x.data.dtype
    # blocks of at least 2 channels: numpy sums a one-channel slice over (n, h, w) in another order
    blocks = _blocks(n, c, most=max(1, c // 2))
    record = bool(_parents(x, gamma, beta))  # the mask is read only by a recorded node
    m, v, inv, a = (np.empty((1, c, 1, 1), dtype=dt) for _ in range(4))
    out = np.empty_like(xd)

    def output(r, xs, blk=slice(None)):  # the output of ``xs``, the input's channels ``blk``, written into ``r``
        np.subtract(xs, m[:, blk], out=r)
        r *= a[:, blk]
        r += bd[:, blk]
        np.maximum(r, 0, out=r)

    def forward(blk):  # statistics of the channels in ``blk``, their output over their squared deviations, their mask
        xb, ob = xd[:, blk], out[:, blk]
        m[:, blk] = mb = xb.mean(axis=axes, keepdims=True)
        np.subtract(xb, mb, out=ob)
        v[:, blk] = vb = np.square(ob, out=ob).mean(axis=axes, keepdims=True)
        inv[:, blk] = ib = 1.0 / np.sqrt(vb + dt.type(BN_EPS))
        a[:, blk] = gd[:, blk] * ib
        output(ob, xb, blk)
        return np.packbits(ob > 0) if record else None

    def rebuild(s=slice(None)):  # the output of the samples ``s``
        xs = xd[s]
        r = np.empty_like(xs)
        output(r, xs)
        return r

    masks = _each(forward, blocks)
    stats.mean = ((1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * m).astype(stats.mean.dtype)
    stats.var = ((1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * v).astype(stats.var.dtype)
    stats.initialized = True
    count = n * h * w
    rx, rg, rb = x._rec, gamma._rec, beta._rec

    def back(g):
        gm, s1, s2 = np.empty(g.shape, dtype=dt), np.empty_like(m), np.empty_like(m)

        def sums(item):  # s1 and s2 of the channels of a block, and their input gradient into ``gm``
            blk, mask = item
            xb, mb, ab, ib = xd[:, blk], m[:, blk], a[:, blk], inv[:, blk]
            pos = np.unpackbits(mask, count=xb.size).view(bool).reshape(xb.shape)
            gb = np.multiply(g[:, blk], pos, out=gm[:, blk], dtype=dt)
            s1[:, blk] = s1b = gb.sum(axis=axes, keepdims=True)
            s2b = np.einsum("ncp,ncp->c", gb.reshape(n, -1, h * w), xb.reshape(n, -1, h * w)).reshape(mb.shape)
            s2[:, blk] = s2b = s2b - mb * s1b
            if rx.requires_grad:
                k = ab * ib * ib * s2b / count
                gb *= ab
                gb -= xb * k
                gb += k * mb - ab * s1b / count

        _each(sums, list(zip(blocks, masks)))
        _accum(rb, s1)
        _accum(rg, inv * s2)
        if rx.requires_grad:
            _accum(rx, gm)

    return _track(out, back, x, gamma, beta, rebuild=rebuild)


# ---------------------------------------------------------------------------
# Separable spatial linear maps: bilinear resize and friends
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _bilinear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D bilinear sampling with half-pixel centers, clamped at the borders:
    output ``j`` is ``(1 - t[j]) * x[i0[j]] + t[j] * x[i1[j]]``.

    Returns the read-only index arrays ``i0`` and ``i1`` and the float64
    weights ``t`` in [0, 1).
    """
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    t = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    for a in (i0, i1, t):
        a.flags.writeable = False
    return i0, i1, t


@lru_cache(maxsize=512)
def _interp_matrix(n_in: int, n_out: int, dtype_name: str) -> np.ndarray:
    """Row-stochastic 1-D bilinear sampling matrix with the taps of ``_bilinear_taps``."""
    i0, i1, t = _bilinear_taps(n_in, n_out)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - t)
    np.add.at(m, (rows, i1), t)
    return m.astype(np.dtype(dtype_name))


def spatial_map(x: Tensor, row_map: np.ndarray, col_map: np.ndarray) -> Tensor:
    """Apply fixed linear maps along height and width: out = row_map @ x @ col_map.T.

    The maps are constants; gradients flow to ``x`` only. Backward applies the
    transposed maps, which is exact for any linear resampling or blurring.

    The width map is one GEMM per sample, and the height map one GEMM per
    (sample, channel). When the op splits (see the module docstring), both run
    in one block of samples per core on ``parallel_map``. A GEMM over a block's
    samples would round as BLAS's kernel for its size does, so a block's numbers
    would change with the block size; per sample they do not.
    """
    if row_map.ndim != 2 or col_map.ndim != 2 or row_map.shape[1] != x.shape[2] or col_map.shape[1] != x.shape[3]:
        raise ValueError(f"spatial_map: maps {row_map.shape}/{col_map.shape} do not fit input {x.shape}")
    n, c, h, w = x.shape
    a, b = row_map.shape[0], col_map.shape[0]
    rx, dt = x._rec, x.data.dtype
    blocks = _blocks(n, n)

    def apply(src, rows, cols):  # rows @ src[s] @ cols for each sample s, into one new array
        def run(blk, dst):
            for s, d in zip(range(blk.start, blk.stop), dst):
                t = src[s].reshape(-1, cols.shape[0]) @ cols  # the width map, one GEMM
                np.matmul(rows, t.reshape(c, -1, cols.shape[1]), out=d)
            return dst

        shape = (n, c, rows.shape[0], cols.shape[1])
        return _split(run, blocks, shape, dt, np.empty(shape, dtype=dt))

    y = apply(x.data, row_map, col_map.T)

    def back(g):
        _accum(rx, apply(g, row_map.T, col_map))

    return _track(y, back, x)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize to (out_h, out_w) with half-pixel-center sampling and border clamping.

    Resizing to the input's own size is the identity and returns ``x`` itself.
    """
    if not (isinstance(out_h, numbers.Integral) and isinstance(out_w, numbers.Integral)):
        raise ValueError(f"bilinear_resize: target dims ({out_h!r}, {out_w!r}) must be integers, input shape {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bilinear_resize: target dims ({out_h}, {out_w}) must be >= 1, input shape {x.shape}")
    if (out_h, out_w) == x.shape[2:]:
        return x
    dt = x.data.dtype.name
    return spatial_map(x, _interp_matrix(x.shape[2], out_h, dt), _interp_matrix(x.shape[3], out_w, dt))


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    rx, dt = x._rec, x.data.dtype

    blocks = _blocks(n, n)
    y = _split(lambda blk, o: x.data[blk].mean(axis=(2, 3), keepdims=True, out=o), blocks, (n, c, 1, 1), dt)

    def back(g):
        _accum(rx, np.broadcast_to((g / (h * w)).astype(dt, copy=False), (n, c, h, w)))

    return _track(y, back, x)


# ---------------------------------------------------------------------------
# Parallel map
# ---------------------------------------------------------------------------


_T = TypeVar("_T")
_R = TypeVar("_R")
_IN_MAP: contextvars.ContextVar[bool] = contextvars.ContextVar("guidedepth_in_parallel_map", default=False)
# OpenBLAS's thread count is process-wide, so overlapping maps share one pin:
# the first map saves the count and sets 1, the last one restores it.
_PIN_LOCK = threading.Lock()
_PIN = [0, 1]  # maps running, and the thread count the last of them restores; changed under _PIN_LOCK


@lru_cache(maxsize=1)
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or ``None``
    when this numpy build has none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the loaded library: dlopen returns its handle
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread(get: Callable[[], int], set_: Callable[[int], None]):
    with _PIN_LOCK:
        if not _PIN[0]:
            _PIN[1] = get()
            set_(1)
        _PIN[0] += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _PIN[0] -= 1
            if not _PIN[0]:
                set_(_PIN[1])


@lru_cache(maxsize=None)
def _pool(cores: int) -> ThreadPoolExecutor:
    """The one pool of a host of ``cores`` cores: the calling thread is the other worker."""
    return ThreadPoolExecutor(cores - 1, thread_name_prefix="guidedepth-map")


def _nth(calls: list[Callable[[], _R]], i: int) -> _R:
    return calls[i]()


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(item) for item in items]``, in item order, with the calls spread over
    ``min(len(items), cores)`` workers, cores being ``os.sched_getaffinity(0)``.

    Every item but the first is queued, last first, on ``_pool(cores)``, the
    module's one pool for the host, of ``cores - 1`` threads. The calling
    thread runs the first item, which is never queued, and walks on from
    there: it runs each item no pool thread has taken and waits for the
    others. When it meets a taken item, every later item is taken too, so no
    worker idles while an item waits. Independent calls that release the
    interpreter lock, as numpy does, then run at once.
    While they run, numpy's bundled OpenBLAS is held at one thread (and set
    back after, also on error), since a second BLAS thread per call would
    compete with the other workers for the same cores. One item, one core and a
    numpy without those symbols run the calls on the calling thread, with BLAS
    left as it is.

    - Each call runs in its own copy of the caller's context, so ``no_grad``
      and other context variables of the caller hold in it.
    - A call made from inside ``fn`` runs its items on its own thread.
    - It returns or raises only after every call it started has finished, and
      raises the exception of the first failed item in item order, as a plain
      loop would. On the calling thread alone no item starts after a failure;
      on the pool, none starts once the calling thread, walking the items in
      order, has run the failed item or waited for it.
    - Once it has returned or raised, nothing it queued holds ``fn`` or an item.

    ``fn`` must be safe to run on several threads at once.
    """
    ctx = contextvars.copy_context()
    ctx.run(_IN_MAP.set, True)
    calls = [partial(ctx.copy().run, fn, item) for item in items]
    cores = len(os.sched_getaffinity(0))
    blas = _openblas() if len(calls) > 1 and cores > 1 and not _IN_MAP.get() else None
    if blas is None:
        return [call() for call in calls]
    with _one_blas_thread(*blas):
        futures = [_pool(cores).submit(_nth, calls, i) for i in reversed(range(1, len(calls)))][::-1]
        try:
            first = calls[0]()
            return [first] + [calls[i]() if f.cancel() else f.result() for i, f in enumerate(futures, 1)]
        finally:
            # started calls only: a future cancelled while queued is done once a pool thread dequeues it,
            # and until then its work item holds the list, which is emptied so it holds no fn or item
            wait([f for f in futures if not f.cancel()])
            calls.clear()


def _blocks(n: int, size: int, most: int | None = None) -> list[slice]:
    """``slice(0, size)`` cut into one contiguous block per core, at most ``most``
    of them, when an op splits its batch of ``n`` samples: ``n > 1`` and gradients
    record, outside any ``parallel_map`` call. Otherwise the one block of that
    whole slice."""
    if n < 2 or not _GRAD_ENABLED.get() or _IN_MAP.get():
        return [slice(0, size)]
    k = min(size, most or size, len(os.sched_getaffinity(0)))
    return [slice(size * i // k, size * (i + 1) // k) for i in range(k)]


def _split(fn: Callable[..., np.ndarray], blocks: list[slice], shape: tuple, dtype, out=None) -> np.ndarray:
    """``out`` of ``shape`` (a new array for ``None``) with ``fn(blk, out[blk])``
    for each block on ``_each``, ``fn`` returning what it wrote, as a ufunc with
    ``out=`` does. One block is the one call ``fn(blocks[0], out)``: with ``None``
    ``fn`` allocates the result, as the op's plain expression would. Only a pass
    that fills several arrays calls ``_each`` without it."""
    if len(blocks) == 1:
        return fn(blocks[0], out)
    out = np.empty(shape, dtype=dtype) if out is None else out
    _each(lambda blk: fn(blk, out[blk]), blocks)
    return out


def _each(fn: Callable[[_T], _R], blocks: list[_T], map_=parallel_map) -> list[_R]:
    """``[fn(blk) for blk in blocks]`` on ``parallel_map``, for ``_split`` or a pass
    that fills several arrays; one block runs on this thread, in a copy of its
    context, as any one-item map does. ``map_`` is bound once, here, so a tracer
    that rebinds this module's public functions times an op whole and does not
    cut it at its blocks."""
    return map_(fn, blocks)

"""Shared test utilities: finite-difference oracles, gradient checks and
plain reference implementations for parity tests."""

from __future__ import annotations

import tracemalloc

import numpy as np

from guidedepth import evaluate as E
from guidedepth import tensor as T
from guidedepth.data import DepthSample


def finite_diff_grad(f, t: T.Tensor, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of t.

    f must re-run the forward pass using t.data; evaluation happens under
    no_grad so the probes build no graph.
    """
    base = t.data.copy()
    g = np.zeros_like(base, dtype=np.float64)
    flat = t.data.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = f().item()
            flat[i] = orig - step
            lm = f().item()
            flat[i] = orig
            g.reshape(-1)[i] = (lp - lm) / (2.0 * step)
    t.data[...] = base
    return g


def conv2d_reference(x, w, b, stride, padding, g):
    """Plain-loop float64 cross-correlation and its gradients, for parity tests.

    Loops over every output position and kernel tap. Returns
    ``(y, dx, dw, db)`` where the gradients are those of ``sum(y * g)``.
    """
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    s, p = stride, padding
    xp = np.zeros((n, ci, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    oh, ow = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    y = np.zeros((n, co, oh, ow)) + b
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            for k in range(kh):
                for l in range(kw):
                    r, c = s * i + k, s * j + l
                    y[:, :, i, j] += xp[:, :, r, c] @ w[:, :, k, l].T
                    dw[:, :, k, l] += g[:, :, i, j].T @ xp[:, :, r, c]
                    dxp[:, :, r, c] += g[:, :, i, j] @ w[:, :, k, l]
    db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1)
    return y, dxp[:, :, p : p + h, p : p + wd], dw, db


def perturb_params(module, rng, scale: float = 0.05) -> None:
    """Nudge every parameter off its init so FD probes avoid ReLU/abs kinks."""
    for _, p in module.named_parameters():
        p.data += (scale * rng.standard_normal(p.shape)).astype(p.data.dtype)


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_grads(build_loss, tensors, step=1e-3, tol=1e-3, floor=1e-6):
    """Analytic gradients of build_loss() vs central differences, per tensor.

    tensors is a dict name -> Tensor with requires_grad set. Returns the worst
    relative error observed (also asserted against tol).
    """
    for t in tensors.values():
        t.grad = None
    loss = build_loss()
    T.backward(loss)
    worst = 0.0
    for name, t in tensors.items():
        assert t.grad is not None, f"{name}: no gradient populated"
        fd = finite_diff_grad(build_loss, t, step=step)
        err = rel_err(t.grad, fd, floor=floor)
        assert err < tol, f"{name}: gradient rel err {err:.3e} >= {tol:.0e}"
        worst = max(worst, err)
    return worst


def directional_grad_check(build_loss, tensors, rng, step=1e-4):
    """Directional derivative along a random direction over all tensors at once.

    Returns (analytic, numeric): g.v versus (f(x+hv) - f(x-hv)) / 2h. Checks
    the full gradient with just two extra forward passes.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    T.backward(loss)
    dirs = []
    analytic = 0.0
    for t in tensors:
        v = rng.standard_normal(t.shape)
        v /= np.linalg.norm(v.ravel())
        dirs.append(v)
        assert t.grad is not None
        analytic += float((t.grad.astype(np.float64) * v).sum())
    bases = [t.data.copy() for t in tensors]
    with T.no_grad():
        for t, v, base in zip(tensors, dirs, bases):
            t.data[...] = (base + step * v).astype(t.data.dtype)
        lp = build_loss().item()
        for t, v, base in zip(tensors, dirs, bases):
            t.data[...] = (base - step * v).astype(t.data.dtype)
        lm = build_loss().item()
        for t, base in zip(tensors, bases):
            t.data[...] = base
    numeric = (lp - lm) / (2.0 * step)
    return analytic, numeric


def graph_objects(out: T.Tensor) -> list:
    """Every object the graph of ``out`` keeps alive: the grad records reachable
    from the record of ``out`` through their nodes, their gradients, and what
    each backward rule and rebuild captured, also inside lists, tuples and
    nested closures."""
    found, seen, stack = [], set(), [out._rec]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, T._GradRecord):
            stack.extend((obj.grad, obj.node))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):  # a backward rule or a function it calls
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def graph_bytes(out: T.Tensor) -> int:
    """Bytes of the distinct arrays among ``graph_objects(out)``.

    An array counts only when a backward rule, or a rebuild it captured,
    reads it; an output that a reader rebuilds is not counted. Each array is
    counted once, by the buffer that owns its memory, so views and slices add
    nothing.
    """
    buffers = {}
    for obj in graph_objects(out):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
    return sum(buffers.values())


def traced(f):
    """Run ``f()`` under tracemalloc and return ``(f(), held, peak)``.

    ``held`` is the bytes of numpy array buffers allocated by ``f`` and still
    alive when it returns, such as those of its result and of a graph that
    result keeps; Python's object free lists, which refill over dozens of
    calls, are not counted. ``peak`` is the highest traced memory of any kind
    while ``f`` ran, above where it started.
    """
    only_arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        peak = tracemalloc.get_traced_memory()[1] - base
        snap = tracemalloc.take_snapshot().filter_traces(only_arrays)
    finally:
        tracemalloc.stop()
    return out, sum(stat.size for stat in snap.statistics("filename")), peak


def mean_predictor() -> E.Predictor:
    """Predicts the per-image mean of the normalized ground truth everywhere.

    The mean is accumulated in float64 and only then stored as float32, so
    the prediction does not depend on the numpy version (how it splits a
    float32 reduction) or on pixel order (a mirrored image gets the same
    constant)."""

    def predict(image: T.Tensor, sample: DepthSample) -> T.Tensor:
        norm = E.depth_to_normalized(sample.depth.data, sample.d_max)
        mean = norm.mean(dtype=np.float64)
        return T.Tensor(np.full((1, 1, image.shape[2], image.shape[3]), mean, dtype=np.float32))

    return predict


def metrics_reference(y, yhat, mask=None) -> E.MetricValues:
    """The six depth metrics written out term by term in float64."""
    g = np.asarray(y, dtype=np.float64)
    p = np.asarray(yhat, dtype=np.float64)
    if mask is not None:
        g, p = g[mask], p[mask]
    g, p = g.ravel(), p.ravel()
    ratio = np.maximum(g / p, p / g)
    return E.MetricValues(
        rmse=float(np.sqrt(np.mean((g - p) ** 2))),
        rel=float(np.mean(np.abs(g - p) / g)),
        log10=float(np.mean(np.abs(np.log10(g) - np.log10(p)))),
        d1=float(np.mean(ratio < 1.25)),
        d2=float(np.mean(ratio < 1.25**2)),
        d3=float(np.mean(ratio < 1.25**3)),
    )


def _dense_resize(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    with T.no_grad():
        return T.bilinear_resize(T.Tensor(arr), h, w).data


def evaluate_reference(predict, samples, resolution, crop_kind="none", flip_average=True) -> E.MetricValues:
    """The evaluation protocol by its plain definition: resize the image with
    the dense ``bilinear_resize``, upsample the whole prediction and then crop,
    mirror by contiguous copies, and take the metrics with
    ``metrics_reference``."""
    mh, mw = resolution

    def run_one(sample):
        gt = sample.depth.data
        gh, gw = gt.shape[-2:]
        pred = predict(T.Tensor(_dense_resize(sample.image.data, mh, mw)), sample).data
        up = _dense_resize(E.normalized_to_depth(pred, sample.d_max), gh, gw)
        rs, cs = E.crop_slices(crop_kind, gh, gw)
        gt_c, up_c = gt[0, 0, rs, cs], up[0, 0, rs, cs]
        return metrics_reference(gt_c, up_c, gt_c > 0)

    per_image = []
    for sample in samples:
        m = run_one(sample)
        if flip_average:
            mirrored = DepthSample(
                image=T.Tensor(np.ascontiguousarray(sample.image.data[..., ::-1])),
                depth=T.Tensor(np.ascontiguousarray(sample.depth.data[..., ::-1])),
                d_max=sample.d_max,
            )
            m = E.MetricValues.average([m, run_one(mirrored)])
        per_image.append(m)
    return E.MetricValues.average(per_image)

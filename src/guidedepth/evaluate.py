"""Evaluation protocol: inverse depth normalization, resolution bridging,
flip-averaging, border-excluding crops, and the six standard depth metrics.

Metrics are computed in metric depth space. Per image:

1. resize the input image to the model resolution;
2. predict, and check that the prediction is finite;
3. convert the prediction back to meters, capped to the depth range: the
   normalized map is clipped to ``[1, d_max / DEPTH_FLOOR]``, so each
   predicted depth lies in ``[DEPTH_FLOOR, d_max]``;
4. upsample it to the ground-truth resolution, computing only the rows and
   columns the crop keeps (the values are those of upsampling the whole map
   and then cropping);
5. take the metrics over the valid ground-truth pixels of the crop.

With flip averaging the same is done on the mirrored sample, whose arrays
are reversed views of the original, and the two per-image results are
averaged.

The passes (sample 0 plain, sample 0 mirrored, sample 1 plain, ...) are
independent, so ``tensor.parallel_map`` runs them on up to one thread per
core, and a predictor must be safe to call from several threads at once.
While they run, numpy's BLAS runs one thread per pass. Each image's pair is
averaged in pass order and the images in sample order, so the metrics do not
depend on which pass finished first.

Both resizes sample like ``tensor.bilinear_resize`` (its taps come from
``tensor._bilinear_taps``) but read only the two taps of each output, rows
first and then columns, as ``a + (b - a) * t``: a constant map comes back
bit for bit, and so does a map resized to its own size or downsampled by an
odd integer factor, such as 480x640 to 96x128 (every tap then falls on a
pixel center).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from guidedepth.data import DepthSample
from guidedepth.tensor import Tensor, _bilinear_taps, parallel_map

DEPTH_FLOOR = 1e-3  # clamp floor for the inverse depth transform


def crop_slices(kind: str, h: int, w: int) -> tuple[slice, slice]:
    """Rows and columns of an (h, w) map that the metrics are taken over: all of
    it ("none"), the fixed 440x592 interior of a 480x640 image without its noisy
    borders ("nyu"), or a fractional crop floored to pixel indices ("kitti").
    An empty crop, or one that exceeds the map, is an error."""
    bounds = {
        "none": (0, h, 0, w),
        "nyu": (20, 460, 24, 616),
        "kitti": (math.floor(0.332 * h), math.floor(0.914 * h), math.floor(0.036 * w), math.floor(0.964 * w)),
    }
    if kind not in bounds:
        raise ValueError(f"unknown crop kind {kind!r}, choose none/nyu/kitti")
    top, bottom, left, right = bounds[kind]
    crop = f"{kind} crop [{top}, {bottom}) x [{left}, {right})"
    if top >= bottom or left >= right:
        raise ValueError(f"{crop} of an ({h}, {w}) map is empty")
    if bottom > h or right > w:
        raise ValueError(f"{crop} exceeds image bounds ({h}, {w})")
    return slice(top, bottom), slice(left, right)


# ---------------------------------------------------------------------------
# Inverse depth normalization
# ---------------------------------------------------------------------------


def depth_to_normalized(depth: np.ndarray, d_max: float) -> np.ndarray:
    """Map metric depth to the network's working space: y = d_max / depth.

    Nonpositive and NaN inputs are an error; positive values below the floor
    are clamped before the division.
    """
    depth = np.asarray(depth)
    if not (depth > 0).all():
        raise ValueError("depth_to_normalized: nonpositive or NaN depth values")
    return d_max / np.maximum(depth, DEPTH_FLOOR)


def normalized_to_depth(norm: np.ndarray, d_max: float) -> np.ndarray:
    """Invert the normalization, capping the depth to ``[DEPTH_FLOOR, d_max]``
    (an untrained network can emit anything)."""
    return d_max / np.clip(norm, 1.0, d_max / DEPTH_FLOOR)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricValues:
    rmse: float
    rel: float
    log10: float
    d1: float
    d2: float
    d3: float

    @staticmethod
    def average(items: Sequence["MetricValues"]) -> "MetricValues":
        """Per-metric mean; each sum runs over ``items`` in order."""
        if not items:
            raise ValueError("cannot average zero metric records")
        n = len(items)
        return MetricValues(
            **{f.name: sum(getattr(m, f.name) for m in items) / n for f in fields(MetricValues)}
        )


def _as_map(x) -> np.ndarray:
    """``x`` as one (h, w) map: at least 2 dims, every leading dim 1."""
    arr = np.asarray(x)
    if arr.ndim < 2 or any(d != 1 for d in arr.shape[:-2]):
        raise ValueError(f"compute_metrics: expected one (h, w) map, leading dims all 1, got shape {arr.shape}")
    return arr.reshape(arr.shape[-2:])


METRIC_BLOCK = 32768  # pixels per block of compute_metrics, so that its float64 buffers stay in cache
DELTA_LIMITS = (1.25, 1.25**2, 1.25**3)


def compute_metrics(y, yhat, valid_mask=None) -> MetricValues:
    """Six-metric record over masked pixels of one image, in metric depth space.

    The delta thresholds use a strict < against 1.25^j, so a ratio of exactly
    1.25 fails delta_1.

    The maps are read in blocks of whole rows, about ``METRIC_BLOCK`` pixels
    each. Each block is copied once to float64 (its masked pixels only, unless
    every pixel of the map is valid), and its sums and counts are added to the
    totals. With ``r = g / p`` the log error is ``|log10 r|`` and the delta
    ratio is ``max(r, 1 / r)``. A nonpositive or non-finite depth under the
    mask is an error.
    """
    gt = _as_map(y)
    pred = _as_map(yhat)
    if gt.shape != pred.shape:
        raise ValueError(f"compute_metrics: shape mismatch {gt.shape} vs {pred.shape}")
    mask = None if valid_mask is None else np.asarray(valid_mask, dtype=bool)
    if mask is not None and mask.shape != gt.shape:
        raise ValueError(f"compute_metrics: mask shape {mask.shape} does not match depth shape {gt.shape}")
    n = gt.size if mask is None else int(np.count_nonzero(mask))
    if n == 0:
        raise ValueError("compute_metrics: empty valid mask")
    if n == gt.size:
        mask = None
    step = max(1, METRIC_BLOCK // gt.shape[1])
    sq = ae = le = 0.0
    counts = [0] * len(DELTA_LIMITS)
    for r0 in range(0, gt.shape[0], step):
        rows = slice(r0, r0 + step)
        g, p = gt[rows], pred[rows]
        if mask is not None:
            g, p = g[mask[rows]], p[mask[rows]]
        g = np.array(g, dtype=np.float64, order="C").ravel()
        p = np.array(p, dtype=np.float64, order="C").ravel()
        # chained comparisons, each False on NaN, so that NaN fails the check too
        if g.size and not (0 < g.min() <= g.max() < math.inf and 0 < p.min() <= p.max() < math.inf):
            raise ValueError("compute_metrics: nonpositive or non-finite depths under the mask")
        buf = g - p
        sq += np.dot(buf, buf)
        ae += np.divide(np.abs(buf, out=buf), g, out=buf).sum()
        r = np.divide(g, p, out=p)  # p is this block's own copy
        le += np.abs(np.log10(r, out=buf), out=buf).sum()
        ratio = np.maximum(r, np.reciprocal(r, out=buf), out=buf)
        for j, limit in enumerate(DELTA_LIMITS):
            counts[j] += int(np.count_nonzero(ratio < limit))
    return MetricValues(
        rmse=math.sqrt(sq / n),
        rel=float(ae) / n,
        log10=float(le) / n,
        d1=counts[0] / n,
        d2=counts[1] / n,
        d3=counts[2] / n,
    )


# Predictors take the resized input image plus the originating sample (so
# oracle predictors can peek at the ground truth) and return a depth map in
# normalized space at the image's resolution. ``evaluate`` may run several
# passes at once, so a predictor must be thread-safe; BLAS runs one thread per
# pass while they do.
Predictor = Callable[[Tensor, DepthSample], Tensor]


def model_predictor(model) -> Predictor:
    """``model``'s eval forward, which records no graph, on the image cast to the
    model's parameter dtype (no copy for a float32 model)."""
    dtype = model.head.weight.dtype

    def predict(image: Tensor, sample: DepthSample) -> Tensor:
        return model.forward(Tensor(image.data, dtype=dtype), train=False)

    return predict


def oracle_predictor() -> Predictor:
    """Returns the ground truth resized to the model resolution; bounds the
    resampling error of the protocol itself. Resizing happens in metric space
    so the normalization round-trips exactly."""

    def predict(image: Tensor, sample: DepthSample) -> Tensor:
        down = _resize(sample.depth.data, image.shape[2], image.shape[3])
        return Tensor(depth_to_normalized(down, sample.d_max).astype(np.float32))

    return predict


def _resize(arr: np.ndarray, h: int, w: int, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` of the bilinear resize of ``arr``'s
    last two axes to (h, w), in ``arr``'s dtype; see the module docstring."""
    dt = arr.dtype
    i0, i1, t = (v[rows] for v in _bilinear_taps(arr.shape[-2], h))
    a = arr[..., i0, :]
    out = arr[..., i1, :]
    out -= a
    out *= t.astype(dt)[:, None]
    out += a
    i0, i1, t = (v[cols] for v in _bilinear_taps(arr.shape[-1], w))
    a = np.take(out, i0, axis=-1)
    out = np.take(out, i1, axis=-1)
    out -= a
    out *= t.astype(dt)
    out += a
    return out


def evaluate(
    predict: Predictor,
    samples: Sequence[DepthSample],
    resolution: tuple[int, int],
    crop_kind: str = "none",
    flip_average: bool = True,
) -> MetricValues:
    """Full protocol over a dataset; returns per-image means of the metrics.

    A non-finite prediction is an error naming the sample and the pass.
    """
    if not samples:
        raise ValueError("evaluate: empty dataset")
    mh, mw = resolution

    def run_one(sample: DepthSample, where: str) -> MetricValues:
        gt_np = sample.depth.data
        gh, gw = gt_np.shape[-2:]
        rs, cs = crop_slices(crop_kind, gh, gw)
        image = Tensor(_resize(sample.image.data, mh, mw))
        pred_norm = predict(image, sample)
        if pred_norm.shape != (1, 1, mh, mw):
            raise ValueError(f"predictor returned {pred_norm.shape} for {where}, expected (1, 1, {mh}, {mw})")
        if not np.isfinite(pred_norm.data).all():
            raise ValueError(f"predictor returned non-finite values for {where}")
        pred_metric = normalized_to_depth(pred_norm.data, sample.d_max)
        gt_c = _as_map(gt_np[..., rs, cs])
        return compute_metrics(gt_c, _resize(pred_metric, gh, gw, rs, cs), gt_c > 0)

    passes = []  # sample 0 plain, sample 0 mirrored, sample 1 plain, ...
    for i, sample in enumerate(samples):
        passes.append((sample, f"sample {i} (plain pass)"))
        if flip_average:
            mirrored = DepthSample(
                image=Tensor(sample.image.data[..., ::-1]),
                depth=Tensor(sample.depth.data[..., ::-1]),
                d_max=sample.d_max,
            )
            passes.append((mirrored, f"sample {i} (mirrored pass)"))
    results = parallel_map(lambda p: run_one(*p), passes)
    if flip_average:
        results = [MetricValues.average(results[k : k + 2]) for k in range(0, len(results), 2)]
    return MetricValues.average(results)

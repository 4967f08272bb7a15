"""Evaluation protocol: inverse depth normalization, resolution bridging,
flip-averaging, border-excluding crops, and the six standard depth metrics.

Metrics are computed in metric depth space. Per image: resize the input to the
model resolution, predict, convert back to meters, upsample the prediction to
the ground-truth resolution, crop, accumulate. With flip averaging the same is
done on the mirrored image and the two per-image results are averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from guidedepth.data import DepthSample
from guidedepth.tensor import Tensor, bilinear_resize, no_grad

DEPTH_FLOOR = 1e-3  # clamp floor for the inverse depth transform

CSV_HEADER = "rmse,rel,log10,d1,d2,d3,n,flip,crop"


@dataclass(frozen=True)
class Crop:
    """Half-open pixel ranges [top, bottom) x [left, right)."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if not (0 <= self.top < self.bottom and 0 <= self.left < self.right):
            raise ValueError(f"degenerate crop {self}")

    def check_bounds(self, h: int, w: int) -> None:
        if self.bottom > h or self.right > w:
            raise ValueError(f"crop {self} exceeds image bounds ({h}, {w})")

    @property
    def slices(self):
        return slice(self.top, self.bottom), slice(self.left, self.right)


def nyu_crop() -> Crop:
    """Fixed 440x592 interior of a 480x640 image, excluding noisy borders."""
    return Crop(20, 460, 24, 616)


def kitti_crop(h: int, w: int) -> Crop:
    """Fractional crop recomputed per image; bounds floored to pixel indices."""
    return Crop(
        math.floor(0.332 * h),
        math.floor(0.914 * h),
        math.floor(0.036 * w),
        math.floor(0.964 * w),
    )


def crop_for(kind: str, h: int, w: int) -> Crop:
    if kind == "none":
        return Crop(0, h, 0, w)
    if kind == "nyu":
        crop = nyu_crop()
        crop.check_bounds(h, w)
        return crop
    if kind == "kitti":
        return kitti_crop(h, w)
    raise ValueError(f"unknown crop kind {kind!r}, choose none/nyu/kitti")


# ---------------------------------------------------------------------------
# Inverse depth normalization
# ---------------------------------------------------------------------------


def depth_to_normalized(depth: np.ndarray, d_max: float) -> np.ndarray:
    """Map metric depth to the network's working space: y = d_max / depth.

    Nonpositive inputs are an error; positive values below the floor are
    clamped before the division.
    """
    depth = np.asarray(depth)
    if (depth <= 0).any():
        raise ValueError("depth_to_normalized: nonpositive depth values")
    return d_max / np.maximum(depth, DEPTH_FLOOR)


def normalized_to_depth(norm: np.ndarray, d_max: float) -> np.ndarray:
    """Invert the normalization; predictions at or below the floor are clamped
    (an untrained network can emit anything)."""
    norm = np.asarray(norm)
    return d_max / np.maximum(norm, DEPTH_FLOOR)


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
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    return arr.astype(np.float64).reshape(arr.shape[-2], arr.shape[-1])


def compute_metrics(y, yhat, valid_mask=None) -> MetricValues:
    """Six-metric record over masked pixels of one image, in metric depth space.

    The delta thresholds use a strict < against 1.25^j, so a ratio of exactly
    1.25 fails delta_1.
    """
    gt = _as_map(y)
    pred = _as_map(yhat)
    if gt.shape != pred.shape:
        raise ValueError(f"compute_metrics: shape mismatch {gt.shape} vs {pred.shape}")
    mask = np.ones_like(gt, dtype=bool) if valid_mask is None else np.asarray(valid_mask, dtype=bool)
    if mask.shape != gt.shape:
        raise ValueError("compute_metrics: mask shape mismatch")
    if not mask.any():
        raise ValueError("compute_metrics: empty valid mask")
    g = gt[mask]
    p = pred[mask]
    if (g <= 0).any() or (p <= 0).any():
        raise ValueError("compute_metrics: nonpositive depths under the mask")
    ratio = np.maximum(g / p, p / g)
    return MetricValues(
        rmse=float(np.sqrt(np.mean((g - p) ** 2))),
        rel=float(np.mean(np.abs(g - p) / g)),
        log10=float(np.mean(np.abs(np.log10(g) - np.log10(p)))),
        d1=float(np.mean(ratio < 1.25)),
        d2=float(np.mean(ratio < 1.25**2)),
        d3=float(np.mean(ratio < 1.25**3)),
    )


@dataclass
class EvalReport(MetricValues):
    """Dataset means of the six metrics and how they were obtained."""

    n_images: int
    flip_averaged: bool
    crop_kind: str

    def as_csv_row(self) -> str:
        return (
            f"{self.rmse:.9g},{self.rel:.9g},{self.log10:.9g},"
            f"{self.d1:.9g},{self.d2:.9g},{self.d3:.9g},"
            f"{self.n_images},{str(self.flip_averaged).lower()},{self.crop_kind}"
        )


# Predictors take the resized input image plus the originating sample (so
# oracle predictors can peek at the ground truth) and return a depth map in
# normalized space at the image's resolution.
Predictor = Callable[[Tensor, DepthSample], Tensor]


def model_predictor(model) -> Predictor:
    def predict(image: Tensor, sample: DepthSample) -> Tensor:
        with no_grad():
            return model.forward(image, train=False)

    return predict


def oracle_predictor() -> Predictor:
    """Returns the ground truth resized to the model resolution; bounds the
    resampling error of the protocol itself. Resizing happens in metric space
    so the normalization round-trips exactly."""

    def predict(image: Tensor, sample: DepthSample) -> Tensor:
        down = _resize_np(sample.depth.data, image.shape[2], image.shape[3])
        return Tensor(depth_to_normalized(down, sample.d_max).astype(np.float32))

    return predict


def mean_predictor() -> Predictor:
    """Predicts the per-image mean of the normalized ground truth everywhere.

    The mean is accumulated in float64 and only then stored as float32, so
    the prediction does not depend on the numpy version (how it splits a
    float32 reduction) or on pixel order (a mirrored image gets the same
    constant)."""

    def predict(image: Tensor, sample: DepthSample) -> Tensor:
        norm = depth_to_normalized(sample.depth.data, sample.d_max)
        mean = norm.mean(dtype=np.float64)
        return Tensor(np.full((1, 1, image.shape[2], image.shape[3]), mean, dtype=np.float32))

    return predict


def _resize_np(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    with no_grad():
        return bilinear_resize(Tensor(arr.copy()), h, w).data


def evaluate(
    predict: Predictor,
    samples: Sequence[DepthSample],
    resolution: tuple[int, int],
    crop_kind: str = "none",
    flip_average: bool = True,
) -> EvalReport:
    """Full protocol over a dataset; returns per-image means of the metrics."""
    if not samples:
        raise ValueError("evaluate: empty dataset")
    mh, mw = resolution

    def run_one(sample: DepthSample) -> MetricValues:
        gt_np = sample.depth.data
        gh, gw = gt_np.shape[-2:]
        image = Tensor(_resize_np(sample.image.data, mh, mw))
        pred_norm = predict(image, sample)
        if pred_norm.shape != (1, 1, mh, mw):
            raise ValueError(f"predictor returned {pred_norm.shape}, expected (1, 1, {mh}, {mw})")
        pred_metric = normalized_to_depth(pred_norm.data, sample.d_max)
        pred_up = _resize_np(pred_metric, gh, gw)
        crop = crop_for(crop_kind, gh, gw)
        rs, cs = crop.slices
        gt_c = gt_np[..., rs, cs]
        pred_c = pred_up[..., rs, cs]
        mask = _as_map(gt_c) > 0
        return compute_metrics(gt_c, pred_c, mask)

    per_image: list[MetricValues] = []
    for sample in samples:
        plain = run_one(sample)
        if flip_average:
            mirrored = DepthSample(
                image=Tensor(np.ascontiguousarray(sample.image.data[..., ::-1])),
                depth=Tensor(np.ascontiguousarray(sample.depth.data[..., ::-1])),
                d_max=sample.d_max,
            )
            plain = MetricValues.average([plain, run_one(mirrored)])
        per_image.append(plain)

    return EvalReport(**vars(MetricValues.average(per_image)), n_images=len(samples),
                      flip_averaged=flip_average, crop_kind=crop_kind)

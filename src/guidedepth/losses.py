"""Composite training objective: structural dissimilarity + gradient matching + weighted L1.

All terms are built from differentiable tensor ops and are evaluated in the
inverse-depth-normalized space the network is trained in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from guidedepth.tensor import (
    Tensor,
    absolute,
    add,
    affine,
    div,
    mean_all,
    mul,
    spatial_map,
    sub,
)


@dataclass
class LossConfig:
    lambda_l1: float = 0.1
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    dynamic_range: float = 10.0

    def __post_init__(self):
        if self.lambda_l1 <= 0:
            raise ValueError(f"LossConfig: lambda_l1 must be positive, got {self.lambda_l1!r}")
        if self.ssim_window < 1 or self.ssim_window % 2 == 0:
            raise ValueError(f"LossConfig: ssim_window must be odd and >= 1, got {self.ssim_window!r}")
        if self.ssim_sigma <= 0:
            raise ValueError(f"LossConfig: ssim_sigma must be positive, got {self.ssim_sigma!r}")
        if not self.dynamic_range > 0:
            raise ValueError(f"LossConfig: dynamic_range must be positive, got {self.dynamic_range!r}")

    @property
    def c1(self) -> float:
        """SSIM mean stabilizer, (0.01 * dynamic_range)^2."""
        return (0.01 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        """SSIM variance stabilizer, (0.03 * dynamic_range)^2."""
        return (0.03 * self.dynamic_range) ** 2


@lru_cache(maxsize=128)
def _gaussian_map(size: int, window: int, sigma: float, dtype_name: str) -> np.ndarray:
    """1-D Gaussian blur as a dense (size, size) matrix with edge-clamped support.

    Row i holds the normalized window weights; positions falling outside the
    image are folded onto the border pixel, so constant inputs stay constant.
    """
    offsets = np.arange(window) - window // 2
    w = np.exp(-(offsets.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    w /= w.sum()
    m = np.zeros((size, size), dtype=np.float64)
    rows = np.repeat(np.arange(size), window)
    cols = np.clip(np.add.outer(np.arange(size), offsets).ravel(), 0, size - 1)
    np.add.at(m, (rows, cols), np.tile(w, size))
    return m.astype(np.dtype(dtype_name))


@lru_cache(maxsize=128)
def _diff_maps(size: int, dtype_name: str) -> tuple[np.ndarray, np.ndarray]:
    """The (size, size) identity and the (size - 1, size) forward difference,
    whose row i is e_{i+1} - e_i; both are exact in any float dtype."""
    eye = np.eye(size, dtype=np.dtype(dtype_name))
    return eye, np.diff(eye, axis=0)


def _blur(t: Tensor, window: int, sigma: float) -> Tensor:
    dt = t.data.dtype.name
    return spatial_map(t, _gaussian_map(t.shape[2], window, sigma, dt), _gaussian_map(t.shape[3], window, sigma, dt))


def ssim(a: Tensor, b: Tensor, cfg: LossConfig) -> Tensor:
    """Mean structural similarity index over Gaussian-weighted local windows.

    Returns a differentiable scalar in [-1, 1]; identical inputs give exactly 1.
    """
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    win, sig = cfg.ssim_window, cfg.ssim_sigma
    mu_a = _blur(a, win, sig)
    mu_b = _blur(b, win, sig)
    mu_aa = mul(mu_a, mu_a)
    mu_bb = mul(mu_b, mu_b)
    mu_ab = mul(mu_a, mu_b)
    var_a = sub(_blur(mul(a, a), win, sig), mu_aa)
    var_b = sub(_blur(mul(b, b), win, sig), mu_bb)
    cov = sub(_blur(mul(a, b), win, sig), mu_ab)
    num = mul(affine(mu_ab, 2.0, cfg.c1), affine(cov, 2.0, cfg.c2))
    den = mul(affine(add(mu_aa, mu_bb), 1.0, cfg.c1), affine(add(var_a, var_b), 1.0, cfg.c2))
    return mean_all(div(num, den))


def dssim_loss(y: Tensor, yhat: Tensor, cfg: LossConfig) -> Tensor:
    """(1 - SSIM) / 2, in [0, 1]; zero iff the maps are structurally identical."""
    return affine(ssim(y, yhat, cfg), -0.5, 0.5)


def grad_loss(y: Tensor, yhat: Tensor) -> Tensor:
    """Mean absolute mismatch of forward-difference partial derivatives along x and y;
    each difference is a ``spatial_map`` with the identity along the other axis."""
    if y.shape != yhat.shape:
        raise ValueError(f"grad_loss: shape mismatch {y.shape} vs {yhat.shape}")
    h, w = y.shape[2:]
    if h < 2 or w < 2:
        raise ValueError(f"grad_loss: needs a map of at least 2x2 pixels, got shape {y.shape}")
    eye_h, diff_h = _diff_maps(h, y.data.dtype.name)
    eye_w, diff_w = _diff_maps(w, y.data.dtype.name)
    dx = sub(spatial_map(y, eye_h, diff_w), spatial_map(yhat, eye_h, diff_w))
    dy = sub(spatial_map(y, diff_h, eye_w), spatial_map(yhat, diff_h, eye_w))
    return add(mean_all(absolute(dx)), mean_all(absolute(dy)))


def l1_loss(y: Tensor, yhat: Tensor) -> Tensor:
    if y.shape != yhat.shape:
        raise ValueError(f"l1_loss: shape mismatch {y.shape} vs {yhat.shape}")
    return mean_all(absolute(sub(y, yhat)))


def loss_terms(y: Tensor, yhat: Tensor, cfg: LossConfig) -> dict[str, Tensor]:
    """The three objective terms plus their weighted total."""
    terms = {
        "dssim": dssim_loss(y, yhat, cfg),
        "grad": grad_loss(y, yhat),
        "l1": l1_loss(y, yhat),
    }
    terms["total"] = add(add(terms["dssim"], terms["grad"]), affine(terms["l1"], cfg.lambda_l1, 0.0))
    return terms

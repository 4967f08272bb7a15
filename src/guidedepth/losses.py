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
    add_scalar,
    diff_x,
    diff_y,
    div,
    mean_all,
    mul,
    scale,
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
            raise ValueError("lambda_l1 must be positive")
        if self.ssim_window < 1 or self.ssim_window % 2 == 0:
            raise ValueError("ssim_window must be odd and >= 1")
        if self.ssim_sigma <= 0:
            raise ValueError("ssim_sigma must be positive")
        if not self.dynamic_range > 0:
            raise ValueError("dynamic_range must be positive")

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
    num = mul(add_scalar(scale(mu_ab, 2.0), cfg.c1), add_scalar(scale(cov, 2.0), cfg.c2))
    den = mul(add_scalar(add(mu_aa, mu_bb), cfg.c1), add_scalar(add(var_a, var_b), cfg.c2))
    return mean_all(div(num, den))


def dssim_loss(y: Tensor, yhat: Tensor, cfg: LossConfig) -> Tensor:
    """(1 - SSIM) / 2, in [0, 1]; zero iff the maps are structurally identical."""
    return scale(add_scalar(scale(ssim(y, yhat, cfg), -1.0), 1.0), 0.5)


def grad_loss(y: Tensor, yhat: Tensor) -> Tensor:
    """Mean absolute mismatch of forward-difference partial derivatives along x and y."""
    if y.shape != yhat.shape:
        raise ValueError(f"grad_loss: shape mismatch {y.shape} vs {yhat.shape}")
    dx = sub(diff_x(y), diff_x(yhat))
    dy = sub(diff_y(y), diff_y(yhat))
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
    terms["total"] = add(add(terms["dssim"], terms["grad"]), scale(terms["l1"], cfg.lambda_l1))
    return terms


def combined_loss(y: Tensor, yhat: Tensor, cfg: LossConfig) -> Tensor:
    return loss_terms(y, yhat, cfg)["total"]

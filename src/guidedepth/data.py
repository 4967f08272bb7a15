"""Desk-scale data: ray-cast synthetic RGB-D scenes, training augmentations,
and dataset file I/O: a dataset is one GDT record (see ``gdt``) whose ``meta``
holds the samples' shared ``d_max`` and whose arrays are ``<i>.image`` and
``<i>.depth`` for samples i = 0..n-1, read back in that order.

Scenes are rendered by intersecting per-pixel view rays with a handful of
primitives (spheres, boxes, tilted plane patches) in front of a backdrop
plane. Colors are flat-shaded per surface so RGB edges coincide with depth
discontinuities, which is what gives the guidance branch its signal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from guidedepth import gdt
from guidedepth.tensor import Tensor


@dataclass
class DepthSample:
    """Paired RGB image in [0, 1] and metric depth map in (0, d_max]."""

    image: Tensor  # (1, 3, h, w)
    depth: Tensor  # (1, 1, h, w)
    d_max: float

    def __post_init__(self):
        if self.image.shape[0] != 1 or self.image.shape[1] != 3:
            raise ValueError(f"DepthSample: image must be (1, 3, h, w), got {self.image.shape}")
        if self.depth.shape != (1, 1, *self.image.shape[2:]):
            raise ValueError(f"DepthSample: depth {self.depth.shape} does not match image {self.image.shape}")
        if not (math.isfinite(self.d_max) and self.d_max > 0):
            raise ValueError(f"DepthSample: d_max must be finite and > 0, got {self.d_max}")


PRIMITIVE_KINDS = ("sphere", "box", "plane")


N_PRIMITIVES = 6
D_MIN, D_MAX = 1.0, 10.0  # metric depth span; the backdrop sits at 92% of it
Z_RANGE = (0.18, 0.75)  # primitive anchors, as fractions of the depth span
SIZE_RANGE = (0.04, 0.14)  # primitive sizes, as fractions of the depth span


@lru_cache(maxsize=16)
def _view_rays(h: int, w: int) -> np.ndarray:
    """Unit-z pinhole rays (h, w, 3), read-only; depth below is the z-coordinate of the hit."""
    extent = 0.9
    aspect = w / h
    u = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    v = (np.arange(h) + 0.5) / h * 2.0 - 1.0
    uu, vv = np.meshgrid(u * extent * aspect, v * extent)
    rays = np.stack([uu, vv, np.ones_like(uu)], axis=-1)
    rays.flags.writeable = False
    return rays


def _window(rays: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[slice, slice]:
    """Rows and columns outside which no ray meets the box [lo, hi]. A ray through pixel
    (i, j) is (x_j, y_i, 1), so it can meet the box only if x_j lies between the box's
    extremes of x/z and y_i between those of y/z; the window is widened by 2 pixels for
    rounding. A box reaching z <= 0 can cover any pixel, so it gets the whole frame."""
    if lo[2] <= 1e-6:
        return np.s_[:, :]
    window = []
    for axis, coords in ((1, rays[:, 0, 1]), (0, rays[0, :, 0])):
        ends = (lo[axis] / lo[2], lo[axis] / hi[2], hi[axis] / lo[2], hi[axis] / hi[2])
        first = np.searchsorted(coords, min(ends)) - 2
        stop = np.searchsorted(coords, max(ends), side="right") + 2
        window.append(slice(max(first, 0), stop))
    return tuple(window)


def _plane_basis(normal_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane with this unit normal. A plane faces the
    camera (its normal's z is nonzero), so the normal is never parallel to y."""
    e1 = np.cross(normal_vec, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(normal_vec, e1)


def _shade(color: np.ndarray, normal: np.ndarray) -> np.ndarray:
    light = np.array([0.35, -0.5, -0.79])
    light = light / np.linalg.norm(light)
    lam = np.clip(-(normal @ light), 0.0, 1.0)
    return np.clip(color * (0.55 + 0.45 * lam[..., None]), 0.0, 1.0)


def generate_scene(seed: int, height: int = 96, width: int = 128) -> DepthSample:
    """Render one ``height`` x ``width`` scene; bitwise-deterministic from ``seed``.

    Each primitive is hit-tested only on the rays of its ``_window``: every step of a
    hit test is per pixel, so a scene is bitwise the one a whole-frame test renders."""
    for name, value in (("height", height), ("width", width)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    rng = np.random.default_rng(seed)
    h, w = height, width
    rays = _view_rays(h, w)  # (h, w, 3), z component is 1

    span = D_MAX - D_MIN
    backdrop_z = D_MIN + 0.92 * span

    # depth buffer in ray parameter t (== z since rays have unit z)
    t_buf = np.full((h, w), backdrop_z)
    back_color = rng.uniform(0.2, 0.8, 3)
    color_buf = np.broadcast_to(back_color, (h, w, 3)).copy()

    for _ in range(N_PRIMITIVES):
        kind = PRIMITIVE_KINDS[rng.integers(len(PRIMITIVE_KINDS))]
        # anchor inside the view frustum
        cz = D_MIN + span * rng.uniform(*Z_RANGE)
        cu = rng.uniform(-0.55, 0.55) * 0.9 * (w / h)
        cv = rng.uniform(-0.55, 0.55) * 0.9
        center = np.array([cu * cz, cv * cz, cz])
        size = span * rng.uniform(*SIZE_RANGE)
        color = rng.uniform(0.15, 0.95, 3)

        if kind == "sphere":
            win = _window(rays, center - size, center + size)
            t, normal, hit = _hit_sphere(rays[win], center, size)
        elif kind == "box":
            half = size * rng.uniform(0.6, 1.4, 3)
            win = _window(rays, center - half, center + half)
            t, normal, hit = _hit_box(rays[win], center - half, center + half)
        else:
            n_vec = rng.normal(size=3)
            n_vec[2] = -abs(n_vec[2]) - 1.0  # face the camera
            n_vec /= np.linalg.norm(n_vec)
            ext = 2.2 * size
            e1, e2 = _plane_basis(n_vec)
            corners = center + ext * np.array([e1 + e2, e1 - e2, e2 - e1, -e1 - e2])
            win = _window(rays, corners.min(axis=0), corners.max(axis=0))
            t, normal, hit = _hit_plane_patch(rays[win], center, n_vec, ext)

        t_win, color_win = t_buf[win], color_buf[win]  # views: writes land in the buffers
        closer = hit & (t < t_win) & (t > D_MIN * 0.5)
        t_win[closer] = t[closer]
        color_win[closer] = _shade(color, normal[closer])

    depth = np.clip(t_buf, D_MIN * 0.5, D_MAX)
    image = color_buf
    return DepthSample(
        image=Tensor(image.transpose(2, 0, 1)[None].astype(np.float32)),
        depth=Tensor(depth[None, None].astype(np.float32)),
        d_max=D_MAX,
    )


def _hit_sphere(rays, center, radius):
    # |t*d - c|^2 = r^2 with d the ray direction
    dd = (rays * rays).sum(axis=-1)
    dc = (rays * center).sum(axis=-1)
    cc = float(center @ center)
    disc = dc * dc - dd * (cc - radius * radius)
    hit = disc > 0
    sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
    t_ray = (dc - sqrt_disc) / dd
    hit &= t_ray > 0
    t = t_ray  # z = t_ray * d_z = t_ray
    point = rays * t_ray[..., None]
    normal = point - center
    norm = np.linalg.norm(normal, axis=-1, keepdims=True)
    normal = np.divide(normal, norm, out=np.zeros_like(normal), where=norm > 0)
    return t, normal, hit


def _hit_box(rays, lo, hi):
    # slab intersection; rays pass through the origin
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = lo / rays
        t_hi = hi / rays
    t_near = np.minimum(t_lo, t_hi)
    t_far = np.maximum(t_lo, t_hi)
    t_enter = t_near.max(axis=-1)
    t_exit = t_far.min(axis=-1)
    hit = (t_enter <= t_exit) & (t_enter > 0)
    axis = t_near.argmax(axis=-1)
    normal = np.zeros(rays.shape)
    rows, cols = np.indices(axis.shape)
    normal[rows, cols, axis] = -np.sign(rays[rows, cols, axis])
    return t_enter, normal, hit


def _hit_plane_patch(rays, anchor, normal_vec, half_extent):
    denom = rays @ normal_vec
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (anchor @ normal_vec) / denom
    hit = (np.abs(denom) > 1e-9) & (t > 0)
    point = rays * t[..., None]
    # bounded patch in the plane's own basis
    e1, e2 = _plane_basis(normal_vec)
    local = point - anchor
    a = local @ e1
    b = local @ e2
    hit &= (np.abs(a) <= half_extent) & (np.abs(b) <= half_extent)
    return t, np.broadcast_to(normal_vec, rays.shape), hit


def generate_dataset(count: int, base_seed: int, height: int = 96, width: int = 128) -> list[DepthSample]:
    return [generate_scene(base_seed + i, height, width) for i in range(count)]


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

# all non-identity permutations of the three color channels
_CHANNEL_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

FLIP_PROB = 0.5
SWAP_PROB = 0.25


def augment(sample: DepthSample, rng: np.random.Generator) -> DepthSample:
    """Random horizontal flip (p=0.5, image and depth together) and random
    color channel swap (p=0.25, image only)."""
    img = sample.image.data
    dep = sample.depth.data
    if rng.random() < FLIP_PROB:
        img = img[..., ::-1]
        dep = dep[..., ::-1]
    if rng.random() < SWAP_PROB:
        perm = _CHANNEL_PERMS[rng.integers(len(_CHANNEL_PERMS))]
        img = img[:, perm, :, :]
    return DepthSample(
        image=Tensor(np.ascontiguousarray(img)),
        depth=Tensor(np.ascontiguousarray(dep)),
        d_max=sample.d_max,
    )


# ---------------------------------------------------------------------------
# Dataset I/O
# ---------------------------------------------------------------------------


def write_dataset(directory: str | Path, samples: list[DepthSample]) -> None:
    """Write the samples as one record (see ``gdt``) that holds their shared ``d_max``,
    replacing a dataset or empty directory at ``directory``; no samples, or samples of
    mixed ``d_max``, is an error."""
    if not samples:
        raise ValueError(f"no samples to write to {directory}")
    d_maxes = sorted({s.d_max for s in samples})
    if len(d_maxes) > 1:
        raise ValueError(f"{directory}: a dataset has one d_max, the samples have {d_maxes}")
    arrays = {f"{i}.{key}": getattr(s, key).data for i, s in enumerate(samples) for key in ("image", "depth")}
    gdt.write_record(directory, {"d_max": repr(float(d_maxes[0]))}, arrays)


def read_dataset(directory: str | Path) -> list[DepthSample]:
    """The samples of the dataset record at ``directory``, in index order."""
    meta, arrays = gdt.read_record(directory)
    meta_path = Path(directory) / gdt.META
    try:
        d_max = float(meta["d_max"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{meta_path}: no numeric d_max") from exc
    if not (math.isfinite(d_max) and d_max > 0):
        raise ValueError(f"{meta_path}: d_max must be finite and > 0, got {d_max}")
    n = max(1, (len(arrays) + 1) // 2)
    names = {f"{i}.{key}" for i in range(n) for key in ("image", "depth")}
    if arrays.keys() != names:
        missing, extra = sorted(names - arrays.keys()), sorted(arrays.keys() - names)
        raise ValueError(f"{directory}: not <i>.image and <i>.depth for i < n (missing {missing}, extra {extra})")
    samples = []
    for i in range(n):
        try:
            samples.append(DepthSample(Tensor(arrays[f"{i}.image"]), Tensor(arrays[f"{i}.depth"]), d_max))
        except ValueError as exc:
            raise ValueError(f"{directory}: sample {i} has no image and depth of one size ({exc!r})") from exc
    return samples

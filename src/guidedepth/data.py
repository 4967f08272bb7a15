"""Desk-scale data: ray-cast synthetic RGB-D scenes, training augmentations,
and sample/dataset file I/O.

Scenes are rendered by intersecting per-pixel view rays with a handful of
primitives (spheres, boxes, tilted plane patches) in front of a backdrop
plane. Colors are flat-shaded per surface so RGB edges coincide with depth
discontinuities, which is what gives the guidance branch its signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
            raise ValueError(f"image must be (1, 3, h, w), got {self.image.shape}")
        if self.depth.shape != (1, 1, *self.image.shape[2:]):
            raise ValueError(f"depth {self.depth.shape} does not match image {self.image.shape}")


PRIMITIVE_KINDS = ("sphere", "box", "plane")


@dataclass
class SceneSpec:
    """Deterministic recipe for one synthetic scene."""

    seed: int
    height: int = 96
    width: int = 128
    n_primitives: int = 6
    d_min: float = 1.0
    d_max: float = 10.0
    z_range: tuple[float, float] = (0.18, 0.75)  # primitive anchors, as fractions of the depth span
    size_range: tuple[float, float] = (0.04, 0.14)

    def __post_init__(self):
        if not 0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")
        if self.n_primitives < 0:
            raise ValueError("n_primitives must be >= 0")
        if not 0 <= self.z_range[0] < self.z_range[1] <= 0.9:
            raise ValueError(f"z_range {self.z_range} must sit inside [0, 0.9)")


def _view_rays(h: int, w: int) -> np.ndarray:
    """Unit-z pinhole rays (h, w, 3); depth below is the z-coordinate of the hit."""
    extent = 0.9
    aspect = w / h
    u = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    v = (np.arange(h) + 0.5) / h * 2.0 - 1.0
    uu, vv = np.meshgrid(u * extent * aspect, v * extent)
    return np.stack([uu, vv, np.ones_like(uu)], axis=-1)


def _shade(color: np.ndarray, normal: np.ndarray) -> np.ndarray:
    light = np.array([0.35, -0.5, -0.79])
    light = light / np.linalg.norm(light)
    lam = np.clip(-(normal @ light), 0.0, 1.0)
    return np.clip(color * (0.55 + 0.45 * lam[..., None]), 0.0, 1.0)


def generate_scene(spec: SceneSpec) -> DepthSample:
    """Render one scene; bitwise-deterministic from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    rays = _view_rays(h, w)  # (h, w, 3), z component is 1

    span = spec.d_max - spec.d_min
    backdrop_z = spec.d_min + 0.92 * span

    # depth buffer in ray parameter t (== z since rays have unit z)
    t_buf = np.full((h, w), backdrop_z)
    back_color = rng.uniform(0.2, 0.8, 3)
    color_buf = np.broadcast_to(back_color, (h, w, 3)).copy()
    normal_buf = np.broadcast_to(np.array([0.0, 0.0, -1.0]), (h, w, 3)).copy()

    for _ in range(spec.n_primitives):
        kind = PRIMITIVE_KINDS[rng.integers(len(PRIMITIVE_KINDS))]
        # anchor inside the view frustum
        cz = spec.d_min + span * rng.uniform(*spec.z_range)
        cu = rng.uniform(-0.55, 0.55) * 0.9 * (w / h)
        cv = rng.uniform(-0.55, 0.55) * 0.9
        center = np.array([cu * cz, cv * cz, cz])
        size = span * rng.uniform(*spec.size_range)
        color = rng.uniform(0.15, 0.95, 3)

        if kind == "sphere":
            t, normal, hit = _hit_sphere(rays, center, size)
        elif kind == "box":
            half = size * rng.uniform(0.6, 1.4, 3)
            t, normal, hit = _hit_box(rays, center - half, center + half)
        else:
            n_vec = rng.normal(size=3)
            n_vec[2] = -abs(n_vec[2]) - 1.0  # face the camera
            n_vec /= np.linalg.norm(n_vec)
            t, normal, hit = _hit_plane_patch(rays, center, n_vec, 2.2 * size)

        closer = hit & (t < t_buf) & (t > spec.d_min * 0.5)
        t_buf[closer] = t[closer]
        color_buf[closer] = _shade(color, normal[closer])
        normal_buf[closer] = normal[closer]

    depth = np.clip(t_buf, spec.d_min * 0.5, spec.d_max)
    image = color_buf
    return DepthSample(
        image=Tensor(image.transpose(2, 0, 1)[None].astype(np.float32)),
        depth=Tensor(depth[None, None].astype(np.float32)),
        d_max=spec.d_max,
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
    e1 = np.cross(normal_vec, [0.0, 1.0, 0.0])
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.cross(normal_vec, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal_vec, e1)
    local = point - anchor
    a = local @ e1
    b = local @ e2
    hit &= (np.abs(a) <= half_extent) & (np.abs(b) <= half_extent)
    normal = np.broadcast_to(normal_vec, rays.shape).copy()
    return t, normal, hit


def generate_dataset(count: int, base_seed: int, **spec_overrides) -> list[DepthSample]:
    return [generate_scene(SceneSpec(seed=base_seed + i, **spec_overrides)) for i in range(count)]


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
# Sample and dataset I/O
# ---------------------------------------------------------------------------

_META = "meta"
_IMAGE = "image.gdt"
_DEPTH = "depth.gdt"


def write_sample(directory: str | Path, sample: DepthSample) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    gdt.write_array(directory / _IMAGE, sample.image.data)
    gdt.write_array(directory / _DEPTH, sample.depth.data)
    (directory / _META).write_text(f"d_max = {sample.d_max!r}\n")


def read_sample(directory: str | Path) -> DepthSample:
    directory = Path(directory)
    meta_path = directory / _META
    meta = {}
    for line in meta_path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    try:
        d_max = float(meta["d_max"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{meta_path}: no numeric d_max") from exc
    if not (math.isfinite(d_max) and d_max > 0):
        raise ValueError(f"{meta_path}: d_max must be finite and > 0, got {d_max}")
    image = gdt.read_array(directory / _IMAGE)
    depth = gdt.read_array(directory / _DEPTH, expect_shape=(1, 1, image.shape[2], image.shape[3]))
    return DepthSample(image=Tensor(image), depth=Tensor(depth), d_max=d_max)


def write_dataset(directory: str | Path, samples: list[DepthSample]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        write_sample(directory / f"{i:04d}", sample)


def read_dataset(directory: str | Path) -> list[DepthSample]:
    directory = Path(directory)
    subdirs = sorted(d for d in directory.iterdir() if d.is_dir())
    if not subdirs:
        raise FileNotFoundError(f"no sample subdirectories in {directory}")
    return [read_sample(d) for d in subdirs]

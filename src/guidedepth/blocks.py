"""Network architecture: stacked convolutions, SE gating, guided upsampling stages,
a small strided encoder, and full model assembly with checkpointing.

The decoder runs three stages; each doubles spatial resolution and can draw on
the RGB input (raw, feature-extracted, or band-pass filtered) as guidance.
"""

from __future__ import annotations

import shutil
import uuid
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from guidedepth import gdt
from guidedepth.tensor import (
    RunningStats,
    Tensor,
    add,
    batch_norm,
    bilinear_resize,
    concat_channels,
    conv2d,
    dense,
    global_avg_pool,
    mul,
    relu,
    sigmoid,
    sub,
)

GUIDANCE_TYPES = ("image", "laplacian", "none")
GUIDANCE_BRANCHES = ("gub", "direct")

PRESETS: dict[str, dict] = {
    "guidedepth": dict(encoder_width=16, encoder_out_channels=64, decoder_channels=(64, 32, 16)),
    "guidedepth-s": dict(encoder_width=16, encoder_out_channels=64, decoder_channels=(32, 16, 8)),
    "guidedepth-tiny": dict(encoder_width=4, encoder_out_channels=8, decoder_channels=(8, 4, 2)),
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the ablation axis of the guidance study."""

    encoder_width: int = 16
    encoder_out_channels: int = 64
    decoder_channels: tuple[int, int, int] = (64, 32, 16)
    guidance_type: str = "image"
    guidance_branch: str = "gub"
    se_reduction: int = 4

    def __post_init__(self):
        if self.encoder_width < 1 or self.encoder_out_channels < 1:
            raise ValueError("encoder widths must be positive")
        if len(self.decoder_channels) != 3 or any(c < 1 for c in self.decoder_channels):
            raise ValueError(f"decoder_channels must be 3 positive ints, got {self.decoder_channels}")
        if self.guidance_type not in GUIDANCE_TYPES:
            raise ValueError(f"guidance_type must be one of {GUIDANCE_TYPES}, got {self.guidance_type!r}")
        if self.guidance_branch not in GUIDANCE_BRANCHES:
            raise ValueError(f"guidance_branch must be one of {GUIDANCE_BRANCHES}, got {self.guidance_branch!r}")
        if self.se_reduction < 1:
            raise ValueError("se_reduction must be >= 1")


def preset_config(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown model preset {name!r}, choose from {sorted(PRESETS)}")
    return replace(ModelConfig(**PRESETS[name]), **overrides)


def largest_divisor_upto(n: int, limit: int) -> int:
    """Largest divisor of n not exceeding limit (>= 1)."""
    for d in range(min(limit, n), 0, -1):
        if n % d == 0:
            return d
    return 1


def _kaiming(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Module:
    """Minimal parameter container; traversal is depth first in attribute
    assignment order, a module's own parameters before its submodules'."""

    def named_modules(self, prefix: str = ""):
        """(path, module) for this module and every module under it, depth first;
        a path is the dotted attribute path from the root, such as "stages.0.se"."""
        yield prefix, self
        for name, val in vars(self).items():
            items = enumerate(val) if isinstance(val, (list, tuple)) else [(None, val)]
            for i, item in items:
                if isinstance(item, Module):
                    sub = name if i is None else f"{name}.{i}"
                    yield from item.named_modules(f"{prefix}.{sub}" if prefix else sub)

    def named_parameters(self):
        for path, module in self.named_modules():
            for name, val in vars(module).items():
                if isinstance(val, Tensor) and val.requires_grad:
                    yield (f"{path}.{name}" if path else name), val

    def named_batchnorms(self):
        return ((path, m) for path, m in self.named_modules() if path and isinstance(m, BatchNorm))

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Conv(Module):
    def __init__(self, c_in, c_out, kernel, rng, stride=1, padding=0, dtype=np.float32):
        self.weight = Tensor(
            _kaiming(rng, (c_out, c_in, kernel, kernel), c_in * kernel * kernel, dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros((1, c_out, 1, 1), dtype=dtype), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm(Module):
    def __init__(self, channels, dtype=np.float32):
        self.gamma = Tensor(np.ones((1, channels, 1, 1), dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros((1, channels, 1, 1), dtype=dtype), requires_grad=True)
        self.stats = RunningStats.for_channels(channels, dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.stats, train)


class DenseLayer(Module):
    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        self.weight = Tensor(_kaiming(rng, (c_out, c_in, 1, 1), c_in, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros((1, c_out, 1, 1), dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)


class StackedConv(Module):
    """conv3x3 -> BN -> ReLU -> conv1x1 -> BN -> ReLU.

    Spatial dims are preserved at stride 1; the encoder uses stride 2 on the
    3x3 convolution to halve them.
    """

    def __init__(self, c_in, c_out, rng, stride=1, dtype=np.float32):
        self.conv3 = Conv(c_in, c_out, 3, rng, stride=stride, padding=1, dtype=dtype)
        self.bn3 = BatchNorm(c_out, dtype)
        self.conv1 = Conv(c_out, c_out, 1, rng, stride=1, padding=0, dtype=dtype)
        self.bn1 = BatchNorm(c_out, dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        x = relu(self.bn3.forward(self.conv3.forward(x), train))
        return relu(self.bn1.forward(self.conv1.forward(x), train))


class SqueezeExcite(Module):
    """Channel gate: global pool -> bottleneck dense pair -> sigmoid -> scale."""

    def __init__(self, channels, reduction, rng, dtype=np.float32):
        if channels % reduction != 0:
            raise ValueError(f"SE: {channels} channels not divisible by reduction {reduction}")
        hidden = channels // reduction
        self.squeeze = DenseLayer(channels, hidden, rng, dtype)
        self.excite = DenseLayer(hidden, channels, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        gate = sigmoid(self.excite.forward(relu(self.squeeze.forward(global_avg_pool(x)))))
        return mul(x, gate)


class GuidedUpsampler(Module):
    """One decoder stage: doubles resolution while folding in image guidance.

    The upsampled features get a residual correction computed from the joint
    (target, guidance) representation; a trailing 1x1 convolution sets the
    output width. guidance_type "none" drops the guidance entirely and
    "direct" concatenates the raw image instead of extracted features.
    """

    def __init__(self, c_in, c_out, guidance_type, guidance_branch, se_reduction, rng, dtype=np.float32):
        self.guidance_type = guidance_type
        self.guidance_branch = guidance_branch
        if guidance_type == "none":
            self.s_guide = None
            c_cat = c_in
        elif guidance_branch == "gub":
            self.s_guide = StackedConv(3, c_in, rng, dtype=dtype)
            c_cat = 2 * c_in
        else:  # direct: raw image channels join the concat
            self.s_guide = None
            c_cat = c_in + 3
        self.s_target = StackedConv(c_in, c_in, rng, dtype=dtype)
        # se_reduction must divide the concat width; fall back to the largest
        # divisor so the direct branch (c_in + 3 channels) stays buildable
        self.se = SqueezeExcite(c_cat, largest_divisor_upto(c_cat, se_reduction), rng, dtype)
        self.s_res = StackedConv(c_cat, c_in, rng, dtype=dtype)
        self.reduce = Conv(c_in, c_out, 1, rng, dtype=dtype)

    def forward(self, z: Tensor, guide: Tensor | None, train: bool) -> Tensor:
        n, c, h, w = z.shape
        if self.guidance_type != "none":
            if guide is None or guide.shape != (n, 3, 2 * h, 2 * w):
                got = None if guide is None else guide.shape
                raise ValueError(f"guide must be ({n}, 3, {2*h}, {2*w}), got {got}")
        h_up = bilinear_resize(z, 2 * h, 2 * w)
        h_t = self.s_target.forward(h_up, train)
        if self.guidance_type == "none":
            joint = h_t
        else:
            h_g = self.s_guide.forward(guide, train) if self.s_guide is not None else guide
            joint = concat_channels(h_t, h_g)
        h_res = self.s_res.forward(self.se.forward(joint), train)
        return self.reduce.forward(add(h_up, h_res))


class Encoder(Module):
    """Three stride-2 stacked-conv stages: 3 -> w -> 2w -> out_channels at 1/8 scale."""

    def __init__(self, width, out_channels, rng, dtype=np.float32):
        self.stage1 = StackedConv(3, width, rng, stride=2, dtype=dtype)
        self.stage2 = StackedConv(width, 2 * width, rng, stride=2, dtype=dtype)
        self.stage3 = StackedConv(2 * width, out_channels, rng, stride=2, dtype=dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return self.stage3.forward(self.stage2.forward(self.stage1.forward(x, train), train), train)


def laplacian_guidance(x: Tensor, k: int) -> Tensor:
    """Band-pass guidance at scale 1/2^k: x_k minus its down/up low-pass.

    k selects the decoder stage resolution; input dims must divide by 2^(k+1).
    """
    if k not in (0, 1, 2):
        raise ValueError(f"laplacian scale k must be in {{0, 1, 2}}, got {k}")
    _, _, h, w = x.shape
    f = 2 ** (k + 1)
    if h % f or w % f:
        raise ValueError(f"input dims ({h}, {w}) not divisible by {f}")
    hk, wk = h >> k, w >> k
    low = bilinear_resize(bilinear_resize(x, h >> (k + 1), w >> (k + 1)), hk, wk)
    return sub(bilinear_resize(x, hk, wk), low)


class DepthNet(Module):
    """Encoder to 1/8 scale, then three guided upsampling stages and a 1-channel head."""

    def __init__(self, config: ModelConfig, rng, dtype=np.float32):
        self.config = config
        self.encoder = Encoder(config.encoder_width, config.encoder_out_channels, rng, dtype)
        widths = (config.encoder_out_channels,) + tuple(config.decoder_channels)
        self.stages = [
            GuidedUpsampler(
                widths[j],
                widths[j + 1],
                config.guidance_type,
                config.guidance_branch,
                config.se_reduction,
                rng,
                dtype,
            )
            for j in range(3)
        ]
        self.head = Conv(config.decoder_channels[2], 1, 1, rng, dtype=dtype)

    def guidance_pyramid(self, x: Tensor) -> list[Tensor | None]:
        """Guidance images for the three stages, at 1/4, 1/2 and full resolution."""
        _, _, h, w = x.shape
        guides: list[Tensor | None] = []
        for j in range(3):
            k = 2 - j
            if self.config.guidance_type == "none":
                guides.append(None)
            elif self.config.guidance_type == "laplacian":
                guides.append(laplacian_guidance(x, k))
            else:
                guides.append(bilinear_resize(x, h >> k, w >> k))
        return guides

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        n, c, h, w = x.shape
        if c != 3:
            raise ValueError(f"expected a 3-channel image, got {c} channels")
        if h % 8 or w % 8:
            raise ValueError(f"input dims ({h}, {w}) must be divisible by 8")
        guides = self.guidance_pyramid(x)
        z = self.encoder.forward(x, train)
        for stage, guide in zip(self.stages, guides):
            z = stage.forward(z, guide, train)
        return self.head.forward(z)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> DepthNet:
    """Seed-deterministic model construction (Kaiming fan-in conv/dense weights,
    unit BN gammas, zero biases)."""
    return DepthNet(config, np.random.default_rng(seed), dtype)


# ---------------------------------------------------------------------------
# Checkpoints: directory of GDT1 files plus a plain-text manifest
# ---------------------------------------------------------------------------

_MANIFEST = "manifest.txt"


def _format_field(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_config(pairs: dict[str, str], manifest: Path) -> ModelConfig:
    """ModelConfig from the manifest's [config] pairs; each field parses like its default."""
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    missing, unknown = defaults.keys() - pairs.keys(), pairs.keys() - defaults.keys()
    if missing:
        raise ValueError(f"{manifest}: missing config key(s) {sorted(missing)}")
    if unknown:
        raise ValueError(f"{manifest}: unknown config key(s) {sorted(unknown)}")
    values = {}
    for key, default in defaults.items():
        text = pairs[key]
        try:
            if isinstance(default, tuple):
                values[key] = tuple(int(v) for v in text.split(","))
            else:
                values[key] = type(default)(text)
        except ValueError as exc:
            raise ValueError(f"{manifest}: bad value {text!r} for config key {key!r}") from exc
    return ModelConfig(**values)


def save_checkpoint(directory: str | Path, model: DepthNet) -> None:
    """Write the model to ``directory``, replacing any checkpoint already there.

    The files go into a fresh sibling directory that then takes the place of
    ``directory``: a save that fails part way leaves the earlier checkpoint
    as it was, and no file of an earlier save outlives a later one. A
    non-empty directory without a manifest is not replaced.
    """
    directory = Path(directory)
    if directory.exists() and not (directory / _MANIFEST).is_file() and any(directory.iterdir()):
        raise FileExistsError(f"{directory} is not empty and holds no checkpoint manifest")
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    staging.mkdir(parents=True)
    try:
        _write_checkpoint(staging, model)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if directory.exists():
        retired = staging.with_name(staging.name + ".old")
        directory.rename(retired)
        staging.rename(directory)
        shutil.rmtree(retired)
    else:
        staging.rename(directory)


def _write_checkpoint(directory: Path, model: DepthNet) -> None:
    entries: list[tuple[str, np.ndarray]] = list(model.named_parameters())
    for name, bn in model.named_batchnorms():
        if bn.stats.initialized:
            entries.append((f"{name}.running_mean", bn.stats.mean))
            entries.append((f"{name}.running_var", bn.stats.var))
    config = [f"{f.name} = {_format_field(getattr(model.config, f.name))}" for f in fields(ModelConfig)]
    lines = ["[config]"] + config + ["[tensors]"]
    for i, (name, value) in enumerate(entries):
        filename = f"t{i:04d}.gdt"
        arr = value.data if isinstance(value, Tensor) else value
        gdt.write_array(directory / filename, arr)
        lines.append(f"{name} = {filename}")
    (directory / _MANIFEST).write_text("\n".join(lines) + "\n")


def load_checkpoint(directory: str | Path, dtype=np.float32) -> DepthNet:
    """Rebuild the model from a checkpoint; every tensor shape is validated
    against the stored config before it is accepted."""
    directory = Path(directory)
    manifest = directory / _MANIFEST
    if not manifest.is_file():
        raise FileNotFoundError(f"no checkpoint manifest at {manifest}")
    section = None
    config_pairs: dict[str, str] = {}
    tensor_files: dict[str, str] = {}
    for raw in manifest.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("[config]", "[tensors]"):
            section = line
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "[config]":
            config_pairs[key] = value
        elif section == "[tensors]":
            tensor_files[key] = value
        else:
            raise ValueError(f"manifest line outside a section: {raw!r}")

    config = _parse_config(config_pairs, manifest)
    model = build_model(config, seed=0, dtype=dtype)
    params = dict(model.named_parameters())
    bns = dict(model.named_batchnorms())

    loaded = set()
    for name, filename in tensor_files.items():
        if name in params:
            arr = gdt.read_array(directory / filename, expect_shape=params[name].shape)
            params[name].data = arr.astype(dtype, copy=False)
        elif name.endswith(".running_mean") or name.endswith(".running_var"):
            bn_name, _, stat = name.rpartition(".")
            if bn_name not in bns:
                raise ValueError(f"checkpoint references unknown batch norm {bn_name!r}")
            bn = bns[bn_name]
            arr = gdt.read_array(directory / filename, expect_shape=bn.stats.mean.shape)
            if stat == "running_mean":
                bn.stats.mean = arr.astype(dtype, copy=False)
            else:
                bn.stats.var = arr.astype(dtype, copy=False)
        else:
            raise ValueError(f"checkpoint references unknown tensor {name!r}")
        loaded.add(name)

    missing = set(params) - loaded
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {sorted(missing)[:5]} ...")
    for bn_name, bn in bns.items():
        keys = [f"{bn_name}.running_mean", f"{bn_name}.running_var"]
        present = [key in loaded for key in keys]
        if any(present) and not all(present):
            raise ValueError(f"{manifest}: missing {keys[present.index(False)]!r}; BN statistics come in pairs")
        bn.stats.initialized = all(present)
    return model

"""Network architecture: stacked convolutions, SE gating, guided upsampling stages,
a small strided encoder, and full model assembly with checkpointing.

The decoder runs three stages; each doubles spatial resolution and can draw on
the RGB input (resized or band-pass filtered) as guidance. A model is one of the
named width presets in ``PRESETS`` plus a guidance type (``ModelConfig``).
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from guidedepth import gdt
from guidedepth.tensor import (
    BN_EPS,
    RunningStats,
    Tensor,
    add,
    batch_norm_relu,
    bilinear_resize,
    concat_channels,
    conv2d,
    global_avg_pool,
    mul,
    no_grad,
    relu,
    sigmoid,
    sub,
)

GUIDANCE_TYPES = ("image", "laplacian", "none")
SE_REDUCTION = 4  # squeeze-and-excite bottleneck: hidden units = channels / SE_REDUCTION

# name -> (encoder_width, encoder_out_channels, decoder_channels)
PRESETS: dict[str, tuple[int, int, tuple[int, int, int]]] = {
    "guidedepth": (16, 64, (64, 32, 16)),
    "guidedepth-s": (16, 64, (32, 16, 8)),
    "guidedepth-tiny": (4, 8, (8, 4, 2)),
}


@dataclass(frozen=True)
class ModelConfig:
    """A model variant: a named preset of widths (``PRESETS``) and the guidance
    type, the ablation axis of the guidance study."""

    preset: str
    guidance_type: str = "image"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown model preset {self.preset!r}, choose from {sorted(PRESETS)}")
        if self.guidance_type not in GUIDANCE_TYPES:
            raise ValueError(f"guidance_type must be one of {GUIDANCE_TYPES}, got {self.guidance_type!r}")


def preset_config(name: str, guidance_type: str = "image") -> ModelConfig:
    """The config of preset ``name`` with ``guidance_type``; ``ModelConfig`` validates both."""
    return ModelConfig(name, guidance_type)


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

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Conv(Module):
    def __init__(self, c_in, c_out, kernel, rng, stride=1, dtype=np.float32):
        shape = (c_out, c_in, kernel, kernel)
        weight = np.zeros(shape, dtype) if rng is None else _kaiming(rng, shape, c_in * kernel * kernel, dtype)
        self.weight = Tensor(weight, requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros((1, c_out, 1, 1), dtype=dtype), requires_grad=True, dtype=dtype)
        self.stride = stride
        self.padding = kernel // 2  # a stride-1 conv keeps its input's size

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


class ConvBN(Conv):
    """conv -> batch norm -> ReLU.

    Batch norm subtracts the batch mean, so a conv bias would cancel (Ioffe &
    Szegedy, arXiv 1502.03167): the zero bias of ``Conv`` is a constant here.
    Eval mode folds the running statistics into the conv on every forward
    (Jacob et al., arXiv 1712.05877): with ``a = gamma / sqrt(var + eps)`` per
    output channel, weight ``weight * a`` and bias ``beta - mean * a``, both
    constants, so the eval forward passes no gradient on. When the conv output
    records no node (the input takes no gradient), nothing else holds that
    fresh array, and the ReLU runs in place on it.
    """

    def __init__(self, c_in, c_out, kernel, rng, stride=1, dtype=np.float32):
        super().__init__(c_in, c_out, kernel, rng, stride=stride, dtype=dtype)
        self.bias.requires_grad = False
        self.gamma = Tensor(np.ones((1, c_out, 1, 1), dtype=dtype), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros((1, c_out, 1, 1), dtype=dtype), requires_grad=True, dtype=dtype)
        self.stats = RunningStats.for_channels(c_out, dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if train:
            return batch_norm_relu(super().forward(x), self.gamma, self.beta, self.stats)
        if not self.stats.initialized:
            raise RuntimeError(
                f"ConvBN: eval mode before any running-stat update (weight {self.weight.shape}, input {x.shape})"
            )
        dt = self.weight.dtype
        a = self.gamma.data * (1.0 / np.sqrt(self.stats.var + BN_EPS)).astype(dt, copy=False)
        weight = Tensor(self.weight.data * a.reshape(-1, 1, 1, 1))
        bias = Tensor(self.beta.data - self.stats.mean.astype(dt, copy=False) * a)
        y = conv2d(x, weight, bias, self.stride, self.padding)
        if y.requires_grad:
            return relu(y)
        np.maximum(y.data, 0, out=y.data)
        return y


class StackedConv(Module):
    """conv3x3 -> BN -> ReLU -> conv1x1 -> BN -> ReLU, as two ``ConvBN``.

    Spatial dims are preserved at stride 1; the encoder uses stride 2 on the
    3x3 convolution to halve them. The input is dropped once ``conv3`` has read
    it, so an input the caller passed on is freed before ``conv1`` runs (a
    ``ConvBN`` needs no such step: this frame holds its input meanwhile).
    """

    def __init__(self, c_in, c_out, rng, stride=1, dtype=np.float32):
        self.conv3 = ConvBN(c_in, c_out, 3, rng, stride=stride, dtype=dtype)
        self.conv1 = ConvBN(c_out, c_out, 1, rng, dtype=dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        y = self.conv3.forward(x, train)
        del x
        return self.conv1.forward(y, train)


class SqueezeExcite(Module):
    """Channel gate: global pool -> bottleneck pair of 1x1 convs -> sigmoid -> scale."""

    def __init__(self, channels, rng, dtype=np.float32):
        if channels % SE_REDUCTION != 0:
            raise ValueError(f"SE: {channels} channels not divisible by reduction {SE_REDUCTION}")
        hidden = channels // SE_REDUCTION
        self.squeeze = Conv(channels, hidden, 1, rng, dtype=dtype)
        self.excite = Conv(hidden, channels, 1, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        gate = sigmoid(self.excite.forward(relu(self.squeeze.forward(global_avg_pool(x)))))
        return mul(x, gate)


class GuidedUpsampler(Module):
    """One decoder stage: doubles resolution while folding in image guidance.

    The upsampled features get a residual correction computed from the joint
    (target, guidance) representation: the guidance image's own extracted
    features concatenated with the target's, gated by squeeze-and-excite. A
    trailing 1x1 convolution sets the output width. A stage that is not
    ``guided`` drops the guidance entirely.
    """

    def __init__(self, c_in, c_out, guided: bool, rng, dtype=np.float32):
        self.s_guide = StackedConv(3, c_in, rng, dtype=dtype) if guided else None
        c_cat = c_in if self.s_guide is None else 2 * c_in
        self.s_target = StackedConv(c_in, c_in, rng, dtype=dtype)
        self.se = SqueezeExcite(c_cat, rng, dtype)
        self.s_res = StackedConv(c_cat, c_in, rng, dtype=dtype)
        self.reduce = Conv(c_in, c_out, 1, rng, dtype=dtype)

    def forward(self, z: Tensor, guide: Tensor | None, train: bool) -> Tensor:
        n, c, h, w = z.shape
        want = (n, 3, 2 * h, 2 * w)
        if self.s_guide is not None and getattr(guide, "shape", None) != want:
            raise ValueError(f"GuidedUpsampler: guide must be {want}, got {getattr(guide, 'shape', None)}, z {z.shape}")
        h_up = bilinear_resize(z, 2 * h, 2 * w)
        # only h_up stays alive until the residual add: no local holds the joint or gated features, and while
        # recording their readers keep rebuilds of them, so the joint features are freed once the SE has read
        # them, and the gated ones once s_res.conv3 has
        h_res = self.s_res.forward(self.se.forward(self._joint(h_up, guide, train)), train)
        return self.reduce.forward(add(h_up, h_res))

    def _joint(self, h_up: Tensor, guide: Tensor | None, train: bool) -> Tensor:
        h_t = self.s_target.forward(h_up, train)
        return h_t if self.s_guide is None else concat_channels(h_t, self.s_guide.forward(guide, train))


class Encoder(Module):
    """Three stride-2 stacked-conv stages: 3 -> w -> 2w -> out_channels at 1/8 scale."""

    def __init__(self, width, out_channels, rng, dtype=np.float32):
        self.stage1 = StackedConv(3, width, rng, stride=2, dtype=dtype)
        self.stage2 = StackedConv(width, 2 * width, rng, stride=2, dtype=dtype)
        self.stage3 = StackedConv(2 * width, out_channels, rng, stride=2, dtype=dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return self.stage3.forward(self.stage2.forward(self.stage1.forward(x, train), train), train)


class DepthNet(Module):
    """Encoder to 1/8 scale, then three guided upsampling stages and a 1-channel head."""

    def __init__(self, config: ModelConfig, rng, dtype=np.float32):
        self.config = config
        encoder_width, encoder_out_channels, decoder_channels = PRESETS[config.preset]
        self.encoder = Encoder(encoder_width, encoder_out_channels, rng, dtype)
        widths = (encoder_out_channels,) + decoder_channels
        guided = config.guidance_type != "none"
        self.stages = [GuidedUpsampler(widths[j], widths[j + 1], guided, rng, dtype) for j in range(3)]
        self.head = Conv(decoder_channels[2], 1, 1, rng, dtype=dtype)

    def guidance_pyramid(self, x: Tensor) -> list[Tensor | None]:
        """Guidance images for the three stages, at 1/4, 1/2 and full resolution.

        Image guidance is ``x`` resized to each stage; Laplacian guidance is each
        of those levels minus the next coarser level resized back up, a band-pass
        of the image. Both read one shared list of levels ``x`` at 1/2^k.
        """
        kind = self.config.guidance_type
        if kind == "none":
            return [None, None, None]
        _, _, h, w = x.shape
        levels = [bilinear_resize(x, h >> k, w >> k) for k in range(4 if kind == "laplacian" else 3)]
        if kind == "laplacian":
            levels = [sub(levels[k], bilinear_resize(levels[k + 1], h >> k, w >> k)) for k in range(3)]
        return levels[2::-1]

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        """Normalized depth at the input's resolution; eval mode (``train=False``)
        records no graph, since its folded convs pass no gradient on."""
        n, c, h, w = x.shape
        if c != 3:
            raise ValueError(f"DepthNet: expected a 3-channel image, got {c} channels in input {x.shape}")
        if h % 8 or w % 8:
            raise ValueError(f"DepthNet: input dims ({h}, {w}) must be divisible by 8, input {x.shape}")
        with contextlib.nullcontext() if train else no_grad():
            guides = self.guidance_pyramid(x)
            z = self.encoder.forward(x, train)
            for stage, guide in zip(self.stages, guides):
                z = stage.forward(z, guide, train)
            return self.head.forward(z)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> DepthNet:
    """Seed-deterministic model construction (Kaiming fan-in conv weights,
    unit BN gammas, zero BN betas and conv biases; a ``ConvBN``'s is a constant)."""
    return DepthNet(config, np.random.default_rng(seed), dtype)


# ---------------------------------------------------------------------------
# Checkpoints: one GDT record of the config and the arrays by module path
# ---------------------------------------------------------------------------


def _parse_config(pairs: dict[str, str], meta: Path) -> ModelConfig:
    """ModelConfig from the record's meta pairs, errors prefixed with the meta path."""
    keys = {f.name for f in fields(ModelConfig)}
    missing, unknown = keys - pairs.keys(), pairs.keys() - keys
    if unknown:  # first, so that a checkpoint of an older format is named by its old keys
        raise ValueError(f"{meta}: unknown config key(s) {sorted(unknown)}")
    if missing:
        raise ValueError(f"{meta}: missing config key(s) {sorted(missing)}")
    try:
        return ModelConfig(**pairs)
    except ValueError as exc:
        raise ValueError(f"{meta}: {exc}") from exc


def save_checkpoint(directory: str | Path, model: DepthNet) -> None:
    """Write the model to ``directory`` as one record (see ``gdt``), replacing
    any checkpoint already there; BN statistics are saved once initialized."""
    arrays = {name: p.data for name, p in model.named_parameters()}
    for path, m in model.named_modules():
        if isinstance(m, ConvBN) and m.stats.initialized:
            arrays[f"{path}.running_mean"] = m.stats.mean
            arrays[f"{path}.running_var"] = m.stats.var
    gdt.write_record(directory, asdict(model.config), arrays)


def load_checkpoint(directory: str | Path) -> DepthNet:
    """Rebuild the float32 model from a checkpoint; every array shape is
    validated against the stored config before it is accepted."""
    meta, arrays = gdt.read_record(directory)
    model = DepthNet(_parse_config(meta, Path(directory) / gdt.META), None)  # no rng: zero conv weights
    params = dict(model.named_parameters())
    convbns = {path: m for path, m in model.named_modules() if isinstance(m, ConvBN)}
    unknown = arrays.keys() - params.keys() - {f"{path}.running_{s}" for path in convbns for s in ("mean", "var")}
    if unknown:  # first, so that a checkpoint of an older format is named by its old arrays
        raise ValueError(f"{directory}: checkpoint holds unknown arrays {sorted(unknown)[:5]}")

    def take(name: str, like: np.ndarray) -> np.ndarray:
        if name not in arrays:
            raise ValueError(f"{directory}: checkpoint has no array {name!r}")
        arr = arrays.pop(name)
        if arr.shape != like.shape:
            raise ValueError(f"{directory}: array {name!r} has shape {arr.shape}, expected {like.shape}")
        return arr.astype(like.dtype, copy=False)

    for name, p in params.items():
        p.data = take(name, p.data)
    for path, m in convbns.items():
        keys = (f"{path}.running_mean", f"{path}.running_var")
        if keys[0] in arrays or keys[1] in arrays:  # take() rejects half a pair
            m.stats.mean, m.stats.var = (take(key, m.stats.mean) for key in keys)
            m.stats.initialized = True
    return model

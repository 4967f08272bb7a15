"""The benchmark's three closed-loop workloads: one caller, one op at a time.

Each workload builds its inputs from a seed, sets itself up (scenes, model,
BN statistics, file round trips, one warm-up op) and then runs ops. guidedepth
is always reached through module attributes (``blocks.build_model``, not a
name imported at load time) so that the span wrappers, when installed, see
every call.

Output checks: every op must give finite outputs (loss, gradients,
predictions, metrics). The first op, run during set-up, is also compared
with a float64 shadow of the same model, seed and input.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from guidedepth import blocks, data, losses, tensor as T
from guidedepth import evaluate as ev

# Relative L2 error allowed between a float32 result and its float64 shadow.
# Forward outputs agree to about 2e-6 (float32 keeps ~7 digits). Gradients
# agree less well: where a pre-activation sits near zero, float32 rounding can
# put it on the other side of a ReLU than float64 does, and that unit's whole
# gradient path switches. Over seeds 0-7 the global gradient error reached
# 1.8e-3; a wrong backward rule gives errors of order 1.
SHADOW_RTOL = 1e-4
SHADOW_GRAD_RTOL = 1e-2

# The oracle predictor returns the ground truth itself, so evaluate() only
# adds its own resampling error; on desk-scale scenes that stays well inside
# these limits, and a broken protocol (crop, flip, depth mapping) does not.
ORACLE_MIN_D1 = 0.9
ORACLE_MAX_REL = 0.05


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))


def all_finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


class Workload:
    """One op at a time; ``setup`` runs everything before the first timed op."""

    name = ""
    items_per_op = 1

    def __init__(self, seed: int, workdir: Path, hooks=None):
        self.seed = seed % 2**31  # numpy seeds must be non-negative
        self.workdir = workdir
        self.hooks = hooks
        self.first = None
        self._span("batch")

    def _span(self, method: str) -> None:
        """In a traced run, record calls of ``method`` as ``bench.<method>`` spans.

        Untraced runs leave the method alone: binding it on the instance makes
        a reference cycle, which leaves freeing old set-ups to the cyclic
        collector and makes peak memory vary from run to run.
        """
        if self.hooks is not None:
            setattr(self, method, self.hooks.rec.wrap(f"bench.{method}", getattr(self, method), "bench"))

    def watch(self, model) -> None:
        if self.hooks is not None:
            self.hooks.watch(model)

    def setup(self) -> None:
        raise NotImplementedError

    def batch(self, i: int):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def check_first(self) -> list[str]:
        """Problems found in the first op's output; empty when it is correct."""
        raise NotImplementedError


def _init_bn(model, images: T.Tensor) -> None:
    """One train-mode pass without gradients fills the BN running statistics."""
    with T.no_grad():
        model.forward(images, train=True)


def _compare(label: str, got, want, rtol: float, problems: list[str]) -> None:
    err = rel_l2(got, want)
    if not err <= rtol:
        problems.append(f"{label}: float32 vs float64 relative error {err:.3e} > {rtol:.0e}")


class Train(Workload):
    """SGD steps on ``guidedepth`` (image guidance, gub branch), batch 4 at 96x128."""

    name = "train"
    items_per_op = 4
    config = blocks.preset_config("guidedepth")
    resolution = (96, 128)
    pool_size = 8
    lr = 1e-4

    def __init__(self, seed, workdir, hooks=None):
        super().__init__(seed, workdir, hooks)
        self._span("update")

    def setup(self):
        h, w = self.resolution
        self.pool = data.generate_dataset(self.pool_size, self.seed * self.pool_size, height=h, width=w)
        self.model = blocks.build_model(self.config, self.seed)
        self.watch(self.model)
        self.params = self.model.parameters()
        self.loss_cfg = losses.LossConfig()
        self.rng = np.random.default_rng(self.seed)
        self.first = self.op(-1)

    def batch(self, i):
        picks = self.rng.choice(self.pool_size, self.items_per_op, replace=False)
        samples = [data.augment(self.pool[k], self.rng) for k in picks]
        x = T.Tensor(np.concatenate([s.image.data for s in samples]))
        depth = np.concatenate([s.depth.data for s in samples])
        y = T.Tensor(ev.depth_to_normalized(depth, samples[0].d_max).astype(np.float32))
        return x, y

    def update(self):
        for p in self.params:
            p.data -= self.lr * p.grad

    def op(self, i):
        self.model.zero_grad()
        x, y = self.batch(i)
        pred = self.model.forward(x, train=True)
        terms = losses.loss_terms(y, pred, self.loss_cfg)
        T.backward(terms["total"])
        self.update()
        # zero_grad replaces the gradient arrays, so these stay as this step left them
        return x, y, pred, terms, [p.grad for p in self.params]

    def check(self, out):
        _, _, pred, terms, grads = out
        return all(g is not None for g in grads) and all_finite(pred.data, terms["total"].data, *grads)

    def check_first(self):
        x, y, pred, terms, grads = self.first
        problems = [] if self.check(self.first) else ["non-finite first step"]
        shadow = blocks.build_model(self.config, self.seed, dtype=np.float64)
        pred64 = shadow.forward(T.Tensor(x.data.astype(np.float64)), train=True)
        terms64 = losses.loss_terms(T.Tensor(y.data.astype(np.float64)), pred64, self.loss_cfg)
        T.backward(terms64["total"])
        _compare("prediction", pred.data, pred64.data, SHADOW_RTOL, problems)
        for k in terms:
            _compare(f"loss term {k}", terms[k].data, terms64[k].data, SHADOW_RTOL, problems)
        g32 = np.concatenate([g.ravel() for g in grads])
        g64 = np.concatenate([p.grad.ravel() for p in shadow.parameters()])
        _compare("gradients", g32, g64, SHADOW_GRAD_RTOL, problems)
        return problems


class _LoadedModel(Workload):
    """Shared set-up of the eval-mode workloads: build, fill BN statistics,
    save and reload the model through a checkpoint."""

    config: blocks.ModelConfig

    def load_model(self, calibration: T.Tensor):
        self.calibration = calibration
        model = blocks.build_model(self.config, self.seed)
        _init_bn(model, calibration)
        blocks.save_checkpoint(self.workdir / "checkpoint", model)
        self.model = blocks.load_checkpoint(self.workdir / "checkpoint")
        self.watch(self.model)

    def shadow_outputs(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        shadow = blocks.build_model(self.config, self.seed, dtype=np.float64)
        _init_bn(shadow, T.Tensor(self.calibration.data.astype(np.float64)))
        with T.no_grad():
            return [shadow.forward(T.Tensor(a.astype(np.float64)), train=False).data for a in inputs]


class Eval(_LoadedModel):
    """One 480x640 image through evaluate(): NYU crop, model at 96x128, flip averaging."""

    name = "eval"
    config = blocks.preset_config("guidedepth")
    resolution = (96, 128)
    gt_size = (480, 640)
    images = 2

    def setup(self):
        gh, gw = self.gt_size
        scenes = data.generate_dataset(self.images, self.seed * self.images, height=gh, width=gw)
        data.write_dataset(self.workdir / "dataset", scenes)
        self.samples = data.read_dataset(self.workdir / "dataset")
        mh, mw = self.resolution
        with T.no_grad():
            calib = [T.bilinear_resize(s.image, mh, mw).data for s in self.samples]
        self.load_model(T.Tensor(np.concatenate(calib)))
        inner = ev.model_predictor(self.model)
        seen = self.seen = []  # (input, prediction) of each predictor call in the current op

        def predict(image, sample):
            pred = inner(image, sample)
            seen.append((image.data, pred.data))
            return pred

        self.predict = self.hooks.rec.wrap("evaluate.predict", predict) if self.hooks is not None else predict
        self.first = self.op(0)

    def batch(self, i):
        return self.samples[i % self.images]

    def op(self, i):
        self.seen.clear()
        report = ev.evaluate(self.predict, [self.batch(i)], self.resolution, crop_kind="nyu", flip_average=True)
        return report, list(self.seen)

    def check(self, out):
        report, seen = out
        metrics = [report.rmse, report.rel, report.log10, report.d1, report.d2, report.d3]
        shapes_ok = all(p.shape == (1, 1, *self.resolution) for _, p in seen)
        return bool(seen) and shapes_ok and all_finite(np.array(metrics), *(p for _, p in seen))

    def check_first(self):
        _, seen = self.first
        problems = [] if self.check(self.first) else ["non-finite or misshapen first evaluation"]
        for k, (got, want) in enumerate(zip([p for _, p in seen], self.shadow_outputs([a for a, _ in seen]))):
            _compare(f"prediction {k}", got, want, SHADOW_RTOL, problems)
        oracle = ev.evaluate(ev.oracle_predictor(), [self.samples[0]], self.resolution, crop_kind="nyu", flip_average=True)
        if not (oracle.d1 >= ORACLE_MIN_D1 and oracle.rel <= ORACLE_MAX_REL):
            problems.append(f"oracle predictor: d1 {oracle.d1:.4f}, rel {oracle.rel:.4f}")
        return problems


class Infer(_LoadedModel):
    """Batch-1 no-grad forward of ``guidedepth-s`` with Laplacian guidance at 64x208."""

    name = "infer"
    config = blocks.preset_config("guidedepth-s", guidance_type="laplacian")
    resolution = (64, 208)
    pool_size = 8
    calibration_size = 4

    def setup(self):
        h, w = self.resolution
        scenes = data.generate_dataset(self.pool_size, self.seed * self.pool_size, height=h, width=w)
        self.inputs = [s.image for s in scenes]
        self.load_model(T.Tensor(np.concatenate([x.data for x in self.inputs[: self.calibration_size]])))
        self.first = self.op(0)

    def batch(self, i):
        return self.inputs[i % self.pool_size]

    def op(self, i):
        x = self.batch(i)
        with T.no_grad():
            return x, self.model.forward(x, train=False)

    def check(self, out):
        _, pred = out
        return pred.shape == (1, 1, *self.resolution) and all_finite(pred.data)

    def check_first(self):
        x, pred = self.first
        problems = [] if self.check(self.first) else ["non-finite or misshapen first prediction"]
        _compare("prediction", pred.data, self.shadow_outputs([x.data])[0], SHADOW_RTOL, problems)
        return problems


WORKLOADS = {cls.name: cls for cls in (Train, Eval, Infer)}

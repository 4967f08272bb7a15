"""Per-layer metrics from a traced run's spans, plus the conv backward replay.

Layers follow ``src/guidedepth``: tensor, blocks, losses, data, gdt and
evaluate, and ``bench`` for the benchmark's own work. Op-phase metrics are
per timed op (spans under a ``bench.op`` root); set-up metrics (file I/O,
checkpoints, scene generation) are per set-up (spans under ``bench.setup``).
A layer that does not run in a workload reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from guidedepth import tensor as T

from spans import INFO, KIND, NAME, PARENT, conv_category, duration_ns, roots, self_times_ns

CONV_CATS = ("conv2d_1x1", "conv2d_3x3s1", "conv2d_3x3s2")
_TENSOR_CATS = {
    "tensor.batch_norm": "batch_norm",
    "tensor.spatial_map": "spatial_map",
    "tensor.dense": "dense",
    "tensor.backward": "backward",
}
STAGE_PARTS = ("s_guide", "s_target", "se", "s_res", "reduce")
_EVAL_CHILDREN = ("evaluate.predict", "tensor.bilinear_resize", "evaluate.compute_metrics")

# name -> (unit, better); BENCHMARK.json's per_layer list is this table.
PER_LAYER: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER[name] = (unit, better)


for _c in CONV_CATS:
    _metric(f"tensor.{_c}.fwd_ms", "ms")
    _metric(f"tensor.{_c}.calls", "count")
    _metric(f"tensor.{_c}.gmac", "GMAC")
    _metric(f"tensor.{_c}.bwd_ms", "ms")
_metric("tensor.conv2d.gmac_per_s", "GMAC/s", "higher")
_metric("tensor.backward.ms", "ms")
for _c in ("batch_norm", "spatial_map", "other"):
    _metric(f"tensor.{_c}.fwd_ms", "ms")
    _metric(f"tensor.{_c}.calls", "count")
_metric("tensor.dense.fwd_ms", "ms")
_metric("blocks.guidance_pyramid.ms", "ms")
for _s in (1, 2, 3):
    _metric(f"blocks.encoder.stage{_s}.ms", "ms")
for _j in range(3):
    for _p in STAGE_PARTS:
        _metric(f"blocks.stages.{_j}.{_p}.ms", "ms")
    _metric(f"blocks.stages.{_j}.self_ms", "ms")
_metric("blocks.head.ms", "ms")
_metric("blocks.save_checkpoint.ms", "ms")
_metric("blocks.load_checkpoint.ms", "ms")
_metric("losses.loss_terms.ms", "ms")
_metric("data.augment.ms", "ms")
for _f in ("generate_dataset", "write_dataset", "read_dataset"):
    _metric(f"data.{_f}.s", "s")
for _f in ("write_array", "read_array"):
    _metric(f"gdt.{_f}.calls", "count")
    _metric(f"gdt.{_f}.mb", "MB")
    _metric(f"gdt.{_f}.ms", "ms")
_metric("evaluate.predict.ms", "ms")
_metric("evaluate.predict.calls", "count")
_metric("evaluate.resize.ms", "ms")
_metric("evaluate.compute_metrics.ms", "ms")
_metric("evaluate.self_ms", "ms")
_metric("bench.batch.ms", "ms")
_metric("bench.update.ms", "ms")
_metric("bench.trace_overhead_share", "share")


# Functions that run during set-up; their metrics are per set-up, not per op.
_SETUP_FNS = (
    "blocks.save_checkpoint",
    "blocks.load_checkpoint",
    "data.generate_dataset",
    "data.write_dataset",
    "data.read_dataset",
    "gdt.write_array",
    "gdt.read_array",
)


def tensor_category(span) -> str:
    if span[NAME] == "tensor.conv2d":
        return span[INFO]["cat"]
    return _TENSOR_CATS.get(span[NAME], "other")


def conv_signatures(spans: list[list]) -> Counter:
    """Calls per conv signature under ``bench.op`` roots, for convs whose
    output takes part in backward."""
    root = roots(spans)
    return Counter(
        s[INFO]["sig"]
        for i, s in enumerate(spans)
        if s[NAME] == "tensor.conv2d" and s[INFO]["grad"] and spans[root[i]][NAME] == "bench.op"
    )


def replay_conv_backward(signatures, reps: int = 3) -> dict[tuple, float]:
    """Backward ms of each conv signature, timed alone: the time of
    ``backward(sum_all(y))`` after ``y = conv2d(...)`` has returned, that is
    the whole call minus its forward. Median of ``reps`` runs after one
    warm-up."""
    rng = np.random.default_rng(0)
    out = {}
    for sig in signatures:
        x_shape, w_shape, stride, padding, x_grad, w_grad, b_grad, dtype = sig
        x = T.Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=x_grad)
        w = T.Tensor(rng.standard_normal(w_shape).astype(dtype), requires_grad=w_grad)
        b = T.Tensor(rng.standard_normal((1, w_shape[0], 1, 1)).astype(dtype), requires_grad=b_grad)
        times = []
        for _ in range(reps + 1):
            y = T.conv2d(x, w, b, stride, padding)
            t0 = time.perf_counter()
            T.backward(T.sum_all(y))
            times.append(time.perf_counter() - t0)
        out[sig] = 1e3 * statistics.median(times[1:])
    return out


def per_layer(spans: list[list], replay_ms: dict[tuple, float]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric but the trace overhead, from one traced run.

    ``replay_ms`` is ``replay_conv_backward(conv_signatures(spans))``.
    """
    root = roots(spans)
    self_ns = self_times_ns(spans)
    n_ops = max(1, sum(1 for s in spans if s[PARENT] < 0 and s[NAME] == "bench.op"))
    n_setups = max(1, sum(1 for s in spans if s[PARENT] < 0 and s[NAME] == "bench.setup"))

    # time each span's children cover, counting only the children that the
    # layer's own self time excludes
    module_children = defaultdict(int)
    evaluate_children = defaultdict(int)
    for s in spans:
        p = s[PARENT]
        if p < 0:
            continue
        if s[KIND] == "module" and spans[p][KIND] == "module":
            module_children[p] += duration_ns(s)
        if spans[p][NAME] == "evaluate.evaluate" and s[NAME] in _EVAL_CHILDREN:
            evaluate_children[p] += duration_ns(s)

    op = defaultdict(float)  # summed over timed ops
    setup = defaultdict(float)  # summed over set-ups
    for i, s in enumerate(spans):
        name, phase = s[NAME], spans[root[i]][NAME]
        ms = duration_ns(s) / 1e6
        if phase == "bench.setup":
            setup[f"{name}.ms"] += ms
            setup[f"{name}.calls"] += 1
            if s[INFO] and "bytes" in s[INFO]:
                setup[f"{name}.mb"] += s[INFO]["bytes"] / 1e6
        if phase != "bench.op":
            continue
        if s[KIND] == "op":
            cat = tensor_category(s)
            if cat == "backward":
                op["tensor.backward.ms"] += ms
                continue
            op[f"tensor.{cat}.fwd_ms"] += self_ns[i] / 1e6
            op[f"tensor.{cat}.calls"] += 1
            if cat in CONV_CATS:
                op[f"tensor.{cat}.gmac"] += s[INFO]["macs"] / 1e9
            if name == "tensor.bilinear_resize" and spans[s[PARENT]][NAME] == "evaluate.evaluate":
                op["evaluate.resize.ms"] += ms
            continue
        op[f"{name}.ms"] += ms
        op[f"{name}.calls"] += 1
        if s[KIND] == "module" and name.startswith("blocks.stages.") and name.count(".") == 2:
            op[f"{name}.self_ms"] += ms - module_children[i] / 1e6
        elif name == "evaluate.evaluate":
            op["evaluate.self_ms"] += ms - evaluate_children[i] / 1e6

    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base in _SETUP_FNS:
            out[name] = (setup[f"{base}.ms"] / 1e3 if field == "s" else setup[name]) / n_setups
        else:
            out[name] = op[name] / n_ops
    conv_s = sum(out[f"tensor.{c}.fwd_ms"] for c in CONV_CATS) / 1e3
    out["tensor.conv2d.gmac_per_s"] = sum(out[f"tensor.{c}.gmac"] for c in CONV_CATS) / conv_s if conv_s else 0.0
    for sig, calls in conv_signatures(spans).items():
        w_shape, stride = sig[1], sig[2]
        out[f"tensor.{conv_category(w_shape[2], w_shape[3], stride)}.bwd_ms"] += calls * replay_ms[sig] / n_ops
    del out["bench.trace_overhead_share"]
    return out

"""Tests of the benchmark's own machinery: wrapper restoration, self-time
arithmetic, MAC counting, the tail statistic and the metric tables."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from guidedepth import blocks, losses, tensor as T  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from spans import INFO, NAME, PARENT, Instrumentation, Recorder, duration_ns, guidedepth_modules, modules, roots, self_times_ns  # noqa: E402


def tiny_op(rec, hooks, n=2, h=32, w=48, seed=0, train=True):
    """One traced op on ``guidedepth-tiny``: forward, and loss plus backward when training."""
    model = blocks.build_model(blocks.preset_config("guidedepth-tiny"), seed)
    hooks.watch(model)
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.uniform(0.0, 1.0, (n, 3, h, w)).astype(np.float32))
    y = T.Tensor(rng.uniform(1.0, 2.0, (n, 1, h, w)).astype(np.float32))
    with rec.span("bench.op"):
        if train:
            pred = model.forward(x, train=True)
            T.backward(losses.loss_terms(y, pred, losses.LossConfig())["total"])
        else:
            with T.no_grad():
                model.forward(x, train=True)
    return model


def test_wrappers_restore_every_global_and_forward():
    before = {m.__name__: dict(vars(m)) for m in guidedepth_modules()}
    rec = Recorder()
    with Instrumentation(rec) as hooks:
        model = tiny_op(rec, hooks)
        assert T.conv2d is not before["guidedepth.tensor"]["conv2d"]
        assert blocks.conv2d is T.conv2d  # cross-module globals share the wrapper
        assert "forward" in vars(model.stages[2].s_res)
    assert {s[NAME] for s in rec.spans} >= {"tensor.conv2d", "blocks.stages.2.s_res", "losses.loss_terms", "tensor.backward"}
    after = {m.__name__: dict(vars(m)) for m in guidedepth_modules()}
    assert after.keys() == before.keys()
    for mod, names in before.items():
        assert after[mod].keys() == names.keys(), mod
        for k, v in names.items():
            assert after[mod][k] is v, f"{mod}.{k} was not restored"
    for path, mod in modules(model):
        assert "forward" not in vars(mod), path
    assert "guidance_pyramid" not in vars(model)


def test_self_times_nonnegative_and_bounded_by_op_time():
    rec = Recorder()
    with Instrumentation(rec) as hooks:
        tiny_op(rec, hooks, seed=0)
        tiny_op(rec, hooks, seed=1)
    self_ns = self_times_ns(rec.spans)
    assert min(self_ns) >= 0
    root = roots(rec.spans)
    ops = [i for i, s in enumerate(rec.spans) if s[PARENT] < 0 and s[NAME] == "bench.op"]
    assert len(ops) == 2
    for i in ops:
        inside = sum(ns for j, ns in enumerate(self_ns) if root[j] == i)
        assert inside <= duration_ns(rec.spans[i])


def test_mac_count_matches_closed_form_for_tiny_preset():
    n, h, w = 2, 32, 48
    enc_w, enc_out, dec = 4, 8, (8, 4, 2)  # the guidedepth-tiny preset

    def conv(ci, co, k, oh, ow):
        return n * co * ci * k * k * oh * ow

    def stacked(ci, co, oh, ow):  # 3x3 then 1x1, both at the output size
        return conv(ci, co, 3, oh, ow) + conv(co, co, 1, oh, ow)

    expected = (
        stacked(3, enc_w, h // 2, w // 2)
        + stacked(enc_w, 2 * enc_w, h // 4, w // 4)
        + stacked(2 * enc_w, enc_out, h // 8, w // 8)
    )
    widths = (enc_out, *dec)
    for j in range(3):
        ci, co = widths[j], widths[j + 1]
        oh, ow = h >> (2 - j), w >> (2 - j)
        c_cat = 2 * ci  # image guidance through the gub branch
        hidden = c_cat // 4  # se_reduction 4 divides 16 and 8
        expected += (
            stacked(3, ci, oh, ow)  # s_guide
            + stacked(ci, ci, oh, ow)  # s_target
            + stacked(c_cat, ci, oh, ow)  # s_res
            + conv(ci, co, 1, oh, ow)  # reduce
            + n * 2 * c_cat * hidden  # squeeze and excite dense pair
        )
    expected += conv(dec[2], 1, 1, h, w)  # head

    rec = Recorder()
    with Instrumentation(rec) as hooks:
        tiny_op(rec, hooks, n=n, h=h, w=w, train=False)
    traced = sum(s[INFO]["macs"] for s in rec.spans if s[NAME] in ("tensor.conv2d", "tensor.dense"))
    assert traced == expected


def test_tail_leaves_ten_ops_beyond_and_stops_at_p90():
    few = [float(t) for t in range(25, 0, -1)]
    assert run.tail(few) == (15.0, 100.0 * 15 / 25)  # exactly ten ops beyond
    many = [float(t) for t in range(1, 201)]
    assert run.tail(many) == (180.0, 90.0)
    assert run.tail([3.0]) == (3.0, 100.0)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_per_layer_reports_every_metric_from_a_traced_step():
    rec = Recorder()
    with Instrumentation(rec) as hooks:
        tiny_op(rec, hooks)
    replay = layers.replay_conv_backward(layers.conv_signatures(rec.spans), reps=1)
    metrics = layers.per_layer(rec.spans, replay)
    assert set(metrics) | {"bench.trace_overhead_share"} == set(layers.PER_LAYER)
    assert all(v >= 0 for v in metrics.values())
    assert metrics["tensor.conv2d_3x3s1.calls"] == 9
    for cat in layers.CONV_CATS:
        assert metrics[f"tensor.{cat}.bwd_ms"] > 0
    assert metrics["blocks.stages.2.s_res.ms"] > 0 and metrics["tensor.backward.ms"] > 0

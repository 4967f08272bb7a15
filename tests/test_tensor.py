"""Tensor engine: forward semantics, gradient oracles, graph behavior, GDT1 files."""

import contextlib
import itertools
import os
import re
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from guidedepth import gdt
from guidedepth import tensor as T
from helpers import check_grads, conv2d_reference, finite_diff_grad, graph_bytes, graph_objects, rel_err, traced


# conv2d's backward band widths: the default, one input row, and 40 columns, which leave a short last band
# on every shape of the naive-loop reference tests (rows of 6 to 10 columns, 6 to 9 rows)
BANDS = (T.BAND, 1, 40)


def randn(shape, seed=0, dtype=np.float64, requires_grad=True):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.standard_normal(shape), requires_grad=requires_grad, dtype=dtype)


class TestTensorBasics:
    def test_rank4_enforced(self):
        with pytest.raises(ValueError):
            T.Tensor(np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(0, 1, 2, 2), (1, 0, 2, 2), (1, 1, 0, 2), (1, 1, 2, 0)])
    def test_empty_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match=r"invalid tensor shape"):
            T.Tensor(np.zeros(shape))

    def test_default_dtype_is_float32(self):
        t = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.int64))
        assert t.dtype == np.float32

    def test_float64_shadow_mode(self):
        t = T.Tensor(np.zeros((1, 1, 2, 2)), dtype=np.float64)
        assert t.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64, np.complex64, bool])
    def test_other_dtypes_rejected_naming_the_dtype(self, dtype):
        with pytest.raises(ValueError, match=rf"float32 or float64, got dtype {np.dtype(dtype)}$"):
            T.Tensor(np.zeros((1, 1, 2, 2)), dtype=dtype)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            T.Tensor(np.zeros((1, 1, 2, 2), np.float32)).item()


class TestConv2d:
    def test_box_sum_of_ones(self):
        """3x3 all-ones kernel over all-ones input, pad 1: center 9, corners 4."""
        x = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        b = T.Tensor(np.zeros((1, 1, 1, 1), np.float32))
        y = T.conv2d(x, w, b, stride=1, padding=1)
        assert y.data[0, 0, 1, 1] == 9.0
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y.data[0, 0, i, j] == 4.0

    def test_identity_kernel(self):
        x = randn((2, 1, 5, 6), seed=1, requires_grad=False)
        w = T.Tensor(np.ones((1, 1, 1, 1)), dtype=np.float64)
        b = T.Tensor(np.zeros((1, 1, 1, 1)))
        y = T.conv2d(x, w, b)
        np.testing.assert_array_equal(y.data, x.data)

    def test_output_shape_formula(self):
        x = T.Tensor(np.zeros((1, 2, 11, 13), np.float32))
        w = T.Tensor(np.zeros((4, 2, 3, 3), np.float32))
        b = T.Tensor(np.zeros((1, 4, 1, 1), np.float32))
        y = T.conv2d(x, w, b, stride=2, padding=1)
        assert y.shape == (1, 4, (11 + 2 - 3) // 2 + 1, (13 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.conv2d(
                T.Tensor(np.zeros((1, 3, 4, 4), np.float32)),
                T.Tensor(np.zeros((2, 2, 3, 3), np.float32)),
                T.Tensor(np.zeros((1, 2, 1, 1), np.float32)),
            )

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ValueError):
            T.conv2d(
                T.Tensor(np.zeros((1, 1, 2, 2), np.float32)),
                T.Tensor(np.zeros((1, 1, 5, 5), np.float32)),
                T.Tensor(np.zeros((1, 1, 1, 1), np.float32)),
            )

    @pytest.mark.parametrize(
        "x_shape,w_shape,b_shape",
        [
            ((1, 3, 4, 4), (2, 2, 3, 3), (1, 2, 1, 1)),
            ((1, 2, 4, 4), (2, 2, 3, 3), (1, 3, 1, 1)),
            ((1, 1, 2, 2), (1, 1, 5, 5), (1, 1, 1, 1)),
        ],
        ids=["channels", "bias", "output"],
    )
    def test_errors_name_input_and_weight_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ValueError) as info:
            T.conv2d(*(T.Tensor(np.zeros(s, np.float32)) for s in (x_shape, w_shape, b_shape)))
        assert str(x_shape) in str(info.value) and str(w_shape) in str(info.value)

    @pytest.mark.parametrize(
        "dtypes", [(np.float32, np.float64, np.float64), (np.float64, np.float64, np.float32)], ids=["input", "bias"]
    )
    def test_dtype_mismatch_rejected_naming_dtypes_and_shapes(self, dtypes):
        """A float32 input with float64 weights would give a float32 output and a
        float64 input gradient, so the dtypes must agree."""
        x, w, b = (T.Tensor(np.zeros(s, d)) for s, d in zip([(1, 2, 4, 4), (3, 2, 3, 3), (1, 3, 1, 1)], dtypes))
        with pytest.raises(ValueError, match="dtype") as info:
            T.conv2d(x, w, b, 1, 1)
        msg = str(info.value)
        assert "float32" in msg and "float64" in msg
        assert str(x.shape) in msg and str(w.shape) in msg

    def test_weight_gradient_matches_finite_differences(self):
        """Analytic grad of sum(conv(x)) w.r.t. weights vs central differences."""
        x = randn((1, 2, 5, 5), seed=2, requires_grad=False)
        w = randn((4, 2, 3, 3), seed=3)
        b = randn((1, 4, 1, 1), seed=4)
        check_grads(
            lambda: T.sum_all(T.mul(T.conv2d(x, w, b, 1, 1), T.conv2d(x, w, b, 1, 1))),
            {"w": w, "b": b},
            tol=1e-3,
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_input_gradient_all_geometries(self, stride, padding):
        x = randn((2, 3, 9, 8), seed=5)
        w = randn((2, 3, 3, 3), seed=6, requires_grad=False)
        b = T.Tensor(np.zeros((1, 2, 1, 1)))
        y = T.conv2d(x, w, b, stride, padding)
        check_grads(
            lambda: T.sum_all(T.mul(T.conv2d(x, w, b, stride, padding), T.conv2d(x, w, b, stride, padding))),
            {"x": x},
            tol=1e-3,
        )
        assert y.shape[2] >= 1

    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_weight_and_bias_gradients_match_finite_differences(self, stride):
        x = randn((2, 3, 9, 8), seed=20, requires_grad=False)
        w = randn((4, 3, 3, 3), seed=21)
        b = randn((1, 4, 1, 1), seed=22)
        check_grads(
            lambda: T.sum_all(T.mul(T.conv2d(x, w, b, stride, 1), T.conv2d(x, w, b, stride, 1))),
            {"w": w, "b": b},
            tol=1e-3,
        )

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 1), (1, 3)], ids=["1x1", "3x3", "3x1", "1x3"])
    def test_matches_naive_loop_reference(self, monkeypatch, kernel, stride, padding):
        """Forward, dx, dW and db against plain loops, to 1e-12 of each result's largest entry.

        3 input channels stack all taps of every kernel but 1x1 into one operand.
        5 and 10 channels stack the 3 taps of a 1x3 or 3x1 kernel (15 and 30
        inputs, within STACK_MAX_K = 32); 11 channels (33 inputs), every 3x3
        kernel over 5 or more channels, and 40 channels take one tap at a time.

        At stride 2 or 3 the shapes leave trailing input rows or columns unread,
        e.g. column 7 of (2, 3, 9, 8) at stride 2, padding 0.

        Every shape fits in one backward band of ``BAND`` columns, so each runs
        again in bands of one input row and in bands of 40 columns, which leave
        a short last band on every shape (``BANDS``).
        """
        cases = [(23, (2, 3, 9, 8), 4), (24, (3, 5, 7, 10), 2), (27, (2, 10, 6, 7), 3), (28, (2, 11, 6, 7), 2),
                 (26, (2, 40, 7, 6), 3)]
        for band, (seed, shape, co) in itertools.product(BANDS, cases):
            monkeypatch.setattr(T, "BAND", band)
            x = randn(shape, seed=seed)
            w = randn((co, shape[1], *kernel), seed=seed + 100)
            b = randn((1, co, 1, 1), seed=seed + 200)
            y = T.conv2d(x, w, b, stride, padding)
            g = np.random.default_rng(seed + 300).standard_normal(y.shape)
            T.backward(T.sum_all(T.mul(y, T.Tensor(g, dtype=np.float64))))
            want = conv2d_reference(x.data, w.data, b.data, stride, padding, g)
            for name, got, ref in zip(("y", "dx", "dw", "db"), (y.data, x.grad, w.grad, b.grad), want):
                assert got.shape == ref.shape, name
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err < 1e-12, f"{name} {shape}, band {band}: relative error {err:.2e}"

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("wanted", [("x",), ("w",), ("b",), ("x", "w", "b")], ids=["dx", "dw", "db", "all"])
    def test_each_requested_gradient_matches_naive_loop_reference(self, monkeypatch, wanted, stride, padding):
        """A backward asked for only some gradients computes those, to 1e-12 of
        each result's largest entry, and leaves the others ``None``. 3 channels
        take the stacked layout of a 3x3 conv, 11 and 40 the per-tap one; each
        runs in the backward bands of ``BANDS``."""
        cases = [(40, (2, 3, 9, 8), 4), (41, (2, 11, 7, 6), 3), (42, (2, 40, 6, 7), 2)]
        for band, (seed, shape, co) in itertools.product(BANDS, cases):
            monkeypatch.setattr(T, "BAND", band)
            x = randn(shape, seed=seed, requires_grad="x" in wanted)
            w = randn((co, shape[1], 3, 3), seed=seed + 100, requires_grad="w" in wanted)
            b = randn((1, co, 1, 1), seed=seed + 200, requires_grad="b" in wanted)
            y = T.conv2d(x, w, b, stride, padding)
            g = np.random.default_rng(seed + 300).standard_normal(y.shape)
            T.backward(T.sum_all(T.mul(y, T.Tensor(g, dtype=np.float64))))
            _, *want = conv2d_reference(x.data, w.data, b.data, stride, padding, g)
            for name, t, ref in zip(("x", "w", "b"), (x, w, b), want):
                if name not in wanted:
                    assert t.grad is None, f"{name} {shape}: gradient computed but not asked for"
                    continue
                assert t.grad.shape == ref.shape, name
                err = np.max(np.abs(t.grad - ref)) / np.max(np.abs(ref))
                assert err < 1e-12, f"d{name} {shape}, band {band}: relative error {err:.2e}"

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ci", [3, 16])
    def test_stacked_and_per_tap_layouts_agree(self, monkeypatch, ci, stride):
        """Forward, dx, dW and db with every kernel stacked (STACK_MAX_K large) and
        with one tap at a time (STACK_MAX_K = 0), to 1e-12 of each result's largest entry."""
        results = []
        for limit in (0, 10**6):
            monkeypatch.setattr(T, "STACK_MAX_K", limit)
            x, w, b = randn((2, ci, 9, 8), seed=30), randn((4, ci, 3, 3), seed=31), randn((1, 4, 1, 1), seed=32)
            y = T.conv2d(x, w, b, stride, 1)
            g = np.random.default_rng(33).standard_normal(y.shape)
            T.backward(T.sum_all(T.mul(y, T.Tensor(g, dtype=np.float64))))
            results.append((y.data, x.grad, w.grad, b.grad))
        for name, per_tap, stacked in zip(("y", "dx", "dw", "db"), *results):
            err = np.max(np.abs(stacked - per_tap)) / np.max(np.abs(per_tap))
            assert err < 1e-12, f"{name}: relative difference {err:.2e}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ci", [3, 16], ids=["stacked", "per-tap"])
    def test_batch_is_per_sample_results_stacked(self, ci, stride, dtype):
        """The forward and the input gradient run one sample at a time, so a batch
        gives bitwise the results of its samples run alone."""
        rng = np.random.default_rng(36)
        x = T.Tensor(rng.standard_normal((3, ci, 9, 8)), requires_grad=True, dtype=dtype)
        w = T.Tensor(rng.standard_normal((5, ci, 3, 3)), dtype=dtype)
        b = T.Tensor(rng.standard_normal((1, 5, 1, 1)), dtype=dtype)
        y = T.conv2d(x, w, b, stride, 1)
        g = rng.standard_normal(y.shape).astype(dtype)
        T.backward(T.sum_all(T.mul(y, T.Tensor(g))))
        for s in range(3):
            xs = T.Tensor(x.data[s : s + 1], requires_grad=True)
            ys = T.conv2d(xs, w, b, stride, 1)
            T.backward(T.sum_all(T.mul(ys, T.Tensor(g[s : s + 1]))))
            assert np.array_equal(y.data[s : s + 1], ys.data), f"output of sample {s}"
            assert np.array_equal(x.grad[s : s + 1], xs.grad), f"input gradient of sample {s}"

    def test_stacked_conv_graph_keeps_no_stacked_operand(self):
        """A 3-channel 3x3 conv copies each sample's 9 tap slices into one (27, m)
        operand. The backward builds them again from the input, so after the
        forward the graph holds the output and not those operands."""
        rng = np.random.default_rng(34)
        x = T.Tensor(rng.standard_normal((4, 3, 96, 128)).astype(np.float32), requires_grad=True)
        w = T.Tensor(0.1 * rng.standard_normal((16, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros((1, 16, 1, 1), np.float32), requires_grad=True)
        operand = 4 * 27 * 96 * 130 * 4  # m = 96 output rows of 130 padded columns
        y, held, _ = traced(lambda: T.conv2d(x, w, b, 1, 1))
        assert y.requires_grad
        assert held - y.data.nbytes < operand, f"graph holds {held} bytes"

    def test_padded_conv_graph_keeps_no_padded_input(self):
        """The backward reads ``x`` unpadded, band by band, so after a
        grad-recording padded 3x3 conv the graph holds its output and less than
        half a padded input."""
        rng = np.random.default_rng(35)
        x = T.Tensor(rng.standard_normal((4, 32, 96, 128)).astype(np.float32), requires_grad=True)
        w = T.Tensor(0.1 * rng.standard_normal((32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros((1, 32, 1, 1), np.float32), requires_grad=True)
        padded = 4 * 32 * 99 * 130 * 4  # rows: 96 + 2 padding + 1 that keeps the last tap's slice in bounds
        y, held, _ = traced(lambda: T.conv2d(x, w, b, 1, 1))
        assert y.requires_grad
        assert held - y.data.nbytes < padded / 2, f"graph holds {held - y.data.nbytes} bytes beside its output"

    @pytest.mark.threads
    @pytest.mark.parametrize("cores", [1, 2])
    def test_backward_peaks_below_one_whole_frame_gradient_stack(self, monkeypatch, cores):
        """The backward of a grad-recording (4, 64, 96, 128) -> 32 3x3 conv, and of
        the product that hands it its gradient, allocates ``dx`` (the input's size) and
        the output gradient (the output's size). Each worker's dilated gradient grid
        and band buffer come to about 3 MiB (21.2 MiB on one core, 24.1 on two), so
        the backward peaks below those two plus one whole-frame gradient stack of
        9 * 32 rows of a padded frame: with one such stack a worker it made 36.2 MiB
        on one core and 53.5 on two."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        rng = np.random.default_rng(43)
        x = T.Tensor(rng.standard_normal((4, 64, 96, 128)).astype(np.float32), requires_grad=True)
        w = T.Tensor(0.1 * rng.standard_normal((32, 64, 3, 3)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros((1, 32, 1, 1), np.float32), requires_grad=True)
        y = T.conv2d(x, w, b, 1, 1)
        loss = T.sum_all(T.mul(y, T.Tensor(rng.standard_normal(y.shape).astype(np.float32))))
        stack = 9 * 32 * 99 * 130 * 4  # 96 + 2 padding rows + 1 that keeps the last tap's slice in bounds
        _, _, peak = traced(lambda: T.backward(loss))
        assert peak < x.data.nbytes + y.data.nbytes + stack, f"backward peaks at {peak / 2**20:.1f} MiB"

    def test_forward_builds_no_window_matrix(self):
        """A 3x3 window matrix of the input alone would be 9x its bytes."""
        rng = np.random.default_rng(25)
        x = T.Tensor(rng.standard_normal((4, 64, 48, 64)).astype(np.float32))
        w = T.Tensor(0.1 * rng.standard_normal((64, 64, 3, 3)).astype(np.float32))
        b = T.Tensor(np.zeros((1, 64, 1, 1), np.float32))
        with T.no_grad():
            _, _, peak = traced(lambda: T.conv2d(x, w, b, 1, 1))
        assert peak < 9 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"

    def test_linearity_in_input(self):
        """conv(a*x + b*y) == a*conv(x) + b*conv(y) for zero bias."""
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((1, 2, 6, 6)), dtype=np.float64)
        y = T.Tensor(rng.standard_normal((1, 2, 6, 6)), dtype=np.float64)
        w = T.Tensor(rng.standard_normal((3, 2, 3, 3)), dtype=np.float64)
        b = T.Tensor(np.zeros((1, 3, 1, 1)))
        a, c = 0.7, -1.3
        mix = T.Tensor(a * x.data + c * y.data, dtype=np.float64)
        lhs = T.conv2d(mix, w, b, 1, 1).data
        rhs = a * T.conv2d(x, w, b, 1, 1).data + c * T.conv2d(y, w, b, 1, 1).data
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_deterministic(self):
        x = randn((1, 3, 8, 8), seed=8, requires_grad=False)
        w = randn((4, 3, 3, 3), seed=9, requires_grad=False)
        b = T.Tensor(np.zeros((1, 4, 1, 1)))
        y1 = T.conv2d(x, w, b, 1, 1).data
        y2 = T.conv2d(x, w, b, 1, 1).data
        assert np.array_equal(y1, y2)


class TestBatchNorm:
    def test_parameter_shape_mismatch_names_every_shape(self):
        x = T.Tensor(np.zeros((2, 3, 4, 4), np.float32))
        g, b = T.Tensor(np.ones((1, 3, 1, 1), np.float32)), T.Tensor(np.zeros((1, 2, 1, 1), np.float32))
        message = "gamma (1, 3, 1, 1) and beta (1, 2, 1, 1) must be (1, 3, 1, 1), input (2, 3, 4, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            T.batch_norm_relu(x, g, b, T.RunningStats.for_channels(3))

    def test_constant_channel_is_zeroed(self):
        """Constant input, gamma=1, beta=0: output all zeros (eps clamps the variance)."""
        x = T.Tensor(np.full((2, 3, 4, 4), 5.0, np.float32))
        g = T.Tensor(np.ones((1, 3, 1, 1), np.float32))
        b = T.Tensor(np.zeros((1, 3, 1, 1), np.float32))
        stats = T.RunningStats.for_channels(3)
        out = T.batch_norm_relu(x, g, b, stats)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_zero_gamma_yields_beta_and_kills_input_grad(self):
        """beta >= 0 passes the ReLU unchanged."""
        x = randn((2, 3, 4, 4), seed=10)
        g = T.Tensor(np.zeros((1, 3, 1, 1)))
        b = T.Tensor(np.arange(3, dtype=np.float64).reshape(1, 3, 1, 1))
        stats = T.RunningStats.for_channels(3, np.float64)
        out = T.batch_norm_relu(x, g, b, stats)
        expect = np.broadcast_to(b.data, out.shape)
        np.testing.assert_allclose(out.data, expect)
        T.backward(T.sum_all(out))
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.grad))

    def test_train_mode_normalizes(self):
        """With gamma = 3 and beta = 20 every output is positive, so the ReLU
        passes the normalized values unchanged."""
        x = randn((4, 2, 6, 6), seed=11, requires_grad=False)
        g = T.Tensor(np.full((1, 2, 1, 1), 3.0))
        b = T.Tensor(np.full((1, 2, 1, 1), 20.0))
        out = T.batch_norm_relu(x, g, b, T.RunningStats.for_channels(2, np.float64))
        assert out.data.min() > 0
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, [20.0, 20.0], atol=1e-10)
        # eps=1e-5 in the denominator shrinks the variance by ~eps relative
        np.testing.assert_allclose(var, [9.0, 9.0], rtol=1e-4)

    def test_running_stats_converge_to_input_stats(self):
        rng = np.random.default_rng(12)
        stats = T.RunningStats.for_channels(1, np.float64)
        g = T.Tensor(np.full((1, 1, 1, 1), 1.0))
        b = T.Tensor(np.zeros((1, 1, 1, 1)))
        for _ in range(200):
            x = T.Tensor(2.0 + 0.5 * rng.standard_normal((8, 1, 8, 8)), dtype=np.float64)
            T.batch_norm_relu(x, g, b, stats)
        assert abs(stats.mean.ravel()[0] - 2.0) < 0.05
        assert abs(stats.var.ravel()[0] - 0.25) < 0.05

    def test_graph_keeps_input_and_1_bit_mask(self):
        """A recorded batch norm keeps ``x``, one bit per output and per-channel
        vectors, and not its float output."""
        x = randn((4, 8, 16, 16), seed=14, dtype=np.float32)
        g, b = (T.Tensor(np.full((1, 8, 1, 1), v, np.float32), requires_grad=True) for v in (1.0, 0.0))
        out = T.batch_norm_relu(x, g, b, T.RunningStats.for_channels(8))
        held = graph_bytes(out) - x.data.nbytes
        assert held <= out.data.size // 8 + 1024, f"graph holds {held} bytes beside the input"

    def test_mask_built_only_for_a_node(self, monkeypatch):
        """A forward that records no node packs no mask; one that does packs one."""
        calls = []
        packbits = np.packbits
        monkeypatch.setattr(np, "packbits", lambda *args, **kw: calls.append(1) or packbits(*args, **kw))
        x = randn((2, 3, 4, 4), seed=15)
        g, b = randn((1, 3, 1, 1), seed=16), randn((1, 3, 1, 1), seed=17)
        stats = T.RunningStats.for_channels(3, np.float64)
        with T.no_grad():
            T.batch_norm_relu(x, g, b, stats)
        assert not calls
        T.batch_norm_relu(x, g, b, stats)
        assert len(calls) == 1

    def test_gradient_matches_finite_differences(self):
        """Backward through the batch statistics and the ReLU mask must be exact.

        Each channel of ``x`` is a shuffled, scaled and shifted ramp, so its
        normalized values are about 0.11 apart, and ``beta`` puts the ReLU's
        kink halfway between two of them: every pre-activation stays more than
        30 finite-difference steps from 0, and each channel has units on both
        sides of it.
        """
        rng = np.random.default_rng(13)
        ramps = rng.permuted(np.tile(np.arange(32.0), (3, 1)), axis=1)
        ramps = ramps * np.array([[0.5], [2.0], [1.0]]) + np.array([[-3.0], [1.0], [0.0]])
        x = T.Tensor(np.ascontiguousarray(ramps.reshape(3, 2, 4, 4).swapaxes(0, 1)), requires_grad=True)
        g = T.Tensor(np.array([1.5, -0.8, 2.0]).reshape(1, 3, 1, 1), requires_grad=True)
        xhat = (ramps - ramps.mean(axis=1, keepdims=True)) / ramps.std(axis=1, keepdims=True)
        cut = np.sort(xhat, axis=1)[:, 11:13].mean(axis=1)  # halfway between the 12th and 13th smallest
        b = T.Tensor((-g.data.ravel() * cut).reshape(1, 3, 1, 1), requires_grad=True)
        pre = xhat * g.data.reshape(3, 1) + b.data.reshape(3, 1)
        assert np.abs(pre).min() > 30 * 1e-3
        assert ((pre > 0).any(axis=1) & (pre < 0).any(axis=1)).all()

        def f():
            stats = T.RunningStats.for_channels(3, np.float64)
            out = T.batch_norm_relu(x, g, b, stats)
            return T.sum_all(T.mul(out, out))

        check_grads(f, {"x": x, "gamma": g, "beta": b}, tol=1e-3)


def _bn_relu(seed, dtype, shape=(2, 3, 6, 5)):
    c = shape[1]
    x = randn(shape, seed=seed, dtype=dtype)
    g, b = randn((1, c, 1, 1), seed=seed + 1, dtype=dtype), randn((1, c, 1, 1), seed=seed + 2, dtype=dtype)
    return T.batch_norm_relu(x, g, b, T.RunningStats.for_channels(c, dtype))


class TestRebuild:
    """A node's rebuild recomputes its output from what the node keeps anyway,
    so a reader of the output captures the rebuild, not the output."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op",
        [
            lambda dt: _bn_relu(70, dt),
            lambda dt: T.mul(randn((2, 3, 4, 5), seed=73, dtype=dt), randn((2, 3, 4, 5), seed=74, dtype=dt)),
            lambda dt: T.mul(randn((2, 3, 4, 5), seed=75, dtype=dt), randn((2, 3, 1, 1), seed=76, dtype=dt)),
        ],
        ids=["batch_norm_relu", "mul", "mul-broadcast"],
    )
    def test_rebuild_is_bitwise_the_output(self, op, dtype):
        out = op(dtype)
        np.testing.assert_array_equal(out._rec.node[3](), out.data)

    @pytest.mark.threads
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op",
        [
            lambda dt: _bn_relu(94, dt, (3, 4, 6, 5)),
            lambda dt: T.mul(randn((3, 2, 4, 5), seed=97, dtype=dt), randn((3, 2, 4, 5), seed=98, dtype=dt)),
            lambda dt: T.mul(randn((3, 2, 4, 5), seed=99, dtype=dt), randn((3, 2, 1, 1), seed=100, dtype=dt)),
            lambda dt: T.mul(randn((3, 2, 1, 1), seed=101, dtype=dt), randn((3, 2, 4, 5), seed=102, dtype=dt)),
            lambda dt: T.mul(_bn_relu(103, dt, (3, 4, 6, 5)), randn((3, 4, 1, 1), seed=106, dtype=dt)),
        ],
        ids=["batch_norm_relu", "mul", "mul-gate", "mul-gate-first", "mul-of-batch-norm"],
    )
    def test_sliced_rebuild_is_bitwise_the_whole_one(self, op, dtype):
        """A reader may take a rebuilt input one sample at a time."""
        rebuild = op(dtype)._rec.node[3]
        whole = rebuild()
        for s in range(whole.shape[0]):
            part = rebuild(slice(s, s + 1))
            assert part.dtype == whole.dtype and np.array_equal(part, whole[s : s + 1]), f"sample {s}"

    @pytest.mark.threads
    def test_kept_array_is_handed_out_as_a_view(self):
        t = randn((3, 2, 4, 5), seed=107, requires_grad=False)
        keep = T._kept(t)
        whole, part = keep(), keep(slice(1, 3))
        assert whole.base is t.data and np.array_equal(whole, t.data)
        assert part.base is t.data and np.array_equal(part, t.data[1:3])

    def test_mul_by_a_constant_has_no_rebuild(self):
        """Only one operand is kept, so the product cannot be built again."""
        out = T.mul(randn((2, 3, 4, 5), seed=77), randn((2, 3, 4, 5), seed=78, requires_grad=False))
        assert out._rec.node[3] is None

    @pytest.mark.threads
    def test_batch_norm_output_read_only_by_a_conv_freed_during_forward(self):
        out = _bn_relu(79, np.float32)
        data = weakref.ref(out.data)
        w, b = randn((4, 3, 3, 3), seed=82, dtype=np.float32), randn((1, 4, 1, 1), seed=83, dtype=np.float32)
        y = T.conv2d(out, w, b, 1, 1)
        del out
        assert data() is None
        assert y.requires_grad

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_conv_after_batch_norm_gets_the_gradients_of_a_kept_input(self, kernel):
        """The conv reads the rebuilt batch norm output: its gradients are bitwise
        those of the same conv on a leaf holding a copy of that output."""
        out = _bn_relu(84, np.float32, (2, 3, 7, 6))
        w, b = randn((4, 3, kernel, kernel), seed=87, dtype=np.float32), randn((1, 4, 1, 1), seed=88, dtype=np.float32)
        leaf = T.Tensor(out.data.copy(), requires_grad=True)
        w_leaf = T.Tensor(w.data.copy(), requires_grad=True)
        g = randn((2, 4, 7, 6), seed=89, dtype=np.float32, requires_grad=False)
        for x, weight in ((out, w), (leaf, w_leaf)):
            T.backward(T.sum_all(T.mul(T.conv2d(x, weight, b, 1, kernel // 2), g)))
        np.testing.assert_array_equal(w.grad, w_leaf.grad)


class TestActivations:
    def test_relu_values(self):
        x = T.Tensor(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3))
        np.testing.assert_array_equal(T.relu(x).data.ravel(), [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor(np.zeros((1, 1, 1, 1), np.float32))).item() == 0.5

    def test_sigmoid_stable_for_large_inputs(self):
        x = T.Tensor(np.array([-500.0, 500.0]).reshape(1, 1, 1, 2), dtype=np.float64)
        s = T.sigmoid(x).data.ravel()
        assert 0.0 <= s[0] < 1e-100 and 1.0 - 1e-12 < s[1] <= 1.0

    def test_gradients(self):
        x = randn((2, 2, 3, 3), seed=20)
        check_grads(lambda: T.sum_all(T.mul(T.relu(x), T.relu(x))), {"x": x}, tol=1e-3)
        y = randn((2, 2, 3, 3), seed=21)
        check_grads(lambda: T.sum_all(T.mul(T.sigmoid(y), T.sigmoid(y))), {"y": y}, tol=1e-3)

    def test_relu_subgradient_at_zero_is_zero(self):
        x = T.Tensor(np.zeros((1, 1, 1, 1), np.float32), requires_grad=True)
        T.backward(T.sum_all(T.relu(x)))
        assert x.grad.ravel()[0] == 0.0


class TestBilinearResize:
    def test_constant_stays_constant(self):
        x = T.Tensor(np.full((1, 2, 5, 7), 3.25, np.float32))
        for oh, ow in [(1, 1), (3, 3), (10, 14), (5, 7)]:
            y = T.bilinear_resize(x, oh, ow)
            np.testing.assert_allclose(y.data, 3.25, rtol=1e-6)

    def test_2x2_to_4x4_corners(self):
        """Half-pixel clamped sampling keeps the four corner values in place."""
        x = T.Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2), dtype=np.float64)
        y = T.bilinear_resize(x, 4, 4).data[0, 0]
        assert y[0, 0] == 0.0 and y[0, 3] == 1.0 and y[3, 0] == 2.0 and y[3, 3] == 3.0

    def test_linear_ramp_roundtrip(self):
        """Linear functions are fixed points of down/up resampling away from borders."""
        h, w = 16, 24
        ramp = np.add.outer(np.linspace(0, 1, h), np.linspace(0, 2, w))
        x = T.Tensor(ramp.reshape(1, 1, h, w), dtype=np.float64)
        down = T.bilinear_resize(x, h // 2, w // 2)
        up = T.bilinear_resize(down, h, w)
        err = np.abs(up.data - x.data)[0, 0, 2 : h - 2, 2 : w - 2]
        assert err.max() < 1e-6

    def test_bounds_preserved(self):
        """Outputs are convex combinations of inputs: min/max never expand."""
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = T.Tensor(rng.uniform(-5, 5, (1, 1, 9, 11)), dtype=np.float64)
            y = T.bilinear_resize(x, 17, 5)
            assert y.data.min() >= x.data.min() - 1e-12
            assert y.data.max() <= x.data.max() + 1e-12

    def test_gradient(self):
        x = randn((1, 2, 5, 6), seed=23)
        check_grads(
            lambda: T.sum_all(T.mul(T.bilinear_resize(x, 9, 4), T.bilinear_resize(x, 9, 4))),
            {"x": x},
            tol=1e-3,
        )


    @pytest.mark.parametrize("out_h, out_w", [(0, 4), (4, 0)])
    def test_empty_target_rejected_naming_sizes(self, out_h, out_w):
        with pytest.raises(ValueError, match=re.escape(f"({out_h}, {out_w}) must be >= 1, input shape (1, 2, 5, 6)")):
            T.bilinear_resize(T.Tensor(np.zeros((1, 2, 5, 6), np.float32)), out_h, out_w)

    def test_non_integer_target_rejected_naming_sizes(self):
        want = "bilinear_resize: target dims (2.0, 3) must be integers, input shape (1, 2, 5, 6)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.bilinear_resize(T.Tensor(np.zeros((1, 2, 5, 6), np.float32)), 2.0, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_size_returns_input_and_passes_gradient(self, dtype):
        x = T.Tensor(np.random.default_rng(25).standard_normal((1, 3, 6, 8)), requires_grad=True, dtype=dtype)
        y = T.bilinear_resize(x, 6, 8)
        assert y is x
        T.backward(T.sum_all(T.mul(y, y)))
        np.testing.assert_array_equal(x.grad, 2 * x.data)
        with T.no_grad():
            assert T.bilinear_resize(x, 6, 8) is x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_is_c_ordered_in_input_dtype(self, dtype):
        """Gradients are stored by reference, so this one must look like every other."""
        x = T.Tensor(np.random.default_rng(24).standard_normal((2, 3, 5, 6)), requires_grad=True, dtype=dtype)
        T.backward(T.sum_all(T.bilinear_resize(x, 9, 4)))
        assert x.grad.flags.c_contiguous
        assert x.grad.dtype == dtype


class TestConcatAndArithmetic:
    def test_concat_shape(self):
        a, b = T.Tensor(np.zeros((1, 2, 4, 4), np.float32)), T.Tensor(np.zeros((1, 3, 4, 4), np.float32))
        assert T.concat_channels(a, b).shape == (1, 5, 4, 4)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError, match=re.escape("(1, 1, 4, 4) vs (1, 1, 5, 4)")):
            T.concat_channels(T.Tensor(np.zeros((1, 1, 4, 4), np.float32)), T.Tensor(np.zeros((1, 1, 5, 4), np.float32)))

    def test_concat_dtype_mismatch_names_dtypes_and_shapes(self):
        a, b = T.Tensor(np.zeros((1, 2, 4, 4), np.float32)), T.Tensor(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ValueError, match=re.escape("float32 (1, 2, 4, 4) vs float64 (1, 3, 4, 4)")):
            T.concat_channels(a, b)

    def test_concat_grad_splits(self):
        a = randn((1, 2, 3, 3), seed=25)
        b = randn((1, 4, 3, 3), seed=26)
        T.backward(T.sum_all(T.concat_channels(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))
        np.testing.assert_array_equal(b.grad, np.ones_like(b.data))

    def test_add_zero_and_scale_zero(self):
        x = randn((1, 2, 3, 3), seed=27, requires_grad=False)
        np.testing.assert_array_equal(T.add(x, T.Tensor(np.zeros(x.shape))).data, x.data)
        np.testing.assert_array_equal(T.affine(x, 0.0, 0.0).data, np.zeros_like(x.data))

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.add(T.Tensor(np.zeros((1, 1, 2, 2), np.float32)), T.Tensor(np.zeros((1, 1, 2, 3), np.float32)))

    def test_elementwise_gradients(self):
        a = randn((2, 2, 3, 3), seed=28)
        b = randn((2, 2, 3, 3), seed=29)
        check_grads(lambda: T.sum_all(T.mul(T.add(a, b), T.sub(a, b))), {"a": a, "b": b}, tol=1e-3)
        c = randn((2, 2, 3, 3), seed=30)
        d = T.Tensor(np.random.default_rng(31).uniform(0.5, 2.0, (2, 2, 3, 3)), requires_grad=True, dtype=np.float64)
        check_grads(lambda: T.sum_all(T.div(c, d)), {"c": c, "d": d}, tol=1e-3)
        e = randn((2, 3, 1, 1), seed=32)
        f = randn((2, 3, 4, 4), seed=33)
        check_grads(lambda: T.sum_all(T.mul(f, T.mul(e, e))), {"e": e, "f": f}, tol=1e-3)
        m = randn((2, 1, 4, 4), seed=108)  # one channel over f's three: its gradient sums over the channel axis
        check_grads(lambda: T.sum_all(T.mul(T.mul(m, f), f)), {"m": m, "f": f}, tol=1e-3)

    def test_abs_gradient(self):
        x = randn((1, 1, 4, 5), seed=34)
        check_grads(lambda: T.sum_all(T.absolute(x)), {"x": x}, tol=1e-3, step=1e-5)

    def test_scale_gradient(self):
        x = randn((1, 2, 3, 3), seed=35)
        check_grads(lambda: T.sum_all(T.mul(T.affine(x, 2.5, -0.75), x)), {"x": x}, tol=1e-3)


class TestPoolAndDense:
    """Global average pooling and the dense layer it feeds in squeeze-excite,
    which is a 1x1 conv on the pooled (n, c, 1, 1) tensor."""

    def test_pool_of_constant(self):
        assert T.global_avg_pool(T.Tensor(np.full((2, 3, 5, 5), 7.0, np.float32))).data.ravel().tolist() == [7.0] * 6

    def test_gradients(self):
        x = randn((3, 4, 2, 3), seed=37)
        w = randn((2, 4, 1, 1), seed=38)
        b = randn((1, 2, 1, 1), seed=39)

        def dense_of_pool():
            return T.conv2d(T.global_avg_pool(x), w, b)

        check_grads(
            lambda: T.sum_all(T.mul(dense_of_pool(), dense_of_pool())),
            {"x": x, "w": w, "b": b},
            tol=1e-3,
        )
        y = randn((2, 3, 4, 5), seed=40)
        check_grads(lambda: T.sum_all(T.mul(T.global_avg_pool(y), T.global_avg_pool(y))), {"y": y}, tol=1e-3)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["sum_all", "mean_all", "global_avg_pool"])
    def test_reduction_gradient_is_read_only_broadcast(self, op, dtype):
        """Each input gets a view of the output gradient, not a filled copy."""
        x = T.Tensor(np.random.default_rng(41).standard_normal((2, 3, 4, 5)), requires_grad=True, dtype=dtype)
        out = getattr(T, op)(x)
        g = np.random.default_rng(42).standard_normal(out.shape).astype(dtype)
        out._rec.node[2](g)
        want = np.broadcast_to(g / (1 if op == "sum_all" else x.data.size // g.size), x.shape)
        assert x.grad.dtype == dtype and not x.grad.flags.writeable
        np.testing.assert_array_equal(x.grad, want.astype(dtype))


class TestBackwardSemantics:
    def test_sum_grad_is_ones(self):
        x = randn((2, 3, 4, 4), seed=41)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_half_square_grad_is_x(self):
        x = randn((1, 2, 3, 3), seed=42)
        T.backward(T.affine(T.sum_all(T.mul(x, x)), 0.5, 0.0))
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = randn((1, 1, 2, 2), seed=43)
        with pytest.raises(ValueError):
            T.backward(T.mul(x, x))

    def test_double_backward_rejected(self):
        x = randn((1, 1, 2, 2), seed=44)
        loss = T.sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError):
            T.backward(loss)

    def test_grad_accumulates_across_backwards(self):
        x = randn((1, 1, 2, 2), seed=45)
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, 2 * np.ones_like(x.data))

    def test_no_grad_suppresses_recording(self):
        x = randn((1, 1, 2, 2), seed=46)
        with T.no_grad():
            y = T.sum_all(T.mul(x, x))
        assert not y.requires_grad
        assert y._rec.node is None

    def test_backward_through_consumed_subgraph_rejected(self):
        x = randn((1, 1, 2, 2), seed=49)
        y = T.mul(x, x)
        la, lb = T.sum_all(y), T.mean_all(y)
        T.backward(la)
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(lb)

    @pytest.mark.parametrize("a_first", [True, False])
    def test_independent_graphs_backward_in_either_order(self, a_first):
        xa, xb = randn((1, 2, 3, 3), seed=50), randn((1, 2, 3, 3), seed=51)
        la = T.sum_all(T.mul(xa, xa))
        lb = T.sum_all(T.affine(xb, 3.0, 0.0))
        for loss in (la, lb) if a_first else (lb, la):
            T.backward(loss)
        np.testing.assert_allclose(xa.grad, 2 * xa.data, rtol=1e-12)
        np.testing.assert_array_equal(xb.grad, np.full(xb.shape, 3.0))

    def test_no_grad_is_per_thread(self):
        x = randn((1, 1, 2, 2), seed=52)
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(timeout=10)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert entered.wait(timeout=10)
            y = T.sum_all(T.mul(x, x))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert y.requires_grad
        T.backward(y)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_shared_subexpression_accumulates(self):
        x = randn((1, 1, 2, 2), seed=47)
        y = T.affine(x, 3.0, 0.0)
        T.backward(T.sum_all(T.add(y, y)))
        np.testing.assert_allclose(x.grad, 6 * np.ones_like(x.data))


class TestErrorsNameTheOp:
    """Each rejected call raises an error that names the op and the shapes or
    dtypes that caused it."""

    def test_backward_on_a_loss_that_takes_no_gradient(self):
        loss = T.sum_all(randn((1, 2, 3, 3), seed=53, requires_grad=False))
        want = "backward: loss Tensor(shape=(1, 1, 1, 1), dtype=float64) does not participate"
        with pytest.raises(RuntimeError, match=f"^{re.escape(want)}"):
            T.backward(loss)

    def test_backward_on_a_leaf(self):
        want = "backward: loss Tensor(shape=(1, 1, 1, 1), dtype=float64, requires_grad=True) is a leaf"
        with pytest.raises(RuntimeError, match=f"^{re.escape(want)}"):
            T.backward(randn((1, 1, 1, 1), seed=54))

    @pytest.mark.parametrize("op", ["add", "sub", "div"])
    def test_same_shape_op_dtype_mismatch(self, op):
        a, b = T.Tensor(np.ones((1, 2, 3, 3), np.float32)), T.Tensor(np.ones((1, 2, 3, 3)))
        with pytest.raises(ValueError, match=rf"^{op}: dtype mismatch float32 vs float64$"):
            getattr(T, op)(a, b)

    def test_mul_dtype_mismatch(self):
        a, b = T.Tensor(np.ones((1, 2, 3, 3))), T.Tensor(np.ones((1, 2, 1, 1), np.float32))
        with pytest.raises(ValueError, match=r"^mul: dtype mismatch float64 vs float32$"):
            T.mul(a, b)

    def test_mul_batch_mismatch(self):
        a, b = T.Tensor(np.ones((1, 3, 1, 1))), T.Tensor(np.ones((2, 3, 4, 5)))
        want = "mul: shapes (1, 3, 1, 1) and (2, 3, 4, 5) hold different batches; both must hold one batch"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.mul(a, b)

    def test_mul_shapes_that_do_not_broadcast(self):
        a, b = T.Tensor(np.ones((1, 2, 3, 3))), T.Tensor(np.ones((1, 3, 3, 3)))
        with pytest.raises(ValueError, match=re.escape("mul: shapes (1, 2, 3, 3) and (1, 3, 3, 3) do not broadcast")):
            T.mul(a, b)

    @pytest.mark.parametrize("stride, padding", [(0, 1), (1, -1)])
    def test_conv2d_stride_and_padding(self, stride, padding):
        x, w, b = randn((1, 2, 5, 5)), randn((3, 2, 3, 3)), randn((1, 3, 1, 1))
        want = f"conv2d: stride must be >= 1 and padding >= 0, got {stride} and {padding}"
        want += " (input (1, 2, 5, 5), weight (3, 2, 3, 3))"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.conv2d(x, w, b, stride, padding)

    def test_conv2d_non_integer_stride(self):
        x, w, b = randn((1, 2, 5, 5)), randn((3, 2, 3, 3)), randn((1, 3, 1, 1))
        want = "conv2d: stride and padding must be integers, got 1.5 and 1 (input (1, 2, 5, 5), weight (3, 2, 3, 3))"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.conv2d(x, w, b, stride=1.5, padding=1)

    @pytest.mark.parametrize("rows, cols", [(5, 4), (4, 6)])
    def test_spatial_map_with_maps_that_do_not_fit(self, rows, cols):
        x = randn((1, 1, 4, 5))
        want = f"spatial_map: maps (2, {rows})/(3, {cols}) do not fit input (1, 1, 4, 5)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.spatial_map(x, np.ones((2, rows)), np.ones((3, cols)))

    @pytest.mark.parametrize(
        "rows, cols",
        [((4,), (3, 5)), ((2, 4), (5,)), ((2, 4, 1), (3, 5)), ((2, 4), (3, 5, 1))],
        ids=["1d-rows", "1d-cols", "3d-rows", "3d-cols"],
    )
    def test_spatial_map_with_maps_that_are_not_2d(self, rows, cols):
        x = randn((1, 1, 4, 5))
        want = f"spatial_map: maps {rows}/{cols} do not fit input (1, 1, 4, 5)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            T.spatial_map(x, np.ones(rows), np.ones(cols))

    def test_repr_names_shape_dtype_and_grad_flag(self):
        assert repr(T.Tensor(np.zeros((1, 2, 3, 4), np.float32))) == "Tensor(shape=(1, 2, 3, 4), dtype=float32)"
        assert repr(randn((2, 1, 1, 1))) == "Tensor(shape=(2, 1, 1, 1), dtype=float64, requires_grad=True)"


def _signed(rng, shape=(2, 3, 4, 5)):
    return T.Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True, dtype=np.float64)


def _positive(rng, shape=(2, 3, 4, 5)):
    return T.Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True, dtype=np.float64)


def _rule_case_bn(rng):
    return T.batch_norm_relu(
        _signed(rng), _signed(rng, (1, 3, 1, 1)), _signed(rng, (1, 3, 1, 1)), T.RunningStats.for_channels(3, np.float64)
    )


# one recorded output per op with a backward rule; every input requires grad
_RULE_CASES = {
    "add": lambda r: T.add(_signed(r), _signed(r)),
    "sub": lambda r: T.sub(_signed(r), _signed(r)),
    "mul": lambda r: T.mul(_signed(r), _signed(r)),
    "mul-broadcast": lambda r: T.mul(_signed(r), _signed(r, (2, 3, 1, 1))),
    "div": lambda r: T.div(_signed(r), _positive(r)),
    "affine": lambda r: T.affine(_signed(r), -1.5, 0.0),
    "affine-shift": lambda r: T.affine(_signed(r), 1.0, 2.0),
    "absolute": lambda r: T.absolute(_signed(r)),
    "relu": lambda r: T.relu(_signed(r)),
    "sigmoid": lambda r: T.sigmoid(_signed(r)),
    "sum_all": lambda r: T.sum_all(_signed(r)),
    "mean_all": lambda r: T.mean_all(_signed(r)),
    "concat_channels": lambda r: T.concat_channels(_signed(r), _signed(r, (2, 1, 4, 5))),
    "conv2d-3x3": lambda r: T.conv2d(_signed(r), _signed(r, (2, 3, 3, 3)), _signed(r, (1, 2, 1, 1)), 1, 1),
    "conv2d-1x1": lambda r: T.conv2d(_signed(r), _signed(r, (2, 3, 1, 1)), _signed(r, (1, 2, 1, 1))),
    "batch_norm_relu": _rule_case_bn,
    # the conv's rule holds the batch norm's rebuild in place of its output
    "conv2d-after-batch_norm_relu": lambda r: T.conv2d(
        _rule_case_bn(r), _signed(r, (2, 3, 3, 3)), _signed(r, (1, 2, 1, 1)), 1, 1
    ),
    "spatial_map": lambda r: T.bilinear_resize(_signed(r), 7, 3),
    "global_avg_pool": lambda r: T.global_avg_pool(_signed(r)),
}


# names in ``T.__all__`` that record no backward rule of their own
_NOT_RULES = {"Tensor", "RunningStats", "no_grad", "backward", "bilinear_resize"}


class TestGradientOwnership:
    """Rules and ``_accum`` share gradient arrays instead of copying them, so
    none of them may write into ``g`` or into a stored ``.grad``."""

    @pytest.mark.parametrize("op", list(_RULE_CASES))
    def test_rule_leaves_g_unchanged(self, op):
        rng = np.random.default_rng(60)
        out = _RULE_CASES[op](rng)
        g = rng.standard_normal(out.shape)
        want = g.copy()
        g.flags.writeable = False
        back = out._rec.node[2]
        back(g)
        back(g)  # as a second consumer would: adds onto the gradients the first call stored
        np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("op", list(_RULE_CASES))
    def test_rule_captures_no_tensor(self, op):
        """A node links the grad records of its inputs, and its rule keeps arrays
        it reads; nothing reachable from the node is a ``Tensor``."""
        out = _RULE_CASES[op](np.random.default_rng(63))
        held = [obj for obj in graph_objects(out) if isinstance(obj, T.Tensor)]
        assert not held, f"{op}: the graph holds {held}"

    def test_every_differentiable_op_has_a_rule_case(self):
        """A rule case is keyed ``op`` or ``op-variant``; a new op needs one."""
        assert _NOT_RULES <= set(T.__all__)
        assert {case.partition("-")[0] for case in _RULE_CASES} == set(T.__all__) - _NOT_RULES

    def test_later_backward_leaves_shared_gradient_alone(self):
        """add hands the same array to both leaves; a later backward that
        reaches only one of them must not change the other's gradient."""
        a, b = randn((1, 2, 3, 3), seed=61), randn((1, 2, 3, 3), seed=62)
        T.backward(T.sum_all(T.add(a, b)))
        T.backward(T.sum_all(a))
        np.testing.assert_array_equal(a.grad, np.full(a.shape, 2.0))
        np.testing.assert_array_equal(b.grad, np.ones(b.shape))


@pytest.fixture
def two_cores(monkeypatch):
    """``parallel_map`` sees 2 cores, so a pool thread runs even on a 1-core machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS at 2 threads, so that a pin to 1 and its undoing both show;
    yields the function that reads the count."""
    get, set_ = T._openblas()
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


@pytest.mark.threads
class TestParallelMap:
    """``parallel_map`` against a plain loop. Where a test needs both workers to
    take an item, a barrier holds the first until the second arrives."""

    def test_items_come_back_in_item_order(self, two_cores):
        assert T.parallel_map(lambda i: i * i, range(50)) == [i * i for i in range(50)]
        assert T.parallel_map(lambda i: i, []) == []

    def test_bundled_openblas_found(self):
        """The numpy wheel CI installs bundles OpenBLAS with the symbols the pin uses."""
        blas = T._openblas()
        assert blas is not None and blas[0]() >= 1

    def test_calls_run_on_two_threads_in_the_callers_context(self, two_cores):
        barrier = threading.Barrier(2, timeout=10)
        x = randn((1, 1, 2, 2), seed=53)

        def fn(i):
            barrier.wait()
            return threading.get_ident(), T.mul(x, x).requires_grad

        with T.no_grad():
            got = T.parallel_map(fn, range(2))
        idents = {ident for ident, _ in got}
        assert len(idents) == 2 and threading.get_ident() in idents  # the caller takes one share
        assert [records for _, records in got] == [False, False]  # no_grad holds on the pool thread too

    def test_nested_call_runs_inline(self, two_cores):
        barrier = threading.Barrier(2, timeout=10)

        def outer(i):
            barrier.wait()
            return threading.get_ident(), T.parallel_map(lambda j: threading.get_ident(), range(4))

        got = T.parallel_map(outer, range(2))
        assert len({ident for ident, _ in got}) == 2
        for ident, inner in got:
            assert inner == [ident] * 4

    def test_raises_after_every_started_call_finished(self, two_cores):
        barrier = threading.Barrier(2, timeout=10)
        finished = []

        def fn(i):
            barrier.wait()
            if i == 0:
                raise KeyError(i)
            time.sleep(0.2)
            finished.append(i)

        with pytest.raises(KeyError):
            T.parallel_map(fn, range(2))
        assert finished == [1]

    def test_first_failing_item_in_item_order_is_raised(self, two_cores):
        barrier = threading.Barrier(2, timeout=10)

        def fn(i):
            barrier.wait()
            if i == 0:
                time.sleep(0.2)  # item 1 fails first
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            T.parallel_map(fn, range(2))

    def test_no_item_starts_after_a_failure(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        started = []

        def fn(i):
            started.append(i)
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            T.parallel_map(fn, range(3))
        assert started == [0]

    def test_queued_items_never_start_once_the_caller_meets_a_failure(self, two_cores):
        """Item 0 fails on the calling thread while the pool works from the back."""
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.02)

        with pytest.raises(ValueError, match="item 0"):
            T.parallel_map(fn, range(6))
        at_raise = list(started)
        time.sleep(0.2)  # longer than the pool thread would take over the items left
        assert started == at_raise

    def test_blas_pinned_to_one_thread_and_restored_on_error(self, two_cores, blas_at_two_threads):
        barrier = threading.Barrier(2, timeout=10)
        seen = []

        def fn(i):
            barrier.wait()
            seen.append(blas_at_two_threads())
            raise RuntimeError(f"item {i}")

        with pytest.raises(RuntimeError, match="item 0"):
            T.parallel_map(fn, range(2))
        assert seen == [1, 1]
        assert blas_at_two_threads() == 2

    def test_overlapping_maps_share_one_pin(self, two_cores, blas_at_two_threads):
        """Two unrelated threads map at once: map A pins first and ends first, and
        BLAS stays at 1 thread until map B ends too."""
        a_running, b_running, a_ended = threading.Event(), threading.Event(), threading.Event()

        def fa(i):
            a_running.set()
            return b_running.wait(10), blas_at_two_threads()

        def fb(i):
            b_running.set()
            return a_ended.wait(10), blas_at_two_threads()

        def map_a():
            try:
                return T.parallel_map(fa, range(2)), blas_at_two_threads()
            finally:
                a_ended.set()

        with ThreadPoolExecutor(2) as callers:
            a = callers.submit(map_a)
            assert a_running.wait(10)
            b = callers.submit(T.parallel_map, fb, range(2))
            a_seen, after_a = a.result(timeout=30)
            b_seen = b.result(timeout=30)
        assert a_seen == b_seen == [(True, 1), (True, 1)]
        assert after_a == 1  # map B still runs
        assert blas_at_two_threads() == 2

    @pytest.mark.parametrize("slow", [0, 1, 3])
    def test_slow_item_does_not_hold_back_the_rest(self, two_cores, slow):
        """4 items on 2 workers, where item ``slow`` waits until every other item
        has run: the other worker must take all of them, which no split of the
        items into two fixed pairs allows."""
        ran = [threading.Event() for _ in range(4)]

        def fn(i):
            if i == slow:
                return all(ran[j].wait(10) for j in range(4) if j != slow)
            time.sleep(0.02)  # work, during which the other worker takes the next item
            ran[i].set()
            return i

        assert T.parallel_map(fn, range(4)) == [True if i == slow else i for i in range(4)]

    def test_caller_runs_item_0_which_never_reaches_the_pool(self, two_cores, monkeypatch):
        queued, pool = [], T._pool

        class Recorder:
            def __init__(self, threads):
                self.pool = pool(threads)

            def submit(self, fn, calls, i):
                queued.append(i)
                return self.pool.submit(fn, calls, i)

        monkeypatch.setattr(T, "_pool", Recorder)
        got = T.parallel_map(lambda i: threading.get_ident(), range(4))
        assert got[0] == threading.get_ident()
        assert sorted(queued) == [1, 2, 3]

    def test_without_blas_symbols_runs_on_the_calling_thread(self, two_cores, blas_at_two_threads, monkeypatch):
        monkeypatch.setattr(T, "_openblas", lambda: None)
        got = T.parallel_map(lambda i: (threading.get_ident(), blas_at_two_threads()), range(4))
        assert got == [(threading.get_ident(), 2)] * 4

    def test_each_item_runs_once_under_contention(self, monkeypatch):
        """More workers than cores, switching threads as often as the interpreter can."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = T.parallel_map(lambda i: calls.append(i) or -i, range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_items_released_when_the_map_returns(self, two_cores):
        """The pool thread is busy, so the calling thread cancels every queued item
        and runs it itself; the cancelled work items stay on the pool's queue, and
        must not keep the function or the items alive."""

        class Item:
            pass

        busy, release = threading.Event(), threading.Event()
        blocker = T._pool(2).submit(lambda: busy.set() or release.wait(10))
        try:
            assert busy.wait(10)
            items = [Item() for _ in range(3)]
            held = Item()  # reachable only through the function
            refs = [weakref.ref(obj) for obj in (*items, held)]
            assert T.parallel_map(lambda item, held=held: item is not held, items) == [True] * 3
            del items, held
            assert [ref() for ref in refs] == [None] * 4
        finally:
            release.set()
            blocker.result(timeout=10)


def _conv_case(ci, kernel, stride, co=6):
    def run(n, dtype, rng):
        x = T.Tensor(rng.standard_normal((n, ci, 11, 9)), requires_grad=True, dtype=dtype)
        w = T.Tensor(rng.standard_normal((co, ci, kernel, kernel)), requires_grad=True, dtype=dtype)
        b = T.Tensor(rng.standard_normal((1, co, 1, 1)), requires_grad=True, dtype=dtype)
        return T.conv2d(x, w, b, stride, kernel // 2), [x, w, b]

    return run


def _bn_case(c):
    def run(n, dtype, rng):
        x = T.Tensor(rng.standard_normal((n, c, 7, 5)), requires_grad=True, dtype=dtype)
        g = T.Tensor(rng.standard_normal((1, c, 1, 1)), requires_grad=True, dtype=dtype)
        b = T.Tensor(rng.standard_normal((1, c, 1, 1)), requires_grad=True, dtype=dtype)
        return T.batch_norm_relu(x, g, b, T.RunningStats.for_channels(c, dtype)), [x, g, b]

    return run


def _resize_case(c, h, w, out_h, out_w):
    def run(n, dtype, rng):
        x = T.Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True, dtype=dtype)
        return T.bilinear_resize(x, out_h, out_w), [x]

    return run


def _mul_case(c, gate_grad, gate_first=False):
    """``x * gate`` with an SE-shaped gate, or ``gate * x``."""

    def run(n, dtype, rng):
        x = T.Tensor(rng.standard_normal((n, c, 6, 5)), requires_grad=True, dtype=dtype)
        gate = T.Tensor(rng.standard_normal((n, c, 1, 1)), requires_grad=gate_grad, dtype=dtype)
        out = T.mul(gate, x) if gate_first else T.mul(x, gate)
        return out, [x, gate] if gate_grad else [x]

    return run


def _channel_broadcast_case(n, dtype, rng):
    """``m * x`` with a one-channel ``m``: its gradient sums over the channel axis."""
    m = T.Tensor(rng.standard_normal((n, 1, 6, 5)), requires_grad=True, dtype=dtype)
    x = T.Tensor(rng.standard_normal((n, 4, 6, 5)), requires_grad=True, dtype=dtype)
    return T.mul(m, x), [m, x]


def _product_case(n, dtype, rng):
    """``x * y`` of one shape, as the loss's product: both gradients take the
    same-shape branch of ``mul``'s rule."""
    x, y = (T.Tensor(rng.standard_normal((n, 4, 6, 5)), requires_grad=True, dtype=dtype) for _ in range(2))
    return T.mul(x, y), [x, y]


def _add_case(n, dtype, rng):
    """``(x + x) * mean(x)``: ``x`` takes a broadcast gradient from the pool, then
    two full ones from ``add``, each added to the first by ``_accum``."""
    x = T.Tensor(rng.standard_normal((n, 5, 7, 6)), requires_grad=True, dtype=dtype)
    return T.mul(T.add(x, x), T.global_avg_pool(x)), [x]


def _concat_case(n, dtype, rng):
    a, b = (T.Tensor(rng.standard_normal((n, c, 6, 5)), requires_grad=True, dtype=dtype) for c in (3, 4))
    return T.concat_channels(a, b), [a, b]


def _pool_case(n, dtype, rng):
    x = T.Tensor(rng.standard_normal((n, 5, 7, 6)), requires_grad=True, dtype=dtype)
    return T.global_avg_pool(x), [x]


def _conv_of_case(gated, kernel):
    """A conv reading a batch norm output, or the product of one with an SE-shaped
    gate: the conv's weight gradient reads the producer's rebuild sample by sample."""

    def run(n, dtype, rng):
        out, leaves = _bn_case(6)(n, dtype, rng)
        if gated:
            gate = T.Tensor(rng.standard_normal((n, 6, 1, 1)), requires_grad=True, dtype=dtype)
            out, leaves = T.mul(out, gate), leaves + [gate]
        w = T.Tensor(rng.standard_normal((5, 6, kernel, kernel)), requires_grad=True, dtype=dtype)
        b = T.Tensor(rng.standard_normal((1, 5, 1, 1)), requires_grad=True, dtype=dtype)
        return T.conv2d(out, w, b, 1, kernel // 2), leaves + [w, b]

    return run


def _squeeze_and_excite_case(n, dtype, rng):
    """The gate of a decoder stage: a pooled (n, 64, 1, 1) through a 1x1 conv to
    16 channels, ``relu``, a 1x1 conv back to 64 and ``sigmoid``."""
    pooled, w1, b1, w2, b2 = (
        T.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
        for shape in ((n, 64, 1, 1), (16, 64, 1, 1), (1, 16, 1, 1), (64, 16, 1, 1), (1, 64, 1, 1))
    )
    hidden = T.relu(T.conv2d(pooled, w1, b1, 1, 0))
    return T.sigmoid(T.conv2d(hidden, w2, b2, 1, 0)), [pooled, w1, b1, w2, b2]


_SPLIT_CASES = {
    "conv-3x3": _conv_case(16, 3, 1),
    "conv-3x3-stride-2": _conv_case(16, 3, 2),
    "conv-1x1-direct": _conv_case(16, 1, 1),
    "conv-3x3-stacked": _conv_case(3, 3, 1),
    "conv-3x3-one-channel": _conv_case(16, 3, 1, co=1),
    "spatial_map-up": _resize_case(16, 16, 24, 32, 48),  # the batch's (n * 512, 48) GEMM crosses sizes where BLAS kernels change
    "spatial_map-down": _resize_case(3, 20, 30, 9, 13),
    "batch_norm_relu-c1": _bn_case(1),
    "batch_norm_relu-c5": _bn_case(5),
    "mul-gate": _mul_case(4, True),
    "mul-gate-constant": _mul_case(4, False),
    "mul-gate-first": _mul_case(4, True, gate_first=True),
    "mul-channel-broadcast": _channel_broadcast_case,
    "mul-same-shape": _product_case,
    "concat_channels": _concat_case,
    "global_avg_pool": _pool_case,
    "add-accum-broadcast": _add_case,
    "conv-of-batch-norm": _conv_of_case(False, 3),
    "conv-of-gated-batch-norm": _conv_of_case(True, 1),
    "squeeze-and-excite": _squeeze_and_excite_case,
}
_UNSPLIT_CASES = {"batch_norm_relu-c1"}  # one block of channels


def _pool_calls(monkeypatch):
    """The thread counts ``_pool`` is asked for from now on."""
    maps, pool = [], T._pool
    monkeypatch.setattr(T, "_pool", lambda threads: maps.append(threads) or pool(threads))
    return maps


def _leaf(rng, shape, dtype=np.float32):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)


@pytest.mark.threads
class TestSplitOps:
    """While gradients record, an op of more than one sample splits its batch
    over ``parallel_map``, however small its arrays. The split must give bitwise
    the numbers of the serial run, which an op takes inside a ``parallel_map``
    call, with BLAS at one thread in both."""

    @staticmethod
    def _run(case, n, dtype):
        out, leaves = case(n, dtype, np.random.default_rng(90))
        scale = np.random.default_rng(91).uniform(0.5, 2.0, out.shape).astype(dtype)
        T.backward(T.sum_all(T.div(out, T.Tensor(scale))))  # div does not split, so only the op reaches the pool
        return [out.data] + [t.grad for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("op", list(_SPLIT_CASES))
    def test_split_is_bitwise_the_serial_run(self, two_cores, monkeypatch, op, n, dtype):
        case = _SPLIT_CASES[op]
        blas = T._openblas()
        with T._one_blas_thread(*blas) if blas else contextlib.nullcontext():
            serial = T.parallel_map(lambda _: self._run(case, n, dtype), [None])[0]
            maps = _pool_calls(monkeypatch)
            split = self._run(case, n, dtype)
        # the forward and the backward split, or neither; one channel is one block of channels
        assert bool(maps) == (n > 1 and op not in _UNSPLIT_CASES and blas is not None)
        for k, (a, b) in enumerate(zip(split, serial)):
            assert a.dtype == b.dtype and np.array_equal(a, b), f"array {k} of {op}, n={n}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "co, only_bias", [(1, False), (6, False), (1, True), (6, True)], ids=["1", "6", "1-only-bias", "6-only-bias"]
    )
    def test_split_conv_bias_gradient_is_the_whole_batch_sum(
        self, two_cores, monkeypatch, co, dtype, only_bias
    ):
        """A split conv's bias gradient is bitwise numpy's sum of the output
        gradient over (n, h, w), for one output channel or several, also when
        only the bias takes a gradient and the blocks return no weight product."""
        rng = np.random.default_rng(111)
        maps = _pool_calls(monkeypatch)
        x, w, b = _leaf(rng, (3, 8, 11, 9), dtype), _leaf(rng, (co, 8, 3, 3), dtype), _leaf(rng, (1, co, 1, 1), dtype)
        if only_bias:
            x.requires_grad = w.requires_grad = False
        out = T.conv2d(x, w, b, 1, 1)
        g = rng.standard_normal(out.shape).astype(dtype)
        T.backward(T.sum_all(T.mul(out, T.Tensor(g))))  # the conv's output gradient is g itself
        assert maps or T._openblas() is None
        assert b.grad.dtype == dtype and np.array_equal(b.grad, g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))
        assert (x.grad is None and w.grad is None) == only_bias

    def test_multi_band_conv_backward_is_bitwise_the_same_on_1_2_and_4_cores(self, monkeypatch):
        """A (4, 32, 96, 128) -> 32 3x3 conv's backward walks each sample in several
        bands at the default ``BAND`` (the ``guidedepth-tiny`` step of the core-count
        test in ``test_blocks.py`` fits in one), and its ``dx`` and ``dW`` are bitwise
        the same however many blocks its samples are cut into."""
        assert 96 * 128 > 2 * T.BAND
        rng = np.random.default_rng(116)
        x0 = rng.standard_normal((4, 32, 96, 128)).astype(np.float32)
        w0 = (0.1 * rng.standard_normal((32, 32, 3, 3))).astype(np.float32)
        g = rng.standard_normal((4, 32, 96, 128)).astype(np.float32)

        def grads(cores):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            x, w = T.Tensor(x0, requires_grad=True), T.Tensor(w0, requires_grad=True)
            y = T.conv2d(x, w, T.Tensor(np.zeros((1, 32, 1, 1), np.float32)), 1, 1)
            T.backward(T.sum_all(T.mul(y, T.Tensor(g))))
            return x.grad, w.grad

        blas = T._openblas()
        with T._one_blas_thread(*blas) if blas else contextlib.nullcontext():
            (dx, dw), *others = [grads(cores) for cores in (1, 2, 4)]
        for cores, (dx_c, dw_c) in zip((2, 4), others):
            assert np.array_equal(dx_c, dx), f"dx on {cores} cores"
            assert np.array_equal(dw_c, dw), f"dW on {cores} cores"

    def test_split_over_eight_workers_under_contention(self, monkeypatch):
        """More blocks than cores, with the interpreter switching threads as often
        as it can: a conv, a batch norm and a resize in a chain still give
        bitwise the serial numbers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

        def chain(_=None):
            rng = np.random.default_rng(93)
            x, w, b, gamma, beta = (
                T.Tensor(rng.standard_normal(shape), requires_grad=True)
                for shape in ((9, 8, 12, 10), (8, 8, 3, 3), (1, 8, 1, 1), (1, 8, 1, 1), (1, 8, 1, 1))
            )
            z = T.batch_norm_relu(T.conv2d(x, w, b, 1, 1), gamma, beta, T.RunningStats.for_channels(8, np.float64))
            y = T.bilinear_resize(z, 24, 20)
            T.backward(T.sum_all(T.mul(y, y)))
            return [y.data] + [t.grad for t in (x, w, b, gamma, beta)]

        blas = T._openblas()
        with T._one_blas_thread(*blas) if blas else contextlib.nullcontext():
            serial = T.parallel_map(chain, [None])[0]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                split = chain()
            finally:
                sys.setswitchinterval(interval)
        for k, (a, b) in enumerate(zip(split, serial)):
            assert np.array_equal(a, b), f"array {k}"

    @pytest.mark.parametrize("op", list(_SPLIT_CASES))
    def test_batch_of_one_and_no_grad_never_reach_the_pool(self, two_cores, monkeypatch, op):
        def refuse(*args):
            raise AssertionError("submitted to the pool")

        monkeypatch.setattr(T, "_pool", refuse)
        self._run(_SPLIT_CASES[op], 1, np.float64)
        with T.no_grad():
            out, _ = _SPLIT_CASES[op](4, np.float32, np.random.default_rng(92))
        assert not out.requires_grad

    def test_split_ops_never_call_the_module_parallel_map(self, two_cores, monkeypatch):
        """A tracer rebinds ``tensor.parallel_map`` as it does every public
        function; a split op reaches the pool through the map ``_each`` bound at
        import, so the tracer records the op once and not each of its blocks."""
        rebound = []
        monkeypatch.setattr(T, "parallel_map", lambda fn, items: rebound.append(fn))
        maps = _pool_calls(monkeypatch)
        for op, case in _SPLIT_CASES.items():
            self._run(case, 3, np.float32)
            assert rebound == [], op
        assert maps or T._openblas() is None

    @staticmethod
    def _cuts(monkeypatch, cores):
        """With ``cores`` cores and each op's blocks run in order on this thread (so
        no thread starts), the list of what each ``_blocks`` call returns from now on."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(T, "_each", lambda fn, blocks: [fn(blk) for blk in blocks])
        cuts, blocks = [], T._blocks
        monkeypatch.setattr(T, "_blocks", lambda *args, **kw: cuts.append(blocks(*args, **kw)) or cuts[-1])
        return cuts

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8])
    def test_blocks_are_one_per_core_within_each_ops_cap(self, monkeypatch, cores):
        """Batch norm cuts its c channels into min(c // 2, cores) contiguous blocks
        covering them all, at least 2 channels each unless there is one block; a
        conv cuts its samples into at most ``CONV_WORKERS`` blocks."""
        cuts = self._cuts(monkeypatch, cores)
        rng = np.random.default_rng(112)
        for c in range(1, 10):
            _bn_case(c)(4, np.float32, rng)
            [blocks] = cuts
            cuts.clear()
            assert [blk.start for blk in blocks[1:]] == [blk.stop for blk in blocks[:-1]], f"c={c}"
            assert (blocks[0].start, blocks[-1].stop) == (0, c) and all(blk.step is None for blk in blocks)
            assert len(blocks) == max(1, min(c // 2, cores)), f"c={c}"
            assert len(blocks) == 1 or min(blk.stop - blk.start for blk in blocks) >= 2, f"c={c}"
        out, _ = _conv_case(16, 3, 1)(9, np.float32, rng)
        T.backward(T.sum_all(out))
        [blocks] = cuts
        assert blocks == [slice(9 * i // len(blocks), 9 * (i + 1) // len(blocks)) for i in range(len(blocks))]
        assert len(blocks) == min(cores, T.CONV_WORKERS) <= T.CONV_WORKERS

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8])
    def test_batch_of_one_no_grad_and_in_a_map_are_one_block(self, monkeypatch, cores):
        """Each of these gives every op the one block ``slice(0, size)``: the
        batch norm's 5 channels, the conv's samples."""
        cuts = self._cuts(monkeypatch, cores)
        cases = {"batch_norm_relu": (_bn_case(5), lambda n: 5), "conv2d": (_conv_case(16, 3, 1), lambda n: n)}

        def run(n):
            for op, (case, size) in cases.items():
                case(n, np.float32, np.random.default_rng(113))
                assert cuts == [[slice(0, size(n))]], f"{op}, n={n}"
                cuts.clear()

        run(1)
        with T.no_grad():
            run(4)
        T.parallel_map(lambda _: run(4), [None])


class TestFiniteness:
    def test_forward_ops_stay_finite_on_finite_inputs(self):
        rng = np.random.default_rng(48)
        x = T.Tensor(rng.standard_normal((2, 3, 6, 6)) * 10, dtype=np.float64)
        w = T.Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=np.float64)
        b = T.Tensor(np.zeros((1, 4, 1, 1)))
        outs = [
            T.conv2d(x, w, b, 1, 1),
            T.relu(x),
            T.sigmoid(x),
            T.bilinear_resize(x, 12, 3),
            T.global_avg_pool(x),
        ]
        for o in outs:
            assert np.isfinite(o.data).all()

    def test_div_reports_nonfinite(self):
        a = T.Tensor(np.full((1, 1, 1, 1), 1.0, np.float32))
        z = T.Tensor(np.zeros((1, 1, 1, 1), np.float32))
        message = "div produced non-finite values: numerator (1, 1, 1, 1), divisor (1, 1, 1, 1)"
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            T.div(a, z)


class TestGdtFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(49)
        for dtype in (np.float32, np.float64):
            arr = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
            path = tmp_path / f"t_{np.dtype(dtype).name}.gdt"
            gdt.write_array(path, arr)
            back = gdt.read_array(path)
            assert back.dtype == arr.dtype
            assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3)
        path = tmp_path / "t.gdt"
        gdt.write_array(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"GDT1"
        assert raw[4] == 0 and raw[5] == 4
        assert np.frombuffer(raw[6:22], dtype="<u4").tolist() == [1, 1, 2, 3]
        assert len(raw) == 22 + 6 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.gdt"
        gdt.write_array(path, np.zeros((1, 1, 1, 1), np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(gdt.GdtError, match=rf"{re.escape(str(path))}: bad magic b'NOPE'"):
            gdt.read_array(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.gdt"
        gdt.write_array(path, np.zeros((1, 1, 2, 2), np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(gdt.GdtError, match=rf"{re.escape(str(path))}: payload has 13 bytes, expected 16"):
            gdt.read_array(path)

    def test_shape_check(self, tmp_path):
        """A header of rank 3 is rejected, naming the file and the rank."""
        path = tmp_path / "t.gdt"
        gdt.write_array(path, np.zeros((1, 2, 3, 4), np.float32))
        raw = bytearray(path.read_bytes())
        raw[5] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(gdt.GdtError, match=rf"{re.escape(str(path))}: rank 3 != 4"):
            gdt.read_array(path)

    def test_errors_are_value_errors_naming_the_file(self, tmp_path):
        path = tmp_path / "t.gdt"
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: GDT1 stores rank-4 tensors"):
            gdt.write_array(path, np.zeros((2, 3)))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: unsupported dtype int64"):
            gdt.write_array(path, np.zeros((1, 1, 1, 1), np.int64))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: raw[:3], "file shorter than the magic"),
            (lambda raw: raw[:21], "incomplete header"),
            (lambda raw: raw[:4] + bytes([7]) + raw[5:], "unknown dtype code 7"),
            (lambda raw: raw + bytes(1), "1 trailing bytes"),
        ],
        ids=["shorter-than-magic", "cut-header", "dtype-code-7", "trailing-byte"],
    )
    def test_corrupt_file_rejected_naming_the_path(self, tmp_path, corrupt, message):
        path = tmp_path / "t.gdt"
        gdt.write_array(path, np.zeros((1, 1, 2, 2), np.float32))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(gdt.GdtError, match=rf"^{re.escape(str(path))}: {message}$"):
            gdt.read_array(path)


class TestGdtRecord:
    def test_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3), "b.c": np.ones((1, 2, 1, 1))}
        gdt.write_record(tmp_path / "r", {"x": "1,2", "y": "a = b"}, arrays)
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["a.gdt", "b.c.gdt", "meta"]
        meta, back = gdt.read_record(tmp_path / "r")
        assert meta == {"x": "1,2", "y": "a = b"}
        assert back.keys() == arrays.keys()
        assert all(back[k].dtype == v.dtype and np.array_equal(back[k], v) for k, v in arrays.items())

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        gdt.write_record(tmp_path / "r", {"x": "1"}, {})
        (tmp_path / "r" / "meta").write_text("# note\n\n  x =  1  \n")
        assert gdt.read_record(tmp_path / "r") == ({"x": "1"}, {})

    @pytest.mark.parametrize(
        "text,line,what",
        [("x = 1\ngarbage line\n", 2, "garbage line"), ("x = 1\n\nx = 2\n", 3, "'x' given twice"), ("= 1\n", 1, "= 1")],
        ids=["no-equals", "repeated-key", "no-key"],
    )
    def test_bad_meta_line_named(self, tmp_path, text, line, what):
        gdt.write_record(tmp_path / "r", {"x": "1"}, {})
        (tmp_path / "r" / "meta").write_text(text)
        with pytest.raises(gdt.GdtError, match=rf"^{re.escape(str(tmp_path / 'r' / 'meta'))}, line {line}: ") as info:
            gdt.read_record(tmp_path / "r")
        assert what in str(info.value)

    @pytest.mark.parametrize(
        "meta",
        [{"a=b": "1"}, {"x": "1\ny = 2"}, {"#x": "1"}, {"x ": "1"}, {"": "x"}],
        ids=["equals-in-key", "newline-in-value", "comment-key", "padded-key", "empty-key"],
    )
    def test_unreadable_meta_not_written(self, tmp_path, meta):
        """Meta is checked before anything is staged, so the error names the
        meta file the record would have had, and the target is left as it was."""
        gdt.write_record(tmp_path / "r", {"x": "1"}, {})
        path = tmp_path / "r" / "meta"
        what = ", line 1: expected 'key = value'" if "" in meta else ": meta .* would not read back"
        with pytest.raises(gdt.GdtError, match=rf"^{re.escape(str(path))}{what}"):
            gdt.write_record(tmp_path / "r", meta, {"a": np.zeros((1, 1, 1, 1))})
        assert gdt.read_record(tmp_path / "r") == ({"x": "1"}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    @pytest.mark.parametrize("name", [".hidden", "", "a/b"], ids=["hidden", "empty", "slash"])
    def test_unreadable_array_name_not_written(self, tmp_path, name):
        """A hidden or empty name would be skipped by ``read_record`` and one with
        a separator would land in a subdirectory: each is refused before anything
        is staged, naming the file it would have had, and the target is kept."""
        gdt.write_record(tmp_path / "r", {"x": "1"}, {})
        path = tmp_path / "r" / f"{name}.gdt"
        with pytest.raises(gdt.GdtError, match=rf"^{re.escape(str(path))}: array name "):
            gdt.write_record(tmp_path / "r", {"x": "2"}, {"ok": np.zeros((1, 1, 1, 1)), name: np.ones((1, 1, 1, 1))})
        assert gdt.read_record(tmp_path / "r") == ({"x": "1"}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    def test_record_or_hidden_entries_only_replaced(self, tmp_path):
        (tmp_path / "r" / ".hidden").mkdir(parents=True)
        gdt.write_record(tmp_path / "r", {"x": "1"}, {"a": np.zeros((1, 1, 1, 1))})
        (tmp_path / "r" / ".notes").write_text("")
        gdt.write_record(tmp_path / "r", {"x": "2"}, {})
        assert [p.name for p in (tmp_path / "r").iterdir()] == ["meta"]
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    @pytest.mark.parametrize("stray", ["notes.txt", "notes", "a.gdt"], ids=["file", "directory", "gdt-directory"])
    def test_record_with_stray_entry_not_replaced(self, tmp_path, stray):
        """Besides its meta, a record holds only .gdt files; anything else is refused and kept."""
        gdt.write_record(tmp_path / "r", {"x": "1"}, {})
        if stray == "notes.txt":
            (tmp_path / "r" / stray).write_text("keep me")
        else:
            (tmp_path / "r" / stray).mkdir()
        with pytest.raises(FileExistsError, match=re.escape(stray)):
            gdt.write_record(tmp_path / "r", {"x": "2"}, {})
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(["meta", stray])
        assert (tmp_path / "r" / "meta").read_text() == "x = 1\n"

    def test_plain_file_not_replaced(self, tmp_path):
        """A file where the record would go is refused before anything is staged, and kept."""
        (tmp_path / "r").write_bytes(b"keep me")
        want = f"{tmp_path / 'r'} is not a GDT record (not a directory); not replacing it"
        with pytest.raises(FileExistsError, match=f"^{re.escape(want)}$"):
            gdt.write_record(tmp_path / "r", {"x": "1"}, {"a": np.zeros((1, 1, 1, 1))})
        assert (tmp_path / "r").read_bytes() == b"keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    @pytest.mark.parametrize("under", ["rec", "a/rec"])
    def test_record_under_a_plain_file_names_the_record(self, tmp_path, under):
        """A parent that is a file is refused with an error naming the record
        path, not the hidden staging directory, and the file is kept."""
        (tmp_path / "f").write_bytes(b"keep me")
        record = tmp_path / "f" / under
        want = f"{record}: a parent is not a directory; not writing the record"
        with pytest.raises(NotADirectoryError, match=f"^{re.escape(want)}$"):
            gdt.write_record(record, {"x": "1"}, {"a": np.zeros((1, 1, 1, 1))})
        assert (tmp_path / "f").read_bytes() == b"keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_gdt_directory_not_read(self, tmp_path):
        """A directory named like an array is refused with an error naming it."""
        gdt.write_record(tmp_path / "r", {"x": "1"}, {"b": np.zeros((1, 1, 1, 1))})
        (tmp_path / "r" / "a.gdt").mkdir()
        with pytest.raises(gdt.GdtError, match=rf"^{re.escape(str(tmp_path / 'r' / 'a.gdt'))}: "):
            gdt.read_record(tmp_path / "r")

    def test_gdt_files_without_meta_not_replaced(self, tmp_path):
        gdt.write_array(tmp_path / "a.gdt", np.zeros((1, 1, 1, 1)))
        with pytest.raises(FileExistsError, match="no meta"):
            gdt.write_record(tmp_path, {"x": "1"}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["a.gdt"]

    def test_missing_meta(self, tmp_path):
        (tmp_path / "r").mkdir()
        with pytest.raises(FileNotFoundError, match="meta"):
            gdt.read_record(tmp_path / "r")


class TestFiniteDifferenceHarness:
    def test_fd_oracle_on_quadratic(self):
        """The FD helper itself: d/dx of sum(x*x) is 2x."""
        x = randn((1, 1, 2, 2), seed=50)
        fd = finite_diff_grad(lambda: T.sum_all(T.mul(x, x)), x, step=1e-4)
        assert rel_err(fd, 2 * x.data) < 1e-6

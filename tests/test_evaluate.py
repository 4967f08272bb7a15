"""Evaluation protocol: metric oracles, crop arithmetic, inverse depth norm,
and the full resize/predict/upsample/flip/crop pipeline."""

import math
import os
import re
import threading

import numpy as np
import pytest

from guidedepth import blocks as B
from guidedepth import data as D
from guidedepth import evaluate as E
from guidedepth import tensor as T
from guidedepth.tensor import Tensor
from helpers import evaluate_reference, mean_predictor, metrics_reference


def as_depth(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return arr.reshape(1, 1, *arr.shape[-2:])


class TestInverseDepthTransform:
    def test_far_plane_maps_to_one(self):
        assert E.depth_to_normalized(np.array([[[[10.0]]]]), d_max=10.0)[0, 0, 0, 0] == 1.0

    def test_near_value(self):
        assert E.depth_to_normalized(np.array([[[[1.0]]]]), d_max=10.0)[0, 0, 0, 0] == 10.0

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 10.0, (1, 1, 32, 32)).astype(np.float32)
        back = E.normalized_to_depth(E.depth_to_normalized(depth, 10.0), 10.0)
        assert np.abs(back - depth).max() < 1e-5

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            E.depth_to_normalized(np.array([[[[0.0]]]]), 10.0)
        with pytest.raises(ValueError):
            E.depth_to_normalized(np.array([[[[-1.0]]]]), 10.0)

    def test_nan_depth_rejected(self):
        """A NaN ground-truth pixel would become a NaN training target."""
        with pytest.raises(ValueError, match="NaN"):
            E.depth_to_normalized(np.array([[[[np.nan, 2.0]]]]), 10.0)

    def test_prediction_conversion_clamps_instead(self):
        """Untrained networks can emit anything; conversion caps the depth to
        [DEPTH_FLOOR, d_max] instead of rejecting it."""
        out = E.normalized_to_depth(np.array([[[[-3.0, 0.5, 1.0, 4.0, 1e6]]]]), 10.0)
        assert out.tolist() == [[[[10.0, 10.0, 10.0, 2.5, E.DEPTH_FLOOR]]]]


class TestComputeMetrics:
    def test_perfect_prediction(self):
        y = as_depth(np.random.default_rng(1).uniform(1, 9, (6, 7)))
        m = E.compute_metrics(y, y)
        assert m.rmse == 0 and m.rel == 0 and m.log10 == 0
        assert m.d1 == m.d2 == m.d3 == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=re.escape("compute_metrics: shape mismatch (6, 7) vs (6, 8)")):
            E.compute_metrics(np.ones((6, 7)), np.ones((6, 8)))

    @pytest.mark.parametrize("shape", [(2, 1, 4, 5), (1, 2, 4, 5), (5,)])
    def test_more_than_one_map_rejected_naming_shape(self, shape):
        """An (h, w) map may carry leading dims of 1, as a (1, 1, h, w) prediction
        does; anything else is not one map."""
        with pytest.raises(ValueError, match=f"^compute_metrics: .*{re.escape(str(shape))}$"):
            E.compute_metrics(np.ones(shape), np.ones(shape))
        assert E.compute_metrics(np.ones((1, 1, 4, 5)), np.ones((4, 5))).rmse == 0.0

    def test_average_of_no_records_rejected(self):
        with pytest.raises(ValueError, match="^cannot average zero metric records$"):
            E.MetricValues.average([])

    def test_hand_computed_doubling(self):
        """y=[1,2], yhat=[2,4]: rel 1.0 and every ratio is 2 > 1.25^3 = 1.953125."""
        m = E.compute_metrics(as_depth([[1.0, 2.0]]), as_depth([[2.0, 4.0]]))
        assert m.rel == 1.0
        assert 1.25**3 == 1.953125
        assert m.d1 == 0.0 and m.d2 == 0.0 and m.d3 == 0.0
        assert m.rmse == pytest.approx(np.sqrt((1 + 4) / 2))
        assert m.log10 == pytest.approx(np.log10(2.0))

    def test_strict_inequality_at_exact_boundary(self):
        """Ratio exactly 1.25 fails delta_1 (strict <) but passes delta_2."""
        m = E.compute_metrics(as_depth([[4.0]]), as_depth([[5.0]]))
        assert m.d1 == 0.0
        assert m.d2 == 1.0 and m.d3 == 1.0

    def test_mask_selects_pixels(self):
        y = as_depth([[1.0, 1.0], [1.0, 1.0]])
        p = as_depth([[1.0, 5.0], [1.0, 1.0]])
        mask = np.array([[True, False], [True, True]])
        m = E.compute_metrics(y, p, mask)
        assert m.rmse == 0.0

    def test_empty_mask_rejected(self):
        y = as_depth([[1.0]])
        with pytest.raises(ValueError, match="empty valid mask"):
            E.compute_metrics(y, y, np.array([[False]]))

    def test_mask_shape_mismatch_names_both_shapes(self):
        y = as_depth([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=re.escape("mask shape (1, 2) does not match depth shape (2, 2)")):
            E.compute_metrics(y, y, np.array([[True, False]]))

    def test_delta_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = as_depth(rng.uniform(1, 9, (8, 8)))
            p = as_depth(rng.uniform(1, 9, (8, 8)))
            m = E.compute_metrics(y, p)
            assert m.d1 <= m.d2 <= m.d3 <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(1, 9, 64)
        p = rng.uniform(1, 9, 64)
        order = rng.permutation(64)
        a = E.compute_metrics(as_depth(y.reshape(8, 8)), as_depth(p.reshape(8, 8)))
        b = E.compute_metrics(as_depth(y[order].reshape(8, 8)), as_depth(p[order].reshape(8, 8)))
        assert a == b

    @pytest.mark.parametrize("shape", [(37, 53), (300, 250)])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_float64_reference_under_partial_mask(self, seed, shape):
        """(300, 250) spans three blocks of whole rows, and the mask empties the middle one."""
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 10.0, (1, 1, *shape)).astype(np.float32)
        p = rng.uniform(0.5, 10.0, (1, 1, *shape)).astype(np.float32)
        mask = rng.random(shape) < 0.7
        step = E.METRIC_BLOCK // shape[1]
        mask[step : 2 * step] = False
        for m in (mask, None):
            got = E.compute_metrics(y, p, m)
            want = metrics_reference(y[0, 0], p[0, 0], m)
            for f in ("rmse", "rel", "log10", "d1", "d2", "d3"):
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=0), f

    def test_nonpositive_depth_under_mask_rejected_in_any_block(self):
        y = np.full((1, 1, 300, 250), 2.0)
        p = y.copy()
        p[0, 0, 299, 7] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            E.compute_metrics(y, p)
        mask = np.ones((300, 250), dtype=bool)
        mask[299, 7] = False
        assert E.compute_metrics(y, p, mask).rmse == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["ground truth", "prediction"])
    def test_non_finite_depth_under_mask_rejected_in_any_block(self, where, bad):
        y = np.full((1, 1, 300, 250), 2.0)
        p = y.copy()
        (y if where == "ground truth" else p)[0, 0, 299, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            E.compute_metrics(y, p)
        mask = np.ones((300, 250), dtype=bool)
        mask[299, 7] = False
        assert E.compute_metrics(y, p, mask).rmse == 0.0

    def test_inputs_left_untouched(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0.5, 10.0, (1, 1, 9, 11))
        p = rng.uniform(0.5, 10.0, (1, 1, 9, 11))
        y0, p0 = y.copy(), p.copy()
        E.compute_metrics(y, p)
        E.compute_metrics(y, p, y[0, 0] > 2.0)
        np.testing.assert_array_equal(y, y0)
        np.testing.assert_array_equal(p, p0)


class TestResize:
    """``evaluate._resize`` against the dense ``bilinear_resize``."""

    @staticmethod
    def dense(x, h, w):
        with T.no_grad():
            return T.bilinear_resize(Tensor(x), h, w).data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape_in, shape_out",
        [((96, 128), (480, 640)), ((5, 6), (9, 4)), ((17, 13), (5, 7)), ((7, 9), (21, 27)), ((30, 40), (12, 16))],
    )
    def test_within_four_ulps_of_dense(self, dtype, shape_in, shape_out):
        x = np.random.default_rng(10).uniform(0.5, 10.0, (1, 3, *shape_in)).astype(dtype)
        got = E._resize(x, *shape_out)
        want = self.dense(x, *shape_out)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * np.finfo(dtype).eps * np.abs(x).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape_in, shape_out", [((480, 640), (96, 128)), ((12, 18), (4, 6)), ((8, 10), (8, 10)), ((15, 9), (3, 9))]
    )
    def test_exact_at_same_size_and_odd_integer_downsampling(self, dtype, shape_in, shape_out):
        """An odd factor puts every tap on a pixel center (t = 0); an even one does not."""
        x = np.random.default_rng(11).uniform(0.5, 10.0, (1, 3, *shape_in)).astype(dtype)
        np.testing.assert_array_equal(E._resize(x, *shape_out), self.dense(x, *shape_out))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_map_comes_back_exactly(self, dtype):
        x = np.full((1, 1, 7, 9), 3.7, dtype=dtype)
        for shape in ((13, 5), (480, 640), (3, 3)):
            out = E._resize(x, *shape)
            assert out.shape == (1, 1, *shape) and (out == x.flat[0]).all()

    def test_crop_equals_resize_then_crop(self):
        x = np.random.default_rng(12).uniform(0.5, 10.0, (1, 1, 96, 128)).astype(np.float32)
        full = E._resize(x, 480, 640)
        for kind in ("none", "nyu", "kitti"):
            rs, cs = E.crop_slices(kind, 480, 640)
            np.testing.assert_array_equal(E._resize(x, 480, 640, rs, cs), full[..., rs, cs])

    def test_mirrored_view_equals_contiguous_copy(self):
        x = np.random.default_rng(13).uniform(0.5, 10.0, (1, 3, 30, 40)).astype(np.float32)
        x0 = x.copy()
        view = x[..., ::-1]
        np.testing.assert_array_equal(E._resize(view, 12, 17), E._resize(view.copy(), 12, 17))
        np.testing.assert_array_equal(x, x0)


def bounds(kind, h, w):
    rs, cs = E.crop_slices(kind, h, w)
    return rs.start, rs.stop, cs.start, cs.stop


class TestCrops:
    def test_nyu_crop_dimensions(self):
        top, bottom, left, right = bounds("nyu", 480, 640)
        assert (top, bottom, left, right) == (20, 460, 24, 616)
        assert bottom - top == 440
        assert right - left == 592

    def test_kitti_crop_reference_resolution(self):
        assert bounds("kitti", 375, 1242) == (124, 342, 44, 1197)

    def test_kitti_crop_small_image(self):
        assert bounds("kitti", 100, 100) == (33, 91, 3, 96)

    def test_kitti_crop_inside_bounds(self):
        for h in range(32, 600, 37):
            for w in range(32, 1400, 131):
                top, bottom, left, right = bounds("kitti", h, w)
                assert 0 < top < bottom < h
                assert 0 < left < right < w

    def test_nyu_crop_exceeding_bounds_rejected(self):
        with pytest.raises(ValueError):
            E.crop_slices("nyu", 96, 128)

    def test_unknown_crop_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape("unknown crop kind 'eigen', choose none/nyu/kitti")):
            E.crop_slices("eigen", 480, 640)

    def test_degenerate_crop_rejected(self):
        with pytest.raises(ValueError):
            E.crop_slices("kitti", 1, 5)


class TestEvaluatePipeline:
    def test_oracle_predictor_bounds_protocol_error(self, monkeypatch):
        monkeypatch.setattr(D, "N_PRIMITIVES", 4)
        monkeypatch.setattr(D, "SIZE_RANGE", (0.04, 0.10))
        monkeypatch.setattr(D, "Z_RANGE", (0.45, 0.8))
        samples = D.generate_dataset(6, base_seed=100, height=192, width=256)
        rep = E.evaluate(E.oracle_predictor(), samples, (96, 128), crop_kind="kitti", flip_average=True)
        assert rep.d1 > 0.99
        assert rep.rmse < 0.5

    def test_out_of_range_prediction_scores_as_its_clipped_map(self):
        """Values below 0, below 1 and above d_max / DEPTH_FLOOR give the
        metrics of the map clipped to [1, d_max / DEPTH_FLOOR]."""
        sample = D.generate_scene(5, height=24, width=32)
        values = np.array([-3.0, 0.0, 0.5, 1.0, 2.0, 7.0, 1e4, 1e6], np.float32)
        raw = np.resize(values, (1, 1, 12, 16))
        clipped = np.clip(raw, 1.0, sample.d_max / E.DEPTH_FLOOR)
        reports = [
            E.evaluate(lambda image, s, m=m: Tensor(m), [sample], (12, 16), crop_kind="none", flip_average=True)
            for m in (raw, clipped)
        ]
        assert reports[0] == reports[1]

    def test_prediction_of_the_wrong_shape_rejected(self):
        sample = D.generate_scene(5, height=24, width=32)
        want = "predictor returned (1, 1, 6, 8) for sample 0 (plain pass), expected (1, 1, 12, 16)"
        with pytest.raises(ValueError, match=re.escape(want)):
            E.evaluate(lambda image, s: Tensor(np.ones((1, 1, 6, 8))), [sample], (12, 16))

    def test_flip_average_with_equivariant_predictor(self):
        """The oracle predictor is mirror-equivariant, so averaging over the
        mirrored set changes nothing (full-image crop keeps the window symmetric)."""
        samples = D.generate_dataset(3, base_seed=60)
        plain = E.evaluate(E.oracle_predictor(), samples, (48, 64), crop_kind="none", flip_average=False)
        avg = E.evaluate(E.oracle_predictor(), samples, (48, 64), crop_kind="none", flip_average=True)
        for f in ("rmse", "rel", "log10", "d1", "d2", "d3"):
            assert abs(getattr(plain, f) - getattr(avg, f)) < 1e-6

    def test_flip_average_on_symmetric_image(self):
        """A horizontally symmetric sample evaluates identically with and
        without flip averaging."""
        base = D.generate_scene(77)
        img = base.image.data
        dep = base.depth.data
        sym = D.DepthSample(
            image=Tensor(np.concatenate([img[..., :64], img[..., :64][..., ::-1]], axis=3).copy()),
            depth=Tensor(np.concatenate([dep[..., :64], dep[..., :64][..., ::-1]], axis=3).copy()),
            d_max=base.d_max,
        )
        plain = E.evaluate(mean_predictor(), [sym], (48, 64), crop_kind="none", flip_average=False)
        avg = E.evaluate(mean_predictor(), [sym], (48, 64), crop_kind="none", flip_average=True)
        for f in ("rmse", "rel", "log10", "d1", "d2", "d3"):
            assert abs(getattr(plain, f) - getattr(avg, f)) < 1e-6

    def test_mean_predictor_is_exact_mean_and_mirror_invariant(self):
        """The mean predictor's constant is the correctly rounded float32 of
        the exact mean, and a mirrored image (same pixels, other order) gets
        the identical constant. A float32 accumulation misses both: its result
        depends on how numpy splits the reduction (seed 507's mirrored image
        came out 2 ulps away from its plain one)."""
        predict = mean_predictor()
        image = Tensor(np.zeros((1, 3, 48, 64), dtype=np.float32))
        for sample in D.generate_dataset(8, base_seed=500):
            norm = E.depth_to_normalized(sample.depth.data, sample.d_max)
            want = np.float32(math.fsum(norm.ravel().tolist()) / norm.size)
            mirrored = D.DepthSample(
                image=Tensor(sample.image.data[..., ::-1].copy()),
                depth=Tensor(sample.depth.data[..., ::-1].copy()),
                d_max=sample.d_max,
            )
            for s in (sample, mirrored):
                pred = predict(image, s).data
                assert pred.dtype == np.float32
                assert (pred == want).all(), (pred.flat[0], want)

    def test_constant_predictor_regression_lock(self):
        """Golden values of the full pipeline with the mean predictor.

        After the prediction the pipeline is exact for a constant (the
        upsample returns it bit for bit, the metrics run in float64), so the
        16 predicted constants (8 images, plain and mirrored) decide these
        values. Each constant is the float32 of a float64-accumulated mean;
        a predictor whose mean is math.fsum-based gives the same six values
        bit for bit. They must not depend on numpy's reduction order: a
        float32 mean moves by 1-2 ulps between numpy versions that do and do
        not cut the sum into 8,192-element buffer chunks, and between an
        image and its mirror, which is more than rtol=1e-9 allows."""
        samples = D.generate_dataset(8, base_seed=500)
        rep = E.evaluate(mean_predictor(), samples, (48, 64), crop_kind="kitti", flip_average=True)
        golden = (2.9335864881256715, 0.49685375164869916, 0.20066019631620768,
                  0.1450892857142857, 0.47936674669867946, 0.6656006152460985)
        got = (rep.rmse, rep.rel, rep.log10, rep.d1, rep.d2, rep.d3)
        np.testing.assert_allclose(got, golden, rtol=1e-9)

    def test_upsample_happens_before_crop(self):
        """The pipeline upsamples the prediction to ground-truth resolution and
        then crops; cropping at low resolution first gives a different result
        on a ramp, which this test distinguishes."""
        h, w = 64, 96
        yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
        surface = 2.0 + 6.0 * (np.sin(4 * np.pi * xx) * np.sin(3 * np.pi * yy) + 1) / 2.0
        sample = D.DepthSample(
            image=Tensor(np.broadcast_to(surface / surface.max(), (1, 3, h, w)).copy().astype(np.float32)),
            depth=Tensor(surface[None, None].astype(np.float32)),
            d_max=10.0,
        )
        rep = E.evaluate(E.oracle_predictor(), [sample], (32, 48), crop_kind="kitti", flip_average=False)

        # reproduce by hand with upsample-then-crop
        from guidedepth.tensor import bilinear_resize, no_grad

        with no_grad():
            down = bilinear_resize(sample.depth, 32, 48)
            up = bilinear_resize(down, h, w).data
        rs, cs = E.crop_slices("kitti", h, w)
        want = E.compute_metrics(sample.depth.data[..., rs, cs], up[..., rs, cs])
        assert rep.rmse == pytest.approx(want.rmse, rel=1e-4)

        # crop-first-then-upsample is measurably different
        gt_c = sample.depth.data[..., rs, cs]
        ch, cw = gt_c.shape[-2:]
        with no_grad():
            crop_first = bilinear_resize(Tensor(np.ascontiguousarray(down.data)), ch, cw).data
        alt = E.compute_metrics(gt_c, crop_first)
        assert abs(alt.rmse - want.rmse) > 1e-4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            E.evaluate(E.oracle_predictor(), [], (48, 64))

    @pytest.mark.parametrize("bad_pass, flip, where", [(3, True, "sample 1 (mirrored pass)"),
                                                       (1, False, "sample 1 (plain pass)"),
                                                       (0, True, "sample 0 (plain pass)")])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_prediction_rejected(self, bad_pass, flip, where, value):
        samples = D.generate_dataset(2, base_seed=70)
        mean = mean_predictor()
        # passes may run concurrently, so the bad one is found by its sample, not by call count
        bad_sample, bad_mirrored = divmod(bad_pass, 2) if flip else (bad_pass, 0)

        def predict(image, sample):
            pred = mean(image, sample)
            mirrored = sample.depth.data.strides[-1] < 0  # a mirrored sample's depth is a reversed view
            if np.shares_memory(sample.depth.data, samples[bad_sample].depth.data) and mirrored == bad_mirrored:
                pred.data[0, 0, 3, 5] = value
            return pred

        with pytest.raises(ValueError, match=re.escape(where)):
            E.evaluate(predict, samples, (48, 64), crop_kind="none", flip_average=flip)


@pytest.fixture(scope="module")
def vga_scenes():
    return D.generate_dataset(2, base_seed=900, height=480, width=640)


@pytest.fixture(scope="module")
def tiny_model(vga_scenes):
    model = B.build_model(B.preset_config("guidedepth-tiny"), seed=3)
    with T.no_grad():
        images = np.concatenate([E._resize(s.image.data, 96, 128) for s in vga_scenes])
        model.forward(Tensor(images), train=True)  # fills the BN running statistics
    model.head.bias.data[...] = 3.0  # predictions near 3.3 m instead of at the depth clamp
    return model


PREDICTORS = {
    "oracle": lambda model: E.oracle_predictor(),
    "mean": lambda model: mean_predictor(),
    "model": E.model_predictor,
}


class TestProtocolReference:
    """``evaluate`` against the protocol by its plain definition."""

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("crop", ["none", "nyu", "kitti"])
    @pytest.mark.parametrize("predictor", list(PREDICTORS))
    def test_matches_reference(self, vga_scenes, tiny_model, predictor, crop, flip):
        predict = PREDICTORS[predictor](tiny_model)
        got = E.evaluate(predict, vga_scenes, (96, 128), crop_kind=crop, flip_average=flip)
        want = evaluate_reference(predict, vga_scenes, (96, 128), crop_kind=crop, flip_average=flip)
        for f in ("rmse", "rel", "log10"):
            assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-5, abs=0), f
        for f in ("d1", "d2", "d3"):
            assert abs(getattr(got, f) - getattr(want, f)) <= 1e-5, f

    @pytest.mark.threads
    def test_passes_run_on_two_threads(self, vga_scenes, tiny_model, monkeypatch):
        """With 2 cores (set here, so that this holds on a 1-core machine too) the
        plain and mirrored passes run at once: each waits for the other."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        barrier = threading.Barrier(2, timeout=10)
        threads = set()
        model_predict = E.model_predictor(tiny_model)

        def predict(image, sample):
            threads.add(threading.get_ident())
            barrier.wait()
            return model_predict(image, sample)

        E.evaluate(predict, vga_scenes[:1], (96, 128), crop_kind="nyu", flip_average=True)
        assert len(threads) == 2

    @pytest.mark.threads
    @pytest.mark.parametrize("flip", [False, True])
    def test_pool_matches_serial_path(self, vga_scenes, tiny_model, monkeypatch, flip):
        """The pool holds BLAS at one thread and the serial path (no BLAS symbols)
        leaves it alone, which changes float32 rounding and nothing else."""
        predict = E.model_predictor(tiny_model)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = E.evaluate(predict, vga_scenes, (96, 128), crop_kind="nyu", flip_average=flip)
        monkeypatch.setattr(T, "_openblas", lambda: None)
        serial = E.evaluate(predict, vga_scenes, (96, 128), crop_kind="nyu", flip_average=flip)
        for f in ("rmse", "rel", "log10"):
            assert getattr(pooled, f) == pytest.approx(getattr(serial, f), rel=1e-5, abs=0), f
        for f in ("d1", "d2", "d3"):
            assert abs(getattr(pooled, f) - getattr(serial, f)) <= 1e-5, f

    def test_no_spatial_map_outside_the_predictor(self, vga_scenes, tiny_model, monkeypatch):
        calls = {"inside": 0, "outside": 0}
        where = threading.local()  # passes may run on two threads at once
        inner = T.spatial_map

        def spy(*args):
            calls[getattr(where, "place", "outside")] += 1
            return inner(*args)

        model_predict = E.model_predictor(tiny_model)

        def predict(image, sample):
            where.place = "inside"
            try:
                return model_predict(image, sample)
            finally:
                where.place = "outside"

        monkeypatch.setattr(T, "spatial_map", spy)
        E.evaluate(predict, vga_scenes[:1], (96, 128), crop_kind="nyu", flip_average=True)
        assert calls["inside"] > 0
        assert calls["outside"] == 0

    def test_float64_model_scores_as_its_float32_twin(self):
        """``evaluate`` builds float32 images and ``model_predictor`` casts each
        to the model's dtype, so a float64 model runs and scores what the
        float32 model of its seed does, up to float32 rounding."""
        samples = D.generate_dataset(1, 100, 64, 96)
        image = E._resize(samples[0].image.data, 32, 48)
        got = {}
        for dt in (np.float32, np.float64):
            model = B.build_model(B.preset_config("guidedepth-tiny"), seed=3, dtype=dt)
            with T.no_grad():
                model.forward(Tensor(image, dtype=dt), train=True)  # fills the BN running statistics
            model.head.bias.data[...] = 3.0
            predict = E.model_predictor(model)
            assert predict(Tensor(image), samples[0]).dtype == dt  # from a float32 image
            got[dt] = E.evaluate(predict, samples, (32, 48))
        for f in ("rmse", "rel", "log10"):
            assert getattr(got[np.float64], f) == pytest.approx(getattr(got[np.float32], f), rel=1e-5, abs=0), f
        for f in ("d1", "d2", "d3"):
            assert abs(getattr(got[np.float64], f) - getattr(got[np.float32], f)) <= 1e-3, f  # a few of 6,144 pixels

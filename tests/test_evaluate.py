"""Evaluation protocol: metric oracles, crop arithmetic, inverse depth norm,
and the full resize/predict/upsample/flip/crop pipeline."""

import math

import numpy as np
import pytest

from guidedepth import data as D
from guidedepth import evaluate as E
from guidedepth.tensor import Tensor


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

    def test_prediction_conversion_clamps_instead(self):
        # untrained networks can emit nonpositive values; conversion clamps
        out = E.normalized_to_depth(np.array([[[[-3.0]]]]), 10.0)
        assert out[0, 0, 0, 0] == 10.0 / E.DEPTH_FLOOR


class TestComputeMetrics:
    def test_perfect_prediction(self):
        y = as_depth(np.random.default_rng(1).uniform(1, 9, (6, 7)))
        m = E.compute_metrics(y, y)
        assert m.rmse == 0 and m.rel == 0 and m.log10 == 0
        assert m.d1 == m.d2 == m.d3 == 1.0

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
        with pytest.raises(ValueError):
            E.compute_metrics(y, y, np.array([[False]]))

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

    def test_degenerate_crop_rejected(self):
        with pytest.raises(ValueError):
            E.crop_slices("kitti", 1, 5)


def flat_dataset(n=3, seed=50, **kw):
    return [D.generate_scene(D.SceneSpec(seed=seed + i, **kw)) for i in range(n)]


class TestEvaluatePipeline:
    def test_oracle_predictor_bounds_protocol_error(self):
        samples = flat_dataset(6, seed=100, height=192, width=256, n_primitives=4,
                               size_range=(0.04, 0.10), z_range=(0.45, 0.8))
        rep = E.evaluate(E.oracle_predictor(), samples, (96, 128), crop_kind="kitti", flip_average=True)
        assert rep.d1 > 0.99
        assert rep.rmse < 0.5

    def test_flip_average_with_equivariant_predictor(self):
        """The oracle predictor is mirror-equivariant, so averaging over the
        mirrored set changes nothing (full-image crop keeps the window symmetric)."""
        samples = flat_dataset(3, seed=60)
        plain = E.evaluate(E.oracle_predictor(), samples, (48, 64), crop_kind="none", flip_average=False)
        avg = E.evaluate(E.oracle_predictor(), samples, (48, 64), crop_kind="none", flip_average=True)
        for f in ("rmse", "rel", "log10", "d1", "d2", "d3"):
            assert abs(getattr(plain, f) - getattr(avg, f)) < 1e-6

    def test_flip_average_on_symmetric_image(self):
        """A horizontally symmetric sample evaluates identically with and
        without flip averaging."""
        base = D.generate_scene(D.SceneSpec(seed=77))
        img = base.image.data
        dep = base.depth.data
        sym = D.DepthSample(
            image=Tensor(np.concatenate([img[..., :64], img[..., :64][..., ::-1]], axis=3).copy()),
            depth=Tensor(np.concatenate([dep[..., :64], dep[..., :64][..., ::-1]], axis=3).copy()),
            d_max=base.d_max,
        )
        plain = E.evaluate(E.mean_predictor(), [sym], (48, 64), crop_kind="none", flip_average=False)
        avg = E.evaluate(E.mean_predictor(), [sym], (48, 64), crop_kind="none", flip_average=True)
        for f in ("rmse", "rel", "log10", "d1", "d2", "d3"):
            assert abs(getattr(plain, f) - getattr(avg, f)) < 1e-6

    def test_mean_predictor_is_exact_mean_and_mirror_invariant(self):
        """The mean predictor's constant is the correctly rounded float32 of
        the exact mean, and a mirrored image (same pixels, other order) gets
        the identical constant. A float32 accumulation misses both: its result
        depends on how numpy splits the reduction (seed 507's mirrored image
        came out 2 ulps away from its plain one)."""
        predict = E.mean_predictor()
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
        rep = E.evaluate(E.mean_predictor(), samples, (48, 64), crop_kind="kitti", flip_average=True)
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

    def test_report_records_how_it_was_made(self):
        samples = flat_dataset(2, seed=80)
        rep = E.evaluate(E.mean_predictor(), samples, (48, 64), crop_kind="kitti")
        assert (rep.n_images, rep.flip_averaged, rep.crop_kind) == (2, True, "kitti")

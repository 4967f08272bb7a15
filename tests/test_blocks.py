"""Architecture blocks: shape contracts, guidance variants, init, checkpoints."""

import contextlib
import dataclasses
import gc
import hashlib
import os
import re

import numpy as np
import pytest

from guidedepth import blocks as B
from guidedepth import data as D
from guidedepth import gdt
from guidedepth import losses as L
from guidedepth import tensor as T
from guidedepth.evaluate import depth_to_normalized, evaluate, model_predictor
from helpers import check_grads, directional_grad_check, graph_bytes, graph_objects, perturb_params, traced


def rand_image(shape, seed=0, dtype=np.float64):
    return T.Tensor(np.random.default_rng(seed).uniform(0, 1, shape), dtype=dtype)


class TestStackedConv:
    def test_preserves_spatial_dims(self):
        sc = B.StackedConv(3, 4, np.random.default_rng(0))
        out = sc.forward(T.Tensor(np.ones((1, 3, 8, 8), np.float32)), train=True)
        assert out.shape == (1, 4, 8, 8)

    def test_zero_bn_gammas_zero_output(self):
        sc = B.StackedConv(2, 3, np.random.default_rng(1), dtype=np.float64)
        sc.conv3.gamma.data[...] = 0.0
        sc.conv1.gamma.data[...] = 0.0
        out = sc.forward(rand_image((1, 2, 6, 6), seed=2), train=True)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_channel_mismatch_rejected(self):
        sc = B.StackedConv(3, 4, np.random.default_rng(2))
        with pytest.raises(ValueError):
            sc.forward(T.Tensor(np.zeros((1, 2, 8, 8), np.float32)), train=True)

    def test_gradient_over_all_params(self):
        sc = B.StackedConv(2, 2, np.random.default_rng(3), dtype=np.float64)
        x = rand_image((1, 2, 4, 4), seed=4)
        params = dict(sc.named_parameters())

        def f():
            out = sc.forward(x, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, params, tol=1e-2, step=1e-4)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_eval_forward_matches_conv_then_normalize(self, dtype, tol):
        """The folded eval forward against each conv followed by an explicit
        ``(y - mean) * gamma / sqrt(var + eps) + beta``, to ``tol`` of the largest entry."""
        rng = np.random.default_rng(5)
        sc = B.StackedConv(5, 6, rng, stride=2, dtype=dtype)
        perturb_params(sc, rng, scale=0.5)
        with T.no_grad():
            sc.forward(T.Tensor(rng.standard_normal((4, 5, 12, 10)), dtype=dtype), train=True)
            x = T.Tensor(rng.standard_normal((2, 5, 12, 10)), dtype=dtype)
            got = sc.forward(x, train=False).data
            want = x
            for cb in (sc.conv3, sc.conv1):
                y = T.conv2d(want, cb.weight, cb.bias, cb.stride, cb.padding).data
                norm = (y - cb.stats.mean) * cb.gamma.data / np.sqrt(cb.stats.var + T.BN_EPS) + cb.beta.data
                want = T.relu(T.Tensor(norm, dtype=dtype))
        assert got.dtype == dtype
        err = np.max(np.abs(got - want.data)) / np.max(np.abs(want.data))
        assert err < tol, f"folded eval forward off by {err:.2e}"


class TestConvBN:
    def test_eval_before_update_raises(self):
        """Eval mode folds batch norm into the conv, and needs running statistics to fold."""
        cb = B.ConvBN(3, 2, 3, np.random.default_rng(0))
        message = "ConvBN: eval mode before any running-stat update (weight (2, 3, 3, 3), input (1, 3, 5, 5))"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            cb.forward(rand_image((1, 3, 5, 5), seed=1, dtype=np.float32), train=False)

    def test_fold_gives_constants(self):
        """The folded eval forward records no graph even with gradients on."""
        cb = B.ConvBN(3, 2, 3, np.random.default_rng(1))
        x = rand_image((2, 3, 5, 5), seed=2, dtype=np.float32)
        assert cb.forward(x, train=True).requires_grad
        out = cb.forward(x, train=False)
        assert out.shape == (2, 2, 5, 5) and not out.requires_grad and out._rec.node is None

    @pytest.mark.parametrize("kernel,stride,shape", [(3, 1, (1, 4, 6, 8)), (3, 2, (1, 4, 3, 4)), (1, 1, (1, 4, 6, 8))])
    def test_padding_and_parameters(self, kernel, stride, shape):
        """Padding ``kernel // 2``; the parameters are the weight and the BN affine, and no bias."""
        cb = B.ConvBN(3, 4, kernel, np.random.default_rng(2), stride=stride)
        assert cb.forward(T.Tensor(np.ones((1, 3, 6, 8), np.float32)), train=True).shape == shape
        assert [name for name, _ in cb.named_parameters()] == ["weight", "gamma", "beta"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_output_is_relu_of_the_folded_conv(self, dtype):
        """The eval forward applies ReLU in place on the conv's fresh output:
        bitwise ``relu(conv2d(x, folded weight, folded bias))``."""
        rng = np.random.default_rng(4)
        cb = B.ConvBN(3, 4, 3, rng, stride=2, dtype=dtype)
        perturb_params(cb, rng, scale=0.5)
        x = T.Tensor(rng.standard_normal((2, 3, 7, 6)), dtype=dtype)
        with T.no_grad():
            cb.forward(x, train=True)
        a = cb.gamma.data * (1.0 / np.sqrt(cb.stats.var + T.BN_EPS)).astype(dtype, copy=False)
        weight = T.Tensor(cb.weight.data * a.reshape(-1, 1, 1, 1))
        bias = T.Tensor(cb.beta.data - cb.stats.mean * a)
        want = T.relu(T.conv2d(x, weight, bias, 2, 1)).data
        got = cb.forward(x, train=False).data
        assert (want == 0).any() and (want > 0).any()
        assert np.array_equal(got, want)

    def test_eval_input_gradient_matches_finite_differences(self):
        """With an input that takes a gradient the conv output records a node, so
        the eval forward leaves it alone and the ReLU is a recorded op."""
        rng = np.random.default_rng(5)
        cb = B.ConvBN(3, 4, 3, rng, dtype=np.float64)
        perturb_params(cb, rng, scale=0.5)
        x = T.Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        with T.no_grad():
            cb.forward(x, train=True)
        assert cb.forward(x, train=False).requires_grad
        r = T.Tensor(rng.standard_normal((2, 4, 5, 5)))  # nonzero where the ReLU zeroes, unlike the output

        def f():
            return T.sum_all(T.mul(cb.forward(x, train=False), r))

        check_grads(f, {"x": x}, tol=1e-4, step=1e-5)

    def test_draws_conv_weights_in_conv_order(self):
        """Two ConvBN draw the weights two Conv draw from the same generator."""
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        convbns = [B.ConvBN(3, 4, 3, a), B.ConvBN(4, 4, 1, a)]
        convs = [B.Conv(3, 4, 3, b), B.Conv(4, 4, 1, b)]
        assert all(np.array_equal(cb.weight.data, c.weight.data) for cb, c in zip(convbns, convs))


class TestSqueezeExcite:
    def test_forced_half_gate(self):
        """Zeroed excite weights make the gate sigmoid(0) = 0.5 everywhere."""
        se = B.SqueezeExcite(8, np.random.default_rng(5), dtype=np.float64)
        se.excite.weight.data[...] = 0.0
        se.excite.bias.data[...] = 0.0
        x = rand_image((2, 8, 4, 4), seed=6)
        np.testing.assert_allclose(se.forward(x).data, 0.5 * x.data, rtol=1e-12)

    def test_zero_input_zero_output(self):
        se = B.SqueezeExcite(4, np.random.default_rng(7))
        out = se.forward(T.Tensor(np.zeros((1, 4, 3, 3), np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="6 channels not divisible by reduction 4"):
            B.SqueezeExcite(6, np.random.default_rng(8))

    def test_gate_contracts_magnitudes(self):
        """Gate values lie in (0, 1), so |output| <= |input| elementwise."""
        rng = np.random.default_rng(9)
        for seed in range(5):
            se = B.SqueezeExcite(8, np.random.default_rng(seed), dtype=np.float64)
            x = T.Tensor(rng.standard_normal((2, 8, 5, 5)), dtype=np.float64)
            out = se.forward(x)
            assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-12)

    def test_seeded_parameters_unchanged(self):
        """Names, shapes and values of a seeded model's SE parameters.

        They are pinned to the model as built when SE held dense layers of its
        own: a 1x1 conv draws the same Kaiming weights (fan-in = input
        channels) in the same RNG order, so checkpoints stay valid.
        """
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        se = [(name, p) for name, p in model.named_parameters() if ".se." in name]
        want = []
        for j, (c, hidden) in enumerate([(128, 32), (128, 32), (64, 16)]):
            want += [
                (f"stages.{j}.se.squeeze.weight", (hidden, c, 1, 1)),
                (f"stages.{j}.se.squeeze.bias", (1, hidden, 1, 1)),
                (f"stages.{j}.se.excite.weight", (c, hidden, 1, 1)),
                (f"stages.{j}.se.excite.bias", (1, c, 1, 1)),
            ]
        assert [(name, p.shape) for name, p in se] == want
        digest = hashlib.sha256(b"".join(p.data.tobytes() for _, p in se)).hexdigest()
        assert digest == "804f07837bc9ca620328a35f65a5b38ef291a30d71fb506e2fb8349ec78c6010"


class TestGuidedUpsampler:
    def test_shape_contract(self):
        gub = B.GuidedUpsampler(16, 8, True, np.random.default_rng(10))
        z = T.Tensor(np.zeros((1, 16, 6, 8), np.float32))
        guide = T.Tensor(np.zeros((1, 3, 12, 16), np.float32))
        assert gub.forward(z, guide, train=True).shape == (1, 8, 12, 16)

    def test_guide_resolution_mismatch_rejected(self):
        gub = B.GuidedUpsampler(4, 4, True, np.random.default_rng(11))
        z, guide = T.Tensor(np.zeros((1, 4, 6, 8), np.float32)), T.Tensor(np.zeros((1, 3, 6, 8), np.float32))
        message = "GuidedUpsampler: guide must be (1, 3, 12, 16), got (1, 3, 6, 8), z (1, 4, 6, 8)"
        with pytest.raises(ValueError, match=re.escape(message)):
            gub.forward(z, guide, train=True)

    def test_zeroed_residual_path_reduces_to_upsample(self):
        """Zero BN affines in the correction branch leave reduce(upsample(z)) exactly."""
        gub = B.GuidedUpsampler(4, 2, True, np.random.default_rng(12), dtype=np.float64)
        for cb in (gub.s_res.conv3, gub.s_res.conv1):
            cb.gamma.data[...] = 0.0
            cb.beta.data[...] = 0.0
        z = rand_image((1, 4, 4, 4), seed=13)
        guide = rand_image((1, 3, 8, 8), seed=14)
        out = gub.forward(z, guide, train=True)
        h_up = T.bilinear_resize(z, 8, 8)
        expect = gub.reduce.forward(h_up)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-14)

    @pytest.mark.parametrize("gtype,c_cat", [("image", 16), ("none", 8)])
    def test_concat_width(self, gtype, c_cat):
        """Guidance features double the width that SE gates and s_res reads."""
        gub = B.GuidedUpsampler(8, 4, gtype != "none", np.random.default_rng(15))
        assert (gub.s_guide is None) == (gtype == "none")
        assert gub.se.squeeze.weight.shape == (c_cat // B.SE_REDUCTION, c_cat, 1, 1)
        assert gub.s_res.conv3.weight.shape[1] == c_cat

    def test_gradients_all_params(self):
        """Concat width 4, so SE has one hidden unit."""
        gub = B.GuidedUpsampler(2, 2, True, np.random.default_rng(17), dtype=np.float64)
        z = rand_image((1, 2, 3, 4), seed=18)
        guide = rand_image((1, 3, 6, 8), seed=19)

        def f():
            out = gub.forward(z, guide, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, dict(gub.named_parameters()), tol=1e-2, step=1e-4)


def guidance_pyramid(gtype, x):
    return B.build_model(B.preset_config("guidedepth-tiny", guidance_type=gtype), seed=0).guidance_pyramid(x)


class TestLaplacianGuidance:
    def test_constant_image_gives_zero_residual(self):
        x = T.Tensor(np.full((1, 3, 16, 16), 0.7))
        for out in guidance_pyramid("laplacian", x):
            np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_linear_ramp_near_zero_interior(self):
        """Bilinear resampling reproduces linear images, so the residual vanishes
        away from clamped borders."""
        h, w = 32, 32
        ramp = np.add.outer(np.linspace(0, 1, h), np.linspace(0, 1, w))
        x = T.Tensor(np.broadcast_to(ramp, (1, 3, h, w)).copy(), dtype=np.float64)
        out = guidance_pyramid("laplacian", x)[2]
        interior = out.data[:, :, 4 : h - 4, 4 : w - 4]
        assert np.abs(interior).max() < 1e-5

    def test_shape_matches_image_guidance(self):
        x = rand_image((1, 3, 24, 32), seed=23)
        shapes = [(1, 3, 6, 8), (1, 3, 12, 16), (1, 3, 24, 32)]
        assert [g.shape for g in guidance_pyramid("laplacian", x)] == shapes
        assert [g.shape for g in guidance_pyramid("image", x)] == shapes


class TestEncoder:
    def test_shape(self):
        enc = B.Encoder(4, 32, np.random.default_rng(25))
        out = enc.forward(T.Tensor(np.ones((1, 3, 48, 64), np.float32)), train=True)
        assert out.shape == (1, 32, 6, 8)

    def test_deterministic_under_seed(self):
        a = B.Encoder(4, 8, np.random.default_rng(7))
        b = B.Encoder(4, 8, np.random.default_rng(7))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_gradient(self):
        enc = B.Encoder(2, 2, np.random.default_rng(26), dtype=np.float64)
        perturb_params(enc, np.random.default_rng(99))
        x = rand_image((1, 3, 16, 16), seed=27)

        def f():
            out = enc.forward(x, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, dict(enc.named_parameters()), tol=1e-2, step=1e-4)


class TestDepthNet:
    @pytest.mark.parametrize("preset", sorted(B.PRESETS))
    @pytest.mark.parametrize("gtype", B.GUIDANCE_TYPES)
    def test_shape_contract_all_variants(self, preset, gtype):
        cfg = B.preset_config(preset, guidance_type=gtype)
        model = B.build_model(cfg, seed=0)
        x = rand_image((2, 3, 48, 64), seed=28, dtype=np.float32)
        out = model.forward(x, train=True)
        assert out.shape == (2, 1, 48, 64)
        assert np.isfinite(out.data).all()

    def test_each_stage_doubles_resolution(self):
        cfg = B.preset_config("guidedepth-tiny")
        model = B.build_model(cfg, seed=1)
        x = rand_image((1, 3, 48, 64), seed=29, dtype=np.float32)
        z = model.encoder.forward(x, train=True)
        assert z.shape[2:] == (6, 8)
        guides = model.guidance_pyramid(x)
        for stage, guide in zip(model.stages, guides):
            h, w = z.shape[2], z.shape[3]
            z = stage.forward(z, guide, train=True)
            assert z.shape[2:] == (2 * h, 2 * w)

    def test_forwards_without_backward_do_not_accumulate_memory(self):
        """An abandoned train-mode graph is freed by reference counting alone:
        the array buffers still alive after 100 forwards stay below 16 KiB."""
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=7)
        x = rand_image((1, 3, 16, 16), seed=32, dtype=np.float32)
        model.forward(x, train=True)  # warm caches such as the resize matrices

        def forwards():
            for _ in range(100):
                model.forward(x, train=True)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _, growth, _ = traced(forwards)
        finally:
            if was_enabled:
                gc.enable()
        assert growth < 16 * 1024, f"array memory grew by {growth} bytes over 100 forwards"

    @pytest.mark.threads
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gtype", B.GUIDANCE_TYPES)
    def test_step_is_bitwise_the_same_on_1_2_and_4_cores(self, monkeypatch, gtype, dtype):
        """A whole ``guidedepth-tiny`` step (the train prediction, the loss terms
        and every parameter gradient) and the eval forward after it hash the
        same whether the batch-wide ops split over 1, 2 or 4 cores. Every
        recorded op of more than one sample splits, and BLAS is held at one
        thread, as it is inside a split op's blocks."""
        rng = np.random.default_rng(110)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 32, 48)), dtype=dtype)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 32, 48)), dtype=dtype)
        each = T._each

        def step_hash(cores):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            model = B.build_model(B.ModelConfig("guidedepth-tiny", gtype), seed=0, dtype=dtype)
            pred = model.forward(x, train=True)
            terms = L.loss_terms(y, pred, L.LossConfig())
            T.backward(terms["total"])
            arrays = [pred.data, *(terms[k].data for k in sorted(terms)), *(p.grad for p in model.parameters())]
            h = hashlib.sha256()
            for a in arrays + [model.forward(x).data]:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        blas = T._openblas()
        with T._one_blas_thread(*blas) if blas else contextlib.nullcontext():
            hashes, counts = {}, {}
            for cores in (1, 2, 4):
                seen = set()
                monkeypatch.setattr(T, "_each", lambda fn, blocks: seen.add(len(blocks)) or each(fn, blocks))
                hashes[cores], counts[cores] = step_hash(cores), seen
        assert len(set(hashes.values())) == 1, hashes
        # on 4 cores a batch-wide op splits 4 ways, a conv or a 4-channel batch norm 2 ways
        assert counts == {1: {1}, 2: {2}, 4: {2, 4}}

    @pytest.mark.threads
    @pytest.mark.parametrize("cores", [4, 8])
    def test_a_step_and_evaluate_ask_only_for_the_hosts_pool(self, monkeypatch, cores):
        """A train step splits its ops 2 or 4 ways and ``evaluate`` maps 6 passes,
        but every map queues its items on the one pool of the host, of
        ``cores - 1`` threads: ``_pool`` is asked for ``_pool(cores)`` only."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        asked, pool = set(), T._pool
        monkeypatch.setattr(T, "_pool", lambda n: asked.add(n) or pool(n))
        rng = np.random.default_rng(114)
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=0)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 32, 48)), dtype=np.float32)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 32, 48)), dtype=np.float32)
        T.backward(L.loss_terms(y, model.forward(x, train=True), L.LossConfig())["total"])
        evaluate(model_predictor(model), D.generate_dataset(3, 115, 48, 64), (32, 48))
        assert asked == ({cores} if T._openblas() else set())

    def test_graph_after_forward_and_loss_holds_at_most_96_mib(self):
        """The graph links grad records, so it keeps only the arrays backward
        rules read: each train-mode batch norm keeps the conv output it reads
        and a 1-bit mask of its own output, and each conv keeps its input but
        not a padded copy of it. A conv whose input is a batch norm output, or
        the squeeze-and-excite product, keeps the producer's rebuild instead,
        and so does that product for its joint features, the concatenation of
        two batch norm outputs. So each of those outputs is freed once its
        readers ran, as is one that only an add reads, or a stage output that
        only a resize reads. It holds 90.2 MiB (109.7 MiB while the product
        kept the joint features). Keeping the conv inputs makes 161 MiB; keeping
        every op's inputs and each batch norm's float output 195 MiB (230 MiB
        with the padded conv inputs too)."""
        rng = np.random.default_rng(38)
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 96, 128)), dtype=np.float32)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 96, 128)), dtype=np.float32)
        loss = L.loss_terms(y, model.forward(x, train=True), L.LossConfig())["total"]
        held = graph_bytes(loss) / 2**20
        assert held <= 96, f"graph holds {held:.1f} MiB after forward and loss"

    @pytest.mark.parametrize("gtype", ["image", "laplacian"])
    def test_graph_after_forward_and_loss_holds_no_joint_features(self, monkeypatch, gtype):
        """Each guided stage's concatenated features are rebuilt by their readers,
        so after forward and loss the graph holds no array of their shape."""
        shapes, concat = [], B.concat_channels

        def recorded(a, b):
            out = concat(a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(B, "concat_channels", recorded)
        rng = np.random.default_rng(162)
        model = B.build_model(B.ModelConfig("guidedepth", gtype), seed=0)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 96, 128)), dtype=np.float32)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 96, 128)), dtype=np.float32)
        loss = L.loss_terms(y, model.forward(x, train=True), L.LossConfig())["total"]
        held = {obj.shape for obj in graph_objects(loss) if isinstance(obj, np.ndarray)}
        assert len(set(shapes)) == 3
        assert held.isdisjoint(shapes), f"the graph holds arrays of shapes {sorted(held & set(shapes))}"

    @pytest.mark.threads
    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8])
    def test_train_forward_and_loss_peaks_at_most_99_mib(self, monkeypatch, cores):
        """Forward and loss of ``guidedepth``, batch 4 at 96x128, while recording.
        A conv pads and multiplies one sample at a time, a batch norm builds its
        output in one array, and a ``StackedConv`` drops its input once its
        first conv has read it: 129.4 MiB without those. A 1x1 conv adds its
        bias in place: 115.9 MiB without that. The joint features of each
        guided stage are freed once the squeeze-and-excite product has read
        them: 112.9-113.0 MiB while they were kept. It peaks at 93.4 MiB on
        one core, in the last stage's ``reduce`` conv, and 93.5 MiB on 2 to 8,
        in that stage's ``s_res.conv3``, since a split conv uses at most two
        workers, each with its own padded sample and matmul buffer (117.7 to
        119.2 MiB on 3 to 8 cores with one worker a core, joint features kept)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        rng = np.random.default_rng(42)
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 96, 128)), dtype=np.float32)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 96, 128)), dtype=np.float32)

        def forward_and_loss():
            return L.loss_terms(y, model.forward(x, train=True), L.LossConfig())["total"]

        forward_and_loss()  # warms the resize matrices
        _, _, peak = traced(forward_and_loss)
        assert peak <= 99 * 2**20, f"forward and loss peak at {peak / 2**20:.1f} MiB"

    @pytest.mark.threads
    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8])
    def test_train_step_peaks_at_most_118_mib(self, monkeypatch, cores):
        """Forward, loss and backward of ``guidedepth``, batch 4 at 96x128. The
        peak follows the graph of the tests above: a conv's backward rebuilds a
        batch norm input only while it runs, and keeping those inputs makes the
        peak 171 MiB; keeping every op's inputs and each batch norm's float
        output, 201 MiB. A conv's backward builds its gradient stack one band of
        input rows at a time, so a worker holds a dilated gradient grid and one
        band buffer (about 3 MiB at the last stage) and no whole-frame stack or
        padded input sample. The joint features are rebuilt a sample at a time
        by both of their readers: the last stage's ``s_res.conv3`` (64 -> 32,
        3x3), through the squeeze-and-excite product's rebuild, and that
        product's rule, which sums the gate's gradient one sample at a time. The
        step peaks at 100.6 MiB on one core, in both of those rules, and on 2 to
        8 cores at up to 106.6 MiB in the product's rule (each of its two
        workers holding one sample's rebuilt features and their product with
        the gradient, beside the 12 MiB gradient of the features) and up to
        112.3 MiB in that conv's backward, whose two workers each rebuild a
        sample while holding the last. While the product kept the joint
        features it peaked at 122.9-126.1 MiB, in its rule on 1 to 3 cores, the
        gate's gradient summing a whole block's product. With one whole-frame
        stack a conv worker the step peaked in that conv's backward, at 129.1
        MiB on one core and 146.4-149.3 MiB on 2 to 8."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        rng = np.random.default_rng(41)
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        x = T.Tensor(rng.uniform(0, 1, (4, 3, 96, 128)), dtype=np.float32)
        y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 96, 128)), dtype=np.float32)

        def step():
            T.backward(L.loss_terms(y, model.forward(x, train=True), L.LossConfig())["total"])

        step()  # warms the resize matrices
        _, _, peak = traced(step)
        assert peak <= 118 * 2**20, f"train step peaks at {peak / 2**20:.1f} MiB"

    def test_eval_forward_peaks_at_most_13_mib(self):
        """A batch-1 eval forward of ``guidedepth`` at 96x128 frees each conv's
        padded input and matmul buffer before its crop, and each stage holds
        only ``h_up`` across its residual branch: 17.3 MiB when neither did."""
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        x = rand_image((1, 3, 96, 128), seed=39, dtype=np.float32)
        with T.no_grad():
            model.forward(x, train=True)  # fills the running statistics and warms the resize matrices
        _, _, peak = traced(lambda: model.forward(x))
        assert peak <= 13 * 2**20, f"eval forward peaks at {peak / 2**20:.1f} MiB"

    def test_no_grad_train_forward_peaks_at_most_20_mib(self):
        """The same for a train-mode forward that records no graph: ``guidedepth-s``,
        batch 4 at 64x208. Each conv pads and multiplies one sample at a time and
        each batch norm builds its output in one array: 24.2 MiB with a
        whole-batch padded copy and matmul buffer and a second batch norm array,
        37.3 MiB when neither the padded input nor a stage's branch was freed."""
        model = B.build_model(B.preset_config("guidedepth-s"), seed=0)
        x = rand_image((4, 3, 64, 208), seed=40, dtype=np.float32)

        def forward():
            with T.no_grad():
                return model.forward(x, train=True)

        forward()  # warms the resize matrices
        _, _, peak = traced(forward)
        assert peak <= 20 * 2**20, f"train-mode no-grad forward peaks at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("gtype", B.GUIDANCE_TYPES)
    def test_indivisible_input_rejected(self, gtype):
        model = B.build_model(B.preset_config("guidedepth-tiny", guidance_type=gtype), seed=2)
        with pytest.raises(ValueError, match="divisible by 8"):
            model.forward(T.Tensor(np.zeros((1, 3, 50, 64), np.float32)))

    def test_four_channel_input_rejected(self):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=2)
        with pytest.raises(ValueError, match=r"^DepthNet: expected a 3-channel image, got 4 channels in input \(1, 4, 48, 64\)$"):
            model.forward(T.Tensor(np.zeros((1, 4, 48, 64), np.float32)))

    def test_zero_grad_clears_every_parameter_gradient(self):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=3)
        T.backward(T.mean_all(model.forward(rand_image((1, 3, 16, 16), seed=30, dtype=np.float32), train=True)))
        params = model.parameters()
        assert all(p.grad is not None for p in params)
        model.zero_grad()
        assert [p.grad for p in params] == [None] * len(params)

    @pytest.mark.parametrize("gtype,resizes", [("laplacian", 6), ("image", 2), ("none", 0)])
    def test_guidance_pyramid_resizes_each_level_once(self, monkeypatch, gtype, resizes):
        """Laplacian guidance reuses the image levels: x at 1/2, 1/4 and 1/8, then
        each coarser level back up; x at full size is x itself."""
        calls = []

        def counted(*args):
            calls.append(args)
            return spatial_map(*args)

        spatial_map = T.spatial_map
        monkeypatch.setattr(T, "spatial_map", counted)
        guidance_pyramid(gtype, rand_image((1, 3, 16, 24), seed=3))
        assert len(calls) == resizes

    def test_eval_forward_records_no_graph(self):
        """Folded batch norms pass no gradient on, so eval mode builds no partial graph."""
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=5)
        x = rand_image((1, 3, 16, 16), seed=6, dtype=np.float32)
        model.forward(x, train=True)
        out = model.forward(x, train=False)
        assert not out.requires_grad and out._rec.node is None

    def test_guidance_path_is_live(self):
        """Zeroing the guidance image must change the output in image/gub mode."""
        cfg = B.preset_config("guidedepth-tiny")
        model = B.build_model(cfg, seed=3)
        rng = np.random.default_rng(30)
        x = T.Tensor(rng.uniform(0.2, 1.0, (1, 3, 48, 64)), dtype=np.float32)
        with T.no_grad():
            base = model.forward(x, train=True).data.copy()
            z = model.encoder.forward(x, train=True)
            guides = [T.Tensor(np.zeros(g.shape, np.float32)) for g in model.guidance_pyramid(x)]
            for stage, guide in zip(model.stages, guides):
                z = stage.forward(z, guide, train=True)
            blanked = model.head.forward(z).data
        assert np.abs(base - blanked).max() > 0

    def test_small_decoder_has_fewer_params_at_equal_encoder(self):
        count = lambda m: sum(p.data.size for _, p in m.named_parameters())
        full = B.build_model(B.preset_config("guidedepth"), seed=0)
        small = B.build_model(B.preset_config("guidedepth-s"), seed=0)
        enc = lambda m: sum(p.data.size for n, p in m.named_parameters() if n.startswith("encoder."))
        assert enc(full) == enc(small)
        assert count(small) < count(full)

    def test_eval_forward_runs_no_batch_norm(self, monkeypatch):
        """Eval mode folds every BN into its conv, so the BN op never runs."""
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=5)
        x = rand_image((1, 3, 48, 64), seed=6, dtype=np.float32)
        with T.no_grad():
            model.forward(x, train=True)
        calls = []

        def counted(*args):
            calls.append(args)
            return T.batch_norm_relu(*args)

        monkeypatch.setattr(B, "batch_norm_relu", counted)
        out = model.forward(x, train=False)
        assert calls == [] and out.shape == (1, 1, 48, 64)
        model.forward(x, train=True)
        assert len(calls) == 2 * 4 * 3  # two BNs per stacked conv: 3 in the encoder, 3 per stage

    def test_float32_step_gradients_match_float64_shadow(self, monkeypatch):
        """One train step (batch 4, 96x128) in float32 against the same step in float64.

        The float64 step replays the ReLU masks of the float32 step, both those
        of plain ``relu`` and those inside ``batch_norm_relu``. Without that,
        float32 rounding can put a pre-activation near zero on the other
        side of a ReLU than float64 does; the flip switches a unit's whole
        gradient path, and a handful of flips cost about 1e-4 whatever the
        precision of the ops. With the masks matched, the relative L2 error of
        all parameter gradients is 4.2e-6 here, and rounding every conv
        output through float16 makes it 9.2e-3.

        The replayed fused op is ``y * mask`` with the batch-norm output ``y``
        rebuilt exactly as ``batch_norm_relu(x, gamma, beta) -
        batch_norm_relu(x, -gamma, -beta)``, which is ``max(y, 0) - max(-y, 0)``.
        """
        samples = D.generate_dataset(4, base_seed=0, height=96, width=128)
        x = np.concatenate([s.image.data for s in samples])
        y = np.concatenate([depth_to_normalized(s.depth.data, s.d_max) for s in samples]).astype(np.float32)
        masks = []

        def recording_relu(a):
            out = T.relu(a)
            masks.append(out.data > 0)
            return out

        def replaying_relu(a):
            return T.mul(a, T.Tensor(masks.pop(0), dtype=a.dtype))

        def recording_bn_relu(x, gamma, beta, stats):
            out = T.batch_norm_relu(x, gamma, beta, stats)
            masks.append(out.data > 0)
            return out

        def replaying_bn_relu(x, gamma, beta, stats):
            unused = T.RunningStats.for_channels(x.shape[1], x.dtype)
            neg = T.batch_norm_relu(x, T.affine(gamma, -1.0, 0.0), T.affine(beta, -1.0, 0.0), unused)
            return replaying_relu(T.sub(T.batch_norm_relu(x, gamma, beta, stats), neg))

        grads = []
        for dtype, relu, bn_relu in (
            (np.float32, recording_relu, recording_bn_relu),
            (np.float64, replaying_relu, replaying_bn_relu),
        ):
            monkeypatch.setattr(B, "relu", relu)
            monkeypatch.setattr(B, "batch_norm_relu", bn_relu)
            model = B.build_model(B.preset_config("guidedepth-s"), seed=0, dtype=dtype)
            pred = model.forward(T.Tensor(x, dtype=dtype), train=True)
            T.backward(L.loss_terms(T.Tensor(y, dtype=dtype), pred, L.LossConfig())["total"])
            grads.append(np.concatenate([p.grad.ravel() for p in model.parameters()]).astype(np.float64))
        assert masks == []
        err = np.linalg.norm(grads[0] - grads[1]) / np.linalg.norm(grads[1])
        assert err <= 1e-4, f"float32 gradients off the float64 shadow by {err:.2e}"

    @pytest.mark.parametrize("gtype", B.GUIDANCE_TYPES)
    def test_no_parameter_is_dead(self, gtype):
        """One float64 train step: every parameter's gradient norm is at least
        1e-6 of the largest. A conv bias in front of batch norm reads 1e-17 to
        2e-15 of it, as batch norm cancels it."""
        samples = D.generate_dataset(2, base_seed=0, height=32, width=48)
        x = np.concatenate([s.image.data for s in samples])
        y = np.concatenate([depth_to_normalized(s.depth.data, s.d_max) for s in samples])
        model = B.build_model(B.preset_config("guidedepth", gtype), seed=0, dtype=np.float64)
        pred = model.forward(T.Tensor(x, dtype=np.float64), train=True)
        T.backward(L.loss_terms(T.Tensor(y, dtype=np.float64), pred, L.LossConfig())["total"])
        norms = {name: np.linalg.norm(p.grad) for name, p in model.named_parameters()}
        dead = {name: n for name, n in norms.items() if n < 1e-6 * max(norms.values())}
        assert not dead, f"parameters with no gradient to speak of: {dead}"

    def test_parameter_and_checkpoint_counts(self, tmp_path):
        """``guidedepth`` with image guidance: 92 parameter tensors, and 140
        checkpoint arrays once the 24 batch norms hold running statistics."""
        model = B.build_model(B.preset_config("guidedepth"), seed=0)
        params = dict(model.named_parameters())
        assert len(params) == 92 and sum(p.data.size for p in params.values()) == 337_633
        with T.no_grad():
            model.forward(rand_image((2, 3, 16, 16), seed=42, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", model)
        assert len(gdt.read_record(tmp_path / "ckpt")[1]) == 140

    def test_full_model_gradients_directional(self):
        cfg = B.preset_config("guidedepth-tiny")
        model = B.build_model(cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(31)
        x = T.Tensor(rng.uniform(0, 1, (1, 3, 48, 64)), dtype=np.float64)
        params = list(dict(model.named_parameters()).values())

        def f():
            out = model.forward(x, train=True)
            return T.mean_all(T.mul(out, out))

        analytic, numeric = directional_grad_check(f, params, rng, step=1e-6)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-12) < 1e-4


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = B.build_model(B.preset_config("guidedepth-tiny"), seed=11)
        b = B.build_model(B.preset_config("guidedepth-tiny"), seed=11)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = B.build_model(B.preset_config("guidedepth-tiny"), seed=11)
        b = B.build_model(B.preset_config("guidedepth-tiny"), seed=12)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )

    def test_first_conv_variance_scale(self):
        """Fan-in init keeps the first conv's output variance within x4 of the
        input variance (Monte-Carlo over 100 seeds)."""
        rng = np.random.default_rng(32)
        ratios = []
        for seed in range(100):
            conv = B.Conv(3, 8, 3, np.random.default_rng(seed), stride=1, dtype=np.float64)
            x = T.Tensor(rng.standard_normal((1, 3, 16, 16)), dtype=np.float64)
            out = conv.forward(x)
            ratios.append(out.data.var() / x.data.var())
        mean_ratio = float(np.mean(ratios))
        assert 0.25 < mean_ratio < 4.0

    @pytest.mark.parametrize("dtype", [np.float16, np.int32])
    def test_a_dtype_other_than_float32_or_float64_is_refused(self, dtype):
        """Every parameter is made in the model's dtype, so none is cast to
        float32 beside statistics of another dtype."""
        with pytest.raises(ValueError, match=f"tensors are float32 or float64, got dtype {np.dtype(dtype)}"):
            B.build_model(B.preset_config("guidedepth-tiny"), seed=0, dtype=dtype)

    def test_biases_zero_gammas_one(self):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=13)
        for name, p in model.named_parameters():
            if name.endswith(".bias") or name.endswith(".beta"):
                assert not p.data.any(), name
            if name.endswith(".gamma"):
                assert np.array_equal(p.data, np.ones_like(p.data)), name


class TestModelConfig:
    def test_preset_channel_plan(self):
        assert B.PRESETS["guidedepth"] == (16, 64, (64, 32, 16))
        assert B.PRESETS["guidedepth-s"] == (16, 64, (32, 16, 8))
        assert B.PRESETS["guidedepth-tiny"] == (4, 8, (8, 4, 2))
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=0)
        assert model.encoder.stage1.conv3.weight.shape[0] == 4
        assert model.encoder.stage3.conv3.weight.shape[0] == 8
        assert [stage.reduce.weight.shape[0] for stage in model.stages] == [8, 4, 2]

    def test_invalid_configs_rejected(self):
        for build in (B.preset_config, B.ModelConfig):
            with pytest.raises(ValueError, match="guidance_type must be one of .* got 'sobel'"):
                build("guidedepth-tiny", "sobel")
            with pytest.raises(ValueError, match="unknown model preset 'guidedepth-xl'"):
                build("guidedepth-xl")

    def test_fields_are_preset_and_guidance_type(self):
        assert [f.name for f in dataclasses.fields(B.ModelConfig)] == ["preset", "guidance_type"]


def convbns(model):
    return [m for _, m in model.named_modules() if isinstance(m, B.ConvBN)]


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = B.preset_config("guidedepth-tiny", guidance_type="laplacian")
        model = B.build_model(cfg, seed=5)
        # initialize BN running stats so they participate in the round trip
        with T.no_grad():
            model.forward(rand_image((2, 3, 16, 16), seed=33, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", model)
        loaded = B.load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == cfg
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        for ba, bb in zip(convbns(model), convbns(loaded)):
            assert bb.stats.initialized
            assert np.array_equal(ba.stats.mean, bb.stats.mean)
            assert np.array_equal(ba.stats.var, bb.stats.var)

    def test_arrays_named_by_module_path(self, tmp_path):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        with T.no_grad():
            model.forward(rand_image((2, 3, 16, 16), seed=35, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", model)
        meta, arrays = gdt.read_record(tmp_path / "ckpt")
        assert meta == {"preset": "guidedepth-tiny", "guidance_type": "image"}
        assert np.array_equal(arrays["stages.0.se.squeeze.weight"], model.stages[0].se.squeeze.weight.data)
        assert np.array_equal(arrays["encoder.stage1.conv3.running_var"], model.encoder.stage1.conv3.stats.var)

    def test_bn_that_never_ran(self, tmp_path):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", model)
        assert not any("running_" in p.name for p in (tmp_path / "ckpt").iterdir())
        loaded = B.load_checkpoint(tmp_path / "ckpt")
        assert convbns(loaded) and not any(cb.stats.initialized for cb in convbns(loaded))
        message = "ConvBN: eval mode before any running-stat update (weight (4, 3, 3, 3), input (1, 3, 16, 16))"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            loaded.forward(rand_image((1, 3, 16, 16), seed=36, dtype=np.float32))

    def test_shape_validation_on_load(self, tmp_path):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", model)
        meta = (tmp_path / "ckpt" / "meta").read_text()
        meta = meta.replace("preset = guidedepth-tiny", "preset = guidedepth-s")
        (tmp_path / "ckpt" / "meta").write_text(meta)
        with pytest.raises(
            ValueError, match=r"'encoder\.stage1\.conv3\.weight' has shape \(4, 3, 3, 3\), expected \(16, 3, 3, 3\)"
        ):
            B.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("guidance_type = image\n", "", "guidance_type"),
            ("guidance_type = image\n", "guidance_type = image\ndropout = 0.1\n", "dropout"),
            ("preset = guidedepth-tiny\n", "preset = 4\n", "preset"),
            ("preset = guidedepth-tiny\n", "preset = guidedepth-xl\n", "preset"),
            ("guidance_type = image\n", "guidance_type = sobel\n", "guidance_type"),
            ("preset = guidedepth-tiny\n", "preset = guidedepth-tiny\npreset = guidedepth\n", "preset"),
            ("guidance_type = image\n", "guidance_type = image\nguidance_branch = gub\n", "guidance_branch"),
            ("preset = guidedepth-tiny\n", "encoder_width = 4\n", "encoder_width"),
        ],
        ids=[
            "missing",
            "unknown",
            "bad-value",
            "rejected-value",
            "rejected-guidance-type",
            "repeated",
            "key-of-older-checkpoints",
            "width-key-of-older-checkpoints",
        ],
    )
    def test_config_key_errors_name_key_and_manifest(self, tmp_path, old, new, key):
        B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth-tiny"), seed=6))
        meta = tmp_path / "ckpt" / "meta"
        text = meta.read_text()
        assert old in text
        meta.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            B.load_checkpoint(tmp_path / "ckpt")
        assert key in str(info.value) and str(meta) in str(info.value)

    @pytest.mark.parametrize("stat", ["running_mean", "running_var"])
    def test_partial_bn_statistics_rejected(self, tmp_path, stat):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        with T.no_grad():
            model.forward(rand_image((2, 3, 16, 16), seed=34, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", model)
        key = f"encoder.stage1.conv3.{stat}"
        (tmp_path / "ckpt" / f"{key}.gdt").unlink()
        with pytest.raises(ValueError, match=key):
            B.load_checkpoint(tmp_path / "ckpt")

    def test_older_format_named_by_its_old_arrays(self, tmp_path):
        """A checkpoint with a bias for every conv and separate batch-norm
        modules is rejected for its unknown arrays before any missing one."""
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        arrays = {}
        for name, p in model.named_parameters():
            path, _, leaf = name.rpartition(".")
            if path.endswith(("conv3", "conv1")) and leaf != "weight":
                arrays[f"{path[:-5]}bn{path[-1]}.{leaf}"] = p.data
                arrays[f"{path}.bias"] = np.zeros_like(p.data)
            else:
                arrays[name] = p.data
        gdt.write_record(tmp_path / "ckpt", dataclasses.asdict(model.config), arrays)
        with pytest.raises(ValueError, match=r"unknown arrays \['encoder\.stage1\.bn1\.beta'"):
            B.load_checkpoint(tmp_path / "ckpt")

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg = B.preset_config("guidedepth-tiny")
        B.save_checkpoint(tmp_path / "ckpt", B.build_model(cfg, seed=6))
        write, calls = gdt.write_array, []

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            write(path, arr)

        monkeypatch.setattr(gdt, "write_array", failing_write)
        with pytest.raises(OSError, match="disk full"):
            B.save_checkpoint(tmp_path / "ckpt", B.build_model(cfg, seed=7))
        monkeypatch.undo()
        loaded = B.load_checkpoint(tmp_path / "ckpt")
        for (_, pa), (_, pb) in zip(B.build_model(cfg, seed=6).named_parameters(), loaded.named_parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_save_leaves_no_file_of_an_earlier_save(self, tmp_path):
        big = B.build_model(B.preset_config("guidedepth"), seed=6)
        with T.no_grad():
            big.forward(rand_image((2, 3, 16, 16), seed=37, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", big)
        tiny = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", tiny)
        expected = {f"{name}.gdt" for name, _ in tiny.named_parameters()} | {"meta"}
        assert {p.name for p in (tmp_path / "ckpt").iterdir()} == expected
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        B.load_checkpoint(tmp_path / "ckpt")

    def test_directory_without_manifest_not_replaced(self, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "notes.txt").write_text("keep me")
        with pytest.raises(FileExistsError):
            B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth-tiny"), seed=6))
        assert (tmp_path / "ckpt" / "notes.txt").read_text() == "keep me"

    @pytest.mark.parametrize("entry", ["file", "directory"])
    def test_checkpoint_with_stray_entry_not_replaced(self, tmp_path, entry):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", model)
        stray = tmp_path / "ckpt" / "notes"
        if entry == "file":
            stray.write_text("keep me")
        else:
            stray.mkdir()
        with pytest.raises(FileExistsError, match="notes"):
            B.save_checkpoint(tmp_path / "ckpt", model)
        assert stray.exists()
        B.load_checkpoint(tmp_path / "ckpt")

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", model)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(B, "_kaiming", no_draw)
        loaded = B.load_checkpoint(tmp_path / "ckpt")
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            B.load_checkpoint(tmp_path / "nope")

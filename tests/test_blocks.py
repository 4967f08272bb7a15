"""Architecture blocks: shape contracts, guidance variants, init, checkpoints."""

import gc
import tracemalloc

import numpy as np
import pytest

from guidedepth import blocks as B
from guidedepth import gdt
from guidedepth import tensor as T
from helpers import check_grads, directional_grad_check, perturb_params


def rand_image(shape, seed=0, dtype=np.float64):
    return T.Tensor(np.random.default_rng(seed).uniform(0, 1, shape), dtype=dtype)


class TestStackedConv:
    def test_preserves_spatial_dims(self):
        sc = B.StackedConv(3, 4, np.random.default_rng(0))
        out = sc.forward(T.Tensor(np.ones((1, 3, 8, 8), np.float32)), train=True)
        assert out.shape == (1, 4, 8, 8)

    def test_zero_bn_gammas_zero_output(self):
        sc = B.StackedConv(2, 3, np.random.default_rng(1), dtype=np.float64)
        sc.bn3.gamma.data[...] = 0.0
        sc.bn1.gamma.data[...] = 0.0
        out = sc.forward(rand_image((1, 2, 6, 6), seed=2), train=True)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_channel_mismatch_rejected(self):
        sc = B.StackedConv(3, 4, np.random.default_rng(2))
        with pytest.raises(ValueError):
            sc.forward(T.zeros((1, 2, 8, 8)), train=True)

    def test_gradient_over_all_params(self):
        sc = B.StackedConv(2, 2, np.random.default_rng(3), dtype=np.float64)
        x = rand_image((1, 2, 4, 4), seed=4)
        params = dict(sc.named_parameters())

        def f():
            out = sc.forward(x, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, params, tol=1e-2, step=1e-4)


class TestSqueezeExcite:
    def test_forced_half_gate(self):
        """Zeroed excite weights make the gate sigmoid(0) = 0.5 everywhere."""
        se = B.SqueezeExcite(8, 4, np.random.default_rng(5), dtype=np.float64)
        se.excite.weight.data[...] = 0.0
        se.excite.bias.data[...] = 0.0
        x = rand_image((2, 8, 4, 4), seed=6)
        np.testing.assert_allclose(se.forward(x).data, 0.5 * x.data, rtol=1e-12)

    def test_zero_input_zero_output(self):
        se = B.SqueezeExcite(4, 4, np.random.default_rng(7))
        out = se.forward(T.zeros((1, 4, 3, 3)))
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            B.SqueezeExcite(6, 4, np.random.default_rng(8))

    def test_gate_contracts_magnitudes(self):
        """Gate values lie in (0, 1), so |output| <= |input| elementwise."""
        rng = np.random.default_rng(9)
        for seed in range(5):
            se = B.SqueezeExcite(8, 2, np.random.default_rng(seed), dtype=np.float64)
            x = T.Tensor(rng.standard_normal((2, 8, 5, 5)), dtype=np.float64)
            out = se.forward(x)
            assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-12)

    def test_largest_divisor_fallback(self):
        assert B.largest_divisor_upto(67, 4) == 1
        assert B.largest_divisor_upto(128, 4) == 4
        assert B.largest_divisor_upto(35, 4) == 1
        assert B.largest_divisor_upto(12, 4) == 4
        assert B.largest_divisor_upto(2, 4) == 2


class TestGuidedUpsampler:
    def test_shape_contract(self):
        gub = B.GuidedUpsampler(16, 8, "image", "gub", 4, np.random.default_rng(10))
        z = T.zeros((1, 16, 6, 8))
        guide = T.zeros((1, 3, 12, 16))
        assert gub.forward(z, guide, train=True).shape == (1, 8, 12, 16)

    def test_guide_resolution_mismatch_rejected(self):
        gub = B.GuidedUpsampler(4, 4, "image", "gub", 4, np.random.default_rng(11))
        with pytest.raises(ValueError):
            gub.forward(T.zeros((1, 4, 6, 8)), T.zeros((1, 3, 6, 8)), train=True)

    def test_zeroed_residual_path_reduces_to_upsample(self):
        """Zero BN affines in the correction branch leave reduce(upsample(z)) exactly."""
        gub = B.GuidedUpsampler(4, 2, "image", "gub", 4, np.random.default_rng(12), dtype=np.float64)
        gub.s_res.bn3.gamma.data[...] = 0.0
        gub.s_res.bn3.beta.data[...] = 0.0
        gub.s_res.bn1.gamma.data[...] = 0.0
        gub.s_res.bn1.beta.data[...] = 0.0
        z = rand_image((1, 4, 4, 4), seed=13)
        guide = rand_image((1, 3, 8, 8), seed=14)
        out = gub.forward(z, guide, train=True)
        h_up = T.bilinear_resize(z, 8, 8)
        expect = gub.reduce.forward(h_up)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-14)

    def test_direct_branch_concat_width(self):
        direct = B.GuidedUpsampler(8, 4, "image", "direct", 4, np.random.default_rng(15))
        # s_res consumes c_in + 3 channels instead of 2 * c_in
        assert direct.s_res.conv3.weight.shape[1] == 11
        assert direct.s_guide is None

    def test_direct_has_fewer_params_than_gub(self):
        count = lambda m: sum(p.data.size for _, p in m.named_parameters())
        gub = B.GuidedUpsampler(8, 4, "image", "gub", 4, np.random.default_rng(16))
        direct = B.GuidedUpsampler(8, 4, "image", "direct", 4, np.random.default_rng(16))
        assert count(direct) < count(gub)

    def test_gradients_all_params(self):
        gub = B.GuidedUpsampler(2, 2, "image", "gub", 2, np.random.default_rng(17), dtype=np.float64)
        z = rand_image((1, 2, 3, 4), seed=18)
        guide = rand_image((1, 3, 6, 8), seed=19)

        def f():
            out = gub.forward(z, guide, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, dict(gub.named_parameters()), tol=1e-2, step=1e-4)

    def test_direct_gradient(self):
        direct = B.GuidedUpsampler(2, 2, "image", "direct", 1, np.random.default_rng(20), dtype=np.float64)
        z = rand_image((1, 2, 3, 3), seed=21)
        guide = rand_image((1, 3, 6, 6), seed=22)

        def f():
            out = direct.forward(z, guide, train=True)
            return T.sum_all(T.mul(out, out))

        check_grads(f, dict(direct.named_parameters()), tol=1e-2, step=1e-4)


class TestLaplacianGuidance:
    def test_constant_image_gives_zero_residual(self):
        x = T.full((1, 3, 16, 16), 0.7, dtype=np.float64)
        for k in range(3):
            out = B.laplacian_guidance(x, k)
            np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_linear_ramp_near_zero_interior(self):
        """Bilinear resampling reproduces linear images, so the residual vanishes
        away from clamped borders."""
        h, w = 32, 32
        ramp = np.add.outer(np.linspace(0, 1, h), np.linspace(0, 1, w))
        x = T.Tensor(np.broadcast_to(ramp, (1, 3, h, w)).copy(), dtype=np.float64)
        out = B.laplacian_guidance(x, 0)
        interior = out.data[:, :, 4 : h - 4, 4 : w - 4]
        assert np.abs(interior).max() < 1e-5

    def test_shape_matches_image_guidance(self):
        x = rand_image((1, 3, 24, 32), seed=23)
        for k in range(3):
            assert B.laplacian_guidance(x, k).shape == (1, 3, 24 >> k, 32 >> k)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            B.laplacian_guidance(T.zeros((1, 3, 10, 10)), 2)


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


ALL_VARIANTS = [
    ("image", "gub"),
    ("image", "direct"),
    ("laplacian", "gub"),
    ("laplacian", "direct"),
    ("none", "gub"),
]


class TestDepthNet:
    @pytest.mark.parametrize("gtype,gbranch", ALL_VARIANTS)
    def test_shape_contract_all_variants(self, gtype, gbranch):
        cfg = B.preset_config("guidedepth-tiny", guidance_type=gtype, guidance_branch=gbranch)
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
        """An abandoned train-mode graph is freed by reference counting alone.

        Only numpy's array buffers are counted: Python's object free lists
        keep filling for dozens of calls and would hide or fake a trend.
        """

        def array_bytes():
            only_arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            snap = tracemalloc.take_snapshot().filter_traces([only_arrays])
            return sum(stat.size for stat in snap.statistics("filename"))

        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=7)
        x = rand_image((1, 3, 16, 16), seed=32, dtype=np.float32)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            model.forward(x, train=True)  # warm caches such as the resize matrices
            before = array_bytes()
            for _ in range(100):
                model.forward(x, train=True)
            growth = array_bytes() - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert growth < 16 * 1024, f"array memory grew by {growth} bytes over 100 forwards"

    def test_indivisible_input_rejected(self):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=2)
        with pytest.raises(ValueError):
            model.forward(T.zeros((1, 3, 50, 64)))

    def test_guidance_path_is_live(self):
        """Zeroing the guidance image must change the output in image/gub mode."""
        cfg = B.preset_config("guidedepth-tiny")
        model = B.build_model(cfg, seed=3)
        rng = np.random.default_rng(30)
        x = T.Tensor(rng.uniform(0.2, 1.0, (1, 3, 48, 64)), dtype=np.float32)
        with T.no_grad():
            base = model.forward(x, train=True).data.copy()
            z = model.encoder.forward(x, train=True)
            guides = [T.zeros(g.shape) for g in model.guidance_pyramid(x)]
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
            conv = B.Conv(3, 8, 3, np.random.default_rng(seed), stride=1, padding=1, dtype=np.float64)
            x = T.Tensor(rng.standard_normal((1, 3, 16, 16)), dtype=np.float64)
            out = conv.forward(x)
            ratios.append(out.data.var() / x.data.var())
        mean_ratio = float(np.mean(ratios))
        assert 0.25 < mean_ratio < 4.0

    def test_biases_zero_gammas_one(self):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=13)
        for name, p in model.named_parameters():
            if name.endswith(".bias") or name.endswith(".beta"):
                assert not p.data.any(), name
            if name.endswith(".gamma"):
                assert np.array_equal(p.data, np.ones_like(p.data)), name


class TestModelConfig:
    def test_preset_channel_plan(self):
        assert B.preset_config("guidedepth").decoder_channels == (64, 32, 16)
        assert B.preset_config("guidedepth-s").decoder_channels == (32, 16, 8)
        assert B.preset_config("guidedepth-tiny").decoder_channels == (8, 4, 2)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            B.ModelConfig(decoder_channels=(8, 4))
        with pytest.raises(ValueError):
            B.ModelConfig(guidance_type="sobel")
        with pytest.raises(ValueError):
            B.ModelConfig(guidance_branch="skip")
        with pytest.raises(ValueError):
            B.preset_config("guidedepth-xl")


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
        for (_, ba), (_, bb) in zip(model.named_batchnorms(), loaded.named_batchnorms()):
            assert bb.stats.initialized
            assert np.array_equal(ba.stats.mean, bb.stats.mean)
            assert np.array_equal(ba.stats.var, bb.stats.var)

    def test_shape_validation_on_load(self, tmp_path):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        B.save_checkpoint(tmp_path / "ckpt", model)
        manifest = (tmp_path / "ckpt" / "manifest.txt").read_text()
        manifest = manifest.replace("decoder_channels = 8,4,2", "decoder_channels = 4,4,2")
        (tmp_path / "ckpt" / "manifest.txt").write_text(manifest)
        from guidedepth.gdt import GdtShapeError

        with pytest.raises(GdtShapeError):
            B.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("se_reduction = 4\n", "", "se_reduction"),
            ("[tensors]\n", "dropout = 0.1\n[tensors]\n", "dropout"),
            ("encoder_width = 4\n", "encoder_width = 4.5\n", "encoder_width"),
        ],
        ids=["missing", "unknown", "bad-value"],
    )
    def test_config_key_errors_name_key_and_manifest(self, tmp_path, old, new, key):
        B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth-tiny"), seed=6))
        manifest = tmp_path / "ckpt" / "manifest.txt"
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            B.load_checkpoint(tmp_path / "ckpt")
        assert key in str(info.value) and str(manifest) in str(info.value)

    @pytest.mark.parametrize("stat", ["running_mean", "running_var"])
    def test_partial_bn_statistics_rejected(self, tmp_path, stat):
        model = B.build_model(B.preset_config("guidedepth-tiny"), seed=6)
        with T.no_grad():
            model.forward(rand_image((2, 3, 16, 16), seed=34, dtype=np.float32), train=True)
        B.save_checkpoint(tmp_path / "ckpt", model)
        manifest = tmp_path / "ckpt" / "manifest.txt"
        key = f"encoder.stage1.bn3.{stat}"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if not line.startswith(f"{key} =")))
        with pytest.raises(ValueError, match=key):
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
        B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth"), seed=6))
        B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth-tiny"), seed=6))
        manifest = (tmp_path / "ckpt" / "manifest.txt").read_text()
        listed = {line.partition("=")[2].strip() for line in manifest.split("[tensors]")[1].splitlines() if line}
        assert {p.name for p in (tmp_path / "ckpt").iterdir()} == listed | {"manifest.txt"}
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        B.load_checkpoint(tmp_path / "ckpt")

    def test_directory_without_manifest_not_replaced(self, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "notes.txt").write_text("keep me")
        with pytest.raises(FileExistsError):
            B.save_checkpoint(tmp_path / "ckpt", B.build_model(B.preset_config("guidedepth-tiny"), seed=6))
        assert (tmp_path / "ckpt" / "notes.txt").read_text() == "keep me"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            B.load_checkpoint(tmp_path / "nope")

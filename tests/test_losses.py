"""Loss oracles: closed-form SSIM cases, hand-computed gradient/L1 values,
linearity and invariance properties, finite-difference gradient checks."""

import numpy as np
import pytest

from guidedepth import losses as L
from guidedepth import tensor as T
from helpers import check_grads


def tmap(arr, dtype=np.float64, requires_grad=False):
    return T.Tensor(np.asarray(arr, dtype=dtype).reshape(1, 1, *np.asarray(arr).shape[-2:]), requires_grad=requires_grad, dtype=dtype)


CFG = L.LossConfig()


class TestSsim:
    def test_identical_images_give_exactly_one(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.uniform(0, 10, (2, 1, 12, 16)), dtype=np.float64)
        assert L.ssim(x, x, CFG).item() == 1.0

    def test_constant_patch_closed_form(self):
        """Constant images of levels k1, k2: variance terms vanish, so
        SSIM = (2*k1*k2 + C1) / (k1^2 + k2^2 + C1) at every window."""
        for k1, k2 in [(2.0, 5.0), (1.0, 9.0), (4.0, 4.0)]:
            a = T.Tensor(np.full((1, 1, 2, 2), k1))
            b = T.Tensor(np.full((1, 1, 2, 2), k2))
            got = L.ssim(a, b, CFG).item()
            want = (2 * k1 * k2 + CFG.c1) / (k1 * k1 + k2 * k2 + CFG.c1)
            assert abs(got - want) < 1e-6

    def test_inverted_high_contrast_is_negative(self):
        rng = np.random.default_rng(1)
        binary = (rng.random((1, 1, 16, 16)) > 0.5) * CFG.dynamic_range
        x = T.Tensor(binary, dtype=np.float64)
        y = T.Tensor(CFG.dynamic_range - binary, dtype=np.float64)
        assert L.ssim(x, y, CFG).item() < 0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = T.Tensor(rng.uniform(0, 10, (1, 1, 10, 10)), dtype=np.float64)
        b = T.Tensor(rng.uniform(0, 10, (1, 1, 10, 10)), dtype=np.float64)
        assert abs(L.ssim(a, b, CFG).item() - L.ssim(b, a, CFG).item()) < 1e-6

    def test_range(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            a = T.Tensor(rng.uniform(0, 10, (1, 1, 8, 8)), dtype=np.float64)
            b = T.Tensor(rng.uniform(0, 10, (1, 1, 8, 8)), dtype=np.float64)
            v = L.ssim(a, b, CFG).item()
            assert -1.0 <= v <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            L.ssim(T.Tensor(np.zeros((1, 1, 4, 4), np.float32)), T.Tensor(np.zeros((1, 1, 4, 5), np.float32)), CFG)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        a = T.Tensor(rng.uniform(1, 9, (1, 1, 8, 8)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.uniform(1, 9, (1, 1, 8, 8)), requires_grad=True, dtype=np.float64)
        check_grads(lambda: L.ssim(a, b, CFG), {"a": a, "b": b}, tol=1e-3, step=1e-4)


class TestDssim:
    def test_identical_maps_give_zero(self):
        x = T.Tensor(np.random.default_rng(5).uniform(0, 10, (1, 1, 9, 9)), dtype=np.float64)
        assert L.dssim_loss(x, x, CFG).item() == 0.0

    def test_anticorrelated_constant_windows_approach_one(self):
        """SSIM -> -1 needs 2*k1*k2 + C1 -> -(k1^2 + k2^2 + C1); constant patches
        cannot reach it, but a checkerboard against its inverse at high contrast
        drives DSSIM close to 1."""
        n = 16
        cb = np.indices((n, n)).sum(axis=0) % 2
        x = tmap(cb * CFG.dynamic_range)
        y = tmap((1 - cb) * CFG.dynamic_range)
        v = L.dssim_loss(x, y, CFG).item()
        assert 0.9 < v <= 1.0

    def test_value_range(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = T.Tensor(rng.uniform(0, 10, (1, 1, 7, 7)), dtype=np.float64)
            y = T.Tensor(rng.uniform(0, 10, (1, 1, 7, 7)), dtype=np.float64)
            assert 0.0 <= L.dssim_loss(x, y, CFG).item() <= 1.0

    def test_gradient(self):
        rng = np.random.default_rng(7)
        y = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), dtype=np.float64)
        p = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), requires_grad=True, dtype=np.float64)
        check_grads(lambda: L.dssim_loss(y, p, CFG), {"p": p}, tol=1e-3, step=1e-4)


class TestGradLoss:
    def test_identical_maps_zero(self):
        x = T.Tensor(np.random.default_rng(8).uniform(0, 5, (1, 1, 5, 5)), dtype=np.float64)
        assert L.grad_loss(x, x).item() == 0.0

    def test_horizontal_ramp_against_constant(self):
        """y constant, yhat a horizontal ramp of slope s: only the x-derivative
        contributes and the loss equals |s| exactly."""
        s = 0.37
        y = T.Tensor(np.full((1, 1, 3, 3), 2.0))
        ramp = np.tile(np.arange(3.0) * s, (3, 1))
        yhat = tmap(ramp)
        assert abs(L.grad_loss(y, yhat).item() - s) < 1e-12

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(9)
        y = T.Tensor(rng.uniform(0, 5, (1, 1, 6, 7)), dtype=np.float64)
        p = T.Tensor(rng.uniform(0, 5, (1, 1, 6, 7)), dtype=np.float64)
        shifted = T.affine(p, 1.0, 11.5)
        assert L.grad_loss(y, p).item() == L.grad_loss(y, shifted).item()

    def test_gradient(self):
        rng = np.random.default_rng(11)
        y = T.Tensor(rng.uniform(0, 5, (1, 1, 5, 6)), dtype=np.float64)
        p = T.Tensor(rng.uniform(0, 5, (1, 1, 5, 6)), requires_grad=True, dtype=np.float64)
        check_grads(lambda: L.grad_loss(y, p), {"p": p}, tol=1e-3, step=1e-5)

    def test_matches_np_diff_reference(self):
        rng = np.random.default_rng(15)
        for shape in [(1, 1, 2, 2), (2, 1, 5, 7), (3, 2, 9, 4)]:
            y = rng.uniform(0, 5, shape)
            p = rng.uniform(0, 5, shape)
            want = (np.abs(np.diff(y, axis=3) - np.diff(p, axis=3)).mean()
                    + np.abs(np.diff(y, axis=2) - np.diff(p, axis=2)).mean())
            got = L.grad_loss(T.Tensor(y, dtype=np.float64), T.Tensor(p, dtype=np.float64)).item()
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 1, 1, 5), (1, 1, 5, 1)])
    def test_map_below_2x2_rejected_naming_shape(self, shape):
        x = T.Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match="grad_loss") as info:
            L.grad_loss(x, x)
        assert str(shape) in str(info.value)


class TestL1Loss:
    def test_identical_zero(self):
        x = T.Tensor(np.random.default_rng(12).uniform(0, 5, (1, 1, 4, 4)), dtype=np.float64)
        assert L.l1_loss(x, x).item() == 0.0

    def test_hand_value(self):
        y = tmap(np.array([[0.0, 0.0]]))
        p = tmap(np.array([[1.0, 3.0]]))
        assert L.l1_loss(y, p).item() == 2.0

    def test_gradient_is_scaled_sign(self):
        rng = np.random.default_rng(13)
        y = T.Tensor(rng.uniform(0, 5, (1, 1, 4, 5)), dtype=np.float64)
        p = T.Tensor(rng.uniform(0, 5, (1, 1, 4, 5)), requires_grad=True, dtype=np.float64)
        T.backward(L.l1_loss(y, p))
        want = np.sign(p.data - y.data) / p.data.size
        np.testing.assert_allclose(p.grad, want)
        check_grads(lambda: L.l1_loss(y, p), {"p": p}, tol=1e-3, step=1e-5)

    @pytest.mark.parametrize("term", ["grad_loss", "l1_loss"])
    def test_shape_mismatch_rejected_naming_the_term(self, term):
        y, p = tmap(np.zeros((4, 5))), tmap(np.zeros((4, 6)))
        with pytest.raises(ValueError, match=rf"^{term}: shape mismatch \(1, 1, 4, 5\) vs \(1, 1, 4, 6\)$"):
            getattr(L, term)(y, p)


class TestCombinedLoss:
    def test_identical_maps_zero(self):
        x = T.Tensor(np.random.default_rng(14).uniform(1, 9, (1, 1, 8, 8)), dtype=np.float64)
        assert L.loss_terms(x, x, CFG)["total"].item() == 0.0

    def test_positive_otherwise(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            y = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), dtype=np.float64)
            p = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), dtype=np.float64)
            assert L.loss_terms(y, p, CFG)["total"].item() > 0.0

    def test_decomposes_into_terms(self):
        rng = np.random.default_rng(16)
        y = T.Tensor(rng.uniform(1, 9, (1, 1, 7, 7)), dtype=np.float64)
        p = T.Tensor(rng.uniform(1, 9, (1, 1, 7, 7)), dtype=np.float64)
        total = L.loss_terms(y, p, CFG)["total"].item()
        parts = (
            L.dssim_loss(y, p, CFG).item()
            + L.grad_loss(y, p).item()
            + CFG.lambda_l1 * L.l1_loss(y, p).item()
        )
        assert abs(total - parts) < 1e-6

    def test_lambda_linearity(self):
        """d(combined)/d(lambda) equals the L1 value."""
        rng = np.random.default_rng(17)
        y = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 8)), dtype=np.float64)
        p = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 8)), dtype=np.float64)
        l1 = L.l1_loss(y, p).item()
        a = L.loss_terms(y, p, L.LossConfig(lambda_l1=0.1))["total"].item()
        b = L.loss_terms(y, p, L.LossConfig(lambda_l1=0.7))["total"].item()
        assert abs((b - a) - (0.7 - 0.1) * l1) < 1e-6

    def test_full_gradient(self):
        rng = np.random.default_rng(18)
        y = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), dtype=np.float64)
        p = T.Tensor(rng.uniform(1, 9, (1, 1, 6, 6)), requires_grad=True, dtype=np.float64)
        check_grads(lambda: L.loss_terms(y, p, CFG)["total"], {"p": p}, tol=1e-3, step=1e-5)


class TestLossConfig:
    def test_default_stabilizers_follow_dynamic_range(self):
        cfg = L.LossConfig(dynamic_range=20.0)
        assert cfg.c1 == pytest.approx((0.2) ** 2)
        assert cfg.c2 == pytest.approx((0.6) ** 2)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            L.LossConfig(lambda_l1=0.0)
        with pytest.raises(ValueError):
            L.LossConfig(ssim_window=10)
        with pytest.raises(ValueError, match=r"^LossConfig: ssim_sigma must be positive, got 0\.0$"):
            L.LossConfig(ssim_sigma=0.0)
        with pytest.raises(ValueError):
            L.LossConfig(dynamic_range=0.0)

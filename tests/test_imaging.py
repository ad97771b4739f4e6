import numpy as np
import pytest
from oracles import blur_oracle

from digitbench import (ParameterError, Preprocessor, ShapeError,
                        gaussian_kernel_1d, imaging)
from digitbench.imaging import _blur, _deskew, _resize, _sample_bilinear, _skew


def direct_blur(img, sigma):
    # direct 2-D convolution with the outer-product kernel, reflect padding
    k1 = gaussian_kernel_1d(sigma)
    k2 = np.outer(k1, k1)
    r = (len(k1) - 1) // 2
    padded = np.pad(img, r, mode="reflect")
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = np.sum(k2 * padded[y:y + 2 * r + 1, x:x + 2 * r + 1])
    return out


def shear_image(img, s):
    # forward shear by s about the intensity centroid row, inverse-sampled
    h, w = img.shape
    total = img.sum()
    cy = (np.arange(h)[:, None] * img).sum() / total
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    return _sample_bilinear(img[None], yy, xx + s * (yy - cy), fill=0.0)[0]


class TestResize:
    def test_constant_stays_constant(self):
        img = np.full((7, 11), 0.375)
        out = _resize(img[None], 28, 28)
        assert out.shape == (1, 28, 28)
        assert np.all(out == 0.375)

    def test_identity(self):
        rng = np.random.default_rng(3)
        img = rng.random((5, 9))
        assert np.array_equal(_resize(img[None], 5, 9)[0], img)

    def test_1x2_to_1x4(self):
        # hand-evaluated: src_x = (dst + 0.5) * 0.5 - 0.5 = -0.25, 0.25, 0.75, 1.25
        out = _resize(np.array([[[0.0, 1.0]]]), 1, 4)
        assert np.allclose(out, [[[0.0, 0.25, 0.75, 1.0]]], atol=1e-15)

    def test_range_preserved(self):
        rng = np.random.default_rng(4)
        img = rng.random((17, 23))
        out = _resize(img[None], 28, 28)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestGaussianBlur:
    def test_kernel_radius_and_center(self):
        k = gaussian_kernel_1d(0.8)
        assert len(k) == 7
        assert k.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(k, k[::-1])
        assert k[3] == pytest.approx(0.49867645200647487, abs=1e-15)

    def test_constant_exact(self):
        img = np.full((28, 28), 0.6)
        out = _blur(img[None], 0.8)
        assert np.allclose(out, 0.6, atol=1e-12)

    def test_impulse_center_weight(self):
        img = np.zeros((21, 21))
        img[10, 10] = 1.0
        out = _blur(img[None], 0.8)[0]
        assert out[10, 10] == pytest.approx(0.24867820378576597, abs=1e-14)

    def test_impulse_mass_preserved(self):
        img = np.zeros((21, 21))
        img[10, 10] = 1.0
        assert _blur(img[None], 0.8).sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        img = rng.random((12, 14))
        assert np.allclose(_blur(img[None], 0.8)[0], direct_blur(img, 0.8),
                           atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.6, 0.8, 2.0, 12.5])
    @pytest.mark.parametrize("shape", [(32, 28, 28), (1, 28, 28), (4, 9, 13)])
    def test_matches_blur_oracle_bytes(self, shape, sigma):
        # at sigma 12.5 the radius, 38, exceeds every side
        stack = np.random.default_rng(10).random(shape)
        expect = blur_oracle(stack, gaussian_kernel_1d(sigma))
        assert _blur(stack, sigma).tobytes() == expect.tobytes()

    def test_commutes_with_flips(self):
        rng = np.random.default_rng(6)
        stack = rng.random((1, 15, 15))
        assert np.allclose(_blur(stack[:, :, ::-1], 1.1),
                           _blur(stack, 1.1)[:, :, ::-1], atol=1e-12)
        assert np.allclose(_blur(stack[:, ::-1, :], 1.1),
                           _blur(stack, 1.1)[:, ::-1, :], atol=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_kernel_1d(0.0)

    @pytest.mark.parametrize("sigma", [400.0, 1e300])
    def test_radius_capped(self, sigma):
        # radius 1,200 used to be built, and 1e300 ended in numpy's bare
        # "Maximum allowed size exceeded"
        with pytest.raises(ParameterError, match="at most 1024 pixels"):
            gaussian_kernel_1d(sigma)
        assert len(gaussian_kernel_1d(341.0)) == 2 * 1023 + 1


    @pytest.mark.parametrize("sigma", [1e-162, 1e-170, 5e-324])
    def test_underflowing_sigma_rejected(self, sigma):
        # 2 * sigma**2 rounds to 0: the kernel used to be all NaN, and the
        # error came later as "images[0] contains non-finite values"
        with pytest.raises(ParameterError, match=r"2 \* sigma\*\*2 underflows"
                           f".*sigma={sigma}"):
            gaussian_kernel_1d(sigma)
        with pytest.raises(ParameterError, match="sigma is too small"):
            Preprocessor(gaussian_sigma=sigma).transform(np.zeros((1, 28, 28)))


class TestDeskew:
    def vertical_bar(self):
        img = np.zeros((28, 28))
        img[4:24, 12:16] = 1.0
        return img

    def test_symmetric_bar_unchanged(self):
        img = self.vertical_bar()
        assert _skew(img[None])[0][0] == 0.0
        assert np.array_equal(_deskew(img[None])[0], img)

    def test_all_zero_passthrough(self):
        img = np.zeros((16, 16))
        assert _skew(img[None])[0][0] == 0.0
        assert np.array_equal(_deskew(img[None])[0], img)

    def test_sheared_bar_recovered(self):
        sheared = shear_image(self.vertical_bar(), 0.3)
        assert abs(_skew(sheared[None])[0][0]) > 0.15
        assert abs(_skew(_deskew(sheared[None]))[0][0]) < 0.05

    def test_idempotent_to_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = np.zeros((28, 28))
            img[4:24, 10:18] = rng.random((20, 8))
            img = shear_image(img, rng.uniform(-0.4, 0.4))
            out = _deskew(img[None])
            assert abs(_skew(out)[0][0]) < 0.05

    def test_range_preserved(self):
        sheared = shear_image(self.vertical_bar(), 0.25)
        out = _deskew(sheared[None])
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPreprocessor:
    def test_shapes_and_range(self):
        rng = np.random.default_rng(8)
        for shape in ((2, 40, 30), (1, 28, 28), (3, 64, 64)):
            out = Preprocessor().transform(rng.random(shape))
            assert out.shape == (shape[0], 28, 28)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deskew_toggle(self):
        img = shear_image(np.pad(np.ones((12, 4)), 8), 0.3)
        on = Preprocessor(deskew_enabled=True).transform(img[None])[0]
        off = Preprocessor(deskew_enabled=False).transform(img[None])[0]
        assert not np.array_equal(on, off)
        assert abs(_skew(on[None])[0][0]) < abs(_skew(off[None])[0][0])

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            Preprocessor(target_side=4).transform(np.ones((10, 10))[None])[0]
        with pytest.raises(ParameterError):
            Preprocessor(gaussian_sigma=-1.0).transform(
                np.ones((10, 10))[None])[0]

    def test_batch_error_names_image(self):
        good = np.full((10, 10), 0.5)
        bad = np.full((10, 10), 2.0)
        with pytest.raises(ShapeError, match=r"images\[1\]"):
            Preprocessor().transform(np.stack([good, bad]))

    def test_ragged_list_rejected(self):
        images = [np.zeros((10, 10)), np.zeros((12, 12))]
        with pytest.raises(ShapeError, match="images must be an"):
            Preprocessor().transform(images)

    def test_identity_resize_skipped(self, monkeypatch):
        # at the target side the resize would return its input bit for bit
        stack = np.random.default_rng(9).random((3, 28, 28))
        expect = _deskew(_blur(_resize(stack, 28, 28), 0.8))

        def no_resize(*args):
            raise AssertionError("resize called at the target side")

        monkeypatch.setattr(imaging, "_resize", no_resize)
        out = Preprocessor(target_side=28).transform(stack)
        assert out.tobytes() == expect.tobytes()

    def test_get_params(self):
        pre = Preprocessor()
        assert pre.get_params() == {
            "target_side": 28, "gaussian_sigma": 0.8, "deskew_enabled": True}

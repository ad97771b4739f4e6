import math

import numpy as np
import pytest

from digitbench import ParameterError
from digitbench.base import IMAGE_BLOCK
from digitbench.features import (
    GaborDescriptor,
    HogDescriptor,
    LbpDescriptor,
    RawDescriptor,
    bandwidth_sigma,
    convolve2d_reflect,
    extract_batch,
    gabor_kernel,
    image_gradients,
    make_descriptor,
)


def hog_cell_oracle(img, cell=4, n_bins=9):
    # per-pixel reimplementation: replicate-border centered differences,
    # unsigned angle, split each magnitude vote across the two nearest bins
    h, w = img.shape
    cells = np.zeros((h // cell, w // cell, n_bins))
    for y in range(h):
        for x in range(w):
            gx = img[y, min(x + 1, w - 1)] - img[y, max(x - 1, 0)]
            gy = img[min(y + 1, h - 1), x] - img[max(y - 1, 0), x]
            mag = math.hypot(gx, gy)
            ang = math.atan2(gy, gx) % math.pi
            pos = ang * n_bins / math.pi - 0.5
            lo = math.floor(pos)
            frac = pos - lo
            cells[y // cell, x // cell, int(lo) % n_bins] += mag * (1 - frac)
            cells[y // cell, x // cell, (int(lo) + 1) % n_bins] += mag * frac
    return cells


def lbp_oracle(img, p, r):
    h, w = img.shape
    codes = np.zeros((h, w), dtype=int)
    lo = math.ceil(r)
    for y in range(h):
        for x in range(w):
            if not (lo <= y < h - lo and lo <= x < w - lo):
                continue
            code = 0
            for k in range(p):
                a = 2 * math.pi * k / p
                sy = y + r * math.sin(a)
                sx = x + r * math.cos(a)
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                fy, fx = sy - y0, sx - x0
                y0 = min(max(y0, 0), h - 1)
                x0 = min(max(x0, 0), w - 1)
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                top = img[y0, x0] + fx * (img[y0, x1] - img[y0, x0])
                bot = img[y1, x0] + fx * (img[y1, x1] - img[y1, x0])
                if top + fy * (bot - top) >= img[y, x]:
                    code |= 1 << k
            codes[y, x] = code
    return codes


def conv_oracle(img, kernel):
    # literal convolution sum out(y,x) = sum_k K[k] * img(y-k) on reflect pad
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(img, ((ry, ry), (rx, rx)), mode="reflect")
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(-ry, ry + 1):
                for j in range(-rx, rx + 1):
                    acc += kernel[i + ry, j + rx] * padded[y + ry - i, x + rx - j]
            out[y, x] = acc
    return out


class TestHog:
    def test_default_dim(self):
        img = np.random.default_rng(0).random((28, 28))
        desc = HogDescriptor()
        assert desc.transform(img[None])[0].shape == (1296,)

    def test_dim_formula_other_geometries(self):
        for side, cell, block, stride, bins in [(28, 7, 2, 1, 6), (32, 4, 2, 2, 9),
                                                (16, 4, 4, 1, 5), (24, 4, 3, 2, 9)]:
            desc = HogDescriptor(cell_side=cell, block_side=block, n_bins=bins,
                                 block_stride=stride)
            cells = side // cell
            blocks = (cells - block) // stride + 1
            want = blocks * blocks * block * block * bins
            img = np.random.default_rng(1).random((side, side))
            assert desc.transform(img[None])[0].shape == (want,)

    def test_zero_and_constant_images(self):
        desc = HogDescriptor()
        assert np.array_equal(desc.transform(np.zeros((28, 28))[None])[0],
                              np.zeros(1296))
        assert np.array_equal(desc.transform(np.full((28, 28), 0.7)[None])[0],
                              np.zeros(1296))

    def test_block_norms(self):
        rng = np.random.default_rng(2)
        desc = HogDescriptor()
        v = desc.transform(rng.random((28, 28))[None])[0]
        assert v.min() >= 0.0
        for b in v.reshape(36, 36):
            n = np.linalg.norm(b)
            assert n <= 1.0 + 1e-9
            assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0

    def test_cell_histograms_match_oracle(self):
        rng = np.random.default_rng(3)
        img = rng.random((12, 12))
        got = HogDescriptor()._cell_histograms(img[None])[0]
        assert np.allclose(got, hog_cell_oracle(img, cell=4, n_bins=9), atol=1e-12)

    def test_vertical_edge_votes_horizontal_gradient_bin(self):
        # left half dark, right half bright: gradient points along +x, angle 0
        img = np.zeros((12, 12))
        img[:, 6:] = 1.0
        cells = HogDescriptor()._cell_histograms(img[None])[0]
        oracle = hog_cell_oracle(img)
        assert np.allclose(cells, oracle, atol=1e-12)
        total = cells.sum(axis=(0, 1))
        # angle 0 sits halfway between the wrap pair of bins (centers at
        # +-pi/18 for 9 unsigned bins), so the vote splits across bins 0 and 8
        assert set(np.nonzero(total)[0]) == {0, 8}

    def test_translation_moves_cell_histograms(self):
        img = np.zeros((28, 28))
        img[9:12, 9:12] = 1.0
        shifted = np.zeros((28, 28))
        shifted[9:12, 13:16] = 1.0  # one cell width to the right
        a = HogDescriptor()._cell_histograms(img[None])[0]
        b = HogDescriptor()._cell_histograms(shifted[None])[0]
        assert np.allclose(a[1:5, 1:5], b[1:5, 2:6], atol=1e-12)

    def test_geometry_errors(self):
        img = np.random.default_rng(4).random((28, 28))
        with pytest.raises(ParameterError):
            HogDescriptor(cell_side=5).transform(img[None])[0]
        with pytest.raises(ParameterError):
            HogDescriptor(block_side=8).transform(img[None])[0]
        with pytest.raises(ParameterError):
            HogDescriptor(n_bins=1).transform(img[None])[0]
        with pytest.raises(ParameterError):
            HogDescriptor(block_stride=0).transform(img[None])[0]

    def test_gradients_replicate_borders(self):
        rng = np.random.default_rng(5)
        img = rng.random((6, 7))
        gx, gy = image_gradients(img)
        assert gx[2, 0] == img[2, 1] - img[2, 0]
        assert gx[2, 6] == img[2, 6] - img[2, 5]
        assert gy[0, 3] == img[1, 3] - img[0, 3]
        assert gx[3, 4] == img[3, 5] - img[3, 3]

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        img = rng.random((28, 28))
        a = HogDescriptor().transform(img[None])[0]
        b = HogDescriptor().transform(img[None])[0]
        assert a.tobytes() == b.tobytes()


class TestLbp:
    def test_code_range_and_border(self):
        rng = np.random.default_rng(7)
        desc = LbpDescriptor()
        for _ in range(5):
            codes = desc._codes(rng.random((28, 28))[None])[0]
            assert codes.min() >= 0 and codes.max() <= 1023
            border = np.ones((28, 28), dtype=bool)
            border[3:25, 3:25] = False
            assert np.all(codes[border] == 0)

    def test_constant_image_interior_all_ones(self):
        codes = LbpDescriptor()._codes(np.full((28, 28), 0.4)[None])[0]
        assert np.all(codes[3:25, 3:25] == 1023)

    def test_center_peak_gives_zero(self):
        img = np.full((9, 9), 0.2)
        img[4, 4] = 0.9
        codes = LbpDescriptor(neighbors=8, radius=1.0)._codes(img[None])[0]
        assert codes[4, 4] == 0

    def test_matches_oracle_9x9(self):
        rng = np.random.default_rng(8)
        img = rng.random((9, 9))
        got = LbpDescriptor(neighbors=8, radius=1.0)._codes(img[None])[0]
        assert np.array_equal(got, lbp_oracle(img, 8, 1.0))

    def test_matches_oracle_defaults(self):
        rng = np.random.default_rng(9)
        img = rng.random((14, 14))
        got = LbpDescriptor()._codes(img[None])[0]
        assert np.array_equal(got, lbp_oracle(img, 10, 3.0))

    def test_monotone_remap_binary_images(self):
        rng = np.random.default_rng(10)
        desc = LbpDescriptor()
        for _ in range(10):
            img = (rng.random((16, 16)) > 0.5) * 0.6
            remapped = np.sqrt(img) * 0.9 + 0.05  # strictly monotone on values
            assert np.array_equal(desc._codes(img[None])[0],
                                  desc._codes(remapped[None])[0])

    def test_affine_remap_any_image(self):
        rng = np.random.default_rng(11)
        desc = LbpDescriptor()
        for _ in range(10):
            img = rng.random((16, 16))
            assert np.array_equal(desc._codes(img[None])[0],
                                  desc._codes((0.5 * img + 0.25)[None])[0])

    def test_flat_mode(self):
        rng = np.random.default_rng(12)
        img = rng.random((28, 28))
        desc = LbpDescriptor()
        flat = desc.transform(img[None])[0]
        assert flat.shape == (784,)
        assert np.array_equal(flat, desc._codes(img[None])[0].ravel() / 1023.0)
        assert flat.min() >= 0.0 and flat.max() <= 1.0

    def test_histogram_mode(self):
        rng = np.random.default_rng(13)
        img = rng.random((28, 28))
        hist = LbpDescriptor(mode="histogram").transform(img[None])[0]
        assert hist.shape == (1024,)
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)
        codes = LbpDescriptor()._codes(img[None])[0]
        counts = np.bincount(codes.ravel(), minlength=1024)
        assert np.array_equal(hist, counts / codes.size)

    def test_param_errors(self):
        img = np.random.default_rng(14).random((10, 10))
        with pytest.raises(ParameterError):
            LbpDescriptor(radius=5.0)._codes(img[None])[0]
        with pytest.raises(ParameterError):
            LbpDescriptor(neighbors=0)._codes(img[None])[0]
        with pytest.raises(ParameterError):
            LbpDescriptor(neighbors=25)._codes(img[None])[0]
        with pytest.raises(ParameterError):
            LbpDescriptor(mode="both").transform(img[None])[0]


class TestGabor:
    def test_sigma_formula(self):
        assert bandwidth_sigma(0.9, 1.0) == pytest.approx(0.624635417097592,
                                                          abs=1e-15)

    def test_kernel_shape_center_and_sum(self):
        k = gabor_kernel(frequency=0.9, bandwidth=1.0, theta=0.0, n_stds=3.0)
        assert k.shape == (5, 5)
        assert k[2, 2] == 1.0 + 0.0j
        assert k.real.sum() == pytest.approx(2.27683387754367, abs=1e-12)

    def test_conjugate_symmetry_theta_zero(self):
        k = gabor_kernel(theta=0.0)
        assert np.allclose(k[:, ::-1], np.conj(k), atol=1e-15)

    def test_theta_quarter_turn_transposes(self):
        a = gabor_kernel(theta=0.0)
        b = gabor_kernel(theta=np.pi / 2)
        assert np.allclose(b, a.T, atol=1e-12)

    def test_constant_image_dc_response(self):
        k = gabor_kernel()
        c = 0.37
        resp = GaborDescriptor().transform(np.full((28, 28), c)[None])[0]
        assert np.allclose(resp, c * k.real.sum(), atol=1e-12)

    def test_zero_image(self):
        assert np.array_equal(
            GaborDescriptor().transform(np.zeros((28, 28))[None])[0],
            np.zeros(784))

    def test_linearity(self):
        rng = np.random.default_rng(15)
        desc = GaborDescriptor()
        for _ in range(5):
            x = rng.random((28, 28))
            y = rng.random((28, 28))
            a, b = rng.uniform(0.0, 0.5, size=2)
            lhs = desc.transform((a * x + b * y)[None])[0]
            rhs = (a * desc.transform(x[None])[0]
                   + b * desc.transform(y[None])[0])
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_convolution_matches_literal_sum(self):
        rng = np.random.default_rng(16)
        img = rng.random((10, 11))
        kernel = rng.random((5, 3))
        assert np.allclose(convolve2d_reflect(img, kernel),
                           conv_oracle(img, kernel), atol=1e-12)

    def test_output_dim(self):
        img = np.random.default_rng(17).random((28, 28))
        assert GaborDescriptor().transform(img[None])[0].shape == (784,)

    def test_underflowing_envelope_rejected(self):
        # sigma 5.6e-201: 2 * sigma**2 rounds to 0, which used to give an
        # all-NaN kernel and an all-NaN feature matrix
        with pytest.raises(ParameterError, match="underflows.*frequency=1e"):
            gabor_kernel(frequency=1e200)
        with pytest.raises(ParameterError, match="sigma is too small"):
            GaborDescriptor(frequency=1e200).transform(np.zeros((1, 28, 28)))

    def test_param_errors(self):
        with pytest.raises(ParameterError):
            gabor_kernel(frequency=0.0)
        with pytest.raises(ParameterError):
            gabor_kernel(bandwidth=-1.0)


@pytest.mark.parametrize("method, param", [
    ("gabor", "frequency"), ("gabor", "bandwidth"), ("gabor", "n_stds"),
    ("lbp", "radius")])
def test_nan_parameter_rejected(method, param):
    # NaN fails "<= 0" as well as "> 0"; it must not reach int(ceil(...))
    img = np.random.default_rng(18).random((1, 12, 12))
    with pytest.raises(ParameterError, match=f"{param} must be positive"):
        extract_batch(img, method, {param: math.nan})


@pytest.mark.parametrize("param, value", [
    (param, value) for param in ("frequency", "theta", "bandwidth", "n_stds")
    for value in (math.inf, -math.inf, math.nan)] + [
    # finite, but the kernel radius would be infinite or beyond any memory
    ("n_stds", 1e300), ("frequency", 1e-300), ("bandwidth", 1e-300)])
def test_nonfinite_gabor_parameter_rejected(param, value):
    # these used to surface as a bare OverflowError, ValueError or
    # ZeroDivisionError, or as a silent NaN kernel
    with pytest.raises(ParameterError,
                       match=f"{param} must be|must be .*{param}="):
        gabor_kernel(**{param: value})


def test_huge_gabor_bandwidth_saturates():
    # 2 ** 1100 overflows a float; from 54 octaves on the sigma ratio is 1.0
    assert np.array_equal(gabor_kernel(bandwidth=1100.0),
                          gabor_kernel(bandwidth=54.0))


class TestDispatch:
    def test_extract_tags_method(self):
        # the method name picks the descriptor that produces the features
        img = np.random.default_rng(18).random((28, 28))
        assert type(make_descriptor("hog")) is HogDescriptor
        X = extract_batch(img[None], "hog")
        assert X.shape == (1, 1296)
        assert np.array_equal(X[0], HogDescriptor().transform(img[None])[0])

    def test_extract_each_method(self):
        img = np.random.default_rng(19).random((28, 28))
        for method, dim in [("hog", 1296), ("lbp", 784), ("gabor", 784),
                            ("raw", 784)]:
            X = extract_batch(img[None], method)
            assert X.shape == (1, dim)
            assert np.array_equal(X[0], make_descriptor(method)
                                  .transform(img[None])[0])

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            extract_batch(np.ones((1, 28, 28)), "sift")

    def test_mismatched_descriptor_kind(self):
        # params are None, a dict or a descriptor of the method's own class
        img = np.random.default_rng(20).random((1, 28, 28))
        with pytest.raises(ParameterError, match="a HogDescriptor, got Lbp"):
            extract_batch(img, "hog", LbpDescriptor())
        desc = LbpDescriptor(radius=2.0)
        assert make_descriptor("lbp", desc) is desc
        assert np.array_equal(extract_batch(img, "lbp", desc),
                              desc.transform(img))

    def test_params_dict(self):
        img = np.random.default_rng(21).random((1, 28, 28))
        X = extract_batch(img, "hog", {"cell_side": 7})
        assert X.shape == (1, 324)

    def test_batch_matches_single_across_blocks(self):
        # more images than one processing block: each row equals the image
        # run alone, so no row depends on where the block boundaries fall
        rng = np.random.default_rng(22)
        imgs = rng.random((IMAGE_BLOCK + 6, 28, 28))
        for method in ("hog", "lbp", "gabor", "raw"):
            X = extract_batch(imgs, method)
            desc = make_descriptor(method)
            for i in range(len(imgs)):
                assert (X[i].tobytes()
                        == desc.transform(imgs[i][None])[0].tobytes())

    def test_raw_roundtrip(self):
        rng = np.random.default_rng(23)
        imgs = rng.random((3, 28, 28))
        X = RawDescriptor().transform(imgs)
        assert X.shape == (3, 784)
        assert np.array_equal(X[1], imgs[1].ravel())

    def test_make_descriptor_bad_params_type(self):
        with pytest.raises(ParameterError):
            make_descriptor("hog", params=[1, 2])

import numpy as np

from digitbench.datasets import synthetic_glyphs
from digitbench.features import (GaborDescriptor, HogDescriptor,
                                 LbpDescriptor)
from digitbench.viz import (render_feature, render_gabor, render_hog,
                            render_lbp, visualize, write_pgm)


def parse_pgm(path):
    """An ASCII PGM (P2) file as a [0, 1] image."""
    with open(path) as fh:
        tokens = [t for line in fh for t in line.split("#", 1)[0].split()]
    assert tokens[0] == "P2"
    w, h, maxval = (int(t) for t in tokens[1:4])
    values = np.array([int(t) for t in tokens[4:]], dtype=np.float64)
    assert values.size == w * h
    return values.reshape(h, w) / maxval


class TestPgm:
    def test_round_trip_quantized(self, tmp_path):
        img = np.linspace(0.0, 1.0, 48).reshape(6, 8)
        path = tmp_path / "ramp.pgm"
        write_pgm(path, img)
        back = parse_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_extremes_exact(self, tmp_path):
        img = np.array([[0.0, 1.0]])
        path = tmp_path / "bw.pgm"
        write_pgm(path, img)
        assert np.array_equal(parse_pgm(path), img)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_text("P2\n# made by hand\n2 1\n255\n255 0\n")
        assert np.array_equal(parse_pgm(p), [[1.0, 0.0]])


class TestRenderings:
    def test_constant_image_lbp_uniform(self):
        img = np.full((28, 28), 0.5)
        out = render_lbp(img, LbpDescriptor())
        # interior codes saturate at 2^P - 1; the border band has no code
        assert np.all(out[3:-3, 3:-3] == 1.0)
        assert np.all(out[:3] == 0.0) and np.all(out[:, :3] == 0.0)

    def test_constant_image_hog_blank(self):
        img = np.full((28, 28), 0.5)
        out = render_hog(img, HogDescriptor())
        assert np.all(out == 0.0)

    def test_constant_image_gabor_blank(self):
        img = np.full((28, 28), 0.5)
        out = render_gabor(img, GaborDescriptor())
        assert np.all(out == 0.0)

    def test_structured_image_renders_content(self):
        img, _ = synthetic_glyphs(1, seed=0)
        for method in ("hog", "lbp", "gabor", "raw"):
            out = render_feature(img[0], method)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.max() > 0.0

    def test_hog_canvas_geometry(self):
        img, _ = synthetic_glyphs(1, seed=1)
        out = render_hog(img[0], HogDescriptor())
        assert out.shape == (7 * 16, 7 * 16)  # 7x7 cells at 28/4


class TestVisualize:
    def test_exactly_three_files(self, tmp_path):
        img, _ = synthetic_glyphs(1, seed=2)
        paths = visualize(img[0], "hog", out_dir=tmp_path, stem="probe")
        assert len(paths) == 3
        names = [p.split("/")[-1] for p in paths]
        assert names == ["probe-original.pgm", "probe-preprocessed.pgm",
                         "probe-hog.pgm"]
        assert len(list(tmp_path.iterdir())) == 3

    def test_outputs_readable(self, tmp_path):
        img, _ = synthetic_glyphs(1, seed=3)
        for path in visualize(img[0], "gabor", out_dir=tmp_path):
            view = parse_pgm(path)
            assert view.ndim == 2 and view.size > 0

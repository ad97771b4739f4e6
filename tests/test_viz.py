import hashlib

import numpy as np
import pytest

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


# SHA-256 of every file ``visualize`` writes for the glyphs of
# synthetic_glyphs(3, seed=0, noise=0.35), named by stem "g<i>"; recorded
# on x86-64 with NumPy 2.4. The raw view repeats the preprocessed image and
# LBP renders the code image in either mode. A HOG view under other
# parameters is keyed by the file name and those parameters.
_VIEW_DIGESTS = {
    "g0-original.pgm": ("f0bdba3deb2eb9eedcb4c880c7a7d8f4"
                        "a363654b8dbf84e0d080ce6ca8c19938"),
    "g1-original.pgm": ("fc68b87d96725bc56a4dfb76ac938f5c"
                        "9d25e51667f7f2f27e6708fbcbf1ec73"),
    "g2-original.pgm": ("88ceed10bc826ada68fd9e9ced194d4f"
                        "f076a343d11a9ee52e96a9623671fc4d"),
    "g0-preprocessed.pgm": ("22534d46f6be7e57d4a9523d8407b6fd"
                            "be4db0a84c441e280048d5f8a67fe2fd"),
    "g1-preprocessed.pgm": ("6942456558d5d1e1480058cfa87f662f"
                            "b96644d11d38d5481ff021fab30eac02"),
    "g2-preprocessed.pgm": ("142b3aafd6f8b4bc5fcf3f341144c104"
                            "8443af73eea630c18a7e86085f546a85"),
    "g0-hog.pgm": ("0ed6a8fa7c46110579d2be02e66fe7ab"
                   "ab910f9f3c9ec093d9be068e346e6fb9"),
    "g1-hog.pgm": ("fe881514adbc4dd5dba7481ea700704c"
                   "35a936af303beacb1a91c2ebdf6f42ce"),
    "g2-hog.pgm": ("534479103b240291166701b720c146a1"
                   "2eb8cd6d2c727a47dff8e01415328b46"),
    "g0-lbp.pgm": ("d4e9ea6f1cb22adfd3ae8d2221ca4885"
                   "da77c365446efe38bec599f347b29164"),
    "g1-lbp.pgm": ("fe68ba77fa4b914871fd1395c1590d6e"
                   "5292b9c4b636e18e53e1e258c7418ab9"),
    "g2-lbp.pgm": ("93f9359aa2ceab2d5d0bf38e35cead23"
                   "75a229c0133ee0e1d3725366c57bb820"),
    "g0-gabor.pgm": ("b3e0da41ba5b4973892c2c516eb28382"
                     "2dd269b19473a70b51a4dff4cced3e67"),
    "g1-gabor.pgm": ("591d3bbec9dbce573fff1cf0eb71fc50"
                     "1e8b94e89ea363a1695ae5bdaca039e7"),
    "g2-gabor.pgm": ("a95f73f71d3cf664842776dc86bacd51"
                     "43f4ccc612a0e55846ae47e26fa8a108"),
    "g0-raw.pgm": ("22534d46f6be7e57d4a9523d8407b6fd"
                   "be4db0a84c441e280048d5f8a67fe2fd"),
    "g1-raw.pgm": ("6942456558d5d1e1480058cfa87f662f"
                   "b96644d11d38d5481ff021fab30eac02"),
    "g2-raw.pgm": ("142b3aafd6f8b4bc5fcf3f341144c104"
                   "8443af73eea630c18a7e86085f546a85"),
    "g0-hog.pgm signed_gradients=True": (
        "ac81a4824429684912e82fdd1bc8e8cda2171c9e15963c1ce5c95757cef756f8"),
    "g1-hog.pgm signed_gradients=True": (
        "8360df0756e76960d6244002849284ec6fef2cbe0dd596a5c3e9a43b1876eef5"),
    "g2-hog.pgm signed_gradients=True": (
        "0ec0b28e13ebb5566aedc67bb8a6e284827273879a097b7ff6b3e7557c828e41"),
    "g0-hog.pgm cell_side=7 n_bins=6": (
        "34800532bac655d012a1feb70500130b0ba78b03fd06fc19d60f9af490e0273b"),
    "g1-hog.pgm cell_side=7 n_bins=6": (
        "cd96e444c509c8fdac1f71dba5af5edd1fc548ad76dec8e987056b850b16a403"),
    "g2-hog.pgm cell_side=7 n_bins=6": (
        "a81ea1786a2bb4f848607b0fd9e89bda53647d0877e6f952aa7c9fb0aaf5760b"),
}


@pytest.mark.parametrize("method, params", [
    ("hog", None), ("lbp", None), ("lbp", {"mode": "histogram"}),
    ("gabor", None), ("raw", None),
    # 2 pi-period bins; 4 x 4 cells of 7 pixels with 6 bins
    ("hog", {"signed_gradients": True}),
    ("hog", {"cell_side": 7, "n_bins": 6})])
def test_visualize_files_unchanged(tmp_path, method, params):
    images, _ = synthetic_glyphs(3, seed=0, noise=0.35)
    for i, img in enumerate(images):
        for path in visualize(img, method, params, out_dir=tmp_path,
                              stem=f"g{i}"):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            name = path.split("/")[-1]
            if method == "hog" and params and name.endswith("-hog.pgm"):
                name += "".join(f" {k}={v}" for k, v in params.items())
            assert digest == _VIEW_DIGESTS[name], path

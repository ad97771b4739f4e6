import numpy as np
import pytest

from digitbench import (ParameterError, ParseError, ShapeError, SplitError,
                        datasets)
from digitbench.base import IMAGE_BLOCK
from digitbench.datasets import (LABEL_FIRST, LABEL_LAST, N_CLASSES, SplitSpec,
                                 file_digest, glyph_template, load_csv,
                                 load_feature_cache, preprocess_all,
                                 save_feature_cache, split_indices,
                                 synthetic_glyphs, synthetic_squares)
from digitbench.imaging import Preprocessor


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row)
                              for row in rows) + "\n")


class TestLoadCsv:
    def test_zero_row_label_first(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[7] + [0] * 784])
        images, labels = load_csv(p, LABEL_FIRST, side=28)
        assert images.shape == (1, 28, 28)
        assert labels[0] == 7
        assert np.all(images == 0.0)

    def test_eight_bit_range_divided(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[3] + [255] * 9, [1] + [0] * 9])
        images, _ = load_csv(p, LABEL_FIRST, side=3)
        assert images.max() == 1.0
        assert images[0, 0, 0] == 1.0

    def test_unit_range_kept(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[0.5] * 9 + [4]])
        images, labels = load_csv(p, LABEL_LAST, side=3)
        assert labels[0] == 4
        assert images.max() == 0.5

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[d] + [d * 10] * 9 for d in range(10)])
        images, labels = load_csv(p, LABEL_FIRST, side=3)
        assert np.array_equal(labels, np.arange(10))
        assert np.array_equal(images[:, 0, 0] * 255,
                              np.arange(10) * 10.0)

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label," + ",".join(f"p{i}" for i in range(9))
                     + "\n2," + ",".join(["7"] * 9) + "\n")
        _, labels = load_csv(p, LABEL_FIRST, side=3)
        assert np.array_equal(labels, [2])

    def test_byte_order_mark_ignored(self, tmp_path):
        # the mark must not make the first data row look like a header
        rows = [[d % 10] + [d * 10] * 9 for d in range(20)]
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, rows)
        marked.write_text(plain.read_text(), encoding="utf-8-sig")
        want = load_csv(plain, LABEL_FIRST, side=3)
        got = load_csv(marked, LABEL_FIRST, side=3)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and len(got[1]) == 20
        marked.write_text("label," + ",".join(f"p{i}" for i in range(9))
                          + "\n" + plain.read_text(), encoding="utf-8-sig")
        _, labels = load_csv(marked, LABEL_FIRST, side=3)
        assert np.array_equal(labels, want[1])

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1," + ",".join(["0"] * 9) + "\n1,2,3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1," + ",".join(["0"] * 9) + "\n"
                     "2," + ",".join(["x"] + ["0"] * 8) + "\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_label_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [0] * 9, [12] + [0] * 9])
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1.5] + [0] * 9])
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_pixel_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [300] + [0] * 8])
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_nan_pixel_names_row(self, tmp_path):
        # NaN passes "< 0" and "> 255" alike; it must not reach preprocessing
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [0] * 9, [2] + [7] * 4 + ["nan"] + [7] * 4])
        with pytest.raises(ParseError, match="row 2: pixel value nan"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n")
        with pytest.raises(ParseError, match="no data"):
            load_csv(p, LABEL_FIRST, side=3)

    def test_bad_schema_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_csv(tmp_path / "d.csv", "label_middle", side=3)

    def test_digest_tracks_content(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("same")
        b.write_text("same")
        assert file_digest(a) == file_digest(b)
        b.write_text("different")
        assert file_digest(a) != file_digest(b)


def _rows(seed, fmt=str, n=6):
    """Seeded label-first rows for side 2, each field spelled by ``fmt``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N_CLASSES, n)
    pixels = rng.integers(0, 256, (n, 4))
    return [",".join([str(label)] + [fmt(int(v)) for v in row])
            for label, row in zip(labels, pixels)]


def _text(lines, end="\n"):
    return end.join(lines) + end


def _with(lines, at, field, value):
    """``lines`` with one field of one line replaced."""
    lines = list(lines)
    parts = lines[at].split(",")
    parts[field] = value
    lines[at] = ",".join(parts)
    return lines


HEADER = "label,p0,p1,p2,p3"
BENGALI = str.maketrans("0123456789", "০১২৩৪৫৬৭৮৯")

# (case, CSV text, whether the vectorised parse reads it, the ParseError
# message or None)
DIFFERENTIAL = [
    ("ints", _text(_rows(0)), True, None),
    ("decimals", _text(_rows(1, lambda v: repr(v / 255))), True, None),
    ("exponents", _text(_rows(2, lambda v: f"{v:.4e}")), True, None),
    ("overflow", _text(_with(_rows(3), 2, 3, "1e400")), True,
     "row 3: pixel value inf outside [0, 255]"),
    ("signs_and_padding", _text(_with(
        _rows(4, lambda v: f" +{v} " if v % 2 else f"\t{v}"), 1, 2, "-0")),
     True, None),
    ("nan_pixel", _text(_with(_rows(5), 4, 1, "nan")), True,
     "row 5: pixel value nan outside [0, 255]"),
    ("nan_label", _text(_with(_rows(6), 1, 0, "nan")), True,
     "row 2: label nan outside [0, 9]"),
    ("inf_pixel", _text(_with(_rows(7), 0, 2, "-inf")), True,
     "row 1: pixel value -inf outside [0, 255]"),
    ("bengali_digits", _text([r.translate(BENGALI) for r in _rows(8)]),
     False, None),
    ("underscore", _text(_with(_rows(9), 3, 4, "1_0")), False, None),
    ("hash_field", _text(_with(_rows(10), 2, 1, "#")), False,
     "row 3: non-numeric field"),
    ("hash_line", _text(_rows(11)[:3] + ["# note"] + _rows(11)[3:]), False,
     "row 4: non-numeric field"),
    ("crlf", _text([HEADER] + _rows(12), "\r\n"), True, None),
    ("blank_lines",
     _text(_rows(13)[:2] + ["", ""] + _rows(13)[2:] + ["", ""]), True, None),
    ("whitespace_line", _text(_rows(14)[:3] + [" \t"] + _rows(14)[3:]),
     False, None),
    ("label_after_blank_lines",
     _text([HEADER, "", ""] + _with(_rows(15), 3, 0, "12")), True,
     "row 7: label 12 outside [0, 9]"),
    ("pixel_after_blank_lines",
     _text(_rows(16)[:2] + ["", ""] + _with(_rows(16), 3, 2, "256")[2:]),
     True, "row 6: pixel value 256.0 outside [0, 255]"),
    ("header_only", _text([HEADER]), False, "no data rows found"),
    ("blank_first_line_then_header", _text(["", HEADER] + _rows(17)), False,
     "row 2: non-numeric field"),
    ("byte_order_mark", "\ufeff" + _text([HEADER] + _rows(18)), True, None),
    ("ragged_last_row", _text(_rows(19) + ["1,2,3,4"]), False,
     "row 7: expected 5 fields, got 4"),
    ("no_final_newline", _text(_rows(20))[:-1], True, None),
    ("every_row_short", _text(["1,2,3,4"] * 3), False,
     "row 1: expected 5 fields, got 4"),
    # np.loadtxt strips these around a field, float() does not
    ("separator_padded", _text(_with(_rows(21), 2, 3, "\x1c7")), False,
     "row 3: non-numeric field"),
    # ... and str.strip() drops them at the end of a line: data, not header
    ("separator_ends_line_1", _text([_rows(22)[0] + "\x1c"] + _rows(22)[1:]),
     False, None),
]


class TestLoadCsvDifferential:
    """The vectorised parse and the line parser alone give the same arrays,
    or the same error."""

    @staticmethod
    def _outcome(path):
        try:
            return load_csv(path, LABEL_FIRST, side=2)
        except ParseError as exc:
            return str(exc)

    @pytest.mark.parametrize("text, vectorised, error",
                             [c[1:] for c in DIFFERENTIAL],
                             ids=[c[0] for c in DIFFERENTIAL])
    def test_same_as_line_parser(self, tmp_path, monkeypatch, text,
                                 vectorised, error):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        assert (datasets._read_matrix(p, 5) is not None) == vectorised
        got = self._outcome(p)
        monkeypatch.setattr(datasets, "_read_matrix", lambda path, n: None)
        want = self._outcome(p)
        if error is not None:
            assert got == want == error
        else:
            (images, labels), (want_images, want_labels) = got, want
            assert images.shape == want_images.shape == (6, 2, 2)
            assert images.tobytes() == want_images.tobytes()
            assert labels.tobytes() == want_labels.tobytes()


class TestSplit:
    def test_exact_eighty_twenty_per_class(self):
        y = np.repeat(np.arange(10), 10)
        train, test = split_indices(y, SplitSpec(0.8, seed=0))
        assert train.size == 80 and test.size == 20
        for cls in range(10):
            assert (y[train] == cls).sum() == 8
            assert (y[test] == cls).sum() == 2

    def test_same_seed_same_split(self):
        y = np.random.default_rng(0).integers(0, 5, 200)
        a = split_indices(y, SplitSpec(0.8, seed=42))
        b = split_indices(y, SplitSpec(0.8, seed=42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = split_indices(y, SplitSpec(0.8, seed=43))
        assert not np.array_equal(a[0], c[0])

    def test_partition_property_many_datasets(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(6, 40))
            y = rng.integers(0, 3, n)
            y[:6] = [0, 0, 1, 1, 2, 2]  # every class populated twice
            spec = SplitSpec(float(rng.uniform(0.2, 0.9)), seed=trial,
                             stratified=bool(trial % 2))
            train, test = split_indices(y, spec)
            merged = np.concatenate([train, test])
            assert merged.size == n
            assert np.array_equal(np.sort(merged), np.arange(n))

    def test_proportion_deviation_below_one_sample(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            counts = rng.integers(3, 50, size=4)
            y = np.repeat(np.arange(4), counts)
            frac = float(rng.uniform(0.3, 0.9))
            train, _ = split_indices(y, SplitSpec(frac, seed=trial))
            for cls, n_cls in enumerate(counts):
                got = (y[train] == cls).sum()
                assert abs(got - frac * n_cls) <= 0.5

    def test_small_class_rejected_when_stratified(self):
        y = np.array([0, 0, 1])
        with pytest.raises(SplitError, match="class 1"):
            split_indices(y, SplitSpec(0.8, seed=0))
        train, test = split_indices(y, SplitSpec(0.8, seed=0,
                                                 stratified=False))
        assert train.size + test.size == 3

    def test_fraction_validation(self):
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=0.0)


class TestPreprocessAll:
    def test_count_conserved_and_composition(self):
        rng = np.random.default_rng(2)
        images = rng.random((5, 20, 24))
        pre = Preprocessor()
        out = preprocess_all(images, pre)
        assert out.shape == (5, 28, 28)
        assert np.array_equal(out[3], pre.transform(images[3][None])[0])

    def test_constant_images_unchanged_without_deskew(self):
        images = np.full((4, 28, 28), 0.375)
        pre = Preprocessor(deskew_enabled=False)
        out = preprocess_all(images, pre)
        assert out == pytest.approx(images, abs=1e-12)

    def test_blocks_do_not_change_output(self):
        # more images than one processing block; every row must equal its
        # image run alone, wherever the block boundaries fall
        rng = np.random.default_rng(3)
        images = rng.random((IMAGE_BLOCK + 9, 30, 30))
        pre = Preprocessor()
        out = preprocess_all(images, pre)
        for i in range(len(images)):
            assert (out[i].tobytes()
                    == pre.transform(images[i][None])[0].tobytes())
        assert out[5:].tobytes() == preprocess_all(images[5:], pre).tobytes()

    def test_error_names_image_index(self):
        images = [np.zeros((10, 10))] * (IMAGE_BLOCK + 3)
        images[IMAGE_BLOCK + 1] = np.full((10, 10), 2.0)
        with pytest.raises(ShapeError, match=rf"images\[{IMAGE_BLOCK + 1}\]"):
            preprocess_all(images)
        images[IMAGE_BLOCK + 1] = np.full((10, 10), np.nan)
        with pytest.raises(ShapeError, match="non-finite"):
            preprocess_all(np.stack(images))


class TestSynthetic:
    def test_glyphs_deterministic_and_balanced(self):
        a, ya = synthetic_glyphs(100, seed=5)
        b, yb = synthetic_glyphs(100, seed=5)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(ya, yb)
        assert np.array_equal(np.bincount(ya), np.full(10, 10))
        assert a.shape == (100, 28, 28)
        assert 0.0 <= a.min() and a.max() <= 1.0
        c, _ = synthetic_glyphs(100, seed=6)
        assert a.tobytes() != c.tobytes()

    def test_squares_two_classes(self):
        images, labels = synthetic_squares(40, seed=0)
        assert set(labels.tolist()) == {0, 1}
        # hollow squares carry less ink than their filled siblings
        assert images[labels == 0].sum() > images[labels == 1].sum()

    def test_glyph_template_distinct(self):
        renders = [glyph_template(d).tobytes() for d in range(10)]
        assert len(set(renders)) == 10
        with pytest.raises(ParameterError):
            glyph_template(10)

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            synthetic_glyphs(0)
        with pytest.raises(ParameterError):
            synthetic_squares(0)


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        X = np.random.default_rng(0).random((6, 9))
        y = np.arange(6) % 3
        path = tmp_path / "c.npz"
        save_feature_cache(path, X, y, 4)
        loaded = load_feature_cache(path)
        assert loaded is not None
        assert np.array_equal(loaded[0], X)
        assert np.array_equal(loaded[1], y)
        assert loaded[2] == 4

    def test_missing_or_foreign_version(self, tmp_path):
        assert load_feature_cache(tmp_path / "absent.npz") is None
        bad = tmp_path / "bad.npz"
        np.savez(bad, version=np.array(999), features=np.zeros((1, 1)),
                 labels=np.zeros(1))
        assert load_feature_cache(bad) is None

import math
import tracemalloc

import numpy as np
import pytest
from oracles import csv_oracle

from digitbench import ParameterError, ParseError, ShapeError, SplitError
from digitbench.base import IMAGE_BLOCK
from digitbench.datasets import (CACHE_VERSION, LABEL_FIRST, LABEL_LAST,
                                 N_CLASSES, SplitSpec, file_digest,
                                 glyph_template, load_csv,
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
        images, labels = load_csv(p, LABEL_FIRST)
        assert images.shape == (1, 28, 28)
        assert labels[0] == 7
        assert np.all(images == 0.0)

    def test_eight_bit_range_divided(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[3] + [255] * 9, [1] + [0] * 9])
        images, _ = load_csv(p, LABEL_FIRST)
        assert images.max() == 1.0
        assert images[0, 0, 0] == 1.0

    def test_unit_range_kept(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[0.5] * 9 + [4]])
        images, labels = load_csv(p, LABEL_LAST)
        assert labels[0] == 4
        assert images.max() == 0.5

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[d] + [d * 10] * 9 for d in range(10)])
        images, labels = load_csv(p, LABEL_FIRST)
        assert np.array_equal(labels, np.arange(10))
        assert np.array_equal(images[:, 0, 0] * 255,
                              np.arange(10) * 10.0)

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label," + ",".join(f"p{i}" for i in range(9))
                     + "\n2," + ",".join(["7"] * 9) + "\n")
        _, labels = load_csv(p, LABEL_FIRST)
        assert np.array_equal(labels, [2])

    def test_byte_order_mark_ignored(self, tmp_path):
        # the mark must not make the first data row look like a header
        rows = [[d % 10] + [d * 10] * 9 for d in range(20)]
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, rows)
        marked.write_text(plain.read_text(), encoding="utf-8-sig")
        want = load_csv(plain, LABEL_FIRST)
        got = load_csv(marked, LABEL_FIRST)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and len(got[1]) == 20
        marked.write_text("label," + ",".join(f"p{i}" for i in range(9))
                          + "\n" + plain.read_text(), encoding="utf-8-sig")
        _, labels = load_csv(marked, LABEL_FIRST)
        assert np.array_equal(labels, want[1])

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1," + ",".join(["0"] * 9) + "\n1,2,3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST)

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1," + ",".join(["0"] * 9) + "\n"
                     "2," + ",".join(["x"] + ["0"] * 8) + "\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST)

    def test_label_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [0] * 9, [12] + [0] * 9])
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, LABEL_FIRST)

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1.5] + [0] * 9])
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, LABEL_FIRST)

    def test_pixel_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [300] + [0] * 8])
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, LABEL_FIRST)

    def test_nan_pixel_names_row(self, tmp_path):
        # NaN passes "< 0" and "> 255" alike; it must not reach preprocessing
        p = tmp_path / "d.csv"
        write_csv(p, [[1] + [0] * 9, [2] + [7] * 4 + ["nan"] + [7] * 4])
        with pytest.raises(ParseError, match="row 2: pixel value nan"):
            load_csv(p, LABEL_FIRST)

    @pytest.mark.parametrize("side", [16, 32])
    def test_side_read_from_row_width(self, tmp_path, side):
        p = tmp_path / "d.csv"
        write_csv(p, [[d] + [d * 20] * (side * side) for d in range(3)])
        images, labels = load_csv(p, LABEL_FIRST)
        assert images.shape == (3, side, side)
        assert np.array_equal(labels, [0, 1, 2])
        assert np.array_equal(images[:, -1, -1] * 255, [0.0, 20.0, 40.0])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n")
        with pytest.raises(ParseError, match="no data"):
            load_csv(p, LABEL_FIRST)

    def test_bad_schema_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_csv(tmp_path / "d.csv", "label_middle")

    def test_eight_bit_load_holds_one_matrix(self, tmp_path):
        # the 8-bit pixels are scaled in place, not into a second matrix
        images, labels = synthetic_glyphs(2000, seed=0)
        p = tmp_path / "d.csv"
        write_csv(p, np.column_stack(
            [labels, np.rint(images.reshape(2000, -1) * 255)]).astype(int))
        tracemalloc.start()
        try:
            loaded, _ = load_csv(p, LABEL_FIRST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.max() == 1.0
        assert peak < 1.5 * 2000 * 785 * 8  # the parsed float64 matrix

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

# (case, CSV text, the ParseError message or None where the file loads)
DIFFERENTIAL = [
    ("ints", _text(_rows(0)), None),
    ("decimals", _text(_rows(1, lambda v: repr(v / 255))), None),
    ("exponents", _text(_rows(2, lambda v: f"{v:.4e}")), None),
    ("overflow", _text(_with(_rows(3), 2, 3, "1e400")),
     "row 3: pixel value inf outside [0, 255]"),
    ("signs_and_padding", _text(_with(
        _rows(4, lambda v: f" +{v} " if v % 2 else f"\t{v}"), 1, 2, "-0")),
     None),
    ("nan_pixel", _text(_with(_rows(5), 4, 1, "nan")),
     "row 5: pixel value nan outside [0, 255]"),
    ("nan_label", _text(_with(_rows(6), 1, 0, "nan")),
     "row 2: label nan outside [0, 9]"),
    ("inf_pixel", _text(_with(_rows(7), 0, 2, "-inf")),
     "row 1: pixel value -inf outside [0, 255]"),
    # float() reads these and np.loadtxt does not: not numbers in a CSV
    ("bengali_digits", _text([r.translate(BENGALI) for r in _rows(8)]),
     "row 1: non-numeric field"),
    ("underscore", _text(_with(_rows(9), 3, 4, "1_0")),
     "row 4: non-numeric field"),
    ("hash_field", _text(_with(_rows(10), 2, 1, "#")),
     "row 3: non-numeric field"),
    ("hash_line", _text(_rows(11)[:3] + ["# note"] + _rows(11)[3:]),
     "row 4: non-numeric field"),
    ("crlf", _text([HEADER] + _rows(12), "\r\n"), None),
    ("blank_lines",
     _text(_rows(13)[:2] + ["", ""] + _rows(13)[2:] + ["", ""]), None),
    ("whitespace_line", _text(_rows(14)[:3] + [" \t"] + _rows(14)[3:]),
     None),
    ("label_after_blank_lines",
     _text([HEADER, "", ""] + _with(_rows(15), 3, 0, "12")),
     "row 7: label 12 outside [0, 9]"),
    ("pixel_after_blank_lines",
     _text(_rows(16)[:2] + ["", ""] + _with(_rows(16), 3, 2, "256")[2:]),
     "row 6: pixel value 256.0 outside [0, 255]"),
    ("header_only", _text([HEADER]), "no data rows found"),
    ("blank_first_line_then_header", _text(["", HEADER] + _rows(17)),
     "row 2: non-numeric field"),
    ("byte_order_mark", "\ufeff" + _text([HEADER] + _rows(18)), None),
    ("ragged_last_row", _text(_rows(19) + ["1,2,3,4"]),
     "row 7: expected 5 fields, got 4"),
    ("no_final_newline", _text(_rows(20))[:-1], None),
    # a label and 3 pixels, or a label alone (isqrt(0) = 0): no side fits
    ("every_row_short", _text(["1,2,3,4"] * 3),
     "row width 4 is not side*side + 1"),
    ("label_only", _text(["7"] * 3), "row width 1 is not side*side + 1"),
    # np.loadtxt strips these around a field, float() does not
    ("separator_padded", _text(_with(_rows(21), 2, 3, "\x1c7")),
     "row 3: non-numeric field"),
    # ... and str.strip() drops them at the end of a line: data, not header
    ("separator_ends_line_1", _text([_rows(22)[0] + "\x1c"] + _rows(22)[1:]),
     None),
]


def oracle_arrays(path):
    """What ``load_csv(path, LABEL_FIRST)`` returns, built from the
    rows of the line-by-line reference parser."""
    data = np.array([values for _, values in csv_oracle(path, 5)])
    pixels = data[:, 1:]
    if pixels.max() > 1.0:
        pixels = pixels / 255.0
    return pixels.reshape(-1, 2, 2), data[:, 0].astype(np.int64)


class TestLoadCsvDifferential:
    """Each case loads to the reference parser's arrays, byte for byte, or
    fails with its ParseError message."""

    @pytest.mark.parametrize("text, error", [c[1:] for c in DIFFERENTIAL],
                             ids=[c[0] for c in DIFFERENTIAL])
    def test_same_as_line_parser(self, tmp_path, text, error):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        if error is not None:
            with pytest.raises(ParseError) as exc:
                load_csv(p, LABEL_FIRST)
            assert str(exc.value) == error
            return
        images, labels = load_csv(p, LABEL_FIRST)
        want_images, want_labels = oracle_arrays(p)
        assert images.shape == want_images.shape == (6, 2, 2)
        assert images.tobytes() == want_images.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    def test_trailing_whitespace_line_ignored(self, tmp_path):
        clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
        clean.write_text(_text(_rows(23)))
        padded.write_text(_text(_rows(23) + [" \t"]))
        for got, want in zip(load_csv(padded, LABEL_FIRST),
                             load_csv(clean, LABEL_FIRST)):
            assert got.tobytes() == want.tobytes()


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
            sizes = np.bincount(y) if spec.stratified else np.array([n])
            n_train = np.floor(spec.train_fraction * sizes + 0.5).sum()
            if n_train in (0, n):  # a side would be empty
                with pytest.raises(SplitError, match="train_fraction"):
                    split_indices(y, spec)
                continue
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

    @pytest.mark.parametrize("frac, stratified, side", [
        (0.02, True, "train"), (0.02, False, "train"),
        (0.96, True, "test"), (0.98, False, "test")])
    def test_empty_side_rejected(self, frac, stratified, side):
        # used to return an empty side, which every cell then failed on
        y = np.arange(20) % 2
        with pytest.raises(SplitError, match=f"train_fraction {frac} leaves "
                                             f"the {side} side of 20"):
            split_indices(y, SplitSpec(frac, seed=0, stratified=stratified))

    def test_fraction_validation(self):
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ParameterError):
            SplitSpec(train_fraction=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            SplitSpec(seed=-1)

    def test_stratified_takes_only_a_bool(self):
        # the string "false" used to be read as true: this split came out
        # stratified, [2 3 4 6 7 10]
        with pytest.raises(ParameterError,
                           match="stratified must be true or false"):
            SplitSpec(0.5, 0, "false")
        y = np.array([0] * 10 + [1] * 2)
        train, _ = split_indices(y, SplitSpec(0.5, 0, np.False_))
        assert train.tolist() == [2, 4, 5, 7, 9, 11]


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

    @pytest.mark.parametrize("kwargs", [
        {"noise": -1.0}, {"noise": math.nan}])
    def test_glyph_inputs_validated(self, kwargs):
        # used to die in numpy ("scale < 0", np.pad) or return NaN images
        with pytest.raises(ParameterError):
            synthetic_glyphs(10, **kwargs)

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
    @pytest.mark.parametrize("layout", ["C", "Fortran", "strided"])
    def test_round_trip(self, tmp_path, layout):
        X = np.random.default_rng(0).random((6, 18))
        X = {"C": X, "Fortran": np.asfortranarray(X),
             "strided": X[:, ::2]}[layout]
        y = np.arange(6) % 3
        path = tmp_path / "c.npz"
        save_feature_cache(path, X, y, 4)
        features, labels, rows = load_feature_cache(path)
        assert features.shape == X.shape
        assert features.tobytes() == X.tobytes()
        assert labels.dtype == np.int64 and labels.tobytes() == y.tobytes()
        assert type(rows) is int and rows == 4
        with np.load(path) as data:
            version = data["version"]
        assert version.shape == () and int(version) == CACHE_VERSION

    def test_plain_np_load_sees_the_four_members(self, tmp_path):
        path = tmp_path / "c.npz"
        save_feature_cache(path, np.zeros((3, 2)), np.arange(3), 3)
        with np.load(path, allow_pickle=False) as data:
            assert data.files == ["version", "features", "labels", "rows"]
            assert data["rows"].shape == () and int(data["rows"]) == 3

    def test_write_holds_no_second_copy(self, tmp_path):
        # np.savez serialized each array through tobytes, up to 16 MiB at
        # a time
        X = np.random.default_rng(0).random((2000, 1296))
        y = np.arange(2000) % N_CLASSES
        tracemalloc.start()
        try:
            save_feature_cache(tmp_path / "c.npz", X, y, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert load_feature_cache(tmp_path / "c.npz")[0].tobytes() == \
            X.tobytes()

    def test_missing_or_foreign_version(self, tmp_path):
        assert load_feature_cache(tmp_path / "absent.npz") is None
        bad = tmp_path / "bad.npz"
        np.savez(bad, version=np.array(999), features=np.zeros((1, 1)),
                 labels=np.zeros(1))
        assert load_feature_cache(bad) is None

import numpy as np
import pytest

from digitbench import ShapeError
from digitbench.metrics import confusion, evaluate, report


class TestConfusion:
    def test_perfect_identity(self):
        cm = confusion([0, 1], [0, 1], 2)
        assert np.array_equal(cm, [[1, 0], [0, 1]])

    def test_direct_count(self):
        cm = confusion([0, 0, 1], [1, 0, 1], 2)
        assert np.array_equal(cm, [[1, 1], [0, 1]])

    def test_conservation(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 7, size=1000)
        y_pred = rng.integers(0, 7, size=1000)
        cm = confusion(y_true, y_pred, 7)
        assert cm.sum() == 1000
        assert cm.min() >= 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(ShapeError):
            confusion([0, 1], [0, -1], 2)


class TestReport:
    def test_hand_computed_two_class(self):
        rep = report(np.array([[2, 1], [0, 3]]))
        assert rep.accuracy == pytest.approx(5 / 6, abs=0)
        assert np.allclose(rep.precision, [1.0, 0.75], atol=0)
        assert np.allclose(rep.recall, [2 / 3, 1.0], atol=0)
        assert np.allclose(rep.f1, [0.8, 6 / 7], atol=1e-15)

    def test_perfect_diagonal(self):
        rep = report(np.diag([3, 1, 4]))
        assert rep.accuracy == 1.0
        assert np.all(rep.precision == 1.0)
        assert np.all(rep.recall == 1.0)
        assert np.all(rep.f1 == 1.0)
        assert rep.macro_f1 == 1.0

    def test_empty_class_zero_convention(self):
        # class 2 never occurs and is never predicted
        counts = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 0]])
        rep = report(counts)
        assert rep.precision[2] == 0.0
        assert rep.recall[2] == 0.0
        assert rep.f1[2] == 0.0

    def test_self_agreement_all_ones(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 5, size=200)
        rep = evaluate(y, y, 5)
        assert rep.accuracy == 1.0
        assert np.all(rep.f1 == 1.0)

    def test_metrics_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y_true = rng.integers(0, 4, size=60)
            y_pred = rng.integers(0, 4, size=60)
            rep = evaluate(y_true, y_pred, 4)
            for v in (rep.precision, rep.recall, rep.f1):
                assert v.min() >= 0.0 and v.max() <= 1.0
            assert 0.0 <= rep.accuracy <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            counts = rng.integers(0, 9, size=(n, n))
            if counts.sum() == 0:
                counts[0, 0] = 1
            perm = rng.permutation(n)
            base = report(counts)
            permuted = report(counts[np.ix_(perm, perm)])
            assert permuted.accuracy == pytest.approx(base.accuracy, abs=1e-12)
            assert np.allclose(permuted.precision, base.precision[perm], atol=1e-12)
            assert np.allclose(permuted.recall, base.recall[perm], atol=1e-12)
            assert np.allclose(permuted.f1, base.f1[perm], atol=1e-12)
            assert permuted.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            report(np.zeros((3, 3), dtype=int))

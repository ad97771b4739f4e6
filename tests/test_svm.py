import math

import numpy as np
import pytest
from oracles import (dual_objective, kkt_satisfied, random_feasible_alpha,
                     smo_oracle, ten_class_problem, two_class_problem)

from digitbench import ParameterError, Preprocessor, ShapeError, StateError
from digitbench.classify import GBDT, KNN, SVM, SvmClassifier, make_classifier
from digitbench.classify.svm import rbf_kernel, resolve_gamma, smo_solve


def ten_class_gram():
    """Exactly symmetric training Gram and one-vs-rest label matrix of
    ``ten_class_problem``."""
    X, y, _ = ten_class_problem()
    K = rbf_kernel(X, X, resolve_gamma(X, "scale"))
    np.fill_diagonal(K, 1.0)
    return K, np.where(y == np.arange(10)[:, None], 1.0, -1.0)


# (C, max_iter, converged). At C = 10 the ten problems converge after 77 to
# 365 steps: a cap of 5 stops all of them, 200 some, 200_000 none
ORACLE_CASES = [
    pytest.param(10.0, 5, {False}, id="5-converged0"),
    pytest.param(10.0, 200, {False, True}, id="200-converged1"),
    pytest.param(10.0, 200_000, {True}, id="200000-converged2"),
    pytest.param(0.05, 200_000, {True}, id="C0.05-200000"),
    pytest.param(1000.0, 200_000, {True}, id="C1000-200000"),
]


class TestSmoSolver:
    def test_separable_1d_signs(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        K = rbf_kernel(X, X, 1.0)
        np.fill_diagonal(K, 1.0)
        (alpha,), (bias,), _, (ok,) = smo_solve(K, y[None], C=10.0, tol=1e-3,
                                                max_iter=10000)
        assert ok
        f = (alpha * y) @ K + bias
        assert np.all(np.sign(f) == y)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            _, y, K = two_class_problem(rng)
            (alpha,), (bias,), _, (ok,) = smo_solve(
                K, y[None], C=10.0, tol=1e-3, max_iter=100000)
            assert ok
            assert np.all(alpha >= -1e-12) and np.all(alpha <= 10.0 + 1e-12)
            assert abs(np.sum(alpha * y)) < 1e-9
            assert kkt_satisfied(K, y, alpha, bias, C=10.0, tol=1e-3)

    def test_dual_beats_random_feasible_points(self):
        rng = np.random.default_rng(1)
        _, y, K = two_class_problem(rng, n=20)
        (alpha,), _, _, (ok,) = smo_solve(K, y[None], C=10.0, tol=1e-3,
                                          max_iter=100000)
        assert ok
        solved = dual_objective(alpha, K, y)
        for _ in range(1000):
            trial = random_feasible_alpha(rng, y, C=10.0)
            assert solved >= dual_objective(trial, K, y)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(2)
        _, y, K = two_class_problem(rng, n=40)
        _, _, (iters,), (ok,) = smo_solve(K, y[None], C=10.0, tol=1e-3,
                                          max_iter=3)
        assert not ok and iters == 3

    @pytest.mark.parametrize("C, max_iter, converged", ORACLE_CASES)
    def test_lockstep_matches_scalar_oracle(self, C, max_iter, converged):
        K, Y = ten_class_gram()
        alpha, bias, iters, ok = smo_solve(K, Y, C=C, tol=1e-3,
                                           max_iter=max_iter)
        assert set(ok.tolist()) == converged
        for c in range(10):
            a_c, b_c, it_c, ok_c = smo_oracle(K, Y[c], C=C, tol=1e-3,
                                              max_iter=max_iter)
            assert alpha[c].tobytes() == a_c.tobytes()
            assert bias[c].tobytes() == np.float64(b_c).tobytes()
            assert (iters[c], ok[c]) == (it_c, ok_c)

    def test_oracle_cases_reach_bound_and_free_alphas(self):
        # the oracle cases must keep reaching the clips to C as well as free
        # alphas: converged, C = 0.05 / 10 / 1000 leave 349 / 46 / 0 alphas
        # at C and 115 / 168 / 194 free
        K, Y = ten_class_gram()
        at_bound = free = 0
        for C in sorted({case.values[0] for case in ORACLE_CASES}):
            alpha = smo_solve(K, Y, C=C, tol=1e-3, max_iter=200_000)[0]
            at_bound += int(np.sum(alpha == C))
            free += int(np.sum((alpha > 0) & (alpha < C)))
        assert at_bound > 0 and free > 0


class TestSvmClassifier:
    def make_blobs(self, rng, n_per=25, n_classes=3, d=4, spread=0.7):
        X = np.concatenate([rng.normal(3.0 * c, spread, (n_per, d))
                            for c in range(n_classes)])
        y = np.repeat(np.arange(n_classes), n_per)
        perm = rng.permutation(len(y))
        return X[perm], y[perm]

    def test_blob_separation(self):
        rng = np.random.default_rng(3)
        X, y = self.make_blobs(rng)
        clf = SvmClassifier().fit(X, y)
        assert np.mean(clf.predict(X) == y) == 1.0

    def test_scores_shape_and_argmax(self):
        rng = np.random.default_rng(4)
        X, y = self.make_blobs(rng)
        clf = SvmClassifier().fit(X, y)
        Q = rng.normal(1.5, 2.0, (30, 4))
        scores = clf.predict_scores(Q)
        assert scores.shape == (30, 3)
        assert np.array_equal(clf.predict(Q),
                              clf.classes_[np.argmax(scores, axis=1)])

    def test_deterministic_inference(self):
        rng = np.random.default_rng(5)
        X, y = self.make_blobs(rng)
        clf = SvmClassifier().fit(X, y)
        Q = rng.normal(1.5, 2.0, (20, 4))
        assert np.array_equal(clf.predict_scores(Q),
                              clf.predict_scores(Q))

    def test_free_support_vector_margin(self):
        rng = np.random.default_rng(6)
        X, y = self.make_blobs(rng, n_classes=2, spread=1.2)
        clf = SvmClassifier(C=10.0).fit(X, y)
        scores = clf.predict_scores(clf.support_vectors_)
        C = 10.0
        checked = 0
        for c in range(2):
            coef = clf.dual_coef_[c]
            free = (np.abs(coef) > 1e-6) & (np.abs(coef) < C - 1e-6)
            for s in np.nonzero(free)[0]:
                y_bin = 1.0 if coef[s] > 0 else -1.0
                assert y_bin * scores[s, c] == pytest.approx(1.0, abs=2e-3)
                checked += 1
        assert checked > 0

    def test_row_permutation_stability(self):
        rng = np.random.default_rng(7)
        X, y = self.make_blobs(rng)
        perm = rng.permutation(len(y))
        a = SvmClassifier().fit(X, y)
        b = SvmClassifier().fit(X[perm], y[perm])
        Q = rng.normal(1.5, 2.0, (40, 4))
        fa, fb = a.predict_scores(Q), b.predict_scores(Q)
        confident = np.abs(fa).max(axis=1) > 1e-3
        assert np.array_equal(np.argmax(fa[confident], axis=1),
                              np.argmax(fb[confident], axis=1))

    def test_dual_coef_bounded_by_C(self):
        rng = np.random.default_rng(8)
        X, y = self.make_blobs(rng, spread=2.5)
        clf = SvmClassifier(C=10.0).fit(X, y)
        assert np.all(np.abs(clf.dual_coef_) <= 10.0 + 1e-9)

    def test_gamma_scale_formula(self):
        rng = np.random.default_rng(9)
        X = rng.random((30, 6))
        assert resolve_gamma(X, "scale") == 1.0 / (6 * X.var())
        assert resolve_gamma(np.zeros((5, 4)), "scale") == 0.25
        assert resolve_gamma(X, 0.5) == 0.5
        with pytest.raises(ParameterError):
            resolve_gamma(X, -1.0)

    @pytest.mark.parametrize("scale", [1e300, 1e160])
    @pytest.mark.parametrize("gamma", ["scale", 1.0])
    def test_overflowing_features_rejected(self, scale, gamma):
        # squares of these overflow: gamma 'scale' came out 0.0 and the Gram
        # NaN, so every score was NaN and every prediction class 0
        X = np.random.default_rng(0).random((8, 3)) * scale
        with pytest.raises(ShapeError, match="float64"):
            SvmClassifier(gamma=gamma).fit(X, np.arange(8) % 2)

    def test_vanishing_variance_rejected(self):
        # 1 / (3 * Var(X)) overflows: gamma 'scale' came out inf, with the
        # same NaN scores; a given gamma is fine on these features
        X = np.random.default_rng(0).random((8, 3)) * 1e-160
        y = np.arange(8) % 2
        with pytest.raises(ShapeError, match="float64"):
            SvmClassifier().fit(X, y)
        assert np.isfinite(SvmClassifier(gamma=1.0).fit(X, y)
                           .predict_scores(X)).all()

    def test_overflowing_queries_rejected(self):
        X, y = self.make_blobs(np.random.default_rng(15))
        clf = SvmClassifier().fit(X, y)
        with pytest.raises(ShapeError, match="float64"):
            clf.predict_scores(X[:3] * 1e200)

    def test_single_class_rejected(self):
        with pytest.raises(StateError):
            SvmClassifier().fit(np.random.default_rng(10).random((8, 2)),
                                np.zeros(8, dtype=int))

    def test_dim_mismatch(self):
        rng = np.random.default_rng(11)
        X, y = self.make_blobs(rng)
        clf = SvmClassifier().fit(X, y)
        with pytest.raises(ShapeError):
            clf.predict(np.zeros((3, 7)))

    def test_param_validation(self):
        X = np.zeros((4, 2))
        y = [0, 1, 0, 1]
        with pytest.raises(ParameterError):
            SvmClassifier(C=0.0).fit(X, y)
        with pytest.raises(ParameterError):
            SvmClassifier(tol=-1e-3).fit(X, y)

    def test_rejects_nonpositive_max_iter(self):
        # zero SMO steps would leave every alpha at 0: no support vectors
        X, y = self.make_blobs(np.random.default_rng(12))
        for bad in (0, -5):
            with pytest.raises(ParameterError, match="max_iter"):
                SvmClassifier(max_iter=bad).fit(X, y)


class TestRbfKernel:
    def test_training_gram_exactly_symmetric(self):
        # the lockstep solver reads row K[i] in place of column K[:, i]
        X = np.random.default_rng(13).random((300, 40))
        K = rbf_kernel(X, X, resolve_gamma(X, "scale"))
        assert np.array_equal(K, K.T)

    def test_row_blocks_match_whole_matrix_formula(self):
        # 1200 x 1000 entries span several in-place row blocks
        rng = np.random.default_rng(14)
        A, B = rng.random((1200, 5)), rng.random((1000, 5))
        sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] \
            - 2.0 * (A @ B.T)
        expected = np.exp(-0.7 * np.maximum(sq, 0.0))
        assert rbf_kernel(A, B, 0.7).tobytes() == expected.tobytes()

    def test_known_values(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = rbf_kernel(A, A, gamma=1.0)
        assert K[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert K[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        K = rbf_kernel(rng.random((10, 3)), rng.random((8, 3)), gamma=2.0)
        assert K.shape == (10, 8)
        assert K.min() > 0.0 and K.max() <= 1.0


@pytest.mark.parametrize("kind, name", [
    (SVM, "C"), (SVM, "gamma"), (SVM, "tol"), (GBDT, "learning_rate"),
    (GBDT, "reg_lambda"), (KNN, "minkowski_p"),
    ("preprocess", "gaussian_sigma")])
def test_nan_hyperparameter_rejected(kind, name):
    # NaN fails every comparison, so a "<= 0" style check would let it by;
    # inf passes such a check and then zeroes every distance, predicts one
    # class or overflows
    rng = np.random.default_rng(0)
    for value in (math.nan, math.inf):
        with pytest.raises(ParameterError, match=f"{name} must be"):
            if kind == "preprocess":
                Preprocessor(**{name: value}).transform(
                    rng.random((2, 28, 28)))
            else:
                make_classifier(kind, **{name: value}).fit(
                    rng.random((20, 3)), np.arange(20) % 2)

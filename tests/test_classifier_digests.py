"""Frozen outputs of the random forest, gradient boosting, KNN and SVM
classifiers.

The SHA-256 digests below were recorded on x86-64 with NumPy 2.4: the forest
and KNN ones before the forest stopped copying its bootstrap sample and KNN
stopped voting one query at a time, the boosting ones before both tree
learners moved onto one grower. They pin every tree array and every score
bit for bit: forests with and without bootstrap and at several
``max_features`` values; boosting with default subsampling, without
subsampling and with quantile cuts, plus its loss trace; and KNN on an
integer grid, where tied distances decide neighbours and votes, for
p = 1, 2, 3. The SVM ones were recorded before the ten one-vs-rest SMO
subproblems were solved in lockstep; their iteration caps stop none, some
or all of the classes.
"""

import hashlib

import numpy as np
import pytest
from oracles import ten_class_problem

from digitbench.classify import (GradientBoostingClassifier, KnnClassifier,
                                 RandomForestClassifier, SvmClassifier)


def sha(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def tied_data():
    """Train and query sets; four columns of repeated values give tied sort
    keys and thresholds."""
    rng = np.random.default_rng(5)
    X = rng.random((120, 12))
    X[:, :4] = np.round(X[:, :4] * 4)
    y = rng.integers(0, 4, 120) * 3
    Q = rng.random((60, 12))
    Q[:, :4] = np.round(Q[:, :4] * 4)
    return X, y, Q


def tree_arrays(trees):
    return (arr for t in trees
            for arr in (t.feature, t.threshold, t.left, t.right, t.value))


@pytest.mark.parametrize("params, tree_digest, score_digest", [
    ({},
     "71663a7c8d0d213f7d2aed296a6709c111715243d67318670cc83b3062531c3e",
     "3fc5b90a6fdbfe2fea05a6f3251ddcbd8ba101b80983d37bd0d19acb32e2301a"),
    ({"bootstrap": False, "max_features": None},
     "3c163c9f443a7e7cd5a8770052f9258475effe7701cafdb1105bd6afa840df68",
     "4007d72d5514e05515da0aa0de17d419fa0c944ecf5aff8a179291b99e172863"),
    ({"max_features": 5},
     "b30f02a823958004ee5b318f566817c63407091f70cf0b1add78322731a0d7c2",
     "68befc33377c0f34eb02aedc328b97eba8648416f89c3e25e2a0c4e28267b25e"),
    ({"bootstrap": False, "max_features": 5},
     "b39b940c6687ea468dca29fe7e16a882c65399efb159de81a673c45ea27b60b9",
     "8874e127a7c6ec863273e6ba47b69c9e9b8f9e6f0fbaa4e4c3013d5dcb2ce011"),
])
def test_forest_unchanged(params, tree_digest, score_digest):
    X, y, Q = tied_data()
    clf = RandomForestClassifier(n_trees=4, max_depth=6, seed=3,
                                 **params).fit(X, y)
    assert sha(*tree_arrays(clf.trees_)) == tree_digest
    assert sha(clf.predict_scores(Q)) == score_digest


# max_bins=16 is below the ~120 distinct values of the eight untied columns,
# so those columns split on quantile cuts
@pytest.mark.parametrize("params, tree_digest, score_digest, loss_digest", [
    ({},
     "6c22be6ce42d86c06e115410c7213cfe7e391d79da65ed6ddd7d86abfc8cbf69",
     "49e86cfc00a3cfaf568d93ef10f513d44f5a9662ad8b295710064d5343fe8145",
     "13c39d22f89f23cdaba43e475e2b659d2ceda0649cc8f75814f676c602b65a39"),
    ({"row_subsample": 1.0, "col_subsample": 1.0},
     "7a0d8008b6b87398718a57b43332bf3b5ef0a7dd6bdb1d069d8a675d3cbc6529",
     "9cf5744c2b820574fba3592a7e62bdf98184c76ce982f666d53ac05bb29b3e93",
     "e4d070b30260f952b1c883e07e158043be75c0c2640d93d83ab9ceebf5e6550f"),
    ({"max_bins": 16},
     "6ba351c7a08df70df367f168320cbcc8120b536922b5d9238148e5859e31128a",
     "f1be8f930236441f384594dd88c11799d10a3370b23458833a12a11b039c4085",
     "a3b9457a5ef2ec55d23875374e8c0f949bc8df239290ad51725154ecac863eab"),
])
def test_boosting_unchanged(params, tree_digest, score_digest, loss_digest):
    X, y, Q = tied_data()
    clf = GradientBoostingClassifier(n_rounds=3, max_depth=3, seed=3,
                                     **params).fit(X, y)
    assert sha(*tree_arrays(clf.trees_)) == tree_digest
    assert sha(clf.predict_scores(Q)) == score_digest
    assert sha(clf.loss_trace_) == loss_digest


@pytest.mark.parametrize("p, digest", [
    (1, "dfcc113dda0661c04f15f041d5a1815368595afae1cf3ecf6af164ea8f6d1130"),
    (2, "287c8ab4f7f0890d788fca5854969e661a8d6310304893ceb20291a944984be0"),
    (3, "228253f699fbc81601f64afd18c34112a6eaa43b0d73a434930e4192936c55d4"),
])
def test_knn_scores_unchanged(p, digest):
    rng = np.random.default_rng(6)
    X = rng.integers(0, 6, (40, 3)).astype(float)
    y = rng.integers(0, 5, 40)
    Q = rng.integers(0, 6, (60, 3)).astype(float)
    clf = KnnClassifier(k=7, minkowski_p=p).fit(X, y)
    assert sha(clf.predict_scores(Q)) == digest


@pytest.mark.parametrize("params, converged, model_digest, score_digest", [
    ({}, True,
     "22256581d87e0a64c345166ca9b3a14349381f04a63568274cde32a6e592f039",
     "8990585c4a47dd0769e733988586ec63e9779a9658e987fe97a0014c58d0f49b"),
    ({"max_iter": 5}, False,
     "7f1e7af37cf461464d5b8fa78b8c31282eaa659e1de836a9cb47d5b787bad96b",
     "7b52c2fa2deca2350c3bc59629f7ef9895d7438a330efe14b62df395f5234b6f"),
    ({"max_iter": 200}, False,
     "57eb9f508bde2f24763583402351adcaab428a340a472c6219c86bcc0e7ec819",
     "cf0dad839ad8b4e412f8b4982b0ca68618c387dcc503ce71d1da282ddbcf51af"),
    ({"C": 1.0, "gamma": 0.3}, True,
     "87b3f901878d1f03a16fb63c2f26cd1c1ef6bb70493084043dd8fd6691b617dd",
     "9ce02f8933721680a37f91f4d21a5ab86c6670f4c6415122a5e37852228ea7bd"),
])
def test_svm_unchanged(params, converged, model_digest, score_digest):
    X, y, Q = ten_class_problem()
    clf = SvmClassifier(**params).fit(X, y)
    assert sha(clf.dual_coef_, clf.intercept_, clf.n_iter_,
               clf.support_) == model_digest
    assert sha(clf.predict_scores(Q)) == score_digest
    assert bool(clf.converged_) is converged

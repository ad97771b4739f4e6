"""End-to-end shipping checks, one verdict line per criterion.

Every test prints ``[acceptance] <criterion>: PASS`` or ``FAIL`` (run pytest
with ``-rA`` or ``-s`` to see the lines for passing tests). The benchmark
reproduction and ablation checks need real digit scans and are skipped
unless an environment variable points at a CSV:

    DIGITBENCH_CMARTDB_CSV   digit CSV, about 6000 rows
    DIGITBENCH_EKUSH_CSV     digit CSV, subsampled here to about 8000 rows
    DIGITBENCH_ABLATION_CSV  any digit CSV with at least 5000 rows

All three expect label-first rows of 28*28 pixels; set
DIGITBENCH_CSV_SCHEMA=label_last for trailing labels. Everything else runs
on bundled synthetic data and random instances, with no external inputs.
"""

import os
import time

import numpy as np
import pytest
from oracles import (cart_oracle, dual_objective, kkt_satisfied, knn_oracle,
                     random_feasible_alpha, stump_oracle, two_class_problem)

from digitbench.bench import emit_report, run_grid
from digitbench.classify import (GradientBoostingClassifier, KnnClassifier,
                                 RandomForestClassifier, SvmClassifier)
from digitbench.classify.svm import smo_solve
from digitbench.config import RunConfig
from digitbench.datasets import SplitSpec, load_csv, preprocess_all, split_indices
from digitbench.features import GaborDescriptor, HogDescriptor, LbpDescriptor
from digitbench.features.gabor import gabor_kernel
from digitbench.metrics import evaluate, report


def verdict(tag, ok, detail=""):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{tag} {detail}".strip()


def env_csv(var):
    path = os.environ.get(var)
    if not path:
        pytest.skip(f"{var} is not set; dataset-dependent check skipped")
    if not os.path.exists(path):
        pytest.skip(f"{var}={path} does not exist; check skipped")
    return path, os.environ.get("DIGITBENCH_CSV_SCHEMA", "label_first")


def grid_accuracies(result):
    table = {}
    for cell in result.cells:
        assert cell.ok, f"{cell.feature}+{cell.classifier}: {cell.error}"
        table[cell.feature, cell.classifier] = cell.report.accuracy
    return table


def test_criterion_1_cmartdb_reproduction():
    path, schema = env_csv("DIGITBENCH_CMARTDB_CSV")
    cfg = RunConfig(dataset_path=path, schema=schema,
                    features=[("hog", {})], classifiers=[("svm", {})])
    t0 = time.perf_counter()
    acc = grid_accuracies(run_grid(cfg))["hog", "svm"]
    elapsed = time.perf_counter() - t0
    verdict("criterion 1 (cmartdb): hog+svm accuracy >= 0.96 in < 600 s",
            acc >= 0.96 and elapsed < 600.0,
            f"accuracy={acc:.4f} elapsed={elapsed:.0f}s")


def test_criterion_1_ekush_reproduction():
    path, schema = env_csv("DIGITBENCH_EKUSH_CSV")
    t0 = time.perf_counter()
    images, labels = load_csv(path, schema=schema)
    if labels.shape[0] > 8000:
        # stratified subsample keeps the run inside the time budget
        sub, _ = split_indices(labels,
                               SplitSpec(train_fraction=8000 / labels.shape[0],
                                         seed=0))
        images, labels = images[sub], labels[sub]
    X = HogDescriptor().transform(preprocess_all(images))
    tr, te = split_indices(labels, SplitSpec())
    clf = SvmClassifier().fit(X[tr], labels[tr])
    rep = evaluate(labels[te], clf.predict(X[te]), int(labels.max()) + 1)
    elapsed = time.perf_counter() - t0
    verdict("criterion 1 (ekush): hog+svm accuracy >= 0.935 in < 600 s",
            rep.accuracy >= 0.935 and elapsed < 600.0,
            f"accuracy={rep.accuracy:.4f} n={labels.shape[0]} "
            f"elapsed={elapsed:.0f}s")


def test_criterion_2_feature_ablation():
    path, schema = env_csv("DIGITBENCH_ABLATION_CSV")
    with open(path) as fh:
        n_rows = sum(1 for line in fh if line.strip())
    if n_rows < 5000:
        pytest.skip(f"ablation dataset has {n_rows} rows, need >= 5000")
    cfg = RunConfig(dataset_path=path, schema=schema,
                    features=[("hog", {})], classifiers=[("svm", {})],
                    raw_baseline=True)
    table = grid_accuracies(run_grid(cfg))
    delta = table["hog", "svm"] - table["raw", "svm"]
    verdict("criterion 2: hog+svm beats raw-pixel svm by >= 3 points",
            delta >= 0.03,
            f"hog={table['hog', 'svm']:.4f} raw={table['raw', 'svm']:.4f} "
            f"delta={delta * 100:.1f}pts")


def test_criterion_3_hog_leads_on_synthetic_digits():
    cfg = RunConfig(synthetic="glyphs", samples=2000,
                    classifiers=[("svm", {}), ("rf", {})])
    table = grid_accuracies(run_grid(cfg))
    details = []
    ok = True
    for kind in ("svm", "rf"):
        by_feature = {m: table[m, kind] for m in ("hog", "lbp", "gabor")}
        ok &= by_feature["hog"] >= max(by_feature.values())
        details.append(kind + " " + " ".join(f"{m}={a:.4f}"
                                             for m, a in by_feature.items()))
    verdict("criterion 3: hog is the best-or-tied feature for svm and rf",
            ok, "; ".join(details))


def test_criterion_4_classifier_oracles():
    t0 = time.perf_counter()

    rng = np.random.default_rng(7)
    X = rng.random((60, 6))
    y = rng.integers(0, 4, 60)
    queries = rng.random((100, 6))
    got = KnnClassifier(k=5).fit(X, y).predict(queries)
    knn_ok = np.array_equal(got, knn_oracle(X, y, queries, k=5, p=2.0))

    cart_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 4))
        y = rng.integers(0, 3, 30)
        clf = RandomForestClassifier(n_trees=1, max_depth=3, max_features=None,
                                     bootstrap=False, seed=0).fit(X, y)
        tree, oracle = clf.trees_[0], cart_oracle(X, y, 3, max_depth=3)
        cart_ok &= (np.array_equal(tree.feature, oracle["feature"])
                    and np.array_equal(tree.threshold, oracle["threshold"])
                    and np.array_equal(tree.left, oracle["left"])
                    and np.array_equal(tree.right, oracle["right"])
                    and np.array_equal(tree.value,
                                       np.array(oracle["counts"], dtype=float)))

    stump_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = rng.random((40, 5))
        y = rng.integers(0, 3, 40)
        clf = GradientBoostingClassifier(n_rounds=1, max_depth=1,
                                         row_subsample=1.0,
                                         col_subsample=1.0).fit(X, y)
        for c, expected in enumerate(stump_oracle(X, y, 3, lam=1.0)):
            tree = clf.trees_[c]
            stump_ok &= expected is not None
            if expected is None:
                continue
            feature, threshold, left, right = expected
            stump_ok &= (tree.feature[0] == feature
                         and tree.threshold[0] == threshold
                         and abs(tree.value[tree.left[0], 0] - left) < 1e-12
                         and abs(tree.value[tree.right[0], 0] - right) < 1e-12)

    svm_ok = True
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        _, y, K = two_class_problem(rng, n=20)
        (alpha,), (bias,), _, (converged,) = smo_solve(
            K, y[None], C=10.0, tol=1e-3, max_iter=100000)
        svm_ok &= converged and kkt_satisfied(K, y, alpha, bias, C=10.0,
                                              tol=1e-3)
        solved = dual_objective(alpha, K, y)
        for _ in range(1000):
            trial = random_feasible_alpha(rng, y, 10.0)
            svm_ok &= solved >= dual_objective(trial, K, y)

    elapsed = time.perf_counter() - t0
    verdict("criterion 4: knn/cart/stump/svm oracle equivalence in < 60 s",
            knn_ok and cart_ok and stump_ok and svm_ok and elapsed < 60.0,
            f"knn={knn_ok} cart={cart_ok} stump={stump_ok} svm={svm_ok} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_5_extractor_invariants():
    t0 = time.perf_counter()

    hog = HogDescriptor()
    zero_desc = hog.transform(np.zeros((28, 28))[None])[0]
    hog_ok = zero_desc.shape == (1296,) and not np.any(zero_desc)
    rng = np.random.default_rng(3)
    for _ in range(20):
        desc = hog.transform(rng.random((28, 28))[None])[0]
        norms = np.linalg.norm(desc.reshape(-1, 36), axis=1)
        hog_ok &= desc.shape == (1296,) and np.all(norms <= 1.0 + 1e-9)

    lbp = LbpDescriptor()
    lbp_ok = True
    rng = np.random.default_rng(4)
    for _ in range(50):
        img = rng.random((28, 28))
        codes = lbp._codes(img[None])[0]
        lbp_ok &= bool(codes.min() >= 0 and codes.max() <= 1023)
        # positive-slope affine maps are monotone and commute with the
        # bilinear ring sampling, so codes must not move at all
        lbp_ok &= np.array_equal(codes, lbp._codes((0.4 * img + 0.3)[None])[0])

    gabor = GaborDescriptor()
    gabor_ok = True
    rng = np.random.default_rng(15)
    for _ in range(5):
        x, z = rng.random((28, 28)), rng.random((28, 28))
        a, b = rng.uniform(0.0, 0.5, size=2)
        lhs = gabor.transform((a * x + b * z)[None])[0]
        rhs = a * gabor.transform(x[None])[0] + b * gabor.transform(z[None])[0]
        gabor_ok &= np.allclose(lhs, rhs, atol=1e-9)
    dc = gabor.transform(np.full((28, 28), 0.37)[None])[0]
    gabor_ok &= np.allclose(dc, 0.37 * gabor_kernel().real.sum(), atol=1e-12)

    elapsed = time.perf_counter() - t0
    verdict("criterion 5: hog/lbp/gabor invariants in < 30 s",
            hog_ok and lbp_ok and gabor_ok and elapsed < 30.0,
            f"hog={hog_ok} lbp={lbp_ok} gabor={gabor_ok} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_6_deterministic_reports(tmp_path):
    def run(tag):
        cfg = RunConfig(synthetic="glyphs", samples=300,
                        features=[("hog", {}), ("lbp", {})],
                        classifiers=[("knn", {"k": 3}),
                                     ("rf", {"n_trees": 15})],
                        out_dir=str(tmp_path / tag))
        paths = emit_report(run_grid(cfg), out_dir=cfg.out_dir)
        return {os.path.basename(p): open(p, "rb").read() for p in paths}

    first, second = run("a"), run("b")
    same_rerun = all(first[n] == second[n]
                     for n in ("cells.csv", "plot_accuracy.csv"))
    verdict("criterion 6: byte-identical reports across reruns",
            same_rerun, f"rerun={same_rerun}")


def test_criterion_7_metrics_exactness():
    rep = report(np.array([[2, 1], [0, 3]]))
    exact = (rep.accuracy == 5 / 6
             and np.array_equal(rep.precision, [1.0, 0.75])
             and np.array_equal(rep.recall, [2 / 3, 1.0])
             and np.allclose(rep.f1, [0.8, 6 / 7], atol=1e-15)
             and rep.macro_precision == (1.0 + 0.75) / 2
             and rep.macro_recall == (2 / 3 + 1.0) / 2
             and abs(rep.macro_f1 - (0.8 + 6 / 7) / 2) < 1e-15)

    invariant = True
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        counts = rng.integers(0, 20, (k, k)) + np.eye(k, dtype=np.int64)
        perm = rng.permutation(k)
        a = report(counts)
        b = report(counts[np.ix_(perm, perm)])
        invariant &= (a.accuracy == b.accuracy
                      and np.array_equal(a.precision[perm], b.precision)
                      and np.array_equal(a.recall[perm], b.recall)
                      and np.array_equal(a.f1[perm], b.f1)
                      and abs(a.macro_precision - b.macro_precision) < 1e-12
                      and abs(a.macro_recall - b.macro_recall) < 1e-12
                      and abs(a.macro_f1 - b.macro_f1) < 1e-12)

    verdict("criterion 7: hand-computed metrics and permutation invariance",
            exact and invariant, f"exact={exact} invariant={invariant}")

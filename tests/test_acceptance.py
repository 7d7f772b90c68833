"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy full-scale runs (iris at 32768 slots, hidden width 120) are shared
module-scoped fixtures.  The loss-variant experiment criterion needs the real
MNIST IDX files; point HENN_MNIST_DIR at a directory containing
train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte and
t10k-labels-idx1-ubyte to enable it (it is skipped otherwise, see
/README.md#datasets).
"""

import os
import time

import numpy as np
import pytest

from henn import data as dio
from henn.encoding import (
    Layout,
    complete_column_shift,
    complete_row_shift,
    decode_matrix,
    encode_matrix,
    incomplete_column_shift,
    keep_only,
    roll_fill,
    sum_col_vec,
    sum_row_vec,
)
from henn.engine import EngineConfig, SlotEngine
from henn.enc_train import EncryptedTrainer, fit_slots
from henn.linalg import assemble_tiles, dvr_matmul, vr_matmul, vr_matmul_first_transposed
from henn.losses import LossSpec, loss_value, s_matrix
from henn.nn import ModelParams, backward, forward, init_params
from henn.train import default_sigmoid_poly, run_sle_experiment, train

from conftest import make_classification_batch, make_regression_batch


def announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def iris_batch():
    return dio.preprocess(dio.load_iris(), "minmax")


@pytest.fixture(scope="module")
def leveled_iris_run(iris_batch):
    """Default leveled config, 3 requested iterations, instrumented."""
    return train(iris_batch, loss="sle2", hidden=120, eta=0.01, iterations=3,
                 backend="leveled", seed=0, instrument=True)


@pytest.fixture(scope="module")
def exact_iris_run(iris_batch):
    return train(iris_batch, loss="sle2", hidden=120, eta=0.01, iterations=2,
                 backend="exact", seed=0)


# --- criterion 1: oracle equivalence over random configurations ------------------


def test_criterion_oracle_equivalence_50_random_configs():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    losses = ["sle", "sle1", "sle1s", "sle2", "mse"]
    poly = default_sigmoid_poly()
    worst = 0.0
    for trial in range(50):
        kind = losses[trial % len(losses)]
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        if kind == "mse":
            batch = make_regression_batch(rng, n, d)
        else:
            batch = make_classification_batch(rng, n, d, c)
        slots = fit_slots(n, 1 + d, m, batch.Y.shape[1], floor=64)
        kw = dict(loss=kind, hidden=m, eta=0.05, iterations=3, seed=trial,
                  sigmoid_poly=poly if kind != "mse" else "auto")
        plain = train(batch, backend="plain", **kw)
        enc = train(batch, backend="exact",
                    engine_config=EngineConfig(slots=slots, backend="exact"), **kw)
        div = max(np.max(np.abs(plain.W - enc.W)), np.max(np.abs(plain.V - enc.V)))
        worst = max(worst, div)
        assert div <= 1e-9, f"config {trial} ({kind}, n={n} d={d} m={m} c={c}): {div:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.0f}s, budget 120s"
    print(f"\n50 configs, worst divergence {worst:.2e}, {elapsed:.1f}s")
    announce("oracle equivalence (50 random configs, 3 iterations, <=1e-9)")


# --- criterion 2: encoding suite, exhaustive shapes --------------------------------


def test_criterion_encoding_suite_exhaustive_shapes():
    rng = np.random.default_rng(7)
    eng = SlotEngine(EngineConfig(slots=64, backend="exact"))
    shapes = 0
    for n in range(1, 65):
        for cols in range(1, 65):
            if n * cols > 64:
                break
            M = rng.uniform(-3, 3, (n, cols))
            em = encode_matrix(eng, M, Layout.FULL_MATRIX)
            assert np.array_equal(decode_matrix(eng, em), M)
            assert np.allclose(decode_matrix(eng, complete_row_shift(eng, em)),
                               np.roll(M, -1, axis=0), atol=1e-12)
            assert np.allclose(decode_matrix(eng, incomplete_column_shift(eng, em)),
                               np.roll(M.ravel(), -1).reshape(M.shape), atol=1e-12)
            assert np.allclose(decode_matrix(eng, complete_column_shift(eng, em)),
                               np.roll(M, -1, axis=1), atol=1e-12)
            rows = eng.decrypt(sum_row_vec(eng, em))[: n * cols].reshape(n, cols)
            assert np.allclose(rows, np.tile(M.sum(axis=1, keepdims=True), (1, cols)),
                               atol=1e-12)
            colsums = eng.decrypt(sum_col_vec(eng, em))[: n * cols].reshape(n, cols)
            assert np.allclose(colsums, np.tile(M.sum(axis=0, keepdims=True), (n, 1)),
                               atol=1e-12)
            i = int(rng.integers(n))
            j = int(rng.integers(cols))
            kept = keep_only(eng, em, i, j)
            expect = np.zeros(64)
            expect[i * cols + j] = M[i, j]
            assert np.array_equal(eng.decrypt(kept.parts[0]), expect)
            assert np.allclose(eng.decrypt(roll_fill(eng, kept)), M[i, j], atol=1e-12)
            shapes += 1
    print(f"\n{shapes} shapes with n*(1+d) <= 64, all ops == brute force")
    announce("encoding suite (exhaustive shapes, 100% against brute force)")


# --- criterion 3: matmul suite ---------------------------------------------------


def test_criterion_matmul_suite_200_instances():
    rng = np.random.default_rng(99)
    exact = SlotEngine(EngineConfig(slots=256, backend="exact"))
    leveled = SlotEngine(EngineConfig(slots=256, logQ=990, logp=30))
    worst_exact = worst_leveled = 0.0
    for trial in range(200):
        n, k, p = (int(x) for x in rng.integers(1, 9, 3))
        A = rng.uniform(-1, 1, (n, k))
        B = rng.uniform(-1, 1, (k, p))
        want = A @ B

        got = decode_matrix(exact, vr_matmul(
            exact, encode_matrix(exact, A, Layout.FULL_MATRIX),
            encode_matrix(exact, B.T.copy(), Layout.FULL_MATRIX)))
        err = np.max(np.abs(got - want))
        got_ft = decode_matrix(exact, vr_matmul_first_transposed(
            exact, encode_matrix(exact, A.T.copy(), Layout.FULL_MATRIX),
            encode_matrix(exact, B, Layout.FULL_MATRIX)))
        err = max(err, np.max(np.abs(got_ft - want)))
        if trial % 10 == 0 and n >= 2 and k >= 2:
            team_a = [encode_matrix(exact, A[: n // 2], Layout.FULL_MATRIX),
                      encode_matrix(exact, A[n // 2 :], Layout.FULL_MATRIX)]
            bt = B.T.copy()
            team_b = [encode_matrix(exact, bt[: max(1, p // 2)], Layout.FULL_MATRIX),
                      encode_matrix(exact, bt[max(1, p // 2) :], Layout.FULL_MATRIX)]
            team_b = [t for t in team_b if t.rows > 0]
            tiles = dvr_matmul(exact, team_a, team_b)
            full = assemble_tiles(exact, tiles, 2, len(team_b))
            err = max(err, np.max(np.abs(full - want)))
        worst_exact = max(worst_exact, err)
        assert err <= 1e-10, f"exact instance {trial}: {err:.2e}"

        got_lv = decode_matrix(leveled, vr_matmul(
            leveled, encode_matrix(leveled, A, Layout.FULL_MATRIX),
            encode_matrix(leveled, B.T.copy(), Layout.FULL_MATRIX)))
        err_lv = np.max(np.abs(got_lv - want))
        worst_leveled = max(worst_leveled, err_lv)
        assert err_lv <= 1e-5, f"leveled instance {trial}: {err_lv:.2e}"
    print(f"\nworst exact {worst_exact:.2e} (<=1e-10), worst leveled {worst_leveled:.2e} (<=1e-5)")
    announce("matmul suite (200 random instances, both variants + tiled)")


# --- criterion 4: gradient checks ----------------------------------------------------


def test_criterion_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n, d, m, c = 4, 3, 5, 3
    X = np.hstack([np.ones((n, 1)), rng.uniform(-1, 1, (n, d))])
    Y = dio.one_hot(rng.integers(0, c, n), c)
    h = 1e-5
    for kind in ("sle", "sle1", "sle2", "mse"):
        if kind == "mse":
            Yk = rng.uniform(-1, 1, (n, 1))
            ck = 1
        else:
            Yk, ck = Y, c
        spec = LossSpec(kind)
        params = init_params(d, m, ck, seed=31)
        tr = forward(params, X)
        gW, gV = backward(params, X, Yk, tr, spec)

        def total(W, V):
            t = forward(ModelParams(W, V), X)
            return loss_value(spec, t.Yhat, Yk)

        for arr, grad, other in ((params.W, gW, params.V), (params.V, gV, params.W)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                up, dn = arr.copy(), arr.copy()
                up[idx] += h
                dn[idx] -= h
                if arr is params.W:
                    fd = (total(up, params.V) - total(dn, params.V)) / (2 * h)
                else:
                    fd = (total(params.W, up) - total(params.W, dn)) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-4 * max(1.0, abs(fd)), \
                    f"{kind} grad at {idx}: fd={fd:.6e} analytic={grad[idx]:.6e}"

    ybar = rng.uniform(-4, 4, (500, 3))
    yy = dio.one_hot(rng.integers(0, 3, 500), 3)
    agree = np.mean(np.sign(s_matrix(LossSpec("sle1"), ybar, yy))
                    == np.sign(s_matrix(LossSpec("sle1s"), ybar, yy)))
    assert agree >= 0.99
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.0f}s, budget 60s"
    print(f"\nsign agreement {agree:.4f}, {elapsed:.1f}s")
    announce("gradient checks (finite differences 1e-4; simplified sign >=99%)")


# --- criterion 5: structural numbers ---------------------------------------------------


def test_criterion_structural_numbers(tmp_path, iris_batch):
    ds = dio.load_iris()
    assert (ds.n, ds.d, ds.class_count) == (150, 4, 3)

    rng = np.random.default_rng(0)
    for count, name in ((60000, "train"), (10000, "t10k")):
        img = tmp_path / f"{name}-images-idx3-ubyte"
        lab = tmp_path / f"{name}-labels-idx1-ubyte"
        dio.write_idx_images(img, rng.integers(0, 256, (count, 784), dtype=np.uint8))
        dio.write_idx_labels(lab, rng.integers(0, 10, count, dtype=np.uint8))
        mn = dio.load_mnist_idx(img, lab)
        assert mn.X.shape == (count, 784) and mn.class_count == 10
        img.unlink()
        lab.unlink()

    boston_rows = np.hstack([rng.uniform(0, 10, (506, 13)), rng.uniform(5, 50, (506, 1))])
    bp = tmp_path / "boston.csv"
    np.savetxt(bp, boston_rows, delimiter=",", fmt="%.6f")
    bo = dio.load_boston(bp)
    assert (bo.n, bo.d) == (506, 13)

    cfg = EngineConfig()  # paper-scale defaults
    assert cfg.level_budget == 33 and cfg.logQ == 990 and cfg.logp == 30
    assert cfg.slots == 32768 == 2 ** (cfg.logN - 1)

    eng = SlotEngine(EngineConfig(backend="exact"))
    params = init_params(4, 120, 3, seed=0)
    trainer = EncryptedTrainer(eng, iris_batch, params, LossSpec("sle2"))
    assert len(trainer.W_enc) == 120
    assert all(len(em.parts) == 1 for em in trainer.W_enc)
    assert len(trainer.V_enc) == 3
    announce("structural numbers (iris/mnist/boston shapes, 120 row ciphertexts, budget 33)")


# --- criteria 6+8: depth budget and leveled drift (shared full-scale runs) ----------------


def test_criterion_depth_budget_consistency(leveled_iris_run, iris_batch):
    rep = leveled_iris_run
    assert rep.halted is not None and rep.halted["reason"] == "depth_exhausted"
    assert rep.iterations_completed == 2
    assert rep.halted["iterations_completed"] == 2
    depths = [p["depth"] for p in rep.depth["phases"][:2]]
    assert depths[0] == depths[1], "per-iteration depth must be stable"
    d_iter = depths[0]
    assert d_iter == 14, "the 14-level sle2 schedule of enc_train.py"
    assert 2 * d_iter <= 33 < 3 * d_iter

    # the same schedule at desk scale reports the identical depth
    rng = np.random.default_rng(0)
    small = make_classification_batch(rng, 6, 3, 3)
    small_rep = train(small, loss="sle2", hidden=4, iterations=3, backend="leveled",
                      engine_config=EngineConfig(slots=128), seed=1, instrument=True)
    # two full iterations, then the third stops at depth 5 (hidden x output-row products)
    assert [p["depth"] for p in small_rep.depth["phases"]] == [d_iter, d_iter, 5]
    assert small_rep.iterations_completed == 2
    print(f"\nper-iteration depth {d_iter}, budget 33 -> exactly 2 full iterations")
    announce("depth-budget consistency (2 full iterations, depth stable)")


def test_criterion_leveled_vs_exact_drift(leveled_iris_run, exact_iris_run, iris_batch):
    drift = max(np.max(np.abs(leveled_iris_run.W - exact_iris_run.W)),
                np.max(np.abs(leveled_iris_run.V - exact_iris_run.V)))
    assert leveled_iris_run.iterations_completed == 2
    assert exact_iris_run.iterations_completed == 2
    assert drift <= 1e-3, f"drift {drift:.2e}"
    # and the exact backend itself reproduces the plaintext trainer at full scale
    plain = train(iris_batch, loss="sle2", hidden=120, eta=0.01, iterations=2,
                  backend="plain", seed=0)
    oracle = max(np.max(np.abs(plain.W - exact_iris_run.W)),
                 np.max(np.abs(plain.V - exact_iris_run.V)))
    assert oracle <= 1e-9, f"exact-vs-plain {oracle:.2e}"
    print(f"\nper-weight drift after 2 iterations: {drift:.2e} (<= 1e-3); "
          f"exact-vs-plain {oracle:.2e} (<= 1e-9)")
    announce("leveled-vs-exact drift (2 iris iterations, <=1e-3)")


# --- criterion 9: determinism -----------------------------------------------------------


def test_criterion_determinism_byte_identical_payloads():
    import json

    rng = np.random.default_rng(11)
    batch = make_classification_batch(rng, 8, 3, 3)
    for backend in ("plain", "exact", "leveled"):
        kw = dict(loss="sle2", hidden=4, iterations=2, seed=42, backend=backend,
                  engine_config=None if backend == "plain"
                  else EngineConfig(slots=128, backend=backend))
        blob_a = json.dumps(train(batch, **kw).payload(), sort_keys=True)
        blob_b = json.dumps(train(batch, **kw).payload(), sort_keys=True)
        assert blob_a == blob_b, f"{backend} payload not byte-identical"
    announce("determinism (fixed seed, byte-identical numeric payloads)")


# --- criterion 7: loss-variant experiment on real MNIST ------------------------------------


def _mnist_dir():
    root = os.environ.get("HENN_MNIST_DIR")
    if not root:
        return None
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    if all(os.path.exists(os.path.join(root, f)) for f in needed):
        return root
    return None


def test_criterion_sle_variant_experiment_real_mnist():
    root = _mnist_dir()
    if root is None:
        pytest.skip(
            "real MNIST IDX files not available in this environment; "
            "set HENN_MNIST_DIR to run this criterion (see decisions ledger). "
            "The experiment machinery itself is exercised on learnable synthetic "
            "data in test_train.py::test_sle_experiment_machinery_on_synthetic_data.")
    t0 = time.time()
    ds = dio.load_mnist_pair(
        os.path.join(root, "train-images-idx3-ubyte"),
        os.path.join(root, "train-labels-idx1-ubyte"),
        os.path.join(root, "t10k-images-idx3-ubyte"),
        os.path.join(root, "t10k-labels-idx1-ubyte")).subset(5000)
    train_batch, test_batch = dio.preprocess_pair(ds, "none")
    out = run_sle_experiment(train_batch, test_batch, losses=("sle1", "sle2"),
                             lrs=(0.12, 0.01), repeats=12, epochs=30, hidden=120, seed=0)
    for kind in ("sle1", "sle2"):
        best = max(max(out["curves"][f"{kind}@0.12"]["test_accuracy_mean"]),
                   max(out["curves"][f"{kind}@0.01"]["test_accuracy_mean"]))
        assert best > 0.70, f"{kind}: best mean test accuracy {best:.3f}"
    mono = 0
    repeats = out["curves"]["sle2@0.01"]["per_repeat_train_loss"]
    for losses in repeats:
        if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
            mono += 1
    assert mono >= 0.9 * len(repeats)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    print(f"\nmean test acc > 70% for both variants; {mono}/{len(repeats)} "
          f"monotone repeats at lr 0.01; {elapsed:.0f}s")
    announce("loss-variant experiment (real MNIST, both variants > 70%)")

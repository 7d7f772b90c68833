"""Training orchestration across backends, reports, the experiment protocol."""

import numpy as np
import pytest

from henn.data import Batch, one_hot
from henn.enc_train import EncryptedTrainer, fit_slots
from henn.engine import EngineConfig, SlotEngine
from henn.errors import MatrixTooLarge
from henn.losses import LossSpec, PolyApprox
from henn.nn import init_params
from henn.train import (
    compare_backends,
    default_sigmoid_poly,
    resolve_sigmoid_poly,
    run_sle_experiment,
    train,
)

from conftest import make_classification_batch, make_regression_batch


def small_engine(slots=256):
    return EngineConfig(slots=slots, backend="exact")


def test_zero_iterations_reports_initial_only():
    rng = np.random.default_rng(0)
    batch = make_classification_batch(rng, 5, 3, 2)
    rep = train(batch, hidden=3, iterations=0, backend="plain", seed=1)
    assert rep.iterations == []
    assert "loss" in rep.initial and "accuracy" in rep.initial
    assert rep.W.shape == (3, 4)


def test_exact_encrypted_training_matches_plain():
    rng = np.random.default_rng(1)
    batch = make_classification_batch(rng, 6, 3, 3)
    kw = dict(loss="sle2", hidden=4, eta=0.05, iterations=3, seed=5)
    plain = train(batch, backend="plain", **kw)
    enc = train(batch, backend="exact", engine_config=small_engine(), **kw)
    assert np.max(np.abs(plain.W - enc.W)) <= 1e-9
    assert np.max(np.abs(plain.V - enc.V)) <= 1e-9


def test_determinism_per_backend():
    rng = np.random.default_rng(2)
    batch = make_classification_batch(rng, 5, 2, 2)
    for backend in ("plain", "exact", "leveled"):
        kw = dict(loss="sle2", hidden=3, iterations=2, seed=9, backend=backend,
                  engine_config=None if backend == "plain" else
                  EngineConfig(slots=128, backend=backend))
        a = train(batch, **kw)
        b = train(batch, **kw)
        assert a.payload_hash() == b.payload_hash()
        assert a.payload() == b.payload()


def test_engine_config_must_match_an_encrypted_backend():
    rng = np.random.default_rng(2)
    batch = make_classification_batch(rng, 5, 2, 2)
    with pytest.raises(ValueError, match="engine_config is for backend 'exact'"):
        train(batch, hidden=3, iterations=1, backend="leveled", engine_config=small_engine(128))
    with pytest.raises(ValueError, match="unknown backend"):
        train(batch, hidden=3, iterations=1, backend="noisy")
    # the plain backend ignores the config, as compare_backends passes it to both runs
    plain = train(batch, hidden=3, iterations=1, backend="plain", seed=1,
                  engine_config=EngineConfig(slots=128, backend="leveled"))
    assert plain.payload() == train(batch, hidden=3, iterations=1, backend="plain", seed=1).payload()


def test_fit_slots_holds_the_widest_block():
    # iris at paper scale: n=150, 1+d=5, hidden 120 (block 150 * 121), 3 classes
    assert fit_slots(150, 5, 120, 3) == 32768
    assert fit_slots(5, 3, 3, 2) == 32                  # 5 * (1 + 3) = 20
    assert fit_slots(5, 3, 3, 2, floor=64) == 64
    assert fit_slots(4, 4, 3, 4) == 16                  # exactly a power of two
    assert fit_slots(1, 1, 0, 1) == 1
    rng = np.random.default_rng(3)
    batch = make_classification_batch(rng, 5, 3, 2)
    params = init_params(batch.d, 3, 2, 0)
    EncryptedTrainer(SlotEngine(small_engine(32)), batch, params, LossSpec("sle2"))
    with pytest.raises(MatrixTooLarge):
        EncryptedTrainer(SlotEngine(small_engine(16)), batch, params, LossSpec("sle2"))


def test_leveled_low_budget_halts_structured():
    rng = np.random.default_rng(3)
    batch = make_classification_batch(rng, 5, 2, 2)
    cfg = EngineConfig(slots=128, logQ=300, logp=30, backend="leveled")  # budget 10
    rep = train(batch, loss="sle2", hidden=3, iterations=3, backend="leveled",
                engine_config=cfg, seed=4)
    assert rep.halted == {"reason": "depth_exhausted", "iterations_completed": 0,
                          "detail": rep.halted["detail"]}
    assert rep.iterations == []


def test_leveled_budget_33_runs_two_iterations():
    rng = np.random.default_rng(4)
    batch = make_classification_batch(rng, 6, 3, 3)
    cfg = EngineConfig(slots=128, logQ=990, logp=30, backend="leveled")
    rep = train(batch, loss="sle2", hidden=4, iterations=5, backend="leveled",
                engine_config=cfg, seed=4, instrument=True)
    assert rep.iterations_completed == 2
    assert rep.halted["iterations_completed"] == 2
    depths = [p["depth"] for p in rep.depth["phases"]]
    assert depths[0] == depths[1] == 14


@pytest.mark.parametrize("backend", ["plain", "exact"])
def test_diverging_run_halts_at_the_first_non_finite_iteration(backend):
    """lr 50 on iris sends the loss to inf at iteration 4; the report keeps
    the three finite iterations and their weights, bit for bit."""
    from henn.data import load_iris, preprocess

    batch = preprocess(load_iris())
    cfg = None if backend == "plain" else EngineConfig(slots=1024, backend=backend)
    kw = dict(hidden=4, eta=50.0, backend=backend, engine_config=cfg)
    rep = train(batch, iterations=6, **kw)
    assert rep.halted == {"reason": "non_finite", "iterations_completed": 3,
                          "detail": "loss = inf at iteration 4"}
    finite = train(batch, iterations=3, **kw)
    assert finite.halted is None
    assert rep.iterations == finite.iterations
    assert np.array_equal(rep.W, finite.W) and np.array_equal(rep.V, finite.V)


def test_iris_loss_decreases_for_nearly_all_seeds():
    """Full-batch descent at the small fixed rate improves the raw-logit loss
    on both of the first two iterations for >= 95% of seeds."""
    from henn.data import load_iris, preprocess

    batch = preprocess(load_iris(), "minmax")
    good = 0
    for seed in range(20):
        rep = train(batch, loss="sle2", hidden=120, eta=0.01, iterations=2,
                    backend="plain", seed=seed)
        losses = [rep.initial["loss"]] + [r["loss"] for r in rep.iterations]
        if losses[1] < losses[0] and losses[2] < losses[1]:
            good += 1
    assert good >= 19, f"loss decreased in both iterations for only {good}/20 seeds"


def test_regression_path_reports_rmse():
    rng = np.random.default_rng(5)
    batch = make_regression_batch(rng, 8, 3)
    rep = train(batch, loss="mse", hidden=3, iterations=2, backend="plain", seed=2)
    assert "rmse" in rep.iterations[0]
    assert rep.iterations[-1]["loss"] <= rep.initial["loss"]


def test_sigmoid_poly_resolution():
    assert resolve_sigmoid_poly("sle2", "plain", "auto") is None
    assert resolve_sigmoid_poly("sle", "plain", "auto") is None
    poly = resolve_sigmoid_poly("sle", "exact", "auto")
    assert isinstance(poly, PolyApprox)
    forced = default_sigmoid_poly()
    assert resolve_sigmoid_poly("sle1", "plain", forced) is forced
    with pytest.raises(ValueError):
        resolve_sigmoid_poly("sle1", "leveled", None)


@pytest.mark.parametrize("kind", ["sle", "sle1", "sle1s", "mse"])
def test_all_losses_train_on_both_paths(kind):
    rng = np.random.default_rng(6)
    if kind == "mse":
        batch = make_regression_batch(rng, 5, 2)
    else:
        batch = make_classification_batch(rng, 5, 2, 2)
    poly = default_sigmoid_poly()
    kw = dict(loss=kind, hidden=3, eta=0.05, iterations=2, seed=3,
              sigmoid_poly=poly if kind != "mse" else "auto")
    plain = train(batch, backend="plain", **kw)
    enc = train(batch, backend="exact", engine_config=small_engine(128), **kw)
    assert np.max(np.abs(plain.W - enc.W)) <= 1e-9
    assert np.max(np.abs(plain.V - enc.V)) <= 1e-9


def test_compare_backends_pass_and_fail_paths():
    rng = np.random.default_rng(7)
    batch = make_classification_batch(rng, 5, 2, 2)
    res = compare_backends(batch, seed=1, loss="sle2", hidden=3, iterations=2,
                           engine_config=small_engine(128))
    assert res["max_weight_divergence"] <= 1e-9
    res_bad = compare_backends(batch, seed=1, seed_b=2, loss="sle2", hidden=3,
                               iterations=2, engine_config=small_engine(128))
    assert res_bad["max_weight_divergence"] > 1e-9


def test_training_report_payload_excludes_timing():
    rng = np.random.default_rng(8)
    batch = make_classification_batch(rng, 4, 2, 2)
    rep = train(batch, hidden=2, iterations=1, backend="plain", seed=0)
    assert "wall_ms_total" in rep.timing
    payload = rep.payload()
    assert "timing" not in payload
    blob = str(payload)
    assert "wall_ms" not in blob


# --- experiment machinery -------------------------------------------------------

def make_blobs_784(rng, n_train, n_test, classes=10):
    """Learnable 784-feature stand-in: one bright pixel band per class."""
    centers = np.full((classes, 784), 0.1)
    for cls in range(classes):
        centers[cls, cls * 70 : cls * 70 + 50] = 0.9

    def draw(count):
        labels = rng.integers(0, classes, count)
        X = np.clip(centers[labels] + rng.normal(0, 0.08, (count, 784)), 0, 1)
        return X, labels

    Xtr, ytr = draw(n_train)
    Xte, yte = draw(n_test)
    tr = Batch(np.hstack([np.ones((n_train, 1)), Xtr]), one_hot(ytr, classes),
               "classification", class_count=classes, labels=ytr)
    te = Batch(np.hstack([np.ones((n_test, 1)), Xte]), one_hot(yte, classes),
               "classification", class_count=classes, labels=yte)
    return tr, te


def test_sle_experiment_machinery_on_synthetic_data():
    rng = np.random.default_rng(9)
    tr, te = make_blobs_784(rng, 600, 300)
    out = run_sle_experiment(tr, te, losses=("sle1", "sle2"), lrs=(0.12, 0.01),
                             repeats=2, epochs=30, hidden=32, seed=0)
    for key, curve in out["curves"].items():
        assert len(curve["train_loss_mean"]) == 30
        assert len(curve["test_accuracy_mean"]) == 30
    # both variants learn the easy separable data far beyond chance
    for kind in ("sle1", "sle2"):
        best = max(max(out["curves"][f"{kind}@0.12"]["test_accuracy_mean"]),
                   max(out["curves"][f"{kind}@0.01"]["test_accuracy_mean"]))
        assert best > 0.7, f"{kind} reached only {best:.2f}"
    # the raw-logit variant descends monotonically at the small rate
    for repeat_losses in out["curves"]["sle2@0.01"]["per_repeat_train_loss"]:
        assert all(b <= a + 1e-12 for a, b in zip(repeat_losses, repeat_losses[1:]))


def test_sle_experiment_parallel_matches_sequential():
    rng = np.random.default_rng(10)
    tr, te = make_blobs_784(rng, 120, 60)
    kw = dict(losses=("sle2",), lrs=(0.05,), repeats=2, epochs=3, hidden=8, seed=1)
    seq = run_sle_experiment(tr, te, workers=1, **kw)
    par = run_sle_experiment(tr, te, workers=2, **kw)
    assert seq["curves"] == par["curves"]

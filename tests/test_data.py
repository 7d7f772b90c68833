"""Loaders, preprocessing, checkpoints."""

import json

import numpy as np
import pytest

from henn import data as dio
from henn.errors import (
    BadMagic,
    CountMismatch,
    DegenerateFeatureWarning,
    NonFinite,
    ParseError,
    ShapeError,
    VersionMismatch,
)


def test_bundled_iris_canonical_shape():
    ds = dio.load_iris()
    assert (ds.n, ds.d, ds.class_count) == (150, 4, 3)
    assert ds.label_names == ["setosa", "versicolor", "virginica"]
    assert np.array_equal(np.unique(ds.y), [0, 1, 2])


def test_iris_header_optional(tmp_path):
    src = dio.bundled_iris_path().read_text()
    no_header = "\n".join(src.splitlines()[1:]) + "\n"
    p = tmp_path / "iris_nohdr.csv"
    p.write_text(no_header)
    ds = dio.load_iris(p)
    ref = dio.load_iris()
    assert np.array_equal(ds.X, ref.X) and np.array_equal(ds.y, ref.y)


def test_wrong_shape_rejected(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("1.0,2.0,a\n3.0,4.0,b\n")
    with pytest.raises(ShapeError):
        dio.load_iris(p)


def test_ragged_row_names_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0,x\n3.0,x\n")
    with pytest.raises(ParseError, match="line 2"):
        dio.load_classification_csv(p)


def test_bad_number_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,x\n3.0,oops,y\n")
    with pytest.raises(ParseError, match="line 2"):
        dio.load_classification_csv(p)


def test_labels_first_appearance_order(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("1,zebra\n2,ant\n3,zebra\n4,mole\n")
    ds = dio.load_classification_csv(p)
    assert ds.label_names == ["zebra", "ant", "mole"]
    assert np.array_equal(ds.y, [0, 1, 0, 2])


def test_loader_hash_stable():
    assert dio.load_iris().content_hash() == dio.load_iris().content_hash()


def test_boston_shape_validation(tmp_path):
    rng = np.random.default_rng(0)
    rows = np.hstack([rng.uniform(0, 10, (506, 13)), rng.uniform(5, 50, (506, 1))])
    p = tmp_path / "boston.csv"
    np.savetxt(p, rows, delimiter=",", fmt="%.6f")
    ds = dio.load_boston(p)
    assert (ds.n, ds.d) == (506, 13)
    assert ds.task == "regression"
    with pytest.raises(ShapeError):
        bad = tmp_path / "boston_bad.csv"
        np.savetxt(bad, rows[:100], delimiter=",", fmt="%.6f")
        dio.load_boston(bad)


# --- IDX -----------------------------------------------------------------------

def _make_idx(tmp_path, n=40, side=28, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, side * side), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    dio.write_idx_images(ip, images)
    dio.write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_idx_roundtrip(tmp_path):
    ip, lp, images, labels = _make_idx(tmp_path)
    ds = dio.load_mnist_idx(ip, lp)
    assert ds.X.shape == (40, 784)
    assert ds.X.max() <= 1.0 and ds.X.min() >= 0.0
    assert np.array_equal(ds.X * 255.0, images.astype(float))
    assert np.array_equal(ds.y, labels)
    assert ds.class_count == 10


def test_idx_bad_magic(tmp_path):
    ip, lp, _, _ = _make_idx(tmp_path)
    with pytest.raises(BadMagic):
        dio.load_mnist_idx(lp, lp)  # labels file where images expected
    short = tmp_path / "short"
    short.write_bytes(b"\x00\x00\x08")
    with pytest.raises(BadMagic):
        dio.load_mnist_idx(short, lp)


def test_idx_truncated_and_mismatched(tmp_path):
    ip, lp, images, labels = _make_idx(tmp_path)
    trunc = tmp_path / "trunc"
    trunc.write_bytes(ip.read_bytes()[:-10])
    with pytest.raises(CountMismatch):
        dio.load_mnist_idx(trunc, lp)
    lp2 = tmp_path / "labels2"
    dio.write_idx_labels(lp2, labels[:-1])
    with pytest.raises(CountMismatch):
        dio.load_mnist_idx(ip, lp2)


def test_subset_helper(tmp_path):
    ip, lp, _, _ = _make_idx(tmp_path, n=30)
    ds = dio.load_mnist_idx(ip, lp).subset(5)
    assert ds.n == 5


# --- preprocessing -----------------------------------------------------------------

def test_one_hot_and_bias_column():
    assert np.array_equal(dio.one_hot([2], 3), [[0, 0, 1]])
    ds = dio.load_iris()
    batch = dio.preprocess(ds, "minmax")
    assert batch.n == 150
    assert np.array_equal(batch.X[:, 0], np.ones(150))
    assert batch.Y.shape == (150, 3)
    assert np.array_equal(batch.Y.sum(axis=1), np.ones(150))
    assert batch.X[:, 1:].min() >= 0.0 and batch.X[:, 1:].max() <= 1.0


def test_constant_feature_zeroed():
    ds = dio.Dataset("toy", np.array([[1.0, 5.0], [2.0, 5.0]]), np.array([0, 1]),
                     "classification", class_count=2)
    with pytest.warns(DegenerateFeatureWarning):
        b = dio.preprocess(ds, "minmax")
    assert np.array_equal(b.X[:, 2], [0.0, 0.0])
    with pytest.warns(DegenerateFeatureWarning):
        b = dio.preprocess(ds, "zscore")
    assert np.array_equal(b.X[:, 2], [0.0, 0.0])


def test_regression_target_inverse_transform():
    rng = np.random.default_rng(1)
    t = rng.uniform(5, 50, 20)
    ds = dio.Dataset("toy", rng.uniform(0, 1, (20, 3)), t, "regression")
    for scheme in ("minmax", "zscore", "none"):
        b = dio.preprocess(ds, scheme)
        back = b.target_transform.invert(b.Y[:, 0])
        assert np.max(np.abs(back - t)) <= 1e-12


def test_split_deterministic():
    ds = dio.load_iris()
    a = dio.split_dataset(ds, 0.2, seed=3)
    b = dio.split_dataset(ds, 0.2, seed=3)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.X_test, b.X_test)
    assert a.X.shape[0] == 120 and a.X_test.shape[0] == 30


# --- checkpoints ----------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    W = rng.normal(size=(4, 5))
    V = rng.normal(size=(3, 5))
    p = tmp_path / "ckpt.json"
    dio.save_checkpoint(p, config={"x": 1}, W=W, V=V, loss_kind="sle2",
                        seed=7, iterations_completed=2)
    doc = dio.load_checkpoint(p)
    assert np.array_equal(doc["W"], W)  # bit-exact via repr round trip
    assert np.array_equal(doc["V"], V)
    assert doc["seed"] == 7 and doc["iterations_completed"] == 2


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "ckpt.json"
    dio.save_checkpoint(p, config={}, W=np.ones((1, 1)), V=np.ones((1, 1)),
                        loss_kind="mse")
    doc = json.loads(p.read_text())
    doc["format_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        dio.load_checkpoint(p)


def test_write_json_refuses_non_finite_and_writes_nothing(tmp_path):
    p = tmp_path / "doc.json"
    with pytest.raises(NonFinite, match="doc.json"):
        dio.write_json(p, {"x": float("nan")})
    assert not p.exists()
    with pytest.raises(NonFinite):
        dio.save_checkpoint(p, config={}, W=np.full((1, 1), np.inf), V=np.ones((1, 1)),
                            loss_kind="mse")
    assert not p.exists()


def test_iris_checkpoint_hidden_120_has_120_rows(tmp_path):
    W = np.zeros((120, 5))
    V = np.zeros((3, 121))
    p = tmp_path / "ckpt.json"
    dio.save_checkpoint(p, config={}, W=W, V=V, loss_kind="sle2")
    doc = dio.load_checkpoint(p)
    assert doc["W"].shape == (120, 5)

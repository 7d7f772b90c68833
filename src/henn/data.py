"""Dataset loading, preprocessing and checkpoint persistence.

CSV loaders are deliberately strict about the canonical dataset shapes (iris
150x4 with 3 classes, boston 506x13 regression); the IDX loader handles the
big-endian MNIST binary format.  Preprocessing prepends the all-ones bias
column, one-hot encodes class labels and normalizes features (minmax or
zscore), keeping the inverse transform for regression targets.  Checkpoints
round-trip through JSON with shortest-roundtrip decimal floats, so numeric
payloads reload bit-exactly.
"""

import hashlib
import json
import struct
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    BadMagic,
    CountMismatch,
    DegenerateFeatureWarning,
    NonFinite,
    ParseError,
    ShapeError,
    VersionMismatch,
)

CHECKPOINT_VERSION = 1


@dataclass
class Dataset:
    name: str
    X: np.ndarray                    # n x d raw features
    y: np.ndarray                    # int labels or float targets
    task: str                        # "classification" | "regression"
    feature_names: list = field(default_factory=list)
    class_count: int | None = None
    label_names: list | None = None
    X_test: np.ndarray | None = None
    y_test: np.ndarray | None = None

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def subset(self, count: int) -> "Dataset":
        """First `count` samples (test split kept as is)."""
        return Dataset(self.name, self.X[:count], self.y[:count], self.task,
                       self.feature_names, self.class_count, self.label_names,
                       self.X_test, self.y_test)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.X).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        return h.hexdigest()


# --- CSV ----------------------------------------------------------------------

def _read_csv_rows(path):
    """Comma-separated rows; a header is detected by a non-numeric first field.

    Raises ParseError (with the 1-based line number) on ragged or unreadable
    rows."""
    with open(path, "r", encoding="utf-8") as f:
        raw = [line.rstrip("\n\r") for line in f]
    rows = []
    width = None
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        fields = [c.strip() for c in line.split(",")]
        if lineno == 1:
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        rows.append((lineno, fields))
    if not rows:
        raise ParseError("no data rows found")
    return rows


def _parse_features(rows, feature_cols):
    X = np.empty((len(rows), feature_cols))
    for r, (lineno, fields) in enumerate(rows):
        for c in range(feature_cols):
            try:
                X[r, c] = float(fields[c])
            except ValueError:
                raise ParseError(f"line {lineno}: field {c + 1} is not a number: {fields[c]!r}")
    return X


def load_classification_csv(path, name="csv") -> Dataset:
    """Numeric feature columns plus a final label column (string or numeric);
    labels map to 0..c-1 in first-appearance order."""
    rows = _read_csv_rows(path)
    width = len(rows[0][1])
    if width < 2:
        raise ShapeError("need at least one feature column and a label column")
    X = _parse_features(rows, width - 1)
    order = {}
    labels = np.empty(len(rows), dtype=np.int64)
    names = []
    for r, (_, fields) in enumerate(rows):
        key = fields[-1]
        if key not in order:
            order[key] = len(order)
            names.append(key)
        labels[r] = order[key]
    return Dataset(name, X, labels, "classification",
                   class_count=len(order), label_names=names)


def load_regression_csv(path, name="csv") -> Dataset:
    """All-numeric rows; the final column is the regression target."""
    rows = _read_csv_rows(path)
    width = len(rows[0][1])
    if width < 2:
        raise ShapeError("need at least one feature column and a target column")
    values = _parse_features(rows, width)
    return Dataset(name, values[:, :-1], values[:, -1], "regression")


def bundled_iris_path():
    return resources.files("henn").joinpath("datafiles/iris.csv")


def load_iris(path=None) -> Dataset:
    """Canonical iris file (defaults to the bundled copy): 150 rows, 4
    features, 3 classes. Anything else raises ShapeError."""
    ds = load_classification_csv(path if path is not None else bundled_iris_path(), name="iris")
    if ds.n != 150 or ds.d != 4 or ds.class_count != 3:
        raise ShapeError(f"not an iris file: {ds.n}x{ds.d}, {ds.class_count} classes")
    return ds


def load_boston(path) -> Dataset:
    """Canonical Boston housing file: 506 rows, 13 features plus the target."""
    ds = load_regression_csv(path, name="boston")
    if ds.n != 506 or ds.d != 13:
        raise ShapeError(f"not a boston housing file: {ds.n}x{ds.d}")
    return ds


# --- IDX (MNIST) ----------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx_images(path):
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise BadMagic(f"{path}: truncated header")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        payload = f.read(n * rows * cols)
    if len(payload) != n * rows * cols:
        raise CountMismatch(f"{path}: {len(payload)} pixel bytes for {n}x{rows}x{cols}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)


def _read_idx_labels(path):
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise BadMagic(f"{path}: truncated header")
        magic, n = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        payload = f.read(n)
    if len(payload) != n:
        raise CountMismatch(f"{path}: {len(payload)} label bytes for {n} records")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_mnist_idx(images_path, labels_path, name="mnist") -> Dataset:
    """IDX image/label pair; pixels scaled to [0, 1], counts cross-checked."""
    images = _read_idx_images(images_path)
    labels = _read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    X = images.astype(np.float64) / 255.0
    return Dataset(name, X, labels, "classification", class_count=10)


def load_mnist_pair(train_images, train_labels, test_images=None, test_labels=None) -> Dataset:
    ds = load_mnist_idx(train_images, train_labels)
    if test_images is not None:
        test = load_mnist_idx(test_images, test_labels, name="mnist-test")
        ds.X_test, ds.y_test = test.X, test.y
    return ds


def write_idx_images(path, images: np.ndarray):
    """Inverse of the IDX image reader (used to materialize test fixtures)."""
    n = images.shape[0]
    side = int(np.sqrt(images.shape[1]))
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, side, side))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


# --- preprocessing ----------------------------------------------------------------

@dataclass
class TargetTransform:
    kind: str
    shift: float = 0.0
    scale: float = 1.0

    def apply(self, t):
        return (np.asarray(t, dtype=np.float64) - self.shift) / self.scale

    def invert(self, t):
        return np.asarray(t, dtype=np.float64) * self.scale + self.shift


@dataclass
class Batch:
    """Training-ready arrays: X carries the all-ones bias column in front;
    Y is one-hot (classification) or a transformed n x 1 target column."""

    X: np.ndarray
    Y: np.ndarray
    task: str
    class_count: int | None = None
    labels: np.ndarray | None = None
    target_transform: TargetTransform | None = None

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1] - 1


def one_hot(labels, class_count):
    out = np.zeros((len(labels), class_count))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _scale_features(X, scheme, ref=None):
    """ref supplies the statistics (train split) when scaling a test split."""
    ref = X if ref is None else ref
    if scheme == "none":
        return X.copy()
    if scheme == "minmax":
        lo, hi = ref.min(axis=0), ref.max(axis=0)
        span = hi - lo
        flat = span == 0
        if np.any(flat):
            warnings.warn("constant feature left at 0 under minmax", DegenerateFeatureWarning)
        span[flat] = 1.0
        out = (X - lo) / span
        out[:, flat] = 0.0
        return out
    if scheme == "zscore":
        mu, sd = ref.mean(axis=0), ref.std(axis=0)
        flat = sd == 0
        if np.any(flat):
            warnings.warn("constant feature left at 0 under zscore", DegenerateFeatureWarning)
        sd[flat] = 1.0
        out = (X - mu) / sd
        out[:, flat] = 0.0
        return out
    raise ValueError(f"unknown scheme {scheme!r}")


def preprocess(ds: Dataset, scheme: str = "minmax") -> Batch:
    """Bias column + one-hot targets (classification) or scaled targets with a
    stored inverse transform (regression)."""
    feats = _scale_features(ds.X, scheme)
    X = np.hstack([np.ones((ds.n, 1)), feats])
    if ds.task == "classification":
        return Batch(X, one_hot(ds.y, ds.class_count), "classification",
                     class_count=ds.class_count, labels=ds.y.copy())
    t = np.asarray(ds.y, dtype=np.float64)
    if scheme == "zscore":
        tt = TargetTransform("zscore", float(t.mean()), float(t.std() or 1.0))
    elif scheme == "minmax":
        span = float(t.max() - t.min()) or 1.0
        tt = TargetTransform("minmax", float(t.min()), span)
    else:
        tt = TargetTransform("none")
    return Batch(X, tt.apply(t).reshape(-1, 1), "regression", target_transform=tt)


def preprocess_pair(ds: Dataset, scheme: str = "minmax"):
    """Batch for the train split plus, when present, a test batch scaled with
    the train statistics."""
    train = preprocess(ds, scheme)
    if ds.X_test is None:
        return train, None
    feats = _scale_features(ds.X_test, scheme, ref=ds.X)
    X = np.hstack([np.ones((ds.X_test.shape[0], 1)), feats])
    if ds.task == "classification":
        test = Batch(X, one_hot(ds.y_test, ds.class_count), "classification",
                     class_count=ds.class_count, labels=ds.y_test.copy())
    else:
        tt = train.target_transform
        test = Batch(X, tt.apply(ds.y_test).reshape(-1, 1), "regression", target_transform=tt)
    return train, test


def split_dataset(ds: Dataset, test_fraction: float = 0.2, seed: int = 0) -> Dataset:
    """Deterministic shuffled split; returns a dataset with test arrays set."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n)
    cut = int(round(ds.n * (1.0 - test_fraction)))
    tr, te = order[:cut], order[cut:]
    return Dataset(ds.name, ds.X[tr], ds.y[tr], ds.task, ds.feature_names,
                   ds.class_count, ds.label_names, ds.X[te], ds.y[te])


# --- checkpoints -----------------------------------------------------------------

def write_json(path, doc) -> None:
    """Write ``doc`` as strict JSON (indent 1, trailing newline).  A NaN or
    an infinity raises NonFinite before the file is opened."""
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as e:
        raise NonFinite(f"{path}: {e}") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def save_checkpoint(path, *, config: dict, W, V, loss_kind: str,
                    sigmoid_poly=None, seed=None, iterations_completed=0):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "W": {"rows": int(np.shape(W)[0]), "cols": int(np.shape(W)[1]),
              "data": [[float(x) for x in row] for row in np.asarray(W)]},
        "V": {"rows": int(np.shape(V)[0]), "cols": int(np.shape(V)[1]),
              "data": [[float(x) for x in row] for row in np.asarray(V)]},
        "loss_kind": loss_kind,
        "sigmoid_poly": sigmoid_poly.to_dict() if sigmoid_poly is not None else None,
        "seed": seed,
        "iterations_completed": iterations_completed,
    }
    write_json(path, doc)
    return doc


def load_checkpoint(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e}")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise VersionMismatch(f"format_version {doc.get('format_version')} != {CHECKPOINT_VERSION}")
    for key in ("W", "V"):
        block = doc[key]
        arr = np.array(block["data"], dtype=np.float64).reshape(block["rows"], block["cols"])
        doc[key] = arr
    if doc.get("sigmoid_poly"):
        from .losses import PolyApprox

        doc["sigmoid_poly"] = PolyApprox.from_dict(doc["sigmoid_poly"])
    return doc

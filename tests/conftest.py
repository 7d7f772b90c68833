import tracemalloc

import numpy as np
import pytest

from henn.engine import EngineConfig, SlotEngine


@pytest.fixture
def exact8():
    return SlotEngine(EngineConfig(slots=8, backend="exact"))


@pytest.fixture
def exact64():
    return SlotEngine(EngineConfig(slots=64, backend="exact"))


@pytest.fixture
def exact256():
    return SlotEngine(EngineConfig(slots=256, backend="exact"))


@pytest.fixture
def leveled64():
    return SlotEngine(EngineConfig(slots=64, logQ=990, logp=30, backend="leveled"))


def bits(x):
    """Shape and bytes, with every NaN made the one canonical NaN.  numpy picks
    the sign of NaN + NaN (NaNs of both signs, e.g. from a NaN slot and from
    inf * 0.0) by the SIMD loop it runs, so two dense compositions of the same
    sum can already differ there; every other bit is compared."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.shape, x.tobytes()


def traced_peak(fn):
    """The peak of the memory that fn's allocations hold, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_classification_batch(rng, n, d, c):
    from henn.data import Batch, one_hot

    X = np.hstack([np.ones((n, 1)), rng.uniform(0.0, 1.0, (n, d))])
    labels = rng.integers(0, c, n)
    # make sure every class appears at least once when it fits
    if n >= c:
        labels[:c] = np.arange(c)
    return Batch(X, one_hot(labels, c), "classification", class_count=c, labels=labels)


def make_regression_batch(rng, n, d):
    from henn.data import Batch

    X = np.hstack([np.ones((n, 1)), rng.uniform(0.0, 1.0, (n, d))])
    t = rng.uniform(0.0, 1.0, (n, 1))
    return Batch(X, t, "regression")

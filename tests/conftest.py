import tracemalloc

import numpy as np
import pytest

from henn.engine import EngineConfig, SlotEngine, SlotVector
from henn.errors import DepthExhausted, InputTooLong, LengthMismatch


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


class DenseEngine(SlotEngine):
    """The reference composition of every engine op on dense slots:
    ``np.roll`` for rotations and rint(x * y * 2**p) / 2**p for products on
    the leveled backend, with the lazy engine's level charges, uids, errors
    and ``OpTrace`` records, so a run on it and on ``SlotEngine`` can be
    compared slot for slot, bit for bit."""

    def _rescale(self, x):
        return np.rint(x * self._scale) / self._scale if self._leveled else x

    def _level(self, op, a, b=None, consumed=0):
        if b is not None and b.size != a.size:
            raise LengthMismatch(f"{a.size} vs {b.size} slots")
        level = a.level
        if level is None:
            return None
        if b is not None:
            level = min(level, b.level)
        if consumed:
            if level < 1:
                raise DepthExhausted(f"{op}: operand at level 0 "
                                     f"(budget {self.config.level_budget})")
            level -= 1
        return level

    def _out(self, op, ins, slots, consumed, level):
        sv = SlotVector(slots, level, next(self._uid))
        if self.trace is not None:
            self.trace.record(op, tuple(v.uid for v in ins), sv.uid, consumed, level)
        return sv

    def encrypt(self, values):
        values = np.array(values, dtype=np.float64).ravel()
        if values.shape[0] > self.config.slots:
            raise InputTooLong(f"{values.shape[0]} values > {self.config.slots} slots")
        slots = np.zeros(self.config.slots)
        slots[:values.shape[0]] = self._rescale(values)
        level = self.config.level_budget if self._leveled else None
        return self._out("encrypt", (), slots, 0, level)

    def add(self, a, b):
        return self._out("add", (a, b), a.slots + b.slots, 0, self._level("add", a, b))

    def sub(self, a, b):
        return self._out("sub", (a, b), a.slots - b.slots, 0, self._level("sub", a, b))

    def mult(self, a, b):
        level = self._level("mult", a, b, 1)
        return self._out("mult", (a, b), self._rescale(a.slots * b.slots), 1, level)

    def cmult(self, a, m):
        if m.size != a.size:
            raise LengthMismatch(f"{a.size} vs {m.size} slots")
        level = self._level("cmult", a, None, 1)
        mask = self._rescale(m.slots)
        return self._out("cmult", (a,), self._rescale(a.slots * mask), 1, level)

    def rotate(self, a, k):
        return self._out("rotate", (a,), np.roll(a.slots, -k), 0, a.level)

    def rotate_add(self, a, k):
        sv = SlotVector(a.slots + np.roll(a.slots, -k), a.level, next(self._uid))
        if self.trace is not None:
            rot_uid = next(self._uid)
            self.trace.record("rotate", (a.uid,), rot_uid, 0, a.level)
            self.trace.record("add", (a.uid, rot_uid), sv.uid, 0, a.level)
        return sv

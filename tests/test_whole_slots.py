"""Whole-slot differential tests: the lazy engine against the dense reference
composition (``conftest.DenseEngine``), on every slot's bits, every level and
the whole ``OpTrace``.  The benchmark digests hash only the decoded n x p
slots; these also cover the signed zeros off them."""

import importlib

import numpy as np
import pytest

from henn import data
from henn.encoding import Layout, encode_matrix
from henn.engine import EngineConfig, OpTrace, SlotEngine
from henn.linalg import dvr_matmul, vr_matmul

from conftest import DenseEngine, bits, make_regression_batch

train_module = importlib.import_module("henn.train")     # henn.train is also the function


def engine(cls, backend, slots):
    return cls(EngineConfig(slots=slots, logQ=990, logp=30, backend=backend), trace=OpTrace())


def every_slot(eng, vectors):
    """(level, bits of a decrypt, bits of a read) of each vector, in order."""
    return [(v.level, bits(eng.decrypt(v)), bits(v.slots)) for v in vectors]


def recording(cls):
    """cls with every vector that its ops return kept in ``made``, in order."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.made = []

    def recorded(op):
        def method(self, *args):
            out = op(self, *args)
            self.made.append(out)
            return out
        return method

    for name in ("encrypt", "add", "sub", "mult", "cmult", "rotate", "rotate_add"):
        setattr(Recording, name, recorded(getattr(cls, name)))
    return Recording


def matmul_run(cls, backend, n, k, p, layout):
    """One vr_matmul and one dvr_matmul of 2 x 2 tiles, from uniform[-1, 1]:
    every vector made, read once the products are done, so that no read
    changes the form an op takes."""
    eng = engine(recording(cls), backend, 1024)
    rng = np.random.default_rng(n * 100 + k * 10 + p)
    A, B = rng.uniform(-1.0, 1.0, (2 * n, k)), rng.uniform(-1.0, 1.0, (k, 2 * p))
    team_a = [encode_matrix(eng, A[t * n:(t + 1) * n], Layout.FULL_MATRIX) for t in range(2)]
    team_b = [encode_matrix(eng, B.T[t * p:(t + 1) * p], layout) for t in range(2)]
    vr_matmul(eng, team_a[0], team_b[0])
    dvr_matmul(eng, team_a, team_b)
    return every_slot(eng, eng.made), eng.trace.entries


@pytest.mark.parametrize("backend", ["exact", "leveled"])
@pytest.mark.parametrize("layout", [Layout.FULL_MATRIX, Layout.ROW_PER_CIPHERTEXT])
@pytest.mark.parametrize("n, k, p", [(16, 8, 8), (16, 4, 8), (16, 8, 4)])
def test_matmul_matches_the_dense_composition_on_every_slot(backend, layout, n, k, p):
    """vr_matmul and dvr_matmul with k = p, k < p and k > p, the transposed
    operand as one matrix (rows cut out) or one vector per row: every slot
    and level of every vector made, the result tiles and the block sums and
    partial accumulators with their -0.0 slots among them, and the trace are
    those of the dense composition."""
    slots, entries = matmul_run(SlotEngine, backend, n, k, p, layout)
    dense_slots, dense_entries = matmul_run(DenseEngine, backend, n, k, p, layout)
    assert slots == dense_slots
    assert entries == dense_entries


def train_run(cls, monkeypatch, batch, backend, slots, **kwargs):
    """An instrumented train() on engine class cls: the report and the
    trainer."""
    trainers = []

    class Recorded(train_module.EncryptedTrainer):
        def __init__(self, *args):
            super().__init__(*args)
            trainers.append(self)

    monkeypatch.setattr(train_module, "SlotEngine", cls)
    monkeypatch.setattr(train_module, "EncryptedTrainer", Recorded)
    report = train_module.train(batch, backend=backend, instrument=True,
                                engine_config=EngineConfig(slots=slots, backend=backend),
                                **kwargs)
    (trainer,) = trainers
    return report, trainer


def desk_run(cls, backend, monkeypatch):
    """train() on iris, hidden 16, 4096 slots, 2 iterations, on engine class
    cls: the report, the trace and every slot of the final weights."""
    report, trainer = train_run(cls, monkeypatch, data.preprocess(data.load_iris()), backend,
                                4096, hidden=16, iterations=2)
    weights = [part for em in trainer.W_enc + trainer.V_enc for part in em.parts]
    assert len(report.iterations) == 2 and report.halted is None
    return (bits(report.W), bits(report.V), trainer.engine.trace.entries,
            every_slot(trainer.engine, weights))


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_desk_training_matches_the_dense_composition_on_every_slot(backend, monkeypatch):
    """Two iterations of desk-scale training: the decoded weights, the trace
    and every slot and level of the encrypted weights are those of the dense
    composition."""
    lazy = desk_run(SlotEngine, backend, monkeypatch)
    dense = desk_run(DenseEngine, backend, monkeypatch)
    assert lazy[:2] == dense[:2]
    assert lazy[2] == dense[2]
    assert lazy[3] == dense[3]


def whole_run(cls, monkeypatch, batch, backend, **kwargs):
    """train() at hidden 4 on 1024 slots on engine class cls: the bits of W
    and V, the halt record, the depth report and the trace."""
    report, trainer = train_run(cls, monkeypatch, batch, backend, 1024, hidden=4, **kwargs)
    return (bits(report.W), bits(report.V), report.halted, report.depth,
            trainer.engine.trace.entries)


def batch_of(source):
    """Iris scaled by minmax or zscore, or a regression batch of 150 x 4."""
    if source == "regression":
        return make_regression_batch(np.random.default_rng(0), 150, 4)
    return data.preprocess(data.load_iris(), source)


# (backend, data, loss, lambda, iterations): each loss kind, zscore inputs
# (rows with -0.0 zeros), L2 and both on either backend; a leveled run that
# halts on the level budget in its third iteration; mse regression
RUNS = ([(backend, scheme, loss, lam, 2) for backend in ("exact", "leveled")
         for scheme, loss, lam in [("minmax", "sle2", 0.0), ("minmax", "sle1", 0.0),
                                   ("minmax", "sle1s", 0.0), ("minmax", "sle", 0.0),
                                   ("zscore", "sle2", 0.0), ("minmax", "sle2", 0.01),
                                   ("zscore", "sle2", 0.01)]]
        + [("leveled", "minmax", "sle2", 0.0, 3)]
        + [(backend, "regression", "mse", 0.0, 2) for backend in ("exact", "leveled")])


@pytest.mark.parametrize("backend, source, loss, lam, iterations", RUNS)
def test_training_runs_match_the_dense_composition(backend, source, loss, lam, iterations,
                                                   monkeypatch):
    """Whole training runs at hidden 4 on 1024 slots: the bits of W and V,
    the halt record (reason and detail), the depth report and the trace are
    those of the dense composition."""
    batch = batch_of(source)
    lazy, dense = (whole_run(cls, monkeypatch, batch, backend, loss=loss, lam=lam,
                             iterations=iterations) for cls in (SlotEngine, DenseEngine))
    if iterations == 3:
        assert lazy[2]["reason"] == "depth_exhausted" and lazy[2]["iterations_completed"] == 2
    assert lazy == dense

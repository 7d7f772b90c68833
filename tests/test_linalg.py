"""Encrypted matmul against the numpy product."""

import numpy as np
import pytest

from henn.encoding import Layout, decode_matrix, encode_matrix
from henn.engine import EngineConfig, OpTrace, SlotEngine, depth_report
from henn.errors import DimensionMismatch, TileShapeMismatch
from henn.linalg import (
    assemble_tiles,
    dvr_matmul,
    vr_matmul,
    vr_matmul_first_transposed,
    vr_matmul_repeated,
)

from conftest import traced_peak


def exact(slots=256):
    return SlotEngine(EngineConfig(slots=slots, backend="exact"))


def enc(eng, M, layout=Layout.FULL_MATRIX):
    return encode_matrix(eng, np.asarray(M, dtype=float), layout)


def test_identity_and_textbook_product():
    eng = exact(64)
    ident = enc(eng, np.eye(2))
    b = np.array([[1.5, -2.0], [0.25, 3.0]])
    out = vr_matmul(eng, ident, enc(eng, b.T.copy()))
    assert np.allclose(decode_matrix(eng, out), b, atol=1e-12)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = vr_matmul(eng, enc(eng, a), enc(eng, np.array([[5.0, 6.0], [7.0, 8.0]]).T.copy()))
    assert np.array_equal(decode_matrix(eng, out), [[19, 22], [43, 50]])


def test_random_rectangular_oracle():
    rng = np.random.default_rng(11)
    eng = exact(256)
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (3, 5))
    out = vr_matmul(eng, enc(eng, a), enc(eng, b.T.copy()))
    assert np.max(np.abs(decode_matrix(eng, out) - a @ b)) <= 1e-10


def test_row_per_ciphertext_operand():
    rng = np.random.default_rng(3)
    eng = exact(128)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    out = vr_matmul(eng, enc(eng, a), enc(eng, b.T.copy(), Layout.ROW_PER_CIPHERTEXT))
    assert np.max(np.abs(decode_matrix(eng, out) - a @ b)) <= 1e-10


def test_repeated_rows_operand():
    rng = np.random.default_rng(4)
    eng = exact(128)
    a = rng.uniform(-1, 1, (5, 3))
    b_t = rng.uniform(-1, 1, (4, 3))
    reps = [encode_matrix(eng, row, Layout.REPEATED_ROW, repeat=5) for row in b_t]
    out = vr_matmul_repeated(eng, enc(eng, a), reps)
    assert np.max(np.abs(decode_matrix(eng, out) - a @ b_t.T)) <= 1e-10


def test_first_transposed_examples():
    eng = exact(64)
    ident_t = enc(eng, np.eye(3))
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = vr_matmul_first_transposed(eng, ident_t, enc(eng, m))
    assert np.allclose(decode_matrix(eng, out), m, atol=1e-12)
    a_t = enc(eng, [[1.0, 3.0], [2.0, 4.0]])  # transpose of [[1,2],[3,4]]
    b = enc(eng, [[5.0, 6.0], [7.0, 8.0]])
    out = vr_matmul_first_transposed(eng, a_t, b)
    assert np.array_equal(decode_matrix(eng, out), [[19, 22], [43, 50]])
    # 1 x k row times k x 1 column -> scalar dot product
    row_t = enc(eng, [[1.0], [2.0], [3.0]])
    col = enc(eng, [[4.0], [5.0], [6.0]])
    out = vr_matmul_first_transposed(eng, row_t, col)
    assert np.allclose(decode_matrix(eng, out), [[32.0]])


def test_transposition_variants_agree():
    rng = np.random.default_rng(21)
    eng = exact(256)
    a = rng.uniform(-1, 1, (4, 5))
    b = rng.uniform(-1, 1, (5, 3))
    via_second = decode_matrix(eng, vr_matmul(eng, enc(eng, a), enc(eng, b.T.copy())))
    via_first = decode_matrix(
        eng, vr_matmul_first_transposed(eng, enc(eng, a.T.copy()), enc(eng, b)))
    assert np.max(np.abs(via_second - via_first)) <= 1e-10


def test_dimension_mismatch():
    eng = exact(64)
    with pytest.raises(DimensionMismatch):
        vr_matmul(eng, enc(eng, np.ones((2, 3))), enc(eng, np.ones((2, 4))))


def test_dvr_degenerate_equals_vr():
    rng = np.random.default_rng(31)
    eng = exact(128)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 3))
    tiles = dvr_matmul(eng, [enc(eng, a)], [enc(eng, b.T.copy())])
    assert len(tiles) == 1
    direct = decode_matrix(eng, vr_matmul(eng, enc(eng, a), enc(eng, b.T.copy())))
    assert np.array_equal(decode_matrix(eng, tiles[0]), direct)


def test_dvr_tiled_product_and_invariance():
    rng = np.random.default_rng(41)
    eng = exact(128)
    a = rng.uniform(-1, 1, (8, 6))
    b = rng.uniform(-1, 1, (6, 4))
    team_a = [enc(eng, a[:4]), enc(eng, a[4:])]
    team_b = [enc(eng, b.T[:2].copy()), enc(eng, b.T[2:].copy())]
    tiles = dvr_matmul(eng, team_a, team_b)
    full = assemble_tiles(eng, tiles, 2, 2)
    assert np.max(np.abs(full - a @ b)) <= 1e-10
    # a different partition gives the same product
    team_a2 = [enc(eng, a[:2]), enc(eng, a[2:5]), enc(eng, a[5:])]
    team_b2 = [enc(eng, b.T[:1].copy()), enc(eng, b.T[1:].copy())]
    tiles2 = dvr_matmul(eng, team_a2, team_b2)
    full2 = assemble_tiles(eng, tiles2, 3, 2)
    assert np.max(np.abs(full2 - full)) <= 1e-10
    assert [t.team_id for t in tiles] == [0, 1, 2, 3]


def test_dvr_empty_team_rejected():
    eng = exact(64)
    with pytest.raises(TileShapeMismatch):
        dvr_matmul(eng, [enc(eng, np.ones((2, 2)))], [])
    with pytest.raises(TileShapeMismatch):
        dvr_matmul(eng, [enc(eng, np.ones((2, 2)))], [enc(eng, np.ones((2, 3)))])


def test_level_cost_fixed_per_shape():
    """Same (k, p): identical depth, independent of values."""
    rng = np.random.default_rng(2)
    depths = []
    for trial in range(3):
        trace = OpTrace()
        eng = SlotEngine(EngineConfig(slots=128, logQ=990, logp=30), trace=trace)
        a = enc(eng, rng.uniform(-1, 1, (3, 4)))
        bt = enc(eng, rng.uniform(-1, 1, (5, 4)))
        trace.begin_phase("matmul")
        vr_matmul(eng, a, bt)
        depths.append(depth_report(trace).phase("matmul").depth)
    assert depths[0] == depths[1] == depths[2] == 4


def test_leveled_tolerance():
    rng = np.random.default_rng(17)
    eng = SlotEngine(EngineConfig(slots=256, logQ=990, logp=30))
    a = rng.uniform(-1, 1, (6, 7))
    b = rng.uniform(-1, 1, (7, 5))
    out = decode_matrix(eng, vr_matmul(eng, enc(eng, a), enc(eng, b.T.copy())))
    assert np.max(np.abs(out - a @ b)) <= 1e-5


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_matmul_holds_one_cut_row_at_a_time(backend):
    """Memory guard: vr_matmul cuts each row of a full-matrix transposed
    operand in its own column's pass, so a cut row, built full width when its
    column reads it, is freed after that column.  Cutting the p rows up front
    held all of them until the product returned: a peak near p full-width
    vectors.  The bound is p/2 of them (n = 16, k = 8, p = 32, 4096 slots,
    operands read before the product)."""
    n, k, p, slots = 16, 8, 32, 4096
    rng = np.random.default_rng(0)
    A, B = rng.uniform(-1, 1, (n, k)), rng.uniform(-1, 1, (k, p))
    eng = SlotEngine(EngineConfig(slots=slots, backend=backend))
    a, b_t = enc(eng, A), enc(eng, B.T.copy())
    for v in (a.parts[0], b_t.parts[0]):
        v.slots
    out = []
    peak = traced_peak(lambda: out.append(vr_matmul(eng, a, b_t)))
    assert np.max(np.abs(decode_matrix(eng, out[0]) - A @ B)) < 1e-6
    assert peak < p // 2 * slots * 8

"""Encoding layouts and slot-level matrix procedures against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henn.encoding import (
    EncodedMatrix,
    Layout,
    complete_column_shift,
    complete_row_shift,
    decode_matrix,
    encode_matrix,
    incomplete_column_shift,
    keep_only,
    one_hot_mask,
    prefix_mask,
    roll_fill,
    segment_mask,
    strided_mask,
    sum_col_vec,
    sum_row_vec,
    windowed_sum,
)
from henn.engine import EngineConfig, OpTrace, PlainMask, SlotEngine
from henn.errors import IndexOutOfRange, MatrixTooLarge, WrongLayout


def grid_engine(slots=64):
    return SlotEngine(EngineConfig(slots=slots, backend="exact"))


# --- oracles -----------------------------------------------------------------

def oracle_row_shift(M):
    return np.roll(M, -1, axis=0)


def oracle_incomplete_shift(M):
    flat = np.roll(M.ravel(), -1)
    return flat.reshape(M.shape)


def oracle_column_shift(M):
    return np.roll(M, -1, axis=1)


# --- encode/decode -------------------------------------------------------------

def test_encode_full_matrix_example():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(eng.decrypt(em.parts[0]), [1, 2, 3, 4, 0, 0, 0, 0])


def test_encode_repeated_row_example():
    eng = grid_engine(8)
    em = encode_matrix(eng, [5, 6, 7], Layout.REPEATED_ROW, repeat=2)
    assert np.array_equal(eng.decrypt(em.parts[0]), [5, 6, 7, 5, 6, 7, 0, 0])
    assert em.rows == 2 and em.cols == 3


def test_encode_zero_rows_accepted():
    eng = grid_engine(8)
    em = encode_matrix(eng, np.zeros((0, 3)), Layout.FULL_MATRIX)
    assert em.parts == () and em.rows == 0


def test_encode_too_large():
    eng = grid_engine(8)
    with pytest.raises(MatrixTooLarge):
        encode_matrix(eng, np.ones((3, 3)), Layout.FULL_MATRIX)
    with pytest.raises(MatrixTooLarge):
        encode_matrix(eng, np.ones(5), Layout.REPEATED_ROW, repeat=2)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_decode_inverts_encode_all_layouts(n, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-5, 5, (n, cols))
    eng = grid_engine(64)
    for layout in (Layout.FULL_MATRIX, Layout.ROW_PER_CIPHERTEXT):
        em = encode_matrix(eng, M, layout)
        assert np.array_equal(decode_matrix(eng, em), M)
    em = encode_matrix(eng, M[:1], Layout.REPEATED_ROW, repeat=n)
    assert np.array_equal(decode_matrix(eng, em), np.tile(M[:1], (n, 1)))


# --- shifts ----------------------------------------------------------------------

def test_row_shift_example():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, complete_row_shift(eng, em)), [[3, 4], [1, 2]])


def test_row_shift_single_row_and_cycle():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2, 3]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, complete_row_shift(eng, em)), [[1, 2, 3]])
    M = np.arange(6.0).reshape(3, 2)
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    for _ in range(3):
        em = complete_row_shift(eng, em)
    assert np.array_equal(decode_matrix(eng, em), M)


def test_incomplete_column_shift_examples():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, incomplete_column_shift(eng, em)), [[2, 3], [4, 1]])
    one = encode_matrix(eng, [[7.0]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, incomplete_column_shift(eng, one)), [[7.0]])


def test_incomplete_column_shift_full_cycle_exact_fill():
    eng = grid_engine(8)
    M = np.arange(8.0).reshape(2, 4)
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    for _ in range(8):
        em = incomplete_column_shift(eng, em)
    assert np.array_equal(decode_matrix(eng, em), M)


def test_complete_column_shift_examples():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, complete_column_shift(eng, em)), [[2, 1], [4, 3]])
    same = encode_matrix(eng, [[5, 5], [6, 6]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, complete_column_shift(eng, same)), [[5, 5], [6, 6]])
    row = encode_matrix(eng, [[10, 11, 12]], Layout.FULL_MATRIX)
    assert np.array_equal(decode_matrix(eng, complete_column_shift(eng, row)), [[11, 12, 10]])


def test_complete_column_shift_op_budget():
    """Contract: exactly two rotations, two mask multiplies, one addition."""
    trace = OpTrace()
    eng = SlotEngine(EngineConfig(slots=8, backend="exact"), trace=trace)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    before = len(trace.entries)
    complete_column_shift(eng, em)
    ops = [e[1] for e in trace.entries[before:]]
    assert sorted(ops) == ["add", "cmult", "cmult", "rotate", "rotate"]


def test_shift_wrong_layout():
    eng = grid_engine(8)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.ROW_PER_CIPHERTEXT)
    for op in (complete_row_shift, incomplete_column_shift, complete_column_shift,
               sum_row_vec, sum_col_vec):
        with pytest.raises(WrongLayout):
            op(eng, em)


@given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_shifts_match_brute_force(n, d, seed):
    if n * (1 + d) > 64:
        return
    rng = np.random.default_rng(seed)
    M = rng.uniform(-3, 3, (n, 1 + d))
    eng = grid_engine(64)
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    assert np.allclose(decode_matrix(eng, complete_row_shift(eng, em)), oracle_row_shift(M))
    assert np.allclose(decode_matrix(eng, incomplete_column_shift(eng, em)),
                       oracle_incomplete_shift(M))
    assert np.allclose(decode_matrix(eng, complete_column_shift(eng, em)),
                       oracle_column_shift(M))


# --- sums ----------------------------------------------------------------------

def test_sum_row_vec_examples():
    eng = grid_engine(4)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(eng.decrypt(sum_row_vec(eng, em)), [3, 3, 7, 7])
    eng8 = grid_engine(8)
    zero = encode_matrix(eng8, np.zeros((2, 2)), Layout.FULL_MATRIX)
    assert np.array_equal(eng8.decrypt(sum_row_vec(eng8, zero)), np.zeros(8))
    col = encode_matrix(eng8, [[5.0], [6.0]], Layout.FULL_MATRIX)
    assert np.array_equal(eng8.decrypt(sum_row_vec(eng8, col))[:2], [5, 6])


def test_sum_col_vec_examples():
    eng = grid_engine(4)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    assert np.array_equal(eng.decrypt(sum_col_vec(eng, em)), [4, 6, 4, 6])
    eng8 = grid_engine(8)
    row = encode_matrix(eng8, [[1, 2, 3]], Layout.FULL_MATRIX)
    assert np.array_equal(eng8.decrypt(sum_col_vec(eng8, row))[:3], [1, 2, 3])
    ones = encode_matrix(eng8, np.ones((4, 2)), Layout.FULL_MATRIX)
    assert np.array_equal(eng8.decrypt(sum_col_vec(eng8, ones)), np.full(8, 4.0))


@given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sums_match_brute_force(n, d, seed):
    if n * (1 + d) > 64:
        return
    cols = 1 + d
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (n, cols))
    eng = grid_engine(64)
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    rows = eng.decrypt(sum_row_vec(eng, em))[: n * cols].reshape(n, cols)
    assert np.allclose(rows, np.tile(M.sum(axis=1, keepdims=True), (1, cols)), atol=1e-12)
    colsums = eng.decrypt(sum_col_vec(eng, em))[: n * cols].reshape(n, cols)
    assert np.allclose(colsums, np.tile(M.sum(axis=0, keepdims=True), (n, 1)), atol=1e-12)


def test_sums_leveled_tolerance():
    rng = np.random.default_rng(5)
    M = rng.uniform(-1, 1, (4, 4))
    eng = SlotEngine(EngineConfig(slots=64, logQ=990, logp=30))
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    rows = eng.decrypt(sum_row_vec(eng, em))[:16].reshape(4, 4)
    assert np.max(np.abs(rows - np.tile(M.sum(axis=1, keepdims=True), (1, 4)))) <= 1e-6


# --- keep_only / roll_fill -------------------------------------------------------

def test_keep_only_examples():
    eng = grid_engine(4)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    kept = keep_only(eng, em, 1, 0)
    assert np.array_equal(eng.decrypt(kept.parts[0]), [0, 0, 3, 0])
    again = keep_only(eng, kept, 1, 0)
    assert np.array_equal(eng.decrypt(again.parts[0]), [0, 0, 3, 0])
    zeros = encode_matrix(eng, np.zeros((2, 2)), Layout.FULL_MATRIX)
    assert np.array_equal(eng.decrypt(keep_only(eng, zeros, 0, 1).parts[0]), np.zeros(4))
    with pytest.raises(IndexOutOfRange):
        keep_only(eng, em, 2, 0)
    with pytest.raises(IndexOutOfRange):
        keep_only(eng, em, 0, 2)


def test_roll_fill_examples():
    eng = grid_engine(4)
    em = encode_matrix(eng, [[1, 2], [3, 4]], Layout.FULL_MATRIX)
    filled = roll_fill(eng, keep_only(eng, em, 1, 0))
    assert np.array_equal(eng.decrypt(filled), [3, 3, 3, 3])
    zeros = encode_matrix(eng, np.zeros((2, 2)), Layout.FULL_MATRIX)
    assert np.array_equal(eng.decrypt(roll_fill(eng, zeros)), np.zeros(4))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_roll_fill_after_keep_only_is_constant(n, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-2, 2, (n, cols))
    eng = grid_engine(32)
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    i = int(rng.integers(n))
    j = int(rng.integers(cols))
    out = eng.decrypt(roll_fill(eng, keep_only(eng, em, i, j)))
    assert np.allclose(out, M[i, j], atol=1e-12)


def test_metadata_preserved():
    eng = grid_engine(16)
    em = encode_matrix(eng, np.arange(6.0).reshape(2, 3), Layout.FULL_MATRIX)
    for op in (complete_row_shift, incomplete_column_shift, complete_column_shift):
        out = op(eng, em)
        assert (out.rows, out.cols, out.layout) == (2, 3, Layout.FULL_MATRIX)
        assert len(out.parts) == 1
    kept = keep_only(eng, em, 0, 0)
    assert (kept.rows, kept.cols, kept.layout) == (2, 3, Layout.FULL_MATRIX)
    tile = EncodedMatrix(2, 3, Layout.FULL_MATRIX, em.parts, team_id=5)
    for out in (keep_only(eng, tile, 1, 2), complete_row_shift(eng, tile)):
        assert (out.rows, out.cols, out.layout, out.team_id) == (2, 3, Layout.FULL_MATRIX, 5)


def test_exact_fill_shifts_reduce_to_flat_rotations():
    """On matrices exactly filling the vector, the whole-row shift IS a flat
    rotation by cols and the raw shift IS a flat rotation by one."""
    rng = np.random.default_rng(12)
    eng = grid_engine(8)
    M = rng.uniform(-1, 1, (2, 4))
    em = encode_matrix(eng, M, Layout.FULL_MATRIX)
    flat = em.parts[0]
    assert np.array_equal(complete_row_shift(eng, em).parts[0].slots,
                          eng.rotate(flat, 4).slots)
    assert np.array_equal(incomplete_column_shift(eng, em).parts[0].slots,
                          eng.rotate(flat, 1).slots)


def test_windowed_sum_oracle():
    rng = np.random.default_rng(9)
    eng = grid_engine(32)
    v = rng.uniform(-1, 1, 32)
    sv = eng.encrypt(v)
    for count, stride in [(1, 1), (3, 1), (5, 2), (8, 4), (7, -1), (2, -3)]:
        got = eng.decrypt(windowed_sum(eng, sv, count, stride))
        want = sum(np.roll(v, -t * stride) for t in range(count))
        assert np.allclose(got, want, atol=1e-12)


# --- structured masks against the dense ones they replace ----------------------

def dense_one_hot(S, idx):
    m = np.zeros(S)
    m[idx] = 1.0
    return m


def dense_prefix(S, count, value=1.0):
    m = np.zeros(S)
    m[:count] = value
    return m


def dense_segment(S, start, length, value=1.0):
    m = np.zeros(S)
    m[start : start + length] = value
    return m


def dense_strided(S, start, stride, count, value=1.0):
    m = np.zeros(S)
    m[start : start + stride * count : stride] = value
    return m


MASK_S = 32
BUILDERS = {
    "one_hot": (one_hot_mask, dense_one_hot, (st.integers(-MASK_S - 3, MASK_S + 3),)),
    "prefix": (prefix_mask, dense_prefix, (st.integers(-MASK_S - 3, MASK_S + 3),)),
    "segment": (segment_mask, dense_segment,
                (st.integers(-MASK_S - 3, MASK_S + 3), st.integers(-3, MASK_S + 3))),
    "strided": (strided_mask, dense_strided,
                (st.integers(-MASK_S - 3, MASK_S + 3), st.integers(-4, 6), st.integers(-2, 12))),
}
MASK_VALUES = st.sampled_from([1.0, -0.0, 0.01, -2.5, 2.0**-31]) | st.floats(-10, 10)
ENGINES = {
    "exact": SlotEngine(EngineConfig(slots=MASK_S, backend="exact")),
    "leveled": SlotEngine(EngineConfig(slots=MASK_S, logQ=990, logp=30)),
}


@st.composite
def builder_call(draw):
    name = draw(st.sampled_from(sorted(BUILDERS)))
    build, dense, arg_strategies = BUILDERS[name]
    args = tuple(draw(a) for a in arg_strategies)
    if name != "one_hot":
        args += (draw(MASK_VALUES),)
    return build, dense, args


def build_both(eng, build, dense, args):
    """(structured mask, old dense mask), or the exception type both raise."""
    try:
        want = dense(eng.config.slots, *args)
    except (IndexError, ValueError) as e:
        with pytest.raises(type(e)):
            build(eng, *args)
        return None
    return build(eng, *args), want


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=200, deadline=None)
@given(builder_call())
def test_builder_slots_match_dense_builders(call):
    built = build_both(ENGINES["exact"], *call)
    if built is not None:
        m, want = built
        assert m.index is not None and m._dense is None  # structured, no dense array
        assert same_bits(m.slots, want)


def test_one_hot_index_semantics():
    eng = ENGINES["exact"]
    assert same_bits(one_hot_mask(eng, -1).slots, dense_one_hot(MASK_S, -1))
    assert same_bits(one_hot_mask(eng, -MASK_S).slots, dense_one_hot(MASK_S, 0))
    for bad in (MASK_S, MASK_S + 5, -MASK_S - 1):
        with pytest.raises(IndexError):
            one_hot_mask(eng, bad)
    with pytest.raises(ValueError):
        strided_mask(eng, 0, 0, 3)


@settings(max_examples=200, deadline=None)
@given(builder_call(), st.sampled_from(sorted(ENGINES)), st.integers(0, 10_000))
def test_structured_cmult_matches_dense_cmult(call, backend, seed):
    """Bitwise, signed zeros included: negative inputs give -0.0 where the
    dense mask holds +0.0."""
    eng = ENGINES[backend]
    built = build_both(eng, *call)
    if built is None:
        return
    m, want = built
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-3, 3, MASK_S)
    vals[rng.integers(0, MASK_S, 4)] = [-0.0, 0.0, -5e-324, 2.0**-31]
    a = eng.encrypt(vals)
    got = eng.cmult(a, m)
    dense = eng.cmult(a, PlainMask(m.slots.copy()))
    assert same_bits(got.slots, dense.slots)
    assert got.level == dense.level
    if backend == "leveled":
        mq = np.rint(want * 2.0**30) / 2.0**30   # old per-call mask re-quantization
        assert same_bits(got.slots, np.rint((a.slots * mq) * 2.0**30) / 2.0**30)
    else:
        assert same_bits(got.slots, a.slots * want)


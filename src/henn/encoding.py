"""Matrix-to-slot encodings and the slot-level matrix manipulation toolkit.

A matrix is flattened row-major into slot vectors under one of three layouts:

* full ("FullMatrix"): the whole n x cols matrix in one vector,
  slot(i*cols + j) = M[i][j], zero padding on the right;
* rows ("RowPerCiphertext"): one zero-padded vector per matrix row;
* repeated ("RepeatedRow"): a single row repeated n times to fill an
  n x cols block in one vector.

On top of the flat encodings this module provides the shift operations (whole
rows, raw slot shift, per-row cyclic column shift), row/column sums, masking a
single entry (keep_only) and flooding a single entry across every slot
(roll_fill).  When a matrix does not exactly fill the slot vector, shifts use
masked two-rotation forms so padding never leaks in; the masks cost one level
on the leveled backend.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .engine import PlainMask, SlotEngine, SlotVector
from .errors import IndexOutOfRange, MatrixTooLarge, WrongLayout


class Layout(enum.Enum):
    FULL_MATRIX = "full"
    ROW_PER_CIPHERTEXT = "rows"
    REPEATED_ROW = "repeated"


@dataclass(frozen=True)
class EncodedMatrix:
    """A matrix viewed through slot vectors plus layout metadata.

    rows/cols give the logical matrix shape.  REPEATED_ROW encodes a single
    logical row; rows then counts its repetitions inside the vector.
    """

    rows: int
    cols: int
    layout: Layout
    parts: tuple
    team_id: int | None = None

    def with_parts(self, parts) -> "EncodedMatrix":
        return EncodedMatrix(self.rows, self.cols, self.layout, tuple(parts), self.team_id)


def encode_matrix(engine: SlotEngine, M, layout: Layout, repeat: int | None = None) -> EncodedMatrix:
    """Encrypt a matrix under the given layout.

    For REPEATED_ROW, M must be a single row and ``repeat`` its repetition
    count.  A zero-row matrix encodes to an empty parts list.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    n, cols = M.shape
    S = engine.config.slots
    if layout is Layout.FULL_MATRIX:
        if n * cols > S:
            raise MatrixTooLarge(f"{n}x{cols} needs {n * cols} slots > {S}")
        if n == 0:
            return EncodedMatrix(0, cols, layout, ())
        return EncodedMatrix(n, cols, layout, (engine.encrypt(M.ravel()),))
    if layout is Layout.ROW_PER_CIPHERTEXT:
        if cols > S:
            raise MatrixTooLarge(f"row of {cols} > {S} slots")
        return EncodedMatrix(n, cols, layout, tuple(engine.encrypt(r) for r in M))
    if layout is Layout.REPEATED_ROW:
        if n != 1:
            raise MatrixTooLarge("REPEATED_ROW encodes exactly one row")
        if repeat is None or repeat < 1:
            raise ValueError("REPEATED_ROW needs repeat >= 1")
        if repeat * cols > S:
            raise MatrixTooLarge(f"{repeat} repetitions of {cols} > {S} slots")
        return EncodedMatrix(repeat, cols, layout, (engine.encrypt(np.tile(M[0], repeat)),))
    raise WrongLayout(str(layout))


def decode_matrix(engine: SlotEngine, em: EncodedMatrix) -> np.ndarray:
    """Inverse of encode_matrix (exact on the exact backend)."""
    n, cols = em.rows, em.cols
    if n == 0:
        return np.zeros((0, cols))
    if em.layout in (Layout.FULL_MATRIX, Layout.REPEATED_ROW):
        flat = engine.decrypt(em.parts[0])
        return flat[: n * cols].reshape(n, cols).copy()
    return np.stack([engine.decrypt(p)[:cols] for p in em.parts])


# --- mask builders ----------------------------------------------------------
# Each builder returns a structured mask: one index expression and one value,
# no dense array (see PlainMask).

def one_hot_mask(engine: SlotEngine, idx: int) -> PlainMask:
    return PlainMask.structured(engine.config.slots, idx, 1.0)


def prefix_mask(engine: SlotEngine, count: int, value: float = 1.0) -> PlainMask:
    return PlainMask.structured(engine.config.slots, slice(count), value)


def segment_mask(engine: SlotEngine, start: int, length: int, value: float = 1.0) -> PlainMask:
    return PlainMask.structured(engine.config.slots, slice(start, start + length), value)


def strided_mask(engine: SlotEngine, start: int, stride: int, count: int, value: float = 1.0) -> PlainMask:
    return PlainMask.structured(engine.config.slots, slice(start, start + stride * count, stride), value)


# --- generic rotate-and-add machinery ---------------------------------------

def windowed_sum(engine: SlotEngine, v: SlotVector, count: int, stride: int) -> SlotVector:
    """Rotate-and-add tree: slot i of the result holds
    sum_{t=0}^{count-1} v[i + t*stride] (indices cyclic).

    Negative stride turns summation into replication: a vector whose only
    nonzero entries sit at multiples of |stride| gets each value copied to the
    count-1 slots after it.  Uses the binary decomposition of count, so it
    needs about 2*log2(count) rotations for any count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    result = None
    block = v          # window sums of length `blocklen`
    blocklen = 1
    offset = 0         # slots already covered by `result`
    c = count
    while c:
        if c & 1:
            contrib = engine.rotate(block, offset * stride) if result is not None else block
            result = contrib if result is None else engine.add(result, contrib)
            offset += blocklen
        c >>= 1
        if c:
            block = engine.rotate_add(block, blocklen * stride)
            blocklen *= 2
    return result


def extract_row(engine: SlotEngine, em: EncodedMatrix, i: int) -> SlotVector:
    """Pull row i of a FULL_MATRIX out into a clean zero-padded row vector.

    Costs one level (prefix mask after rotation)."""
    _need_grid(em)
    if not 0 <= i < em.rows:
        raise IndexOutOfRange(f"row {i} of {em.rows}")
    rot = engine.rotate(em.parts[0], i * em.cols)
    return engine.cmult(rot, prefix_mask(engine, em.cols))


# --- shifts ------------------------------------------------------------------

def _need_full(em: EncodedMatrix):
    if em.layout is not Layout.FULL_MATRIX:
        raise WrongLayout(f"needs FULL_MATRIX, got {em.layout.value}")


def _need_grid(em: EncodedMatrix):
    # single-part encodings share the same n x cols slot grid
    if em.layout is Layout.ROW_PER_CIPHERTEXT:
        raise WrongLayout("needs a single-part slot grid")


def complete_row_shift(engine: SlotEngine, em: EncodedMatrix) -> EncodedMatrix:
    """Move every row up by one; the first row wraps to the bottom.

    Equals rotating the flat vector by cols.  Exact-fill matrices need one
    rotation; padded ones use the masked two-rotation form (one level).
    """
    _need_full(em)
    v, n, cols = em.parts[0], em.rows, em.cols
    S = engine.config.slots
    if n * cols == S:
        return em.with_parts((engine.rotate(v, cols),))
    body = engine.cmult(engine.rotate(v, cols), prefix_mask(engine, (n - 1) * cols))
    wrap = engine.cmult(
        engine.rotate(v, cols - n * cols),
        segment_mask(engine, (n - 1) * cols, cols),
    )
    return em.with_parts((engine.add(body, wrap),))


def incomplete_column_shift(engine: SlotEngine, em: EncodedMatrix) -> EncodedMatrix:
    """Shift the flat vector by one slot: element (i, j) moves to (i, j-1) and
    the first element of each row wraps into the last slot of the row above;
    the top-left element wraps to the bottom-right."""
    _need_full(em)
    v, n, cols = em.parts[0], em.rows, em.cols
    S = engine.config.slots
    if n * cols == S:
        return em.with_parts((engine.rotate(v, 1),))
    body = engine.cmult(engine.rotate(v, 1), prefix_mask(engine, n * cols - 1))
    wrap = engine.cmult(engine.rotate(v, 1 - n * cols), one_hot_mask(engine, n * cols - 1))
    return em.with_parts((engine.add(body, wrap),))


def complete_column_shift(engine: SlotEngine, em: EncodedMatrix) -> EncodedMatrix:
    """Cyclically shift the columns of every row left by one, row-locally.

    Always exactly two rotations, two mask multiplies and one addition.
    """
    _need_full(em)
    v, n, cols = em.parts[0], em.rows, em.cols
    S = engine.config.slots
    body_mask = np.zeros(S)
    wrap_mask = np.zeros(S)
    used = np.arange(n * cols)
    body_mask[used[used % cols != cols - 1]] = 1.0
    wrap_mask[used[used % cols == cols - 1]] = 1.0
    body = engine.cmult(engine.rotate(v, 1), PlainMask(body_mask))
    wrap = engine.cmult(engine.rotate(v, 1 - cols), PlainMask(wrap_mask))
    return em.with_parts((engine.add(body, wrap),))


# --- sums --------------------------------------------------------------------

def sum_row_vec(engine: SlotEngine, em: EncodedMatrix) -> SlotVector:
    """Sum each row; the result carries the sum of row i replicated across all
    cols slots of row i's block.  One level (block-start mask)."""
    _need_full(em)
    v, n, cols = em.parts[0], em.rows, em.cols
    window = windowed_sum(engine, v, cols, 1)
    starts = engine.cmult(window, strided_mask(engine, 0, cols, n))
    return windowed_sum(engine, starts, cols, -1)


def sum_col_vec(engine: SlotEngine, em: EncodedMatrix) -> SlotVector:
    """Sum each column; slot j of every row block carries the sum of column j.

    Exact-fill matrices wrap cleanly and need rotations only; padded ones pay
    one masking level."""
    _need_full(em)
    v, n, cols = em.parts[0], em.rows, em.cols
    S = engine.config.slots
    window = windowed_sum(engine, v, n, cols)
    if n * cols == S:
        return window
    first = engine.cmult(window, prefix_mask(engine, cols))
    return windowed_sum(engine, first, n, -cols)


# --- single-entry ops ---------------------------------------------------------

def keep_only(engine: SlotEngine, em: EncodedMatrix, i: int, j: int) -> EncodedMatrix:
    """Zero every slot except (i, j) (one one-hot mask multiply)."""
    _need_grid(em)
    if not (0 <= i < em.rows and 0 <= j < em.cols):
        raise IndexOutOfRange(f"({i}, {j}) outside {em.rows}x{em.cols}")
    kept = engine.cmult(em.parts[0], one_hot_mask(engine, i * em.cols + j))
    return em.with_parts((kept,))


def roll_fill(engine: SlotEngine, em) -> SlotVector:
    """Flood the single surviving entry of a keep_only result across all slots
    by log2(S) rotate-and-add doublings.  Costs rotations only, no level.
    keep_only returns a flood vector, on which each doubling is O(1) and
    the last one usually yields a uniform vector (see ``henn.engine``).

    Garbage in, garbage out: with more than one nonzero slot each output slot
    becomes the total sum instead of a replicated value.
    """
    acc = em.parts[0] if isinstance(em, EncodedMatrix) else em
    step = 1
    while step < engine.config.slots:
        acc = engine.rotate_add(acc, step)
        step *= 2
    return acc

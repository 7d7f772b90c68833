"""Encrypted matrix multiplication with one pre-transposed operand.

The core loop computes the product one result column at a time: replicate one
row of the transposed operand across all row blocks of the other operand,
multiply slotwise, collapse each block to its row sum, then mask/rotate the n
values into their final column positions.  A two-team tiled variant
(dvr_matmul) runs the same loop per pair of tiles so matrices larger than one
vector still multiply; its outer loop walks ciphertext pairs and the inner
loop is the base algorithm.

Level cost per product is constant: three rescalings on the left operand's
dataflow, plus one more on the right operand when its rows must first be cut
out of a full-matrix encoding.
"""

from .encoding import (
    EncodedMatrix,
    Layout,
    extract_row,
    one_hot_mask,
    prefix_mask,
    strided_mask,
    windowed_sum,
)
from .engine import SlotEngine, SlotVector
from .errors import DimensionMismatch, MatrixTooLarge, TileShapeMismatch


def _check_result_fits(engine: SlotEngine, n: int, p: int):
    if n * p > engine.config.slots:
        raise MatrixTooLarge(f"product {n}x{p} needs {n * p} slots > {engine.config.slots}")


def _column_pass(engine, a_vec, n, k, p, q, b_rep, acc):
    """One result column: multiply, row-sum at block starts, place."""
    prod = engine.mult(a_vec, b_rep)
    window = windowed_sum(engine, prod, k, 1)
    sums = engine.cmult(window, strided_mask(engine, 0, k, n))
    for i in range(n):
        dst = i * p + q
        placed = engine.cmult(engine.rotate(sums, i * k - dst), one_hot_mask(engine, dst))
        acc = placed if acc is None else engine.add(acc, placed)
    return acc


def _rows_of(engine, b_t: EncodedMatrix):
    """Clean zero-padded row vectors of the transposed operand."""
    if b_t.layout is Layout.ROW_PER_CIPHERTEXT:
        return list(b_t.parts)
    if b_t.layout is Layout.FULL_MATRIX:
        return [extract_row(engine, b_t, q) for q in range(b_t.rows)]
    raise DimensionMismatch(f"unsupported layout for transposed operand: {b_t.layout.value}")


def vr_matmul(engine: SlotEngine, a: EncodedMatrix, b_t: EncodedMatrix) -> EncodedMatrix:
    """Multiply a (n x k, FULL_MATRIX) by b given as its transpose b_t (p x k).

    b_t may be FULL_MATRIX or ROW_PER_CIPHERTEXT.  Returns the n x p product
    in FULL_MATRIX layout, zero-padded.
    """
    if a.layout is not Layout.FULL_MATRIX:
        raise DimensionMismatch("left operand must be FULL_MATRIX")
    if a.cols != b_t.cols:
        raise DimensionMismatch(f"inner dimensions differ: {a.cols} vs {b_t.cols}")
    n, k, p = a.rows, a.cols, b_t.rows
    if n == 0 or p == 0:
        raise DimensionMismatch("empty operand")
    _check_result_fits(engine, n, p)
    rows = _rows_of(engine, b_t)
    acc = None
    for q in range(p):
        b_rep = windowed_sum(engine, rows[q], n, -k)
        acc = _column_pass(engine, a.parts[0], n, k, p, q, b_rep, acc)
    return EncodedMatrix(n, p, Layout.FULL_MATRIX, (acc,))


def vr_matmul_repeated(engine: SlotEngine, a: EncodedMatrix, repeated_rows) -> EncodedMatrix:
    """Same product with the transposed operand's rows already replicated
    across a's row blocks (REPEATED_ROW encodings, one per row).  Used when
    weights are stored as repeated-row ciphertexts."""
    if a.layout is not Layout.FULL_MATRIX:
        raise DimensionMismatch("left operand must be FULL_MATRIX")
    n, k, p = a.rows, a.cols, len(repeated_rows)
    _check_result_fits(engine, n, p)
    acc = None
    for q, rep in enumerate(repeated_rows):
        if rep.cols != k or rep.rows < n:
            raise DimensionMismatch(
                f"repeated row {q}: {rep.rows}x{rep.cols} does not cover {n} blocks of {k}"
            )
        acc = _column_pass(engine, a.parts[0], n, k, p, q, rep.parts[0], acc)
    return EncodedMatrix(n, p, Layout.FULL_MATRIX, (acc,))


def vr_matmul_first_transposed(engine: SlotEngine, a_t: EncodedMatrix, b: EncodedMatrix) -> EncodedMatrix:
    """Mirror variant: the first operand arrives transposed (a_t is k x n for
    a logical n x k left factor), b is plain k x p.  Column sums take the
    place of row sums."""
    if a_t.layout is not Layout.FULL_MATRIX or b.layout is not Layout.FULL_MATRIX:
        raise DimensionMismatch("both operands must be FULL_MATRIX")
    if a_t.rows != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a_t.rows} vs {b.rows}")
    k, n, p = a_t.rows, a_t.cols, b.cols
    if n == 0 or p == 0:
        raise DimensionMismatch("empty operand")
    _check_result_fits(engine, n, p)
    acc = None
    for q in range(p):
        # column q of b, moved to each block start, then spread across blocks
        col = engine.cmult(b.parts[0], strided_mask(engine, q, p, k))
        aligned = None
        for j in range(k):
            moved = engine.rotate(col, j * p + q - j * n)
            picked = engine.cmult(moved, one_hot_mask(engine, j * n))
            aligned = picked if aligned is None else engine.add(aligned, picked)
        spread = windowed_sum(engine, aligned, n, -1)
        prod = engine.mult(a_t.parts[0], spread)
        window = windowed_sum(engine, prod, k, n)
        sums = engine.cmult(window, prefix_mask(engine, n))
        for i in range(n):
            dst = i * p + q
            placed = engine.cmult(engine.rotate(sums, i - dst), one_hot_mask(engine, dst))
            acc = placed if acc is None else engine.add(acc, placed)
    return EncodedMatrix(n, p, Layout.FULL_MATRIX, (acc,))


def dvr_matmul(engine: SlotEngine, team_a, team_b) -> list:
    """Two-loop tiled product.  team_a tiles the left matrix by row blocks,
    team_b tiles the transposed right matrix by row blocks (= column blocks of
    the right matrix).  Returns result tiles row-major over (a_tile, b_tile);
    concatenating them reconstructs the full product.
    """
    if not team_a or not team_b:
        raise TileShapeMismatch("both teams need at least one tile")
    k = team_a[0].cols
    for t in team_a:
        if t.cols != k:
            raise TileShapeMismatch("team A tiles disagree on the inner dimension")
    for t in team_b:
        if t.cols != k:
            raise TileShapeMismatch(f"team B tile has inner dimension {t.cols}, expected {k}")
    out = []
    for ia, at in enumerate(team_a):
        for ib, bt in enumerate(team_b):
            tile = vr_matmul(engine, at, bt)
            out.append(EncodedMatrix(tile.rows, tile.cols, tile.layout, tile.parts,
                                     team_id=ia * len(team_b) + ib))
    return out


def assemble_tiles(engine: SlotEngine, tiles: list, tiles_a: int, tiles_b: int):
    """Decode a dvr_matmul result grid back into one plaintext matrix."""
    import numpy as np

    from .encoding import decode_matrix

    rows = []
    for ia in range(tiles_a):
        row_blocks = [decode_matrix(engine, tiles[ia * tiles_b + ib]) for ib in range(tiles_b)]
        rows.append(np.hstack(row_blocks))
    return np.vstack(rows)

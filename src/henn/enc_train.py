"""Training entirely through slot-vector arithmetic.

Layout (one full-batch classification step; regression is the c == 1 case):

* the n x (1+d) input block X and the n x c target block Y are each one
  full-matrix ciphertext;
* each hidden-layer weight row (width 1+d) and each output-layer weight row
  (width 1+m) is one repeated-row ciphertext, the row tiled n times so it
  lines up with the input/hidden blocks;
* weights stay ciphertexts across iterations - levels only ever go down,
  which is what caps the iteration count on the leveled backend.

Evaluation schedule and its level cost, counted from the hidden-weight level
L at iteration start (output weights deplete two levels less per iteration):

    stage                                                  level after
    1   input x weight-row products                        L-1
    2   per-block row sums, masked to block starts         L-2
    3   placement into the n x m pre-activation grid       L-3
    4   square activation (slotwise self-product)          L-4
        activation derivative (x2 plaintext mask)          L-4
    5   hidden re-layout to width 1+m plus bias ones       L-5
    6   hidden x output-row products                       L-6
    7   per-block row sums                                 L-7
    8   placement into the n x c logit grid                L-8
    9   error signal (scale mask; sigmoid kinds go deeper) L-9
    10  scalar isolation of signal entries (keep one slot) L-10
    11  signal x output-weight scalar                      L-11
    12  x activation-derivative scalar                     L-12
    13  x input row                                        L-13
    14  learning-rate mask, subtract from weight row       L-14

Fourteen levels per iteration for the raw-logit loss: a 33-level budget
completes exactly two full iterations and dies in the third forward pass.
Per-row gradient assembly follows the scalar-replication form: every factor
s[i][j], v[j][1+k] and phi'(z[i][k]) is isolated with a one-hot mask and
flooded across all slots before the row products are summed over the batch.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import (
    EncodedMatrix,
    Layout,
    encode_matrix,
    extract_row,
    keep_only,
    prefix_mask,
    roll_fill,
    segment_mask,
    windowed_sum,
)
from .engine import PlainMask, SlotEngine, SlotVector
from .errors import MatrixTooLarge
from .linalg import vr_matmul_repeated
from .losses import LossSpec
from .nn import ModelParams


def fit_slots(n: int, u: int, m: int, c: int, floor: int = 1) -> int:
    """The smallest power of two, at least ``floor``, that holds the widest
    block of a batch: n rows of u inputs (bias included), of 1 + m hidden
    values (bias included) or of c outputs."""
    need = max(n * u, n * (1 + m), n * c, floor)
    return 1 << (need - 1).bit_length()


@dataclass
class IterationContext:
    """Everything the per-row gradient assemblies consume."""

    engine: SlotEngine
    n: int
    c: int
    s_exp: list   # n x c scalar-expanded error-signal entries
    z_rows: list  # n hidden-row ciphertexts, width 1 + m
    x_rows: list  # n input-row ciphertexts, width 1 + d
    zp_em: EncodedMatrix   # n x m activation-derivative grid
    v_enc: list   # c repeated-row output-weight encodings


def encrypted_grad_w_row(ctx: IterationContext, k: int) -> SlotVector:
    """Gradient row for hidden weight k as one padded row ciphertext:
    sum_i (sum_j s[i][j] * v[j][1+k]) * phi'(z[i][k]) * x[i]."""
    eng = ctx.engine
    v_exp = [roll_fill(eng, keep_only(eng, ctx.v_enc[j], 0, 1 + k)) for j in range(ctx.c)]
    acc = None
    for i in range(ctx.n):
        t = None
        for j in range(ctx.c):
            term = eng.mult(ctx.s_exp[i][j], v_exp[j])
            t = term if t is None else eng.add(t, term)
        phi = roll_fill(eng, keep_only(eng, ctx.zp_em, i, k))
        t = eng.mult(t, phi)
        t = eng.mult(t, ctx.x_rows[i])
        acc = t if acc is None else eng.add(acc, t)
    return acc


def encrypted_grad_v_row(ctx: IterationContext, k: int) -> SlotVector:
    """Gradient row for output weight k: sum_i s[i][k] * z[i]."""
    eng = ctx.engine
    acc = None
    for i in range(ctx.n):
        term = eng.mult(ctx.s_exp[i][k], ctx.z_rows[i])
        acc = term if acc is None else eng.add(acc, term)
    return acc


class EncryptedTrainer:
    """Full-batch gradient descent where weights, activations and gradients
    are slot vectors; the plaintext appears only in encode/decode."""

    def __init__(self, engine: SlotEngine, batch, params: ModelParams, spec: LossSpec):
        if spec.uses_sigmoid and spec.sigmoid_poly is None:
            raise ValueError(f"loss {spec.kind!r} needs a sigmoid polynomial under encryption")
        self.engine = engine
        self.spec = spec
        self.eta = params.eta
        self.lam = params.lam
        self.n = batch.X.shape[0]
        self.u = batch.X.shape[1]
        self.m = params.W.shape[0]
        self.c = params.V.shape[0]
        self.wz = 1 + self.m
        S = engine.config.slots
        need = fit_slots(self.n, self.u, self.m, self.c)
        if need > S:
            raise MatrixTooLarge(f"batch needs {need} slots per vector, engine has {S}")

        self.X_em = encode_matrix(engine, batch.X, Layout.FULL_MATRIX)
        self.Y_vec = encode_matrix(engine, batch.Y, Layout.FULL_MATRIX).parts[0]
        self.W_enc = [encode_matrix(engine, row, Layout.REPEATED_ROW, repeat=self.n)
                      for row in params.W]
        self.V_enc = [encode_matrix(engine, row, Layout.REPEATED_ROW, repeat=self.n)
                      for row in params.V]
        self.x_rows = [extract_row(engine, self.X_em, i) for i in range(self.n)]

    # --- masks ------------------------------------------------------------

    def _region(self, width: int, value: float) -> PlainMask:
        return prefix_mask(self.engine, self.n * width, value)

    # --- forward -----------------------------------------------------------

    def _restride_hidden(self, z1: SlotVector) -> SlotVector:
        """Re-layout the n x m squared activations into width-(1+m) blocks and
        write the ones into each block's bias slot."""
        eng = self.engine
        ones_col = np.zeros(eng.config.slots)
        ones_col[0 : self.n * self.wz : self.wz] = 1.0
        acc = eng.encrypt(ones_col)
        for i in range(self.n):
            seg = eng.cmult(
                eng.rotate(z1, i * self.m - (i * self.wz + 1)),
                segment_mask(eng, i * self.wz + 1, self.m),
            )
            acc = eng.add(acc, seg)
        return acc

    def _forward(self):
        eng = self.engine
        z0_em = vr_matmul_repeated(eng, self.X_em, self.W_enc)
        z0 = z0_em.parts[0]
        z1 = eng.mult(z0, z0)
        zp = eng.cmult(z0, self._region(self.m, 2.0))
        z_vec = self._restride_hidden(z1)
        z_em = EncodedMatrix(self.n, self.wz, Layout.FULL_MATRIX, (z_vec,))
        yhat_em = vr_matmul_repeated(eng, z_em, self.V_enc)
        zp_em = EncodedMatrix(self.n, self.m, Layout.FULL_MATRIX, (zp,))
        return z_em, zp_em, yhat_em

    # --- error signal ---------------------------------------------------------

    def _poly_sigma(self, yhat: SlotVector) -> SlotVector:
        """Evaluate the sigmoid polynomial on the logit grid (explicit power
        chain; garbage in padding slots is masked away by the signal scale)."""
        eng = self.engine
        coeffs = self.spec.sigmoid_poly.coefficients
        region = np.zeros(eng.config.slots)
        region[: self.n * self.c] = coeffs[0]
        acc = eng.encrypt(region)
        power = None
        for t in range(1, len(coeffs)):
            power = yhat if power is None else eng.mult(power, yhat)
            if coeffs[t] != 0.0:
                acc = eng.add(acc, eng.cmult(power, self._region(self.c, coeffs[t])))
        return acc

    def _ones_region(self) -> SlotVector:
        ones = np.zeros(self.engine.config.slots)
        ones[: self.n * self.c] = 1.0
        return self.engine.encrypt(ones)

    def _error_signal(self, yhat_em: EncodedMatrix) -> EncodedMatrix:
        eng = self.engine
        yhat = yhat_em.parts[0]
        kind = self.spec.kind
        inv_n = 1.0 / self.n
        if kind in ("sle2", "mse"):
            s = eng.cmult(eng.sub(yhat, self.Y_vec), self._region(self.c, 2.0 * inv_n))
        elif kind == "sle":
            sig = self._poly_sigma(yhat)
            t = eng.sub(eng.sub(self._ones_region(), sig), self.Y_vec)
            s = eng.cmult(t, self._region(self.c, inv_n))
        elif kind == "sle1":
            sig = self._poly_sigma(yhat)
            gap = eng.sub(sig, self.Y_vec)
            bell = eng.mult(sig, eng.sub(self._ones_region(), sig))
            s = eng.cmult(eng.mult(gap, bell), self._region(self.c, 2.0 * inv_n))
        else:  # sle1s
            sig = self._poly_sigma(yhat)
            s = eng.cmult(eng.sub(sig, self.Y_vec), self._region(self.c, 2.0 * 0.25 * inv_n))
        return EncodedMatrix(self.n, self.c, Layout.FULL_MATRIX, (s,))

    # --- one full iteration -----------------------------------------------------

    def _context(self, z_em, zp_em, s_em) -> IterationContext:
        eng = self.engine
        s_exp = [[roll_fill(eng, keep_only(eng, s_em, i, j)) for j in range(self.c)]
                 for i in range(self.n)]
        z_rows = [eng.cmult(eng.rotate(z_em.parts[0], i * self.wz), prefix_mask(eng, self.wz))
                  for i in range(self.n)]
        return IterationContext(eng, self.n, self.c, s_exp, z_rows, self.x_rows, zp_em, self.V_enc)

    def _updated_row(self, w_em: EncodedMatrix, grad_row: SlotVector, width: int) -> EncodedMatrix:
        """Replicate the gradient row across all blocks, add the L2 term, mask
        in the learning rate, subtract."""
        eng = self.engine
        rep = windowed_sum(eng, grad_row, self.n, -width)
        if self.lam != 0.0:
            rep = eng.add(rep, eng.cmult(w_em.parts[0], self._region(width, self.lam)))
        step = eng.cmult(rep, self._region(width, self.eta))
        return w_em.with_parts((eng.sub(w_em.parts[0], step),))

    def iterate(self) -> None:
        """One forward/backward/update pass.  On DepthExhausted the weights
        keep their previous-iteration values."""
        z_em, zp_em, yhat_em = self._forward()
        s_em = self._error_signal(yhat_em)
        ctx = self._context(z_em, zp_em, s_em)
        new_W = [self._updated_row(self.W_enc[k], encrypted_grad_w_row(ctx, k), self.u)
                 for k in range(self.m)]
        new_V = [self._updated_row(self.V_enc[k], encrypted_grad_v_row(ctx, k), self.wz)
                 for k in range(self.c)]
        self.W_enc = new_W
        self.V_enc = new_V

    # --- views --------------------------------------------------------------

    def current_weights(self):
        eng = self.engine
        W = np.stack([eng.decrypt(em.parts[0])[: self.u] for em in self.W_enc])
        V = np.stack([eng.decrypt(em.parts[0])[: self.wz] for em in self.V_enc])
        return W, V

    def min_level(self):
        levels = [em.parts[0].level for em in self.W_enc + self.V_enc]
        if any(lv is None for lv in levels):
            return None
        return min(levels)

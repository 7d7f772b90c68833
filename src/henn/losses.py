"""Loss family for slot-arithmetic-friendly training.

Classification avoids softmax entirely: the squared-likelihood-error (SLE)
losses score each output logit against its one-hot target through the sigmoid
(or, in the second variant, raw logits, which makes it the mean squared error
for a single output).  Each loss exposes the n x c output-layer error-signal
matrix ("S matrix") that drives both gradient formulas; losses and signals are
averaged over the batch so learning rates stay comparable across batch sizes.
Softmax lives here only as a plaintext reference for accuracy reporting.
"""

import numpy as np

from .errors import IllConditioned, NonFinite

LOSS_KINDS = ("sle", "sle1", "sle1s", "sle2", "mse")


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class PolyApprox:
    """Polynomial stand-in for the sigmoid on a fixed interval."""

    def __init__(self, coefficients, domain, max_abs_error):
        self.coefficients = tuple(float(c) for c in coefficients)
        self.domain = (float(domain[0]), float(domain[1]))
        self.max_abs_error = float(max_abs_error)

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=np.float64),
                                                np.asarray(self.coefficients))

    def to_dict(self):
        return {
            "coefficients": list(self.coefficients),
            "domain": list(self.domain),
            "max_abs_error": self.max_abs_error,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["coefficients"], d["domain"], d["max_abs_error"])


def fit_sigmoid_poly(degree: int, lo: float, hi: float, grid_points: int = 512) -> PolyApprox:
    """Least-squares polynomial fit of the sigmoid on [lo, hi].

    Fits on a uniform grid and reports the max abs error on a 10x denser one.
    Raises IllConditioned when the normal system is rank deficient.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if grid_points < degree + 1:
        raise ValueError("grid_points must be >= degree + 1")
    x = np.linspace(lo, hi, grid_points)
    y = sigmoid(x)
    coeffs, diag = np.polynomial.polynomial.polyfit(x, y, degree, full=True)
    rank = diag[1]
    if rank < degree + 1:
        raise IllConditioned(f"rank {rank} < {degree + 1} coefficients")
    dense = np.linspace(lo, hi, 10 * grid_points)
    err = float(np.max(np.abs(np.polynomial.polynomial.polyval(dense, coeffs) - sigmoid(dense))))
    return PolyApprox(coeffs, (lo, hi), err)


class LossSpec:
    """Selects a loss kind and, for sigmoid-based kinds, how sigma is evaluated.

    With sigmoid_poly set, every evaluation (plaintext included) goes through
    the polynomial, which is what encrypted training uses; without it the true
    sigmoid is used and only plaintext evaluation is possible for sigmoid
    kinds.
    """

    def __init__(self, kind: str, sigmoid_poly: PolyApprox | None = None):
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
        self.kind = kind
        self.sigmoid_poly = sigmoid_poly

    @property
    def uses_sigmoid(self) -> bool:
        return self.kind in ("sle", "sle1", "sle1s")

    def sigma(self, x):
        if self.sigmoid_poly is not None:
            return self.sigmoid_poly(x)
        return sigmoid(x)

    def __repr__(self):
        return f"LossSpec({self.kind!r}, poly={self.sigmoid_poly is not None})"


# --- reference output -----------------------------------------------------

def softmax_reference(ybar):
    """Plaintext softmax probabilities and argmax labels (ties -> lowest index).

    Rows are shifted by their max before exponentiation."""
    ybar = np.asarray(ybar, dtype=np.float64)
    shifted = ybar - ybar.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, np.argmax(probs, axis=1)


# --- error signals and scalar losses ------------------------------------------
# A signal is d(loss)/d(ybar) for the batch-mean loss, i.e. the per-entry rule
# divided by the number of rows n.

def s_matrix(spec: LossSpec, ybar, y):
    """The n x c error signal of spec's kind:

    * sle: (1 - sigma(ybar) - y) / n, the original SLE, reproduced for
      completeness; with hidden layers it tends to stall in local minima,
      prefer the variants;
    * sle1: 2 (sigma - y) sigma (1 - sigma) / n, and sle1s the same with
      the derivative factor frozen at 0.25;
    * sle2 and mse: 2 (ybar - y) / n, the second variant, which is the mean
      squared error's for a single output column."""
    ybar, y = _as2d(ybar, y)
    if not spec.uses_sigmoid:
        return 2.0 * (ybar - y) / ybar.shape[0]
    sig = spec.sigma(ybar)
    if spec.kind == "sle":
        return (1.0 - sig - y) / ybar.shape[0]
    if spec.kind == "sle1s":
        return 2.0 * (sig - y) * 0.25 / ybar.shape[0]
    return 2.0 * (sig - y) * sig * (1.0 - sig) / ybar.shape[0]


def loss_value(spec: LossSpec, ybar, y) -> float:
    """Scalar loss for the spec's kind, averaged over batch rows.  For sle it
    is the sum of ln|sigma(ybar) - y|, a diagnostic of the original SLE,
    which raises NonFinite when any term hits the log singularity."""
    ybar, y = _as2d(ybar, y)
    n = ybar.shape[0]
    if not spec.uses_sigmoid:
        return float(np.sum((ybar - y) ** 2) / n)
    sig = spec.sigma(ybar)
    if spec.kind == "sle":
        gap = np.abs(sig - y)
        if np.any(gap == 0.0):
            raise NonFinite("sigma(ybar) == y somewhere; log-likelihood diverges")
        return float(np.sum(np.log(gap)) / n)
    return float(np.sum((sig - y) ** 2) / n)


def _as2d(ybar, y):
    ybar = np.atleast_2d(np.asarray(ybar, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if ybar.shape != y.shape:
        raise ValueError(f"shape mismatch {ybar.shape} vs {y.shape}")
    return ybar, y

"""Plaintext 3-layer network: forward pass, gradients, update step.

The network is input -> hidden (square activation) -> output, with the bias
handled as column 0 of the input and hidden representations.  W is the
hidden-layer weight matrix (m x (1+d)), V the output-layer matrix
(c x (1+m)); the output layer has no activation, sigma is applied inside the
sigmoid-based losses instead.  This module is the oracle the encrypted
trainer is verified against.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .losses import LossSpec, loss_value, s_matrix

WEIGHT_INIT_STD = 0.05


@dataclass(frozen=True)
class ModelParams:
    W: np.ndarray          # m x (1+d)
    V: np.ndarray          # c x (1+m)
    eta: float = 0.01
    lam: float = 0.0       # L2 coefficient; 0 disables

    @property
    def V_bar(self):
        """V without the bias column (c x m)."""
        return self.V[:, 1:]


def init_params(d: int, m: int, c: int, seed: int, eta: float = 0.01,
                lam: float = 0.0, std: float = WEIGHT_INIT_STD) -> ModelParams:
    """Normal(0, std) weights from a seeded generator (W drawn first)."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, std, size=(m, 1 + d))
    V = rng.normal(0.0, std, size=(c, 1 + m))
    return ModelParams(W, V, eta=eta, lam=lam)


@dataclass
class ForwardTrace:
    Z0: np.ndarray       # n x m pre-activation
    Z1: np.ndarray       # n x m squared
    Z: np.ndarray        # n x (1+m) with bias column
    Yhat: np.ndarray     # n x c logits
    Zprime: np.ndarray   # n x m activation derivative (2 Z0)


def forward(params: ModelParams, X: np.ndarray) -> ForwardTrace:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.W.shape[1]:
        raise DimensionMismatch(f"X {X.shape} vs W {params.W.shape}")
    Z0 = X @ params.W.T
    Z1 = Z0 * Z0
    Z = np.hstack([np.ones((X.shape[0], 1)), Z1])
    Yhat = Z @ params.V.T
    return ForwardTrace(Z0, Z1, Z, Yhat, 2.0 * Z0)


def backward(params: ModelParams, X, Y, trace: ForwardTrace, spec: LossSpec):
    """Gradients of the batch-mean loss; L2 terms seed the accumulators."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.Yhat.shape:
        raise DimensionMismatch(f"Y {Y.shape} vs Yhat {trace.Yhat.shape}")
    S = s_matrix(spec, trace.Yhat, Y)
    grad_W = params.lam * params.W + ((S @ params.V_bar) * trace.Zprime).T @ X
    grad_V = params.lam * params.V + S.T @ trace.Z
    return grad_W, grad_V


def sgd_step(params: ModelParams, grad_W, grad_V) -> ModelParams:
    """Fixed-rate descent update; returns new params."""
    return replace(params, W=params.W - params.eta * grad_W,
                   V=params.V - params.eta * grad_V)


def predict_labels(yhat) -> np.ndarray:
    return np.argmax(yhat, axis=1)


def accuracy(yhat, labels) -> float:
    return float(np.mean(predict_labels(yhat) == np.asarray(labels)))


def evaluate(params: ModelParams, X, Y, spec: LossSpec, labels=None):
    """Loss (and accuracy for classification) at the current weights."""
    trace = forward(params, X)
    out = {"loss": loss_value(spec, trace.Yhat, Y)}
    if labels is not None:
        out["accuracy"] = accuracy(trace.Yhat, labels)
    else:
        out["rmse"] = float(np.sqrt(np.mean((trace.Yhat - Y) ** 2)))
    return out

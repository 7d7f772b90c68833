"""Neural network training over homomorphic-encryption-style slot arithmetic.

The package emulates the arithmetic contract of a leveled HE scheme
(componentwise add/multiply, plaintext masks, rotations, fixed-point
rescaling with a multiplicative-depth budget) and trains a 3-layer network
for classification and regression entirely through that contract, verified
against a plaintext oracle trainer.
"""

from .encoding import (
    EncodedMatrix,
    Layout,
    complete_column_shift,
    complete_row_shift,
    decode_matrix,
    encode_matrix,
    incomplete_column_shift,
    keep_only,
    roll_fill,
    sum_col_vec,
    sum_row_vec,
)
from .engine import DepthReport, EngineConfig, OpTrace, PlainMask, SlotEngine, SlotVector, depth_report
from .linalg import dvr_matmul, vr_matmul, vr_matmul_first_transposed
from .losses import (
    LossSpec,
    PolyApprox,
    fit_sigmoid_poly,
    loss_value,
    s_matrix,
    sigmoid,
    softmax_reference,
)
from .nn import ForwardTrace, ModelParams, backward, forward, init_params, sgd_step
from .train import TrainingReport, compare_backends, run_sle_experiment, train

__version__ = "0.1.0"

__all__ = [
    "EncodedMatrix", "Layout", "complete_column_shift", "complete_row_shift",
    "decode_matrix", "encode_matrix", "incomplete_column_shift", "keep_only",
    "roll_fill", "sum_col_vec", "sum_row_vec",
    "DepthReport", "EngineConfig", "OpTrace", "PlainMask", "SlotEngine",
    "SlotVector", "depth_report",
    "dvr_matmul", "vr_matmul", "vr_matmul_first_transposed",
    "LossSpec", "PolyApprox", "fit_sigmoid_poly", "loss_value", "s_matrix",
    "sigmoid", "softmax_reference",
    "ForwardTrace", "ModelParams", "backward", "forward", "init_params", "sgd_step",
    "TrainingReport", "compare_backends", "run_sle_experiment", "train",
]

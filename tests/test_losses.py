"""Loss values, error-signal matrices, softmax reference, sigmoid fitting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henn.errors import NonFinite
from henn.losses import (
    LossSpec,
    fit_sigmoid_poly,
    loss_value,
    s_matrix,
    s_matrix_sle,
    s_matrix_sle1,
    s_matrix_sle2,
    sigmoid,
    sle_log_likelihood,
    softmax_reference,
    square_activation,
    square_activation_derivative,
)


def test_softmax_examples():
    probs, labels = softmax_reference([[0.0, 0.0, 0.0]])
    assert np.allclose(probs, 1 / 3)
    assert labels[0] == 0  # tie -> lowest index
    probs, labels = softmax_reference([[1000.0, 0.0, 0.0]])
    assert probs[0, 0] > 0.999999 and labels[0] == 0
    probs, labels = softmax_reference([[1.0, 2.0, 3.0]])
    e = np.exp([1.0, 2.0, 3.0])
    assert np.allclose(probs[0], e / e.sum())
    assert labels[0] == 2


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6), st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(row, shift):
    probs, labels = softmax_reference([row])
    assert abs(probs.sum() - 1.0) <= 1e-12
    # Adding shift rounds each logit by up to eps/2 of its magnitude, and exp
    # cannot separate logits closer than about eps/4, so a nearer tie between
    # the top two may flip (row [0.0, 2.2e-16] with shift 2.0 does).
    top2 = np.sort(row)[-2:]
    eps = np.finfo(np.float64).eps
    assume(top2[1] - top2[0] > 4 * eps * (np.max(np.abs(row)) + abs(shift) + 1.0))
    _, labels2 = softmax_reference([np.asarray(row) + shift])
    assert labels[0] == labels2[0]


def test_sle_log_likelihood_examples():
    assert np.isclose(sle_log_likelihood([[0.0]], [[0.0]]), np.log(0.5))
    assert np.isclose(sle_log_likelihood([[0.0]], [[1.0]]), np.log(0.5))
    with pytest.raises(NonFinite):
        # sigma(0) == 0.5 == y exactly
        sle_log_likelihood([[0.0]], [[0.5]])


def test_s_matrix_sle_examples():
    assert np.isclose(s_matrix_sle([[0.0]], [[0.0]])[0, 0], 0.5)
    assert np.isclose(s_matrix_sle([[0.0]], [[1.0]])[0, 0], -0.5)
    assert np.isclose(s_matrix_sle([[40.0]], [[1.0]])[0, 0], -1.0, atol=1e-12)


def test_s_matrix_sle1_examples():
    assert np.isclose(s_matrix_sle1([[0.0]], [[0.0]])[0, 0], 0.25)
    assert np.isclose(s_matrix_sle1([[0.0]], [[0.0]], simplified=True)[0, 0], 0.25)
    assert np.isclose(s_matrix_sle1([[0.0]], [[1.0]], simplified=True)[0, 0], -0.25)


def test_s_matrix_sle2_examples():
    assert np.array_equal(s_matrix_sle2([[1.0, 2.0]], [[1.0, 2.0]]), [[0.0, 0.0]])
    assert np.isclose(s_matrix_sle2([[0.7]], [[1.0]])[0, 0], -0.6)
    assert np.isclose(s_matrix_sle2([[3.0]], [[2.5]])[0, 0], 1.0)


def test_s_matrix_sle2_equals_mse_signal():
    rng = np.random.default_rng(0)
    ybar = rng.normal(size=(6, 1))
    y = rng.normal(size=(6, 1))
    assert np.array_equal(s_matrix(LossSpec("sle2"), ybar, y),
                          s_matrix(LossSpec("mse"), ybar, y))


def test_loss_value_examples():
    assert loss_value(LossSpec("sle2"), [[2.0]], [[2.0]]) == 0.0
    assert np.isclose(loss_value(LossSpec("sle1"), [[0.0]], [[1.0]]), 0.25)
    assert loss_value(LossSpec("sle2"), [[2.0]], [[0.0]]) == 4.0


@pytest.mark.parametrize("kind", ["sle", "sle1", "sle2", "mse"])
def test_signal_matches_finite_difference_of_loss(kind):
    rng = np.random.default_rng(7)
    n, c = 4, 3 if kind not in ("mse",) else 1
    ybar = rng.uniform(-2, 2, (n, c))
    if kind == "mse":
        y = rng.uniform(-1, 1, (n, c))
    else:
        y = np.zeros((n, c))
        y[np.arange(n), rng.integers(0, c, n)] = 1.0
    spec = LossSpec(kind)
    S = s_matrix(spec, ybar, y)
    h = 1e-5
    for i in range(n):
        for j in range(c):
            up = ybar.copy()
            up[i, j] += h
            dn = ybar.copy()
            dn[i, j] -= h
            fd = (loss_value(spec, up, y) - loss_value(spec, dn, y)) / (2 * h)
            assert abs(fd - S[i, j]) <= 1e-4 * max(1.0, abs(fd))


def test_simplified_signal_near_zero_matches_first_variant_gradient():
    """Where sigma' is within 0.3% of 1/4 (|ybar| <= 0.1), the simplified
    signal tracks the finite difference of the first-variant loss to ~1%."""
    rng = np.random.default_rng(8)
    ybar = rng.uniform(-0.1, 0.1, (5, 2))
    y = np.zeros((5, 2))
    y[np.arange(5), rng.integers(0, 2, 5)] = 1.0
    spec = LossSpec("sle1")
    S = s_matrix(LossSpec("sle1s"), ybar, y)
    h = 1e-5
    for i in range(5):
        for j in range(2):
            up, dn = ybar.copy(), ybar.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd = (loss_value(spec, up, y) - loss_value(spec, dn, y)) / (2 * h)
            assert abs(fd - S[i, j]) <= 0.012 * abs(fd)


def test_simplified_signal_sign_agreement():
    rng = np.random.default_rng(9)
    ybar = rng.uniform(-4, 4, (200, 3))
    y = np.zeros((200, 3))
    y[np.arange(200), rng.integers(0, 3, 200)] = 1.0
    exact = s_matrix_sle1(ybar, y, simplified=False)
    simp = s_matrix_sle1(ybar, y, simplified=True)
    agree = np.mean(np.sign(exact) == np.sign(simp))
    assert agree >= 0.99


def test_fit_sigmoid_poly_degree1_symmetric_constant():
    poly = fit_sigmoid_poly(1, -4.0, 4.0, 101)
    assert abs(poly.coefficients[0] - 0.5) <= 1e-12


def test_fit_sigmoid_poly_degree0_symmetric_constant():
    poly = fit_sigmoid_poly(0, -4.0, 4.0, 101)
    assert len(poly.coefficients) == 1
    assert abs(poly.coefficients[0] - 0.5) <= 1e-12


def test_fit_sigmoid_poly_even_coefficients_vanish():
    poly = fit_sigmoid_poly(5, -6.0, 6.0, 301)
    for idx in (2, 4):
        assert abs(poly.coefficients[idx]) <= 1e-8


def test_fit_sigmoid_poly_error_monotone_in_degree():
    errs = [fit_sigmoid_poly(d, -8.0, 8.0, 401).max_abs_error for d in (1, 3, 5, 7)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-15


def test_fit_sigmoid_poly_eval_within_reported_error():
    poly = fit_sigmoid_poly(3, -8.0, 8.0, 301)
    x = np.linspace(-8, 8, 777)
    assert np.max(np.abs(poly(x) - sigmoid(x))) <= poly.max_abs_error + 1e-12


def test_fit_sigmoid_poly_validation():
    with pytest.raises(ValueError):
        fit_sigmoid_poly(3, 2.0, -2.0)
    with pytest.raises(ValueError):
        fit_sigmoid_poly(5, -1.0, 1.0, grid_points=3)


def test_fit_sigmoid_poly_rank_deficient():
    from henn.errors import IllConditioned

    with pytest.raises(IllConditioned):
        with np.errstate(all="ignore"):
            fit_sigmoid_poly(25, -1e-8, 1e-8, grid_points=26)


def test_square_activation():
    assert square_activation(3.0) == 9.0
    assert square_activation_derivative(3.0) == 6.0
    assert square_activation(0.0) == 0.0 == square_activation_derivative(0.0)
    assert np.allclose(square_activation(np.array([1.0, -2.0, 0.5])), [1.0, 4.0, 0.25])


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("hinge")
    assert LossSpec("sle").uses_sigmoid
    assert not LossSpec("mse").uses_sigmoid

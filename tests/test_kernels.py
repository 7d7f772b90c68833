"""The kernels agree bit for bit with the plain numpy compositions they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from henn import _kernels

SCALE = float(2**30)

# Overflow and inf * 0 are among the cases; both sides warn alike.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# --- reference compositions ---------------------------------------------------

def ref_rotate(a, k):
    return np.roll(a, -k)


def ref_rotate_add(a, k):
    return a + np.roll(a, -k)


def ref_quantize(a, scale):
    return np.rint(a * scale) / scale


def ref_mult_rescale(a, b, scale):
    return np.rint((a * b) * scale) / scale


def ref_cmult_rescale(a, m, scale):
    """The mask re-quantized on every call, then the rescaled product."""
    mq = np.rint(m * scale) / scale
    return np.rint((a * mq) * scale) / scale


# --- strategies -----------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
           0.5, -0.5, 2.0**-31, 3 * 2.0**-31, 1e300, -1e300, 2.0**52 + 1.0,
           float("inf"), float("-inf"), float("nan")]
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-4.0, 4.0),                    # off-grid values
    st.floats(allow_nan=True, allow_infinity=True),
)
# Lengths include non-powers of two; the engine only uses powers of two.
LENGTHS = st.integers(1, 70)
SCALES = st.integers(1, 64).map(lambda p: float(2**p))


@st.composite
def vector_and_shift(draw):
    n = draw(LENGTHS)
    a = draw(arrays(np.float64, n, elements=ELEMENTS))
    k = draw(st.one_of(st.sampled_from([0, 1 % n, n - 1]), st.integers(0, n - 1)))
    return a, k


@st.composite
def vector_pair(draw):
    n = draw(LENGTHS)
    return (draw(arrays(np.float64, n, elements=ELEMENTS)),
            draw(arrays(np.float64, n, elements=ELEMENTS)))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# --- differential tests -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(vector_and_shift())
def test_rotate_kernels_match_roll(case):
    a, k = case
    a.flags.writeable = False
    assert same_bits(_kernels.rotate(a, k), ref_rotate(a, k))
    assert same_bits(_kernels.rotate_add(a, k), ref_rotate_add(a, k))


@settings(max_examples=300, deadline=None)
@given(vector_pair(), SCALES)
def test_rescale_kernels_match_division(pair, scale):
    a, b = pair
    assert same_bits(_kernels.quantize(a, scale), ref_quantize(a, scale))
    assert same_bits(_kernels.mult_rescale(a, b, scale), ref_mult_rescale(a, b, scale))
    # cmult quantizes the mask once; the product of it matches re-quantizing per call
    mq = _kernels.quantize(b, scale)
    assert same_bits(_kernels.mult_rescale(a, mq, scale), ref_cmult_rescale(a, b, scale))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPECIAL) | st.floats(), st.sampled_from(SPECIAL) | st.floats(), SCALES)
def test_rescale_kernels_on_scalars(x, v, scale):
    """A structured mask's value and a one-hot slot go through the kernels as scalars."""
    xs, vs = np.array([x]), np.array([v])
    assert same_bits(_kernels.quantize(xs[0], scale), ref_quantize(xs, scale)[0])
    assert same_bits(_kernels.mult_rescale(xs[0], vs[0], scale), ref_mult_rescale(xs, vs, scale)[0])


def test_quantize_integer_oracle():
    # round-half-even of v * 2^30, computed with Python arithmetic
    vals = np.array([0.1, -0.5, 0.25, 1.0 + 2**-31, -0.7, 3.14159])
    got = _kernels.quantize(vals, SCALE)
    for v, g in zip(vals, got):
        scaled = v * (2**30)          # exact (power-of-two scaling)
        expected = round(scaled) / (2**30)
        assert g == expected


def test_rotate_semantics():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(_kernels.rotate(a, 1), [2.0, 3.0, 4.0, 1.0])
    assert np.array_equal(_kernels.rotate(a, 0), a)


def test_kernels_pure():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = a.copy()
    _kernels.rotate(a, 1)
    _kernels.rotate_add(a, 2)
    _kernels.quantize(a, SCALE)
    _kernels.mult_rescale(a, a, SCALE)
    assert np.array_equal(a, b)

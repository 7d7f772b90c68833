"""The kernels agree bit for bit with the plain numpy compositions they replace."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from henn import _kernels

from conftest import bits

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
@example((np.array([np.nan, -np.nan] * 8), 1))
def test_rotate_kernels_match_roll(case):
    """rotate only copies, so it matches bit for bit.  rotate_add matches up to
    the sign of NaN + NaN, which numpy picks by its SIMD loop (see ``bits``):
    on the example above ``a + np.roll(a, -1)`` and the kernel differ there."""
    a, k = case
    a.flags.writeable = False
    assert same_bits(_kernels.rotate(a, k), ref_rotate(a, k))
    assert bits(_kernels.rotate_add(a, k)) == bits(ref_rotate_add(a, k))


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
@given(st.sampled_from(SPECIAL) | st.floats(), vector_pair(), SCALES)
def test_rescale_kernels_on_scalars(x, pair, scale):
    """A uniform vector's value, or a structured mask's quantized value,
    meets an array in mult_rescale as a scalar, broadcast against it.  Equal
    up to the sign of NaN (see ``bits``): numpy's scalar and array loops pick
    a different operand's NaN in NaN * NaN."""
    v = pair[0]
    xs = np.full(v.shape, x)
    assert bits(_kernels.mult_rescale(x, v, scale)) == bits(ref_mult_rescale(xs, v, scale))
    assert bits(_kernels.mult_rescale(v, x, scale)) == bits(ref_mult_rescale(v, xs, scale))


@st.composite
def float_and_scale(draw):
    """A Python float and a scale 2**p; a third of the floats are exact ties
    (k + 1/2) * 2**-p, which rint must round to the even neighbour."""
    p = draw(st.integers(1, 64))
    tie = st.integers(-2**45, 2**45).map(lambda k: (k + 0.5) * 2.0**-p)
    return draw(st.sampled_from(SPECIAL) | st.floats() | tie), float(2**p)


@settings(max_examples=500, deadline=None)
@given(float_and_scale(), st.sampled_from(SPECIAL) | st.floats() | st.just(1.0))
@example((-0.0, 2.0), 1.0)
@example((-0.25, 2.0), 1.0)                 # rint(-0.5) == -0.0
@example((2.5 * 2.0**-30, SCALE), 1.0)      # tie: rint(2.5) == 2.0
@example((-3.5 * 2.0**-30, SCALE), 1.0)     # tie: rint(-3.5) == -4.0
@example((5e-324, 2.0**64), -1.0)
@example((float("inf"), 2.0), float("nan"))
def test_scalar_kernels_match_the_array_kernels(case, y):
    """The Python-float kernels give the bits of the numpy ones, NaN included."""
    x, scale = case
    xs, ys = np.array([x]), np.array([y])
    assert same_bits(_kernels.rint(x), np.rint(x))
    assert same_bits(_kernels.quantize_float(x, scale), _kernels.quantize(xs, scale)[0])
    assert same_bits(_kernels.mult_rescale_float(x, y, scale),
                     _kernels.mult_rescale(xs, ys, scale)[0])
    assert type(_kernels.mult_rescale_float(x, y, scale)) is float


@settings(max_examples=500, deadline=None)
@given(float_and_scale(), st.sampled_from(SPECIAL) | st.floats() | st.just(1.0))
@example((2.5 * 2.0**-30, SCALE), 1.0)      # tie: rint(2.5) == 2.0
@example((0.3, SCALE), 2.5 * 2.0**-30)      # the mask value itself a tie
@example((float("inf"), 2.0), 0.0)
def test_cmult_scalar_kernel_is_the_quantized_mask_product(case, m):
    """A one-hot cmult's one call gives the bits of quantizing the mask value
    and then the rescaled product, in the scalar and the array kernels."""
    x, scale = case
    got = _kernels.cmult_rescale_float(x, m, scale)
    assert type(got) is float
    assert same_bits(got, _kernels.mult_rescale_float(x, _kernels.quantize_float(m, scale), scale))
    assert same_bits(got, _kernels.mult_rescale(np.array([x]),
                                                _kernels.quantize(np.array([m]), scale), scale)[0])


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

"""Hot slot-vector kernels, one numpy implementation.

Each kernel makes one pass over its operands into a single fresh output
buffer and does the rest of its work in place there; inputs are never
written.  Rotation is left-cyclic (slot i of the result reads slot i+k of
the input) and the shift must already be reduced modulo the slot count.
Quantization rounds to the nearest multiple of 1/scale with ties to even
(IEEE rint).

``scale`` is always a power of two (2**logp).  Multiplying by the exact
reciprocal 2**-logp then gives bit for bit what dividing by 2**logp gives:
both are the correctly rounded value of the same real number x * 2**-logp,
subnormal results included, and both keep signed zeros, infinities and NaN.
The multiplication is several times cheaper than the division.

``mult_rescale`` also takes one scalar operand (a uniform vector's value,
or a structured mask's quantized value), which numpy broadcasts against the
other operand, an array.

Scalar kernels.  ``rint``, ``quantize_float`` and ``mult_rescale_float``
take and return Python floats; the engine uses them where an op computes one
value (a uniform vector's, the picked slot of a one-hot ``cmult``), which
spares numpy's per-call dispatch and 0-d arrays.  They give the same bits as the array
kernels: the products and the power-of-two scalings are the same IEEE
double operations in Python as in numpy.  ``rint`` is exact too.  A finite
x is either below 2**52 in magnitude, where ``round`` (ties to even, like
IEEE rint) gives the nearest integer exactly as a Python int and that
integer is at most 2**52, so ``float`` converts it back exactly; or it is
already an integer, which ``round`` and ``float`` return unchanged.
``copysign`` then gives a zero result the sign of x, as rint does (-0.3 ->
-0.0).  Infinities and NaN, for which ``round`` would raise, pass through
unchanged, as they do through rint.
"""

import math

import numpy as np

# There is no compiled path; perfbench's environment block reads this flag.
HAS_NUMBA = False


def rotate(a, k):
    n = a.shape[0]
    out = np.empty_like(a)
    out[: n - k] = a[k:]
    out[n - k :] = a[:k]
    return out


def rotate_combine(ufunc, a, b, k):
    """ufunc(a, rotate(b, k)), the two wrap-around slices of b combined
    straight into out."""
    n = a.shape[0]
    out = np.empty_like(a)
    ufunc(a[: n - k], b[k:], out=out[: n - k])
    ufunc(a[n - k :], b[:k], out=out[n - k :])
    return out


def rotate_add(a, k):
    """a + rotate(a, k)."""
    return rotate_combine(np.add, a, a, k)


def quantize(a, scale):
    """rint(a * scale) / scale."""
    out = np.multiply(a, scale, out=np.empty_like(a, dtype=np.float64))
    np.rint(out, out=out)
    out *= 1.0 / scale
    return out


def mult_rescale(a, b, scale):
    """rint((a * b) * scale) / scale; a scalar operand is broadcast against
    the other, an array."""
    out = np.multiply(a, b)
    out *= scale
    np.rint(out, out=out)
    out *= 1.0 / scale
    return out


def rint(x):
    """IEEE rint of a Python float (see the module docstring)."""
    if math.isfinite(x):
        return math.copysign(float(round(x)), x)
    return x


def quantize_float(x, scale):
    """``quantize`` of one Python float."""
    return rint(x * scale) * (1.0 / scale)


def mult_rescale_float(a, b, scale):
    """``mult_rescale`` of two Python floats."""
    return rint((a * b) * scale) * (1.0 / scale)

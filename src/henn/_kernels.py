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

``quantize`` and ``mult_rescale`` also accept Python and numpy scalars and
0-d arrays (a structured mask's value, a one-hot slot, a uniform vector's
value) and then return a 0-d array; ``mult_rescale`` broadcasts a scalar
against an array operand.
"""

import numpy as np

# There is no compiled path; perfbench's environment block reads this flag.
HAS_NUMBA = False


def rotate(a, k):
    n = a.shape[0]
    out = np.empty_like(a)
    out[: n - k] = a[k:]
    out[n - k :] = a[:k]
    return out


def rotate_add(a, k):
    """a + rotate(a, k), the two wrap-around slices added straight into out."""
    n = a.shape[0]
    out = np.empty_like(a)
    np.add(a[: n - k], a[k:], out=out[: n - k])
    np.add(a[n - k :], a[:k], out=out[n - k :])
    return out


def quantize(a, scale):
    """rint(a * scale) / scale."""
    out = np.multiply(a, scale, out=np.empty_like(a, dtype=np.float64))
    np.rint(out, out=out)
    out *= 1.0 / scale
    return out


def mult_rescale(a, b, scale):
    """rint((a * b) * scale) / scale; either operand may be the scalar."""
    out = np.asarray(np.multiply(a, b))
    out *= scale
    np.rint(out, out=out)
    out *= 1.0 / scale
    return out

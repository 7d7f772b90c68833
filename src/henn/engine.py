"""Slot-vector arithmetic engine with exact and leveled fixed-point backends.

A SlotVector plays the role of a ciphertext: a fixed-length vector of real
slots that supports componentwise add/multiply, multiplication by a plaintext
mask, and cyclic rotation.  The ``exact`` backend is plain float64 arithmetic
(a ring-homomorphism image of the cleartext computation); the ``leveled``
backend additionally quantizes every multiplication result to a fixed-point
scale of 2**logp and charges one level per rescaling, raising DepthExhausted
when the budget floor(logQ / logp) runs out.  No lattice noise is modeled, so
all arithmetic is deterministic.

The slot arithmetic runs through one numpy kernel path (``_kernels``); each
kernel makes one pass over its operands.  A PlainMask is either dense (one value
per slot) or structured: one value on the slots picked by one index
expression (an int or a slice) and +0.0 elsewhere, with no dense array.  The
mask builders in ``encoding`` make structured masks.  On the leveled backend
``cmult`` quantizes its mask on each call, for a structured mask one scalar.

Besides the dense form, a result can take one of four lazy forms, which
hold what defines their slots instead of the slots themselves:

* uniform (``UniformVector``): every slot holds one value.
* rotation (``RotatedVector``): what ``rotate(src, k)`` returns, the source
  and the shift.
* sparse (``SparseVector``): ``values`` on a ``support`` (an int, a slice or
  an index array) and signed zeros elsewhere, then the ``rotate_add``
  doublings up to a ``window``.  The zeros have one of two forms: one float
  ``zero``, or sign bits held as ``zero`` and read at the shift ``k`` (-0.0
  where bit (j + k) % size is set).  A structured ``cmult`` of a source
  ``src`` rotated by k stores the zero pattern ``src.slots * 0.0`` read at
  shift k, which is bit for bit ``rotate(src, k) * 0.0`` since the product
  is slotwise, and keeps no reference to ``src``.  ``_pattern`` caches that
  pattern on the source in its smallest exact form, so the n placements of
  one source share it: the float +0.0 when no slot has its sign bit set,
  else the sign bits, eight to a byte (4 KB at 32768 slots).  A merge of
  runs (below) leaves sign bits of its own.  ``encrypt`` gives one of its
  values on the first slots and +0.0 elsewhere, so encrypting a short
  vector allocates no slots.  A slice run (``_run``: window 1, a step-1
  slice, a finite zero, that is a float +-0.0 or sign bits, or an unread
  rotation of such) has its values on slots [lo, hi), which do not wrap,
  and a signed zero on every other slot.  A row cut from a matrix with
  negative entries is a run over the sign bits of that matrix.
* pending sum (``SumVector``): a base vector and the window-1 sparse terms
  added to it or subtracted from it, in order.

``add``, ``sub``, ``mult`` and ``cmult`` check the slot counts and charge
their level inline, with no helper call.  Each op then tests its operands'
forms in this order; operands that fit none are read (``slots``) and take
the dense kernel.

* ``add``/``sub`` (``_sum``): two uniform operands give one float through
  ``operator.add``/``sub``, the IEEE operation the dense form applies to
  each slot; then two runs whose union is one run give a run over it
  (``_merge``: each operand's zeros filled in off its own run, from its
  bits if it has them), unless the right operand is unread sparse on
  another run: that and any other unread window-1 sparse right operand
  with a finite zero becomes a term of a pending sum (below), one pass over
  its own support.  Off the union the merge adds or subtracts two signed
  zeros per slot.  Float zeros give ``scalar_op`` of the two; with sign
  bits (a float -0.0 is every bit set, +0.0 none), -0.0 + -0.0 is the only
  sum that is -0.0, and -0.0 - (+0.0) the only difference, so the result's
  bits are ``a & b`` for add and ``a & ~b`` for sub, with b's bits read at
  their shift relative to a's (whole bytes of the 4 KB of packed bits when
  that shift is a multiple of 8).  The merged run holds the bits left off
  the union itself, and the float +0.0 once none is left.  An add of two
  touching runs whose values are all finite and non-zero concatenates
  them, as x + (+-0.0) is x.
* ``mult``: a uniform left operand t enters as a scalar.  With a uniform
  right operand the product is one float through the scalar kernel; with a
  window-1 sparse x whose zeros are +0.0, only x's own support is
  multiplied, unbuilt; any other x is scanned once (``_support``) for the
  slots that are not +0.0, and a support of more than an eighth of the
  slots takes the dense kernel (the measured crossover,
  ``BENCH_scalar_kernels.json``, section ``product_support``).  A sparse
  product has the float zero ``t * 0.0`` (a signed zero, or NaN for a
  non-finite t; the rescale passes return both unchanged).  A row cut from
  a matrix with negative entries (zscore-scaled inputs) takes the scan,
  which adds a -0.0 slot for each of them.  Two runs with +0.0 zeros on
  one slice (the input block times an encrypted weight row) give a run of
  the product of their values: +0.0 * +0.0 is +0.0, which rescaling keeps.
* ``cmult``: a dense mask takes the dense kernel.  A structured mask reads
  its picked slots from the operand, or from an unread rotation's source at
  ``(index + k) % size`` (a slice of it when no picked slot wraps; the
  kernel copies the picks, so no view pins the source), and gives a
  window-1 sparse vector whose zero is that vector's pattern: the dense
  product's slots at the mask's +0.0 slots.  A vector with a NaN or an
  infinity has no pattern, and its product is the dense one, the same
  bits: the dense kernel computes x * 0.0 at the mask's +0.0 slots and
  x * q at the picked ones, then rescales.  A run that is no rotation, by
  a mask on its own slice, gives a run of its values times the mask and
  its own zero, as a signed zero times +0.0 keeps its sign.  An unread
  window built on its reach (below) gives its picks and its ``_pattern``
  (the float zero off the reach, the reach's sign bits on it) from the
  reach alone, so the window is read only for a reach with a NaN or an
  infinity; the block sums inherit that pattern when their values are
  finite and keep the picks' sign bits.
  A one-hot product is one call of a scalar kernel, and reads a slot on
  the support of an unread window-1 sparse source from its ``values``.
* ``rotate`` gives a rotation.
* ``rotate_add(v, k)`` of a sparse v whose window is k doubles the window,
  as ``roll_fill`` does after ``keep_only``.  When the window covers every
  slot (so also a one-hot ``cmult`` at one slot), the support is one slot
  with a finite non-zero value v and every zero is finite, the vector
  becomes uniform: each slot sums one v and signed zeros, and v + (+-0.0)
  == v.  Else a run and its rotated copy merge as in ``add``.  So the grad
  rows of ``enc_train`` are runs, not pending sums; their replication, masks
  and subtraction stay on n * width values, and an updated weight row is a
  +0.0 run, which the next step's products take unbuilt.  Likewise a row
  that ``linalg.vr_matmul`` cuts from a transposed tile stays a run through
  its replication over the row blocks, whose doublings clear its bits, so
  its product with the tile is the run product above.

``add``/``sub`` with an unread window-1 sparse right operand give a pending
sum: the placements of the forward matmuls (``linalg``) and of the hidden
re-layout in ``enc_train``.  Its terms have finite zeros only: a float
+-0.0, or sign bits.  A term whose float zero is NaN (``t * 0.0`` of a
non-finite t) takes the dense add, the reference that the pass below
matches; no CKKS ciphertext holds such a slot.  Adding a term to an unread
pending sum gives a longer one, which shares the shorter one's immutable
chain of terms.  ``sub`` fits the same form, because x - y is x + (-y) bit
for bit: only the sign of the term's zeros flips.  Reading the slots walks
the chain once and builds the sum in one pass:

1. copy the base, as ``base + -0.0``: that is every slot unchanged, and
   every NaN quieted, as any add quiets it (an unread base is built into
   the sum's own array, and the -0.0 added in place);
2. fix the signed zeros.  With finite zeros, x + (+-0.0) is x for every x
   that is not a zero, and two zeros add to -0.0 only when both are -0.0;
   a sum that is zero after a non-zero operand is exact and so +0.0.
   Adding a signed zero therefore commutes with every other addition, and
   only a -0.0 slot of the base can change: it stays -0.0 only while every
   term has -0.0 there.  A term's support slots count as -0.0 here, since
   they take a value, not a zero; a zero slot j of a term with sign bits
   has the bit at ``(j + k) % size``.  The candidates, the -0.0 slots of
   the base, are resolved against all terms at once, one row per term,
   but one per group of one-slot terms with one operation, shift and zero
   object, whose zeros agree: it skips its slot only when every
   term of the group takes that slot.  The rows go in blocks that keep
   the candidates x rows arrays near ``_BLOCK`` entries, and a block drops
   the candidates it clears;
3. apply the values on each term's support, in term order, with the
   operation of its add or sub: numpy's scalar or array arithmetic, as a
   one-term sum would.  When every term is one slot, the slots are
   distinct and the operation is one, that is one indexed array operation,
   which applies the same IEEE operation to each slot.

A pending sum holds terms whose zeros are one array of sign bits (its
``source``), or float zeros only: a term with other bits builds the sum
first and starts a new one on it.  Of a term the sum keeps only its zero,
values and support, so an unread sum pins no full-width vector besides its
base, not a matmul column's block sums.

Each lazy form has one ``_build``, which replays the dense composition into
a fresh array and clears nothing.  A sparse vector of window w over a
step-1 slice [lo, hi) with a float +-0.0 zero builds its reach
[lo - w + 1, hi) alone (``_reach``; it may wrap at slot 0): the same
doublings on that short array, where the partners past hi read the zero,
which is what they hold there, and every other slot holds the sum of w
zeros, the zero.  That needs the partners past hi to miss [lo, hi), so a
reach that w more slots would take past the slot count runs the
full-width doublings instead.  Reading ``slots`` caches the read-only
build on the vector and returns it, so both paths give the same bits;
``_drop`` then releases the build's inputs: a rotation's source, a pending
sum's base and terms.  ``decrypt`` and a pending sum's base are owner builds
(``_owned``): an unread lazy vector's ``_build``, which the caller owns, with
no cache filled, so neither a decoded weight row nor a sum's base keeps
full-width slots; a later read builds it again.  That cache, and the zero
pattern and support that ``_pattern`` and ``_support`` cache, are the only
state written after construction; filling each is idempotent, and inputs
are dropped only after the cache is set (a build that finds them dropped
returns it), so two threads that race on it both see the same values.
Every op is still one engine call with its own uid, level and trace
records, whatever the form of its operands.

All operations are pure: inputs are never mutated.  An engine may carry an
OpTrace; traces are not locked and must stay confined to one thread (ops on
engines with distinct traces never interfere).
"""

import itertools
import math
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DepthExhausted, InputTooLong, LengthMismatch

BACKENDS = ("exact", "leveled")


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters. Defaults mirror the reference experiment setup."""

    logQ: int = 990
    logp: int = 30
    slots: int = 32768
    backend: str = "leveled"

    def __post_init__(self):
        if self.slots < 1 or (self.slots & (self.slots - 1)) != 0:
            raise ValueError(f"slots must be a power of two, got {self.slots}")
        if self.logp <= 0:
            raise ValueError("logp must be positive")
        if self.logQ < self.logp:
            raise ValueError("logQ must be >= logp")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")

    @property
    def logN(self) -> int:
        """log2 of the ring degree N: log2(2 * slots), since CKKS packs N/2
        slots."""
        return self.slots.bit_length()

    @property
    def level_budget(self) -> int:
        return self.logQ // self.logp

    def to_dict(self) -> dict:
        return {
            "logN": self.logN,
            "logQ": self.logQ,
            "logp": self.logp,
            "slots": self.slots,
            "backend": self.backend,
        }


class SlotVector:
    """Immutable vector of slots plus level bookkeeping (leveled backend).

    This dense form holds its slots; the lazy subclasses below hold less and
    build ``slots`` on first read.
    """

    # _pattern, _support: see _pattern and _support; cached on first need
    # (unset until then)
    __slots__ = ("slots", "size", "level", "uid", "_pattern", "_support")

    def __init__(self, slots: np.ndarray, level, uid: int):
        slots.flags.writeable = False
        self.slots = slots
        self.size = slots.shape[0]
        self.level = level            # None on the exact backend
        self.uid = uid

    def __len__(self):
        return self.size

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=6)
        return f"{type(self).__name__}(len={len(self)}, level={self.level}, slots={head}...)"


class _LazyVector(SlotVector):
    """A SlotVector whose slots are built by ``_build`` on first read."""

    # Subclasses set size, level, uid and _cache = None.
    __slots__ = ("_cache",)

    @property
    def slots(self) -> np.ndarray:
        out = self._cache
        if out is None:
            out = self._build()
            out.flags.writeable = False
            self._cache = out
            self._drop()
        return out

    def _drop(self):
        pass


class UniformVector(_LazyVector):
    """Every slot holds ``value``."""

    __slots__ = ("value",)

    def __init__(self, size, value: float, level, uid):
        self.size = size
        self.value = value
        self.level = level
        self.uid = uid
        self._cache = None

    def _build(self):
        return np.full(self.size, self.value)


class RotatedVector(_LazyVector):
    """``rotate(src, k)``, k already reduced modulo the slot count.  Reading
    the slots drops ``src``, so ``src is None`` once they are read."""

    __slots__ = ("src", "k")

    def __init__(self, src: SlotVector, k: int, level, uid):
        self.size = src.size
        self.src = src
        self.k = k
        self.level = level
        self.uid = uid
        self._cache = None

    def _build(self):
        src = self.src
        return self._cache if src is None else _kernels.rotate(src.slots, self.k)

    def _drop(self):
        self.src = None


class SparseVector(_LazyVector):
    """``values`` on the slots ``support`` (an int, a slice or an index
    array) and, on every other slot, the float ``zero`` or, for packed sign
    bits ``zero``, -0.0 where bit (j + k) % size is set and +0.0 elsewhere;
    then the ``rotate_add`` doublings by 1, 2, ... up to ``window``/2
    (window 1: none)."""

    __slots__ = ("k", "zero", "support", "values", "window")

    def __init__(self, size, k, zero, support, values, window, level, uid):
        self.size = size
        self.k = k
        self.zero = zero
        self.support = support
        self.values = values
        self.window = window
        self.level = level
        self.uid = uid
        self._cache = None

    def _build(self):
        size, zero = self.size, self.zero
        if type(zero) is np.ndarray:
            signs = np.unpackbits(zero, count=size, bitorder="little")
            out = np.where(np.concatenate((signs[self.k:], signs[:self.k])), -0.0, 0.0)
        else:
            # np.zeros leaves the pages that no value reaches unmapped
            out = np.zeros(size) if _is_plus(zero) else np.full(size, zero)
            if (reach := _reach(self)) is not None:
                return _put_reach(out, *reach)
        out[self.support] = self.values
        step = 1
        while step < self.window:
            out = _kernels.rotate_add(out, step)
            step *= 2
        return out


class SumVector(_LazyVector):
    """``base`` plus window-1 sparse terms with finite zeros, in order, each
    an add or a sub; reading the slots builds them in one pass (``_build``)
    and drops what they were built from.  A term is ``(ufunc, scalar_op, k,
    zero, support, values)``: a sparse vector's fields.  The terms have one
    ``source``: their zero's packed sign bits, or None when every term has a
    float zero."""

    # _pending: (base, chain, source) until built, then None; a chain is (the
    # earlier terms' chain or None, the last term), shared by longer sums
    __slots__ = ("_pending",)

    def __init__(self, base, chain, source, level, uid):
        self.size = base.size
        self._pending = (base, chain, source)
        self.level = level
        self.uid = uid
        self._cache = None

    def _build(self):
        """The slots of base and the terms of chain, in one pass (see the
        module docstring)."""
        pending = self._pending
        if pending is None:
            return self._cache
        base, chain, source = pending
        terms = []
        while chain is not None:
            chain, term = chain
            terms.append(term)
        terms.reverse()
        out = _owned(base)
        if out is None:
            out = base.slots + -0.0      # x + -0.0 is x, with any NaN quieted
        else:
            out += -0.0                  # in place: the array is this sum's own
        size = self.size
        minus = np.flatnonzero(out.view(np.uint64) == _MINUS_ZERO)
        rows, groups = [], {}
        for t in terms if minus.size else ():
            if type(t[4]) is int:       # one slot: one row per (op, shift, zero)
                group = groups.setdefault((t[0], t[2], id(t[3])), [t, t[4] % size])
                if group[1] != t[4] % size:
                    group[1] = size     # no slot that every term of the group takes
            else:
                rows.append(t)
        rows += [t[:4] + (at,) for t, at in groups.values()]
        done = 0
        while minus.size and done < len(rows):
            block = rows[done:done + max(1, _BLOCK // minus.size)]
            done += len(block)
            cleared = _adds_plus(block, minus, source, size).any(axis=0)
            out[minus[cleared]] = 0.0
            minus = minus[~cleared]
        ufunc = terms[0][0]
        if all(type(t[4]) is int and t[0] is ufunc for t in terms):
            at = np.array([t[4] for t in terms]) % size
            order = np.sort(at)
            if not (order[1:] == order[:-1]).any():      # distinct slots: one op
                out[at] = ufunc(out[at], [t[5] for t in terms])
                return out
        for _, scalar_op, _, _, support, values in terms:
            out[support] = scalar_op(out[support], values)
        return out

    def _drop(self):
        self._pending = None


_MINUS_ZERO = 0x8000000000000000      # the bits of -0.0
_BLOCK = 4096      # candidate x term entries that a sum build resolves at once
_new_instance = object.__new__


def _is_plus(zero: float) -> bool:
    """Whether a float zero is +0.0."""
    return zero == 0.0 and math.copysign(1.0, zero) > 0


def _in_support(slots: np.ndarray, support, size: int) -> np.ndarray:
    """Whether each of the sorted slot indices lies in support (an int, a
    slice or an index array)."""
    if not isinstance(support, np.ndarray):
        picked = range(size)[support]
        support = ([picked] if type(picked) is int
                   else np.arange(picked.start, picked.stop, picked.step))
    inside = np.zeros(slots.shape[0], dtype=bool)
    if slots.shape[0]:
        pos = np.searchsorted(slots, support)
        pos[pos == slots.shape[0]] = 0
        inside[pos[slots[pos] == support]] = True
    return inside


def _adds_plus(terms, minus, source, size: int) -> np.ndarray:
    """Whether each of the terms of a sum adds a +0.0 (a zero, not a value)
    at each of the sorted candidate slots minus: a bool array, one row per
    term (see ``SumVector``); an int support is reduced modulo size (size: none)."""
    sub = np.array([t[0] is np.subtract for t in terms])
    if source is None:
        plus = np.zeros((len(terms), minus.size), dtype=bool)
        plus[np.array([_is_plus(t[3]) for t in terms]) != sub] = True
    else:
        plus = _bit(source, (minus + np.array([t[2] for t in terms])[:, None]) % size)
        plus = plus == sub[:, None]
    supports = [t[4] for t in terms]
    if all(type(s) is int for s in supports):
        plus &= minus != np.array(supports)[:, None]
    else:
        for row, support in zip(plus, supports):
            if type(support) is int:
                row &= minus != support
            elif row.any():
                row &= ~_in_support(minus, support, size)
    return plus


def _bit(bits: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The packed bits at the indices at: slot j is bit j % 8 of byte j // 8."""
    return (bits[at >> 3] >> (at & 7)) & 1


def _rotated_bits(bits: np.ndarray, k: int, size: int) -> np.ndarray:
    """Packed bits rotated left by k, as a fresh array: bit j of the result
    is bit (j + k) % size.  A multiple of 8 moves whole bytes."""
    if not (k | size) & 7:
        k >>= 3
        return np.concatenate((bits[k:], bits[:k]))
    signs = np.unpackbits(bits, count=size, bitorder="little")
    return np.packbits(np.concatenate((signs[k:], signs[:k])), bitorder="little")


def _clear_bits(bits: np.ndarray, start: int, stop: int):
    """Clear the packed bits [start, stop) in place, by whole bytes if aligned."""
    if start >= stop:
        return
    if not (start | stop) & 7:
        bits[start >> 3:stop >> 3] = 0
        return
    first, last = start >> 3, (stop + 7) >> 3
    span = np.unpackbits(bits[first:last], bitorder="little")
    span[start - 8 * first:stop - 8 * first] = 0
    bits[first:last] = np.packbits(span, bitorder="little")


def _spread(run, lo: int, hi: int, size: int) -> np.ndarray:
    """A run's slots [lo, hi), a range that holds the run: its values on the
    run, its zeros elsewhere."""
    rlo, rhi, zero, k, values = run
    out = np.empty(hi - lo)
    out[rlo - lo:rhi - lo] = values
    for start, stop in ((lo, rlo), (rhi, hi)):
        if type(zero) is not np.ndarray:
            out[start - lo:stop - lo] = zero
        elif start < stop:
            signs = _bit(zero, np.arange(start + k, stop + k) % size)
            out[start - lo:stop - lo] = np.where(signs, -0.0, 0.0)
    return out


def _union_zero(sub: bool, ra, rb, lo: int, hi: int, size: int):
    """The zero and shift of a + b (sub: a - b) off the union [lo, hi) of the
    runs ra and rb, of which one or both have sign bits: two signed zeros
    add to -0.0 only when both are -0.0 (a & b), and subtract to -0.0 only
    when a's is -0.0 and b's +0.0 (a & ~b), with b's bits read at their
    shift relative to a's.  The float +0.0 once no bit is left."""
    az, ak, bz, bk = ra[2], ra[3], rb[2], rb[3]
    if type(az) is not np.ndarray:          # a float: -0.0 is every bit
        if _is_plus(az):
            return 0.0, 0
        bits, k = (~bz if sub else bz.copy()), bk
    elif type(bz) is not np.ndarray:
        if _is_plus(bz) != sub:
            return 0.0, 0
        bits, k = az.copy(), ak
    else:
        bits, k = _rotated_bits(bz, (bk - ak) % size, size), ak
        if sub:
            np.invert(bits, out=bits)
        bits &= az
    _clear_bits(bits, size, 8 * bits.shape[0])     # the padding of a short vector
    start = (lo + k) % size
    _clear_bits(bits, start, min(start + hi - lo, size))
    _clear_bits(bits, 0, start + hi - lo - size)
    if not bits.any():
        return 0.0, 0
    bits.flags.writeable = False
    return bits, k


def _pattern(v: SlotVector):
    """``v.slots * 0.0`` in its smallest exact form, cached on v: the float
    +0.0 when every slot is finite with a clear sign bit; else, when every
    slot is finite, the sign bits packed eight to a byte (slot j is bit j % 8
    of byte j // 8); else None, as the pattern holds NaN."""
    pattern = getattr(v, "_pattern", False)
    if pattern is False:
        slots = v.slots
        pattern = None
        if np.isfinite(slots).all():
            signs = np.signbit(slots)
            pattern = 0.0
            if signs.any():
                pattern = np.packbits(signs, bitorder="little")
                pattern.flags.writeable = False
        v._pattern = pattern
    return pattern


def _support(v: SlotVector):
    """The indices of the slots of v that are not +0.0 (-0.0, NaN and the
    infinities count: their bit patterns are not all zero), or None when
    they are more than an eighth of the slots; cached on v.  Past an eighth,
    a product and the sum that consumes it measured slower than the dense
    kernel at 4096 slots, and a product that is read slower at 32768."""
    support = getattr(v, "_support", False)
    if support is False:
        set_bits = v.slots.view(np.int64) != 0
        if np.count_nonzero(set_bits) > v.size // 8:
            support = None
        else:
            support = np.flatnonzero(set_bits)
        v._support = support
    return support


def _run(v: SlotVector, k: int = 0):
    """``rotate(v, k)`` as a slice run ``(lo, hi, zero, shift, values)``, or
    None.  v is a window-1 sparse vector over a step-1 slice whose zero is a
    float +-0.0 or packed sign bits, or an unread rotation of one; the zero
    of slot j is then the float, or -0.0 where bit (j + shift) % size is
    set."""
    if type(v) is RotatedVector:
        k, v = k + v.k, v.src
    if type(v) is not SparseVector or v.window != 1 or type(v.support) is not slice:
        return None
    zero = v.zero
    if type(zero) is not np.ndarray and zero != 0.0:   # NaN or inf
        return None
    size = v.size
    lo, hi, step = v.support.indices(size)
    k %= size
    if lo < k:
        lo, hi = lo + size, hi + size
    if step != 1 or hi < lo or hi - k > size:       # a wrap
        return None
    return lo - k, hi - k, zero, (v.k + k) % size, v.values


def _reach(v: SparseVector):
    """``(lo, reach)``: the slots from lo (a negative lo wraps at slot 0) of a
    sparse v of window w > 1 over a step-1 slice with a float +-0.0 zero, on
    its reach, where the rule holds (see the module docstring); else None."""
    zero, window, size = v.zero, v.window, v.size
    if window == 1 or type(zero) is np.ndarray or zero != 0.0 or type(v.support) is not slice:
        return None
    lo, hi, stride = v.support.indices(size)
    lo -= window - 1
    if stride != 1 or lo + window - 1 >= hi or hi - lo + window > size:
        return None
    reach = np.empty(hi - lo)
    reach[:window - 1] = zero
    reach[window - 1:] = v.values
    step = 1
    while step < window:
        reach = _kernels.shift_add(reach, step, zero)
        step *= 2
    return lo, reach


def _put_reach(out: np.ndarray, lo: int, reach: np.ndarray) -> np.ndarray:
    """out with reach written from slot lo on (a negative lo wraps at slot 0)."""
    if lo < 0:
        out[lo:] = reach[:-lo]
        out[:lo + reach.shape[0]] = reach[-lo:]
    else:
        out[lo:lo + reach.shape[0]] = reach
    return out


def _reach_pattern(lo: int, reach: np.ndarray, zero: float, size: int):
    """``_pattern`` of a vector that holds reach from slot lo (as in
    ``_reach``) and the float +-0.0 zero elsewhere, from the reach alone."""
    if not np.isfinite(reach).all():
        return None
    signs = np.signbit(reach)
    minus = not _is_plus(zero)
    if not (minus or signs.any()):
        return 0.0
    bits = np.packbits(_put_reach(np.full(size, minus), lo, signs), bitorder="little")
    bits.flags.writeable = False
    return bits


def _owned(v: SlotVector):
    """The ``_build`` of an unread lazy v, which the caller owns: v's cache
    stays empty, so v pins no slots; None for a dense or read v."""
    if type(v) is SlotVector or v._cache is not None:
        return None
    out = v._build()
    return None if out is v._cache else out     # a read that raced this build


class PlainMask:
    """Plaintext slot vector used as the second operand of cmult.

    ``PlainMask(values)`` is dense.  ``PlainMask.structured(size, index,
    value)`` holds ``value`` on ``slots[index]`` and +0.0 elsewhere; index is
    an int (negative wraps, out of range raises) or a slice, with numpy's
    semantics.  ``slots`` materialises either kind.
    """

    __slots__ = ("size", "index", "value", "_dense")

    def __init__(self, slots: np.ndarray):
        slots.flags.writeable = False
        self.size = slots.shape[0]
        self.index = None
        self.value = None
        self._dense = slots

    @classmethod
    def structured(cls, size: int, index, value: float) -> "PlainMask":
        if type(index) is not int:
            if isinstance(index, slice):
                index.indices(size)  # a zero step raises here, at build time
            else:
                index = operator.index(index)
        if type(index) is int and not -size <= index < size:
            raise IndexError(f"mask index {index} out of range for {size} slots")
        m = cls.__new__(cls)
        m.size = size
        m.index = index
        m.value = float(value)
        m._dense = None
        return m

    @property
    def slots(self) -> np.ndarray:
        if self.index is None:
            return self._dense
        out = np.zeros(self.size)
        out[self.index] = self.value
        out.flags.writeable = False
        return out

    def __len__(self):
        return self.size


# Trace entry: (phase_index, op, in_uids, out_uid, consumed, out_level)
class OpTrace:
    """Append-only log of engine operations, grouped into labeled phases."""

    def __init__(self):
        self.phase_labels = [""]
        self.entries = []

    def begin_phase(self, label: str) -> None:
        self.phase_labels.append(label)

    @contextmanager
    def phase(self, label: str):
        self.begin_phase(label)
        try:
            yield
        finally:
            self.begin_phase(f"(after {label})")

    def record(self, op, in_uids, out_uid, consumed, out_level):
        self.entries.append(
            (len(self.phase_labels) - 1, op, in_uids, out_uid, consumed, out_level)
        )


@dataclass
class PhaseDepth:
    label: str
    depth: int
    op_counts: Counter = field(default_factory=Counter)
    min_level: int | None = None


@dataclass
class DepthReport:
    phases: list
    max_phase_depth: int
    min_level: int | None

    def phase(self, label: str) -> PhaseDepth:
        for p in self.phases:
            if p.label == label:
                return p
        raise KeyError(label)


def depth_report(trace: OpTrace) -> DepthReport:
    """Cumulative multiplicative depth per phase and minimum remaining level.

    Depth is derived by replaying the recorded dataflow: within each phase,
    a vector produced before the phase counts as depth zero, and each
    level-consuming op extends the deepest chain among its inputs by one.
    """
    phases = []
    current = None
    current_idx = -1
    local_depth = {}
    min_level = None
    for phase_idx, op, in_uids, out_uid, consumed, out_level in trace.entries:
        if phase_idx != current_idx:
            current = PhaseDepth(trace.phase_labels[phase_idx], 0)
            phases.append(current)
            current_idx = phase_idx
            local_depth = {}
        base = max((local_depth.get(u, 0) for u in in_uids), default=0)
        d = base + consumed
        local_depth[out_uid] = d
        current.depth = max(current.depth, d)
        current.op_counts[op] += 1
        if out_level is not None:
            current.min_level = (
                out_level if current.min_level is None else min(current.min_level, out_level)
            )
            min_level = out_level if min_level is None else min(min_level, out_level)
    max_depth = max((p.depth for p in phases), default=0)
    return DepthReport(phases=phases, max_phase_depth=max_depth, min_level=min_level)


class SlotEngine:
    """Arithmetic over SlotVectors under one EngineConfig.

    Holds no mutable state besides the optional trace, so one engine can be
    shared across threads as long as each trace stays thread-confined.
    """

    def __init__(self, config: EngineConfig | None = None, trace: OpTrace | None = None):
        self.config = config if config is not None else EngineConfig()
        self.trace = trace
        self._uid = itertools.count(1)
        self._scale = float(2 ** self.config.logp)
        self._leveled = self.config.backend == "leveled"

    # --- construction -----------------------------------------------------

    def _pad(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64).ravel()
        S = self.config.slots
        if values.shape[0] > S:
            raise InputTooLong(f"{values.shape[0]} values > {S} slots")
        out = np.zeros(S, dtype=np.float64)
        out[: values.shape[0]] = values
        return out

    def encrypt(self, values) -> SlotVector:
        """Pack values into a fresh vector, zero-padded on the right: a sparse
        vector of the values on the first slots and +0.0 elsewhere, built on
        first read, so that encrypting a short vector allocates no slots.

        Leveled backend: slots are quantized to the 2**logp fixed-point grid
        and the vector starts at the full level budget.  Only the values are
        quantized; the +0.0 padding is its own quantization.
        """
        values = np.array(values, dtype=np.float64).ravel()
        if values.shape[0] > self.config.slots:
            raise InputTooLong(f"{values.shape[0]} values > {self.config.slots} slots")
        if self._leveled:
            values = _kernels.quantize(values, self._scale)
        level = self.config.level_budget if self._leveled else None
        sv = SparseVector(self.config.slots, 0, 0.0, slice(0, values.shape[0]), values, 1,
                          level, next(self._uid))
        if self.trace is not None:
            self.trace.record("encrypt", (), sv.uid, 0, level)
        return sv

    def mask(self, values) -> PlainMask:
        """Dense plaintext mask, zero-padded on the right."""
        return PlainMask(self._pad(values))

    def decrypt(self, v: SlotVector) -> np.ndarray:
        """A writeable copy of v's slots; an unread lazy v is built straight
        into it and stays unread (``_owned``)."""
        out = _owned(v)
        return v.slots.copy() if out is None else out

    def _new(self, slots: np.ndarray, level) -> SlotVector:
        return SlotVector(slots, level, next(self._uid))

    def _uniform(self, value: float, size: int, level) -> UniformVector:
        return UniformVector(size, value, level, next(self._uid))

    def _sparse_vector(self, k, zero, support, values, window, size, level) -> SlotVector:
        """A sparse vector whose window covers every slot, or its one value as
        a uniform vector when that is exact (see the module docstring)."""
        if (type(support) is int and values != 0.0 and math.isfinite(values)
                and (type(zero) is np.ndarray or math.isfinite(zero))):
            return self._uniform(values, size, level)
        return SparseVector(size, k, zero, support, values, window, level, next(self._uid))

    def _product(self, x, y):
        """x * y slotwise, rescaled on the leveled backend; y is an array and
        x an array or a float, which broadcasts."""
        if not self._leveled:
            return x * y
        return _kernels.mult_rescale(x, y, self._scale)

    def _merge(self, ufunc, scalar_op, ra, rb, size, level):
        """ufunc of two runs (``_run``) as a run over their union; None at a gap."""
        alo, ahi, az, _, av = ra
        blo, bhi, bz, _, bv = rb
        if alo > bhi or blo > ahi:
            return None
        lo, hi = min(alo, blo), max(ahi, bhi)
        if alo == blo and ahi == bhi:
            values = ufunc(av, bv)
        elif (ufunc is np.add and (ahi == blo or bhi == alo)      # touching runs
              and np.isfinite(values := np.concatenate((av, bv) if ahi == blo else (bv, av))).all()
              and values.all()):
            pass        # x + (+-0.0) is x for a finite non-zero x
        else:
            values = _spread(ra, lo, hi, size)
            ufunc(values, _spread(rb, lo, hi, size), out=values)
        if type(az) is not np.ndarray and type(bz) is not np.ndarray:
            zero, k = scalar_op(az, bz), 0
        else:
            zero, k = _union_zero(ufunc is np.subtract, ra, rb, lo, hi, size)
        return SparseVector(size, k, zero, slice(lo, hi), values, 1, level, next(self._uid))

    # --- operations ---------------------------------------------------------
    # (order of dispatch: module docstring; a level is None on the exact backend)

    def _sum(self, op, ufunc, scalar_op, a: SlotVector, b: SlotVector) -> SlotVector:
        """The body of add and sub: ufunc (np.add or np.subtract) slotwise,
        scalar_op (operator.add or operator.sub) on two uniform operands."""
        size = a.size
        if b.size != size:
            raise LengthMismatch(f"{size} vs {b.size} slots")
        level = a.level
        if level is not None and b.level < level:
            level = b.level
        tb = type(b)
        if tb is UniformVector and type(a) is UniformVector:
            sv = UniformVector(size, scalar_op(a.value, b.value), level, next(self._uid))
        elif (tb is SparseVector and type(a) is SparseVector
              and type(sa := a.support) is slice is type(b.support) and sa == b.support
              and sa.step in (None, 1) and a.window == 1 == b.window
              and type(a.zero) is not np.ndarray is not type(b.zero)      # not sign bits
              and a.zero == 0.0 == b.zero):
            # two runs on one slice, tested inline (the gradient sums): see _run
            sv = SparseVector(size, 0, scalar_op(a.zero, b.zero), a.support,
                              ufunc(a.values, b.values), 1, level, next(self._uid))
        elif (type(a) is not SumVector and (tb is SparseVector or tb is RotatedVector)
              and (ra := _run(a)) is not None and (rb := _run(b)) is not None
              # an unread sparse b on another run joins a pending sum instead
              and (ra[:2] == rb[:2] or tb is RotatedVector or b._cache is not None)
              and (sv := self._merge(ufunc, scalar_op, ra, rb, size, level)) is not None):
            pass
        elif (tb is SparseVector and b._cache is None and b.window == 1
              and (type(b.zero) is np.ndarray or b.zero == 0.0)):  # finite: a float is +-0.0 or NaN
            sv = self._pending_sum(a, ufunc, scalar_op, b, level)
        else:
            sv = self._new(ufunc(a.slots, b.slots), level)
        if self.trace is not None:
            self.trace.record(op, (a.uid, b.uid), sv.uid, 0, level)
        return sv

    def _pending_sum(self, a: SlotVector, ufunc, scalar_op, b: SparseVector,
                     level) -> SumVector:
        """a plus the window-1 sparse b, whose zero is finite, as a term,
        unbuilt.  An unread sum whose source (sign bits, or None for float
        zeros) is the term's takes the term as one more; any other a, an
        unread sum built first, is the base of a new sum."""
        zero = b.zero
        source = zero if type(zero) is np.ndarray else None
        term = (ufunc, scalar_op, b.k, zero, b.support, b.values)
        base, chain = a, None
        if type(a) is SumVector and (pending := a._pending) is not None:
            if pending[2] is source:
                base, chain, _ = pending
            else:
                a.slots
        return SumVector(base, (chain, term), source, level, next(self._uid))

    def add(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise sum; leveled result drops to the lower operand level."""
        return self._sum("add", np.add, operator.add, a, b)

    def sub(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise difference (additive inverse is free, like add)."""
        return self._sum("sub", np.subtract, operator.sub, a, b)

    def mult(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise product; leveled backend rescales and consumes one level.
        A uniform left operand enters as a scalar, and only the support of a
        right operand that is +0.0 elsewhere is multiplied, as only the
        values of two such rows on one slice support are."""
        size = a.size
        if b.size != size:
            raise LengthMismatch(f"{size} vs {b.size} slots")
        level = a.level
        if level is not None:
            if b.level < level:
                level = b.level
            if level < 1:
                raise DepthExhausted(f"mult: operand at level 0 (budget {self.config.level_budget})")
            level -= 1
        if type(a) is UniformVector:
            t = a.value
            tb = type(b)
            if tb is UniformVector:
                value = (t * b.value if level is None
                         else _kernels.mult_rescale_float(t, b.value, self._scale))
                sv = UniformVector(size, value, level, next(self._uid))
            else:
                support = None
                if (tb is SparseVector and b.window == 1 and type(zero := b.zero) is float
                        and zero == 0.0 and math.copysign(1.0, zero) > 0):
                    support, values = b.support, b.values
                if support is None and (support := _support(b)) is not None:
                    values = b.slots[support]
                if support is None:
                    sv = self._new(self._product(t, b.slots), level)
                else:
                    if level is None:
                        values = t * values
                    elif type(values) is float:
                        values = _kernels.mult_rescale_float(t, values, self._scale)
                    else:
                        values = _kernels.mult_rescale(t, values, self._scale)
                    sv = SparseVector(size, 0, t * 0.0, support, values, 1, level, next(self._uid))
        elif ((ra := _run(a)) is not None and (rb := _run(b)) is not None
              and ra[:2] == rb[:2] and type(ra[2]) is not np.ndarray is not type(rb[2])
              and _is_plus(ra[2]) and _is_plus(rb[2])):
            sv = SparseVector(size, 0, 0.0, slice(ra[0], ra[1]),
                              self._product(ra[4], rb[4]), 1, level, next(self._uid))
        else:
            sv = self._new(self._product(a.slots, b.slots), level)
        if self.trace is not None:
            self.trace.record("mult", (a.uid, b.uid), sv.uid, 1, level)
        return sv

    def cmult(self, a: SlotVector, m: PlainMask) -> SlotVector:
        """Product with a plaintext mask; consumes one level (rescale).

        On the leveled backend the mask is quantized first: the dense slots,
        or the structured mask's one value.  A structured mask gives a sparse
        vector of window 1: the (rescaled) products at its index, and
        ``a * 0.0`` elsewhere, held as the pattern of a or of an unread
        rotation's source; a source with a NaN or an infinity gives the
        dense product.
        """
        size = a.size
        if m.size != size:
            raise LengthMismatch(f"{size} vs {m.size} slots")
        level = a.level
        if level is not None:
            if level < 1:
                raise DepthExhausted(f"cmult: operand at level 0 (budget {self.config.level_budget})")
            level -= 1
        index, zero = m.index, None
        if index is not None:
            src, k, pattern = a, 0, None
            if type(a) is RotatedVector and (rot_src := a.src) is not None:
                src, k = rot_src, a.k
            if type(index) is int:
                at = (index + k) % size
                if (src is not a and type(src) is SparseVector and src._cache is None
                        and src.window == 1 and type(on := src.support) is slice):
                    # an unread vector's value on its support
                    lo, _, stride = on.indices(size)
                    i, off = divmod(at - lo, stride)
                    values = src.values
                    picked = float(values[i] if not off and 0 <= i < values.shape[0]
                                   else src.slots[at])
                else:
                    picked = float(src.slots[at])
                value = (picked * m.value if level is None
                         else _kernels.cmult_rescale_float(picked, m.value, self._scale))
            else:
                start, stop, step = index.indices(size)
                if (step == 1 and src is a    # no run test for a rotation (the row cuts)
                        and (run := _run(a)) is not None and run[:2] == (start, stop)):
                    # a signed zero times the mask's +0.0 keeps its sign
                    zero, k, picked = run[2], run[3], run[4]
                elif (src is a and type(a) is SparseVector and a._cache is None
                      and (reach := _reach(a)) is not None):
                    lo, reach = reach
                    at = (np.arange(start, stop, step) - lo) % size
                    picked = np.where(at < reach.shape[0],
                                      reach[np.minimum(at, reach.shape[0] - 1)], a.zero)
                    zero = pattern = a._pattern = _reach_pattern(lo, reach, a.zero, size)
                elif step > 0 and stop + k <= size:      # no wrap: a view, read once below
                    picked = src.slots[start + k:stop + k:step]
                else:
                    picked = src.slots[(np.arange(start, stop, step) + k) % size]
                # the kernels write a fresh array: a stored view would pin src's slots
                value = (picked * m.value if level is None else _kernels.mult_rescale(
                    picked, _kernels.quantize_float(m.value, self._scale), self._scale))
            if zero is None:
                zero = _pattern(src)
        if zero is None:        # a dense mask, or a source with a NaN or an infinity
            mq = _kernels.quantize(m.slots, self._scale) if level is not None else m.slots
            sv = self._new(self._product(a.slots, mq), level)
        elif size == 1:
            sv = self._sparse_vector(k, zero, index, value, 1, size, level)
        else:
            sv = SparseVector(size, k, zero, index, value, 1, level, next(self._uid))
            if (pattern is not None and np.isfinite(value).all()
                    and np.array_equal(np.signbit(value), np.signbit(picked))):
                sv._pattern = pattern       # the picks keep their sign bits
        if self.trace is not None:
            self.trace.record("cmult", (a.uid,), sv.uid, 1, level)
        return sv

    def rotate(self, a: SlotVector, k: int) -> SlotVector:
        """Left cyclic rotation by k slots (negative k rotates right). Free.

        The result is a lazy ``RotatedVector``; reading its slots runs the
        rotation kernel."""
        sv = RotatedVector(a, k % a.size, a.level, next(self._uid))
        if self.trace is not None:
            self.trace.record("rotate", (a.uid,), sv.uid, 0, sv.level)
        return sv

    def rotate_add(self, a: SlotVector, k: int) -> SlotVector:
        """Fused add(a, rotate(a, k)); same semantics, one kernel pass.

        On a sparse vector whose window is k it doubles the window instead;
        the doubling that covers every slot may give a uniform vector."""
        size = a.size
        k %= size
        if type(a) is SparseVector and k == a.window:
            window = k + k
            if window == size:
                sv = self._sparse_vector(a.k, a.zero, a.support, a.values, window, size, a.level)
            else:   # a's fields set on a bare instance, cheaper than by __init__
                sv = _new_instance(SparseVector)
                sv.size = size
                sv.k = a.k
                sv.zero = a.zero
                sv.support = a.support
                sv.values = a.values
                sv.window = window
                sv.level = a.level
                sv.uid = next(self._uid)
                sv._cache = None
        elif ((ra := _run(a)) is None or (rb := _run(a, k)) is None
              or (sv := self._merge(np.add, operator.add, ra, rb, size, a.level)) is None):
            sv = self._new(_kernels.rotate_add(a.slots, k), a.level)
        if self.trace is not None:
            rot_uid = next(self._uid)
            self.trace.record("rotate", (a.uid,), rot_uid, 0, a.level)
            self.trace.record("add", (a.uid, rot_uid), sv.uid, 0, sv.level)
        return sv

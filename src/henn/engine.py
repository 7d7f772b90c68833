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
op makes one pass over its operands.  A PlainMask is either dense (one value
per slot) or structured: one value on the slots picked by one index
expression (an int or a slice) and +0.0 elsewhere, with no dense array.  The
mask builders in ``encoding`` make structured masks.  On the leveled backend
``cmult`` quantizes its mask operand on each call, which for a structured
mask is one scalar; it then touches only the picked slots beyond the
``a * 0.0`` pass that gives the +0.0 slots their (signed) zeros.

Besides the dense form, a result can take one of four lazy forms, which
hold what defines their slots instead of the slots themselves:

* flood (``FloodVector``): ``cmult`` of a vector by a one-hot structured
  mask (window 1), followed by ``rotate_add(v, k)`` calls with ``k`` equal to
  the window, each of which doubles it.  This is the scalar-replication
  pattern (``keep_only`` then ``roll_fill``).  When the window covers every
  slot, the picked value v is finite and non-zero and every slot of the
  source is finite, the flood becomes uniform: each output slot is the sum of
  exactly one copy of v and of signed zeros (``x * 0.0`` of finite x), and
  v + (+-0.0) == v, so every slot is exactly v.  Otherwise it stays a flood.
* uniform (``UniformVector``): every slot holds one value.
* rotation (``RotatedVector``): what ``rotate(src, k)`` returns, the source
  and the shift.  This is the placement pattern of the forward matmuls
  (``linalg``): ``acc = add(acc, cmult(rotate(sums, k), one-hot mask))``, n
  rotations of one ``sums`` vector per result column.  Two consumers read
  an unread rotation without building it: a one-hot ``cmult`` picks slot
  ``(index + k) % size`` of the source, and ``add``/``sub`` with the
  resulting unread window-1 flood as the right operand make one pass,
  ``ufunc(a, rotate(zero, k))`` through the two wrap-around slices, then
  ``ufunc`` of ``a`` and the flood's value at its slot.  ``zero`` is the
  source's zero pattern ``src.slots * 0.0``, computed once per source and
  shared by its n placements; rotating it is bit for bit ``rotate(src, k) *
  0.0``, since the multiplication is slotwise.  A third consumer, a
  ``cmult`` by a slice mask, gives a product (below) when the slice holds
  at most an eighth of the slots and the zero pattern is +0.0 in every slot
  (every source slot finite with a clear sign bit, found once per source
  and cached): the row cuts ``extract_row`` and ``z_rows`` and the segments
  of the hidden re-layout, all from non-negative sources in training.
* product (``ProductVector``): on the leveled backend, ``mult(t, x)`` of a
  uniform t by an x whose slots are +0.0 outside a support of at most an
  eighth of the slots (-0.0, NaN and the infinities belong to the support).
  Outside the support every slot is t * +0.0: a signed zero for finite t
  and NaN otherwise, both of which the scale, ``rint`` and unscale passes
  return unchanged, so only the support is rescaled.  The support is found
  once per x and cached on it.  This is the gradient pattern
  ``t * x_rows[i]`` (and ``t * z_rows[i]``).  Such a row is cut out by a
  prefix-mask ``cmult``, which leaves ``x * 0.0`` on every other slot: +0.0
  where the matrix entry is non-negative, -0.0 where it is negative.  So the
  support is the row's 1 + d slots plus one slot per negative entry in the
  rest of the matrix.  With non-negative (minmax-scaled) inputs, as in the
  iris workloads, that is 1 + d.  With zscore scaling (boston's default) it
  grows by the matrix's negative entries, and where those fill more than
  an eighth of the slots the product takes the dense kernel.  The cut-off
  is the measured crossover of the two paths (``BENCH_scalar_kernels.json``,
  section ``product_support``).  The slice ``cmult`` of a rotation above
  is a product too, with the picked slots rescaled, +0.0 elsewhere and the
  slice's indices as its support; ``mult`` of a uniform by a product whose
  zero is +0.0 takes that support and the picked values unbuilt.

Only the operand forms that training and ``dvr_matmul`` produce have lazy
or scalar paths: the flood doubling above; ``add``, ``sub`` and ``mult`` of
two uniform vectors, and the picked slot of a one-hot ``cmult``, which
compute their one value with Python floats (``operator.add``/``sub`` and the
scalar kernels ``_kernels.mult_rescale_float``/``quantize_float``), the same
IEEE operations the dense form applies to each slot; ``mult`` of a uniform
left operand by a dense one, which gives a product as above or, for a
wide support, enters the value as a scalar that numpy broadcasts to the same
slotwise arithmetic; ``add``/``sub`` with an unread product as the right
operand, which applies the product without building it; and the three
consumers of an unread rotation above, whose flood is the only one that
reaches an ``add`` unread.  Every other combination reads ``slots`` and takes
the dense path.

Reading ``slots`` of a lazy vector replays the dense composition
(``np.full`` for a uniform one; ``src.slots * 0.0``, the picked slot and the
recorded ``rotate_add`` doublings for a flood; the rotation kernel for a
rotation, which then drops its source; ``np.full`` of the signed zero with
the rescaled support for a product), caches the read-only result on the
vector and returns it, so both paths give the same bits.  That cache (with a
rotation's source, dropped once the cache is filled), and the finiteness,
support, zero pattern and its sign that ``_all_finite``, ``_support``,
``_zero`` and ``_zero_is_plus`` cache, are the only state written after
construction; filling each is idempotent, so two threads that race on it
both see the same values.  Every op is still one engine call with its own
uid, level and trace records, whatever the form of its operands.

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

    logN: int = 16
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

    # _finite, _plus, _support, _zero: see _all_finite, _zero_is_plus,
    # _support and _zero; cached on first need (unset until then)
    __slots__ = ("slots", "level", "scale_bits", "uid", "_finite", "_plus", "_support",
                 "_zero")

    def __init__(self, slots: np.ndarray, level, scale_bits, uid: int):
        slots.flags.writeable = False
        self.slots = slots
        self.level = level            # None on the exact backend
        self.scale_bits = scale_bits  # None on the exact backend
        self.uid = uid

    def __len__(self):
        return self.slots.shape[0]

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=6)
        return f"{type(self).__name__}(len={len(self)}, level={self.level}, slots={head}...)"


class _LazyVector(SlotVector):
    """A SlotVector whose slots are built by ``_build`` on first read."""

    # Subclasses set size, level, scale_bits, uid and _cache = None.
    __slots__ = ("size", "_cache")

    @property
    def slots(self) -> np.ndarray:
        out = self._cache
        if out is None:
            out = self._build()
            out.flags.writeable = False
            self._cache = out
        return out

    def __len__(self):
        return self.size


class UniformVector(_LazyVector):
    """Every slot holds ``value``."""

    __slots__ = ("value",)

    def __init__(self, size, value: float, level, scale_bits, uid):
        self.size = size
        self.value = value
        self.level = level
        self.scale_bits = scale_bits
        self.uid = uid
        self._cache = None

    def _build(self):
        return np.full(self.size, self.value)


class FloodVector(_LazyVector):
    """``cmult(src, one-hot mask at index)``, whose picked slot came out as
    ``value``, then the ``rotate_add`` doublings by 1, 2, ... up to
    ``window``/2 (window 1: none)."""

    __slots__ = ("src", "index", "value", "window")

    def __init__(self, src: SlotVector, index: int, value: float, window: int, size: int,
                 level, scale_bits, uid):
        self.size = size
        self.src = src
        self.index = index
        self.value = value
        self.window = window
        self.level = level
        self.scale_bits = scale_bits
        self.uid = uid
        self._cache = None

    def _build(self):
        out = self.src.slots * 0.0
        out[self.index] = self.value
        step = 1
        while step < self.window:
            out = _kernels.rotate_add(out, step)
            step *= 2
        return out


class RotatedVector(_LazyVector):
    """``rotate(src, k)``, k already reduced modulo the slot count.  Building
    the slots drops ``src``, so ``src is None`` once they are built."""

    __slots__ = ("src", "k")

    def __init__(self, src: SlotVector, k: int, level, scale_bits, uid):
        self.size = len(src)
        self.src = src
        self.k = k
        self.level = level
        self.scale_bits = scale_bits
        self.uid = uid
        self._cache = None

    @property
    def slots(self) -> np.ndarray:
        # src is read once and cleared only after _cache is set, so a reader
        # that still sees it may build from it and one that does not finds
        # the cache filled.
        src = self.src
        if src is not None:
            out = _kernels.rotate(src.slots, self.k)
            out.flags.writeable = False
            self._cache = out
            self.src = None
        return self._cache


class ProductVector(_LazyVector):
    """A product that holds ``picked`` on the indices ``support`` and
    ``zero`` on every other slot: ``mult(t, x)`` on the leveled backend for a
    uniform t and an x that is +0.0 outside ``support`` (``zero`` = t * +0.0,
    which the rescale passes leave as it is: a signed zero, or NaN when t is
    not finite), or ``cmult`` of an unread rotation by a slice mask whose
    rotated zero pattern is +0.0 (``zero`` = +0.0)."""

    __slots__ = ("zero", "support", "picked")

    def __init__(self, size, zero: float, support, picked, level, scale_bits, uid):
        self.size = size
        self.zero = zero
        self.support = support
        self.picked = picked
        self.level = level
        self.scale_bits = scale_bits
        self.uid = uid
        self._cache = None

    def _build(self):
        out = np.full(self.size, self.zero)
        out[self.support] = self.picked
        return out


def _all_finite(v: SlotVector) -> bool:
    """Whether every slot of v is finite; cached on v."""
    finite = getattr(v, "_finite", None)
    if finite is None:
        finite = v._finite = bool(np.isfinite(v.slots).all())
    return finite


def _zero_is_plus(v: SlotVector) -> bool:
    """Whether ``v.slots * 0.0`` is +0.0 in every slot: every slot is finite
    with a clear sign bit (as a uint64, below the bits of +inf); cached on
    v."""
    plus = getattr(v, "_plus", None)
    if plus is None:
        plus = v._plus = bool((v.slots.view(np.uint64) < 0x7FF0000000000000).all())
    return plus


def _zero(v: SlotVector) -> np.ndarray:
    """``v.slots * 0.0``: each slot's signed zero, NaN where it is not
    finite; cached on v."""
    zero = getattr(v, "_zero", None)
    if zero is None:
        zero = v.slots * 0.0
        zero.flags.writeable = False
        v._zero = zero
    return zero


def _support(v: SlotVector):
    """The indices of the slots of v that are not +0.0 (-0.0, NaN and the
    infinities count: their bit patterns are not all zero), or None when
    they are more than an eighth of the slots; cached on v.  Past an eighth,
    a product and the sum that consumes it measured slower than the dense
    kernel at 4096 slots, and a product that is read slower at 32768."""
    support = getattr(v, "_support", False)
    if support is False:
        set_bits = v.slots.view(np.int64) != 0
        if np.count_nonzero(set_bits) > len(v) // 8:
            support = None
        else:
            support = np.flatnonzero(set_bits)
        v._support = support
    return support


def _sparse(v: SlotVector):
    """``(support, values)``: indices outside which v is +0.0 and v's slots on
    them, or None (see ``_support``).  A product whose ``zero`` is +0.0 gives
    its own support and values unbuilt; its support may also hold slots
    whose value is +0.0, which a product by v maps as it maps the slots
    outside."""
    if type(v) is ProductVector and v.zero == 0.0 and math.copysign(1.0, v.zero) > 0:
        return v.support, v.picked
    support = _support(v)
    return None if support is None else (support, v.slots[support])


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
        if isinstance(index, slice):
            index.indices(size)  # a zero step raises here, at build time
        else:
            index = operator.index(index)
            if not -size <= index < size:
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
        """Pack values into a fresh vector, zero-padded on the right.

        Leveled backend: slots are quantized to the 2**logp fixed-point grid
        and the vector starts at the full level budget.  Only the values are
        quantized; the +0.0 padding is its own quantization.
        """
        if self._leveled:
            values = _kernels.quantize(np.asarray(values, dtype=np.float64).ravel(), self._scale)
            sv = self._new(self._pad(values), self.config.level_budget)
        else:
            sv = self._new(self._pad(values), None)
        self._record("encrypt", (), sv, 0)
        return sv

    def mask(self, values) -> PlainMask:
        """Dense plaintext mask, zero-padded on the right."""
        return PlainMask(self._pad(values))

    def decrypt(self, v: SlotVector) -> np.ndarray:
        return v.slots.copy()

    def _new(self, slots: np.ndarray, level) -> SlotVector:
        bits = self.config.logp if self._leveled else None
        return SlotVector(slots, level, bits, next(self._uid))

    def _uniform(self, value: float, size: int, level) -> UniformVector:
        bits = self.config.logp if self._leveled else None
        return UniformVector(size, value, level, bits, next(self._uid))

    def _flood(self, src: SlotVector, index: int, value: float, window: int, size: int,
               level) -> SlotVector:
        """A flood vector, or its one value as a uniform vector when that is
        exact (see the module docstring)."""
        if window == size and value != 0.0 and math.isfinite(value) and _all_finite(src):
            return self._uniform(value, size, level)
        bits = self.config.logp if self._leveled else None
        return FloodVector(src, index, value, window, size, level, bits, next(self._uid))

    def _record(self, op, ins, out, consumed):
        if self.trace is not None:
            self.trace.record(op, tuple(i.uid for i in ins), out.uid, consumed, out.level)

    def _check_pair(self, a: SlotVector, b) -> None:
        if len(a) != len(b):
            raise LengthMismatch(f"{len(a)} vs {len(b)} slots")

    def _require_level(self, op, *vs):
        for v in vs:
            if v.level is not None and v.level < 1:
                raise DepthExhausted(f"{op}: operand at level 0 (budget {self.config.level_budget})")

    # --- operations ---------------------------------------------------------

    def _sum(self, op, ufunc, scalar_op, a: SlotVector, b: SlotVector) -> SlotVector:
        """The body of add and sub: ufunc (np.add or np.subtract) slotwise.

        Two uniform operands give one float through scalar_op (operator.add
        or operator.sub), the same IEEE operation.  An unread window-1 flood
        over an unread rotation, as the right operand, is never built: ufunc
        meets the rotated zero pattern of the rotation's source (``_zero``)
        in one pass through the two wrap-around slices, and the flood's slot
        then gets the result for its value.  An unread product as the right
        operand is never built either: its ``zero`` enters every slot in one
        pass, and the slots of its support are then overwritten with the
        results for its picked values.
        """
        self._check_pair(a, b)
        level = min(a.level, b.level) if self._leveled else None
        if type(a) is UniformVector and type(b) is UniformVector:
            sv = self._uniform(scalar_op(a.value, b.value), a.size, level)
        elif (type(b) is FloodVector and b._cache is None and b.window == 1
              and type(rot := b.src) is RotatedVector and (src := rot.src) is not None):
            x = a.slots
            out = _kernels.rotate_combine(ufunc, x, _zero(src), rot.k)
            out[b.index] = scalar_op(float(x[b.index]), b.value)
            sv = self._new(out, level)
        elif type(b) is ProductVector and b._cache is None:
            x = a.slots
            out = ufunc(x, b.zero)
            out[b.support] = ufunc(x[b.support], b.picked)
            sv = self._new(out, level)
        else:
            sv = self._new(ufunc(a.slots, b.slots), level)
        self._record(op, (a, b), sv, 0)
        return sv

    def add(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise sum; leveled result drops to the lower operand level."""
        return self._sum("add", np.add, operator.add, a, b)

    def sub(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise difference (additive inverse is free, like add)."""
        return self._sum("sub", np.subtract, operator.sub, a, b)

    def mult(self, a: SlotVector, b: SlotVector) -> SlotVector:
        """Slotwise product; leveled backend rescales and consumes one level.

        Two uniform operands give one float through the scalar kernel.  A
        uniform left operand enters as a scalar; on the leveled backend, when
        the right operand is sparse (``_support``), only its support is
        rescaled and the result is a ``ProductVector``."""
        self._check_pair(a, b)
        if self._leveled:
            self._require_level("mult", a, b)
            level = min(a.level, b.level) - 1
        else:
            level = None
        ua = type(a) is UniformVector
        if ua and type(b) is UniformVector:
            if self._leveled:
                value = _kernels.mult_rescale_float(a.value, b.value, self._scale)
            else:
                value = a.value * b.value
            sv = self._uniform(value, len(a), level)
        else:
            x = a.value if ua else a.slots
            if not self._leveled:
                sv = self._new(x * b.slots, level)
            elif ua and (sparse := _sparse(b)) is not None:
                support, values = sparse
                picked = _kernels.mult_rescale(x, values, self._scale)
                sv = ProductVector(len(b), x * 0.0, support, picked, level,
                                   self.config.logp, next(self._uid))
            else:
                sv = self._new(_kernels.mult_rescale(x, b.slots, self._scale), level)
        self._record("mult", (a, b), sv, 1)
        return sv

    def cmult(self, a: SlotVector, m: PlainMask) -> SlotVector:
        """Product with a plaintext mask; consumes one level (rescale).

        A structured mask gives ``a * 0.0`` outside its index, which is what
        the dense product gives at the mask's +0.0 slots (signed zeros and
        NaN included), and the (rescaled) product at its index.  On the
        leveled backend the mask is quantized first: the dense slots, or the
        structured mask's one value.  A one-hot mask (int index) gives a
        flood of window 1 (see the module docstring); of an unread rotation
        it reads the picked slot from the rotation's source, unbuilt.  A
        short slice mask of an unread rotation whose zero pattern is +0.0
        gives a ``ProductVector`` read from the source the same way.
        """
        self._check_pair(a, m)
        if self._leveled:
            self._require_level("cmult", a)
            level = a.level - 1
        else:
            level = None
        if m.index is None:
            x = a.slots
            if self._leveled:
                mq = _kernels.quantize(m.slots, self._scale)
                out = _kernels.mult_rescale(x, mq, self._scale)
            else:
                out = x * m.slots
            sv = self._new(out, level)
        elif type(m.index) is int:
            if type(a) is RotatedVector and (src := a.src) is not None:
                picked = float(src.slots[(m.index + a.k) % a.size])
            else:
                picked = float(a.slots[m.index])
            if self._leveled:
                mq = _kernels.quantize_float(m.value, self._scale)
                picked = _kernels.mult_rescale_float(picked, mq, self._scale)
            else:
                picked *= m.value
            sv = self._flood(a, m.index, picked, 1, len(a), level)
        else:
            sparse = (type(a) is RotatedVector and (src := a.src) is not None
                      and len(range(*m.index.indices(a.size))) <= a.size // 8
                      and _zero_is_plus(src))
            if sparse:
                support = np.arange(*m.index.indices(a.size))
                picked = src.slots[(support + a.k) % a.size]
            else:
                x = a.slots
                picked = x[m.index]
            if self._leveled:
                mq = _kernels.quantize_float(m.value, self._scale)
                picked = _kernels.mult_rescale(picked, mq, self._scale)
            else:
                picked = picked * m.value
            if sparse:
                bits = self.config.logp if self._leveled else None
                sv = ProductVector(a.size, 0.0, support, picked, level, bits, next(self._uid))
            else:
                # The picked product is formed before the full-width output
                # is allocated: for the same work, the other order measured
                # about 10 % slower on the paper-scale step.
                out = x * 0.0
                out[m.index] = picked
                sv = self._new(out, level)
        self._record("cmult", (a,), sv, 1)
        return sv

    def rotate(self, a: SlotVector, k: int) -> SlotVector:
        """Left cyclic rotation by k slots (negative k rotates right). Free.

        The result is a lazy ``RotatedVector``; reading its slots runs the
        rotation kernel."""
        bits = self.config.logp if self._leveled else None
        sv = RotatedVector(a, k % len(a), a.level, bits, next(self._uid))
        self._record("rotate", (a,), sv, 0)
        return sv

    def rotate_add(self, a: SlotVector, k: int) -> SlotVector:
        """Fused add(a, rotate(a, k)); same semantics, one kernel pass.

        On a flood whose window is k it doubles the window instead."""
        k %= len(a)
        if type(a) is FloodVector and k == a.window:
            sv = self._flood(a.src, a.index, a.value, 2 * k, a.size, a.level)
        else:
            sv = self._new(_kernels.rotate_add(a.slots, k), a.level)
        if self.trace is not None:
            rot_uid = next(self._uid)
            self.trace.record("rotate", (a.uid,), rot_uid, 0, a.level)
            self.trace.record("add", (a.uid, rot_uid), sv.uid, 0, sv.level)
        return sv

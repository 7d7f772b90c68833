"""Slot engine contract: algebra, levels, purity, trace."""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from henn import _kernels
from henn.encoding import (EncodedMatrix, Layout, keep_only, one_hot_mask, roll_fill,
                           segment_mask)
from henn.engine import (EngineConfig, OpTrace, PlainMask, RotatedVector, SlotEngine,
                         SlotVector, SparseVector, SumVector, UniformVector, _pattern,
                         depth_report)
from henn.errors import DepthExhausted, InputTooLong, LengthMismatch

from conftest import bits, make_classification_batch


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(slots=24)
    with pytest.raises(ValueError):
        EngineConfig(logp=0)
    with pytest.raises(ValueError):
        EngineConfig(logQ=10, logp=30)
    with pytest.raises(ValueError):
        EngineConfig(backend="noisy")
    assert EngineConfig().level_budget == 33
    assert EngineConfig().logN == 16 and EngineConfig(slots=4096).to_dict()["logN"] == 13
    assert EngineConfig(slots=16, backend="exact").slots == 16


def test_encrypt_pads_and_roundtrips(exact8):
    v = exact8.encrypt([1, 2, 3])
    assert np.array_equal(exact8.decrypt(v), [1, 2, 3, 0, 0, 0, 0, 0])
    assert np.array_equal(exact8.decrypt(exact8.encrypt([])), np.zeros(8))
    vals = np.array([5.0, 6.0])
    w = exact8.encrypt(vals)
    vals[0] = 9.0                                  # the vector keeps its own copy
    assert np.array_equal(exact8.decrypt(w), [5, 6, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InputTooLong):
        exact8.encrypt(np.arange(9))


def test_leveled_encrypt_quantizes():
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30))
    v = eng.encrypt([0.1])
    assert v.level == 33 == eng.config.level_budget
    assert v.slots[0] == round(0.1 * 2**30) / 2**30
    w = eng.encrypt([0.5, -0.5])
    dec = eng.decrypt(w)
    assert abs(dec[0] - 0.5) <= 2**-30 and abs(dec[1] + 0.5) <= 2**-30


@pytest.mark.filterwarnings("ignore::RuntimeWarning")       # overflow of x * 2**30
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encrypt_quantizes_then_pads_as_padding_then_quantizing(data):
    """The leveled encrypt quantizes only the values and pads with +0.0; that
    is bit for bit the quantization of the padded vector, because +0.0
    quantizes to +0.0.  Ties, signed zeros, subnormals, infinities and NaN."""
    size = data.draw(st.sampled_from([1, 2, 8, 64]))
    eng = SlotEngine(EngineConfig(slots=size, logQ=990, logp=30))
    tie = st.integers(-2**20, 2**20).map(lambda k: (k + 0.5) * 2.0**-30)
    vals = data.draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-31, 1e300,
                                               float("inf"), float("-inf"), float("nan")])
                              | tie | st.floats(allow_nan=True, allow_infinity=True),
                              max_size=size))
    got = eng.encrypt(vals)
    want = _kernels.quantize(eng._pad(vals), 2.0**30)
    assert bits(got.slots) == bits(want)
    assert got.level == 33
    with pytest.raises(InputTooLong):
        eng.encrypt(vals + [0.0] * (size + 1 - len(vals)))


def test_add_mult_cmult_examples(exact8):
    a = exact8.encrypt([1, 2])
    b = exact8.encrypt([3, 4])
    assert np.array_equal(exact8.decrypt(exact8.add(a, b))[:2], [4, 6])
    zero = exact8.encrypt([])
    assert np.array_equal(exact8.decrypt(exact8.add(a, zero)), exact8.decrypt(a))
    m = exact8.encrypt([2, 3])
    n = exact8.encrypt([4, 5])
    assert np.array_equal(exact8.decrypt(exact8.mult(m, n))[:2], [8, 15])
    ones = exact8.encrypt(np.ones(8))
    assert np.array_equal(exact8.decrypt(exact8.mult(a, ones)), exact8.decrypt(a))
    mask = exact8.mask([0, 1, 0])
    assert np.array_equal(exact8.decrypt(exact8.cmult(exact8.encrypt([1, 2, 3]), mask))[:3],
                          [0, 2, 0])
    allones = exact8.mask(np.ones(8))
    assert np.array_equal(exact8.decrypt(exact8.cmult(a, allones)), exact8.decrypt(a))


def test_leveled_add_sum_of_quantizations():
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30))
    s = eng.add(eng.encrypt([0.3]), eng.encrypt([0.6]))
    assert abs(s.slots[0] - 0.9) <= 2**-29


def test_level_accounting_and_exhaustion():
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30))
    v = eng.encrypt([0.5] * 8)
    w = eng.encrypt([0.9] * 8)
    for i in range(33):
        v = eng.mult(v, w)
        assert v.level == 33 - (i + 1)
    assert v.level == 0
    with pytest.raises(DepthExhausted):
        eng.mult(v, w)
    with pytest.raises(DepthExhausted):
        eng.cmult(v, eng.mask([1.0]))
    # rotation and addition still work at level 0
    eng.rotate(v, 3)
    eng.add(v, v)


def test_add_aligns_levels():
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30))
    a = eng.encrypt([0.5])
    b = eng.mult(eng.encrypt([0.5]), eng.encrypt([0.5]))
    assert b.level == 32
    assert eng.add(a, b).level == 32
    assert eng.sub(a, b).level == 32


def test_rotate_examples(exact8):
    eng = SlotEngine(EngineConfig(slots=4, backend="exact"))
    v = eng.encrypt([1, 2, 3, 4])
    assert np.array_equal(eng.decrypt(eng.rotate(v, 1)), [2, 3, 4, 1])
    assert np.array_equal(eng.decrypt(eng.rotate(v, 0)), [1, 2, 3, 4])
    assert np.array_equal(eng.decrypt(eng.rotate(v, -1)), [4, 1, 2, 3])
    back = eng.rotate(eng.rotate(v, 3), 4 - 3)
    assert np.array_equal(eng.decrypt(back), eng.decrypt(v))


def operand_forms(eng, level):
    """One vector of each operand form at the given level (None on the exact
    backend): uniform, a window-1 sparse row whose zeros are +0.0, a flood
    (window 2), an unread rotation, dense, and a pending sum."""
    size = eng.config.slots
    dense = eng._new(np.linspace(0.0, 1.0, size), level)
    above = eng._new(np.linspace(0.0, 1.0, size), None if level is None else level + 1)
    sparse = eng.cmult(above, segment_mask(eng, 0, 2))
    return {"uniform": eng._uniform(0.5, size, level), "sparse": sparse,
            "flood": eng.rotate_add(sparse, 1), "rotated": eng.rotate(dense, 1),
            "dense": dense, "sum": eng.add(dense, sparse)}


def plain_masks(eng):
    """A dense, a one-hot and a slice mask."""
    return [eng.mask(np.ones(eng.config.slots)), one_hot_mask(eng, 3), segment_mask(eng, 2, 4)]


def test_length_mismatch():
    """add, sub, mult and cmult refuse two slot counts whatever the forms of
    their operands, each fast path included, and record nothing."""
    for backend, level in (("exact", None), ("leveled", 20)):
        trace = OpTrace()
        small, big = lazy_engine(backend, 8), lazy_engine(backend, 16, trace)
        forms8, forms16 = operand_forms(small, level), operand_forms(big, level)
        recorded = len(trace.entries)
        for x in forms8.values():
            for y in forms16.values():
                for a, b in ((x, y), (y, x)):
                    for op in (big.add, big.sub, big.mult):
                        with pytest.raises(LengthMismatch, match=f"^{a.size} vs {b.size} slots$"):
                            op(a, b)
            for a, masks in ((x, plain_masks(big)), (forms16["dense"], plain_masks(small))):
                for m in masks:
                    with pytest.raises(LengthMismatch, match=f"^{a.size} vs {m.size} slots$"):
                        big.cmult(a, m)
        assert len(trace.entries) == recorded


def test_depth_exhausted_names_the_op_for_every_operand_form():
    """mult and cmult refuse an operand at level 0 whatever its form, each
    fast path included, with the message the training report keeps, and
    record nothing."""
    trace = OpTrace()
    eng = lazy_engine("leveled", 8, trace)
    spent, fresh = operand_forms(eng, 0), operand_forms(eng, 20)
    recorded = len(trace.entries)
    for x in spent.values():
        for y in list(spent.values()) + list(fresh.values()):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(DepthExhausted) as e:
                    eng.mult(a, b)
                assert str(e.value) == "mult: operand at level 0 (budget 33)"
        for m in plain_masks(eng):
            with pytest.raises(DepthExhausted) as e:
                eng.cmult(x, m)
            assert str(e.value) == "cmult: operand at level 0 (budget 33)"
    assert len(trace.entries) == recorded


def test_ops_are_pure(exact8):
    a = exact8.encrypt([1, 2, 3])
    b = exact8.encrypt([4, 5, 6])
    snap_a, snap_b = a.slots.copy(), b.slots.copy()
    exact8.add(a, b)
    exact8.mult(a, b)
    exact8.cmult(a, exact8.mask([7, 8]))
    exact8.rotate(a, 2)
    exact8.rotate_add(a, 1)
    assert np.array_equal(a.slots, snap_a) and np.array_equal(b.slots, snap_b)
    with pytest.raises(ValueError):
        a.slots[0] = 99.0  # read-only view


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
       st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_rotation_composition_law(vals, k1, k2):
    eng = SlotEngine(EngineConfig(slots=16, backend="exact"))
    v = eng.encrypt(vals)
    lhs = eng.rotate(eng.rotate(v, k1), k2)
    rhs = eng.rotate(v, (k1 + k2) % 16)
    assert np.array_equal(eng.decrypt(lhs), eng.decrypt(rhs))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_exact_backend_is_homomorphic(xs, ys):
    eng = SlotEngine(EngineConfig(slots=8, backend="exact"))
    x = np.zeros(8)
    x[: len(xs)] = xs
    y = np.zeros(8)
    y[: len(ys)] = ys
    assert np.array_equal(eng.decrypt(eng.add(eng.encrypt(x), eng.encrypt(y))), x + y)
    assert np.array_equal(eng.decrypt(eng.mult(eng.encrypt(x), eng.encrypt(y))), x * y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_level_monotone_and_error_bounded_on_random_traces(seed):
    """Random op DAGs of depth <= 5 on values in [-1, 1]: levels never rise
    along any dataflow edge and the leveled output stays within
    count * 2^(1-logp) * magnitude of the exact output."""
    rng = np.random.default_rng(seed)
    exact = SlotEngine(EngineConfig(slots=16, backend="exact"))
    leveled = SlotEngine(EngineConfig(slots=16, logQ=990, logp=30))
    logp = 30
    budget = 33

    # node: (exact_vec, leveled_vec, quantizing_op_count, magnitude_bound)
    nodes = []
    for _ in range(3):
        vals = rng.uniform(-1, 1, 16)
        nodes.append((exact.encrypt(vals), leveled.encrypt(vals), 1, 1.0))
    for _ in range(12):
        op = rng.choice(["add", "mult", "cmult", "rotate"])
        ea, la, qa, ma = nodes[rng.integers(len(nodes))]
        if op == "add":
            eb, lb, qb, mb = nodes[rng.integers(len(nodes))]
            new = (exact.add(ea, eb), leveled.add(la, lb), qa + qb, ma + mb)
            assert new[1].level == min(la.level, lb.level)
        elif op == "mult":
            eb, lb, qb, mb = nodes[rng.integers(len(nodes))]
            if budget - min(la.level, lb.level) >= 5:
                continue  # cap dataflow depth at 5
            new = (exact.mult(ea, eb), leveled.mult(la, lb), qa + qb + 1, max(ma * mb, 1.0))
            assert new[1].level == min(la.level, lb.level) - 1
        elif op == "cmult":
            if budget - la.level >= 5:
                continue
            mask_vals = rng.uniform(-1, 1, 16)
            new = (exact.cmult(ea, exact.mask(mask_vals)),
                   leveled.cmult(la, leveled.mask(mask_vals)), qa + 2, max(ma, 1.0))
            assert new[1].level == la.level - 1
        else:
            k = int(rng.integers(-16, 16))
            new = (exact.rotate(ea, k), leveled.rotate(la, k), qa, ma)
            assert new[1].level == la.level
        nodes.append(new)
    for ev, lv, q, mag in nodes:
        bound = q * 2.0 ** (1 - logp) * max(mag, 1.0)
        assert np.max(np.abs(ev.slots - lv.slots)) <= bound


def test_depth_report_basics():
    trace = OpTrace()
    assert depth_report(trace).max_phase_depth == 0
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30), trace=trace)
    a = eng.encrypt([0.5])
    b = eng.encrypt([0.25])
    eng.mult(a, b)
    rep = depth_report(trace)
    assert rep.max_phase_depth == 1
    assert rep.min_level == 32


def test_depth_report_phases_track_independent_chains():
    trace = OpTrace()
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30), trace=trace)
    w = eng.encrypt([0.5])
    x = eng.encrypt([0.5])
    trace.begin_phase("round 1")
    w = eng.mult(eng.mult(w, x), x)
    trace.begin_phase("round 2")
    w = eng.mult(eng.mult(w, x), x)
    rep = depth_report(trace)
    assert rep.phase("round 1").depth == 2
    # the chain re-entering round 2 counts from zero again
    assert rep.phase("round 2").depth == 2
    assert rep.min_level == 29


def test_phase_closes_when_body_raises():
    trace = OpTrace()
    eng = SlotEngine(EngineConfig(slots=8, logQ=60, logp=30), trace=trace)  # 2 levels
    a = eng.encrypt([0.5])
    with pytest.raises(DepthExhausted):
        with trace.phase("deep"):
            while True:
                a = eng.mult(a, a)
    eng.add(a, a)
    rep = depth_report(trace)
    assert [p.label for p in rep.phases] == ["", "deep", "(after deep)"]
    assert rep.phase("(after deep)").op_counts == {"add": 1}


# --- lazy uniform and flood vectors against the dense composition ---------------

SCALE = 2.0**30
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**-31, 0.5, -0.5,
           1e300, -1e300, float("inf"), float("-inf"), float("nan")]
ELEMENTS = {
    "finite": st.floats(-4.0, 4.0) | st.sampled_from([-0.0, 5e-324, -1e300, 1e300]),
    "negative": st.floats(-4.0, -1e-3),        # every x * 0.0 is -0.0
    "non-negative": st.floats(0.0, 4.0) | st.sampled_from([5e-324, 1e300]),
    "any": st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
}
SIZES = st.sampled_from([1, 2, 4, 8, 16, 32, 64])


def lazy_engine(backend, size, trace=None):
    return SlotEngine(EngineConfig(slots=size, logQ=990, logp=30, backend=backend), trace=trace)


def ref_mul(eng, x, y):
    """Dense slotwise product: rint((x*y) * 2^p) / 2^p on the leveled backend."""
    if eng.config.backend == "leveled":
        return np.rint((x * y) * SCALE) / SCALE
    return x * y


def ref_keep(eng, x, idx):
    """Dense cmult by a one-hot mask (its 1.0 quantizes to 1.0)."""
    out = x * 0.0
    out[idx] = ref_mul(eng, x[idx], 1.0)
    return out


def ref_rotate_add(x, k):
    return x + np.roll(x, -k)


def zero_form(v):
    """The form of a sparse vector's zero: "float", or "bits" for packed sign
    bits, one per slot; None for anything else."""
    if type(v.zero) is float:
        return "float"
    if (type(v.zero) is np.ndarray and v.zero.dtype == np.uint8
            and v.zero.shape == ((v.size + 7) // 8,)):
        return "bits"
    return None


@st.composite
def source(draw):
    """(engine, encrypted source vector, a slot index)."""
    backend = draw(st.sampled_from(["exact", "leveled"]))
    size = draw(SIZES)
    kind = draw(st.sampled_from(sorted(ELEMENTS)))
    vals = draw(arrays(np.float64, size, elements=ELEMENTS[kind]))
    idx = draw(st.integers(-size, size - 1))
    if kind not in ("negative", "non-negative") and draw(st.booleans()):
        vals[idx] = draw(st.sampled_from(SPECIAL))      # the flooded value itself
    eng = lazy_engine(backend, size)
    return eng, eng.encrypt(vals), idx


# inf * 0 and overflow are among the cases; both sides warn alike
fp_warnings_ignored = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(source(), st.data())
def test_flood_chain_matches_dense_composition(src, data):
    """keep_only then the roll_fill doublings, read at any point of the chain."""
    eng, a, idx = src
    size = len(a)
    read_at = data.draw(st.integers(0, size.bit_length()))
    v = eng.cmult(a, one_hot_mask(eng, idx))
    want = ref_keep(eng, a.slots, idx)
    step = 1
    while True:
        if step == 1 << read_at or step >= size:
            assert bits(v.slots) == bits(want)
        if step >= size:
            break
        v = eng.rotate_add(v, step)
        want = ref_rotate_add(want, step)
        step *= 2
    assert bits(v.slots) == bits(want)
    picked = want[idx % size]
    exact = picked != 0.0 and np.isfinite(picked) and np.isfinite(a.slots).all()
    assert (type(v) is UniformVector) == bool(exact)


@fp_warnings_ignored
@settings(max_examples=200, deadline=None)
@given(source(), st.data())
def test_flood_rotate_add_off_window_matches_dense(src, data):
    eng, a, idx = src
    size = len(a)
    doublings = data.draw(st.integers(0, size.bit_length() - 1))
    k = data.draw(st.integers(-2 * size, 2 * size))
    v = eng.cmult(a, one_hot_mask(eng, idx))
    want = ref_keep(eng, a.slots, idx)
    for t in range(doublings):
        v = eng.rotate_add(v, 1 << t)
        want = ref_rotate_add(want, 1 << t)
    got = eng.rotate_add(v, k)
    assert bits(got.slots) == bits(ref_rotate_add(want, k % size))
    assert bits(eng.rotate(v, k).slots) == bits(np.roll(want, -(k % size)))


@fp_warnings_ignored
@settings(max_examples=200, deadline=None)
@given(source(), st.data())
def test_flood_operands_of_add_and_sub_match_dense(src, data):
    """add and sub with a flood operand, read before or not; the result, and
    the flood read afterwards, are the dense ones."""
    eng, a, idx = src
    size = len(a)
    doublings = data.draw(st.integers(0, size.bit_length() - 1))
    d = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS["any"])))
    x = d.slots

    def flood():
        v = eng.cmult(a, one_hot_mask(eng, idx))
        for t in range(doublings):
            v = eng.rotate_add(v, 1 << t)
        return v

    want = ref_keep(eng, a.slots, idx)
    for t in range(doublings):
        want = ref_rotate_add(want, 1 << t)
    cases = [
        (lambda f: eng.add(d, f), lambda w: x + w), (lambda f: eng.add(f, d), lambda w: w + x),
        (lambda f: eng.sub(d, f), lambda w: x - w), (lambda f: eng.sub(f, d), lambda w: w - x),
        (lambda f: eng.add(f, flood()), lambda w: w + w), (lambda f: eng.sub(f, f), lambda w: w - w),
    ]
    for op, ref in cases:
        f = flood()
        assert bits(op(f).slots) == bits(ref(want))
        assert bits(f.slots) == bits(want)


@st.composite
def uniform_and_dense(draw):
    """(engine, uniform vector, its dense slots, a dense vector)."""
    backend = draw(st.sampled_from(["exact", "leveled"]))
    size = draw(SIZES)
    eng = lazy_engine(backend, size)
    value = draw(st.floats(-4.0, 4.0) | st.sampled_from([1e300, -1e300, 2.0**-31, 3.0]))
    # a uniform value arises only from a finite non-zero flood
    src = eng.encrypt(np.full(size, value))
    u = roll_fill(eng, keep_only(eng, EncodedMatrix(1, size, Layout.FULL_MATRIX, (src,)), 0, 0))
    want = ref_keep(eng, src.slots, 0)
    for t in range(size.bit_length() - 1):
        want = ref_rotate_add(want, 1 << t)
    kind = draw(st.sampled_from(sorted(ELEMENTS)))
    d = eng.encrypt(draw(arrays(np.float64, size, elements=ELEMENTS[kind])))
    return eng, u, want, d


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(uniform_and_dense(), st.integers(-100, 100), st.data())
def test_uniform_ops_match_dense(case, k, data):
    eng, u, want, d = case
    size = len(u)
    assert bits(u.slots) == bits(want)
    x = d.slots
    results = {
        "u+d": (eng.add(u, d), want + x), "d+u": (eng.add(d, u), x + want),
        "u-d": (eng.sub(u, d), want - x), "d-u": (eng.sub(d, u), x - want),
        "u*d": (eng.mult(u, d), ref_mul(eng, want, x)),
        "d*u": (eng.mult(d, u), ref_mul(eng, x, want)),
        "u*u": (eng.mult(u, u), ref_mul(eng, want, want)),
        "u+u": (eng.add(u, u), want + want), "u-u": (eng.sub(u, u), want - want),
        "rot": (eng.rotate(u, k), np.roll(want, -(k % size))),
        "rot+": (eng.rotate_add(u, k), ref_rotate_add(want, k % size)),
    }
    idx = data.draw(st.integers(0, size - 1))
    start = data.draw(st.integers(0, size))
    value = data.draw(st.sampled_from([1.0, -0.0, 2.5, 2.0**-31]))
    dense_mask = data.draw(arrays(np.float64, size, elements=st.floats(-3.0, 3.0)))
    mq = (np.rint(dense_mask * SCALE) / SCALE if eng.config.backend == "leveled"
          else dense_mask)
    vq = np.rint(value * SCALE) / SCALE if eng.config.backend == "leveled" else value
    seg = want * 0.0
    seg[start:] = ref_mul(eng, want[start:], vq)
    results["cmult one-hot"] = (eng.cmult(u, one_hot_mask(eng, idx)), ref_keep(eng, want, idx))
    results["cmult segment"] = (eng.cmult(u, segment_mask(eng, start, size, value)), seg)
    results["cmult dense"] = (eng.cmult(u, eng.mask(dense_mask)), ref_mul(eng, want, mq))
    for name, (got, ref) in results.items():
        assert bits(got.slots) == bits(ref), name


@st.composite
def uniform_and_sparse(draw):
    """(leveled engine, uniform t, sparse x, dense d).  x is +0.0 except on a
    few slots, which hold -0.0, NaN, infinities, subnormals or finite values;
    sometimes more than an eighth of the slots are set, where mult takes the
    dense kernel.  t may be any float, ties and non-finite values included.
    x and d are built unquantized, so subnormals reach the kernels."""
    size = draw(st.sampled_from([8, 16, 32, 64]))
    eng = lazy_engine("leveled", size)
    tie = st.integers(-2**20, 2**20).map(lambda k: (k + 0.5) * 2.0**-30)
    t = draw(st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0) | tie)
    x = np.zeros(size)
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size // 4)):
        x[i] = draw(st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0) | tie)
    d = draw(arrays(np.float64, size, elements=st.sampled_from([0.0, -0.0]) | ELEMENTS["any"]))
    level = eng.config.level_budget
    return eng, eng._uniform(t, size, level), eng._new(x, level), eng._new(d, level)


@fp_warnings_ignored
@settings(max_examples=400, deadline=None)
@given(uniform_and_sparse())
def test_product_of_uniform_and_sparse_matches_dense(case):
    """mult(uniform t, x) rescales only the slots of x that are not +0.0, and
    add/sub consume an unread product without building it; every result, and
    the product read afterwards, is the dense composition."""
    eng, t, x, d = case
    size = len(x)
    want = ref_mul(eng, np.full(size, t.value), x.slots)
    sparse = np.count_nonzero(x.slots.view(np.int64)) <= size // 8
    assert (type(eng.mult(t, x)) is SparseVector) == sparse
    cases = [
        (lambda p: p, lambda w: w),
        (lambda p: eng.add(d, p), lambda w: d.slots + w),
        (lambda p: eng.sub(d, p), lambda w: d.slots - w),
        (lambda p: eng.add(p, d), lambda w: w + d.slots),
        (lambda p: eng.sub(p, d), lambda w: w - d.slots),
        (lambda p: eng.mult(t, p), lambda w: ref_mul(eng, np.full(size, t.value), w)),
        (lambda p: eng.add(p, p), lambda w: w + w),
        (lambda p: eng.sub(p, eng.mult(t, x)), lambda w: w - w),
    ]
    for op, ref in cases:
        p = eng.mult(t, x)
        assert bits(op(p).slots) == bits(ref(want))
        assert bits(p.slots) == bits(want)


@st.composite
def row_pair(draw):
    """(engine, a, b, whether mult takes the shared-support form).  a and b
    are window-1 sparse rows of encrypted values (-0.0, NaN and infinities
    among them) with float zeros: on equal slice supports, or b on another
    support, b doubled once to window 2, or either side multiplied by a
    uniform negative t so that its zeros are -0.0.  A uniform positive t
    puts one operand a level lower and keeps +0.0."""
    backend = draw(st.sampled_from(["exact", "leveled"]))
    size = draw(st.sampled_from([8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    level = eng.config.level_budget if backend == "leveled" else None
    n = draw(st.integers(0, size))
    vals = [draw(arrays(np.float64, size, elements=ELEMENTS["any"])) for _ in range(2)]
    a, b = eng.encrypt(vals[0][:n]), eng.encrypt(vals[1][:n])
    if draw(st.booleans()):
        b = eng.mult(eng._uniform(draw(st.floats(0.0, 4.0)), size, level), b)
    form = draw(st.sampled_from(["equal", "equal", "other support", "window 2", "-0.0 zero"]))
    if form == "other support":
        b = eng.encrypt(vals[1][:draw(st.integers(0, size).filter(lambda m: m != n))])
    elif form == "window 2":
        b = eng.rotate_add(b, 1)
    elif form == "-0.0 zero":
        t = eng._uniform(draw(st.floats(-4.0, -1e-3)), size, level)
        if draw(st.booleans()):
            a = eng.mult(t, a)
        else:
            b = eng.mult(t, b)
    if draw(st.booleans()):
        a, b = b, a
    return eng, a, b, form == "equal"


@fp_warnings_ignored
@settings(max_examples=400, deadline=None)
@given(row_pair(), st.sampled_from(["neither", "a", "b", "both"]))
def test_product_of_rows_on_one_support_matches_dense(case, read):
    """mult of two window-1 sparse rows whose zeros are +0.0 on equal slice
    supports multiplies their values only: a sparse product over that
    support, built from neither operand's slots, read first or not.  Other
    supports, a wider window or a -0.0 zero take the dense kernel.  Either
    way bits and level are those of the dense product."""
    eng, a, b, shared = case
    level = None if a.level is None else min(a.level, b.level) - 1
    for v, name in ((a, "a"), (b, "b")):
        if read in (name, "both"):
            v.slots
    prod = eng.mult(a, b)
    assert type(prod) is (SparseVector if shared else SlotVector)
    if shared and read == "neither":
        assert a._cache is None and b._cache is None
    assert prod.level == level
    assert bits(prod.slots) == bits(eng._product(a.slots, b.slots))


@st.composite
def rotation(draw):
    """(engine, source vector, a shift k: 0, 1, S - 1 or any, negative too)."""
    eng, a, idx = draw(source())
    size = len(a)
    k = draw(st.sampled_from([0, 1, size - 1, -1]) | st.integers(-3 * size, 3 * size))
    return eng, a, k


@fp_warnings_ignored
@settings(max_examples=200, deadline=None)
@given(rotation())
def test_rotation_matches_roll(case):
    """A rotation's slots, read once or twice, and a rotation of a rotation."""
    eng, a, k = case
    r = eng.rotate(a, k)
    assert type(r) is RotatedVector and r.level == a.level and len(r) == len(a)
    want = np.roll(a.slots, -k)
    assert bits(r.slots) == bits(want) and r.src is None
    assert bits(r.slots) == bits(want)
    assert bits(eng.rotate(eng.rotate(a, k), -k).slots) == bits(a.slots)


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(rotation(), st.data())
def test_one_hot_cmult_of_rotation_matches_dense(case, data):
    """cmult of an unread rotation by a one-hot mask (negative index too)
    picks from the source; the flood and the rotation, read afterwards, are
    the dense ones."""
    eng, a, k = case
    size = len(a)
    idx = data.draw(st.integers(-size, size - 1))
    rolled = np.roll(a.slots, -k)
    r = eng.rotate(a, k)
    if data.draw(st.booleans()):
        r.slots                                         # read before the cmult
    f = eng.cmult(r, one_hot_mask(eng, idx))
    want = ref_keep(eng, rolled, idx)
    assert bits(f.slots) == bits(want)
    assert bits(r.slots) == bits(rolled)


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_slice_cmult_of_rotation_matches_dense(data):
    """cmult of an unread rotation by a slice mask is sparse, read from the
    source unbuilt, with the source's pattern as its zero; of a source with
    a NaN or an infinity it is the dense product.  The result, its uses in
    mult, add and sub, and the result and the rotation read afterwards are
    the dense ones."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    kind = data.draw(st.sampled_from(["non-negative", "non-negative", "finite", "any"]))
    a = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS[kind])))
    k = data.draw(st.sampled_from([0, 1, size - 1, -1]) | st.integers(-3 * size, 3 * size))
    start = data.draw(st.integers(0, size))
    stop = data.draw(st.integers(start, size) | st.integers(start, min(size, start + size // 8)))
    step = data.draw(st.sampled_from([1, 1, 2, 3]))
    value = data.draw(st.sampled_from([1.0, -0.0, 2.5, -3.0, 2.0**-31]))
    mask = PlainMask.structured(size, slice(start, stop, step), value)
    rolled = np.roll(a.slots, -k)
    vq = np.rint(value * SCALE) / SCALE if eng.config.backend == "leveled" else value
    want = rolled * 0.0
    want[start:stop:step] = ref_mul(eng, rolled[start:stop:step], vq)
    t = data.draw(st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0))
    d = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS["any"])))
    u = eng._uniform(t, size, eng.config.level_budget if eng.config.backend == "leveled" else None)
    cases = [
        (lambda p: p, lambda w: w),
        (lambda p: eng.mult(u, p), lambda w: ref_mul(eng, np.full(size, t), w)),
        (lambda p: eng.add(d, p), lambda w: d.slots + w),
        (lambda p: eng.sub(d, p), lambda w: d.slots - w),
        (lambda p: eng.add(eng.mult(u, p), d), lambda w: ref_mul(eng, np.full(size, t), w) + d.slots),
    ]
    for op, ref in cases:
        r = eng.rotate(a, k)
        p = eng.cmult(r, mask)
        if np.isfinite(a.slots).all():
            assert type(p) is SparseVector and p.zero is _pattern(a)
        else:
            assert type(p) is SlotVector
        assert bits(op(p).slots) == bits(ref(want))
        assert bits(p.slots) == bits(want)
        assert bits(r.slots) == bits(rolled)


@fp_warnings_ignored
@pytest.mark.parametrize("backend", ["exact", "leveled"])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("shift", ["0", "1", "size-stop", "size-stop+1", "size-1"])
def test_slice_cmult_reads_a_window_that_does_not_wrap_as_a_slice(backend, step, shift):
    """cmult of a rotation by k with a slice mask reads src[start+k:stop+k:step]
    when no picked slot wraps (k <= size - stop) and the wrapped indices
    otherwise; both give the dense composition's bits, the sparse vector's
    zero is the source's sign bits, and its values are a fresh array, never
    a view that would pin the source's slots."""
    size, start, stop = 64, 5, 21
    k = {"0": 0, "1": 1, "size-stop": size - stop, "size-stop+1": size - stop + 1,
         "size-1": size - 1}[shift]
    eng = lazy_engine(backend, size)
    vals = np.linspace(-2.0, 2.0, size)
    vals[[6, 9, 63]] = [-0.0, 5e-324, 0.0]
    src = eng.encrypt(vals)
    index = slice(start, stop, step)
    p = eng.cmult(eng.rotate(src, k), PlainMask.structured(size, index, 2.5))
    assert type(p) is SparseVector and p.zero is _pattern(src) and p.k == k
    assert zero_form(p) == "bits"
    assert not np.shares_memory(p.values, src.slots)
    assert bits(p.slots) == bits(ref_cmult(eng, np.roll(src.slots, -k), index, 2.5))


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(rotation(), st.data())
def test_flood_of_rotation_in_add_and_sub_matches_dense(case, data):
    """add and sub meet an unread window-1 flood of an unread rotation in one
    pass; the rotation is read before the cmult, between it and the op,
    after the op or never, and the flood is read after the op or never."""
    eng, a, k = case
    size = len(a)
    idx = data.draw(st.integers(-size, size - 1))
    d = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS["any"])))
    x = d.slots
    rolled = np.roll(a.slots, -k)
    want = ref_keep(eng, rolled, idx)
    read_rot = data.draw(st.sampled_from(["before", "between", "after", "never"]))
    read_flood = data.draw(st.booleans())
    for op, ref in ((eng.add, x + want), (eng.sub, x - want),
                    (lambda d, f: eng.add(f, f), want + want)):
        r = eng.rotate(a, k)
        if read_rot == "before":
            r.slots
        f = eng.cmult(r, one_hot_mask(eng, idx))
        if read_rot == "between":
            r.slots
        assert bits(op(d, f).slots) == bits(ref)
        if read_rot == "after":
            assert bits(r.slots) == bits(rolled)
        if read_flood:
            assert bits(f.slots) == bits(want)


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_flood_of_finite_source_is_uniform_and_never_materialised(backend):
    eng = lazy_engine(backend, 4096)
    em = EncodedMatrix(64, 64, Layout.FULL_MATRIX,
                       (eng.encrypt(np.linspace(-1.0, 1.0, 4096)),))
    kept = keep_only(eng, em, 3, 5)
    assert type(kept.parts[0]) is SparseVector
    v = roll_fill(eng, kept)
    assert type(v) is UniformVector
    assert v._cache is None and kept.parts[0]._cache is None     # no slots were built
    assert v.value == em.parts[0].slots[3 * 64 + 5]
    assert len(v) == 4096 and v.level == (32 if backend == "leveled" else None)


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_lazy_fast_paths_build_no_slots(backend):
    """The lazy paths that training and dvr_matmul take build no slots: two
    uniform operands of add, sub and mult give a uniform vector, mult reads a
    uniform left operand as one value, a uniform times a sparse row is a
    sparse product that add consumes unread, and one-hot cmults of
    rotations, added unread, are terms of one pending sum, whose build
    reads neither the rotations nor the terms and makes no zero pattern of
    the source; a slice cmult of a rotation of a non-negative source is a
    sparse row too."""
    eng = lazy_engine(backend, 4096)
    a = eng.encrypt(np.linspace(-1.0, 1.0, 4096))
    d = eng.encrypt(np.linspace(2.0, 3.0, 4096))
    u, w = (roll_fill(eng, eng.cmult(a, one_hot_mask(eng, i))) for i in (3, 7))
    for op in (eng.add, eng.sub, eng.mult):
        r = op(u, w)
        assert type(r) is UniformVector and r._cache is None
    eng.mult(u, d)
    assert u._cache is None and w._cache is None
    row = eng.encrypt(np.linspace(1.0, 2.0, 5))      # five slots of 4096
    p = eng.mult(u, row)
    assert type(p) is SparseVector
    eng.add(d, p)
    assert getattr(p, "_cache", None) is None and u._cache is None
    # the placement loop: one-hot cmult of a rotation, added unread
    sums = eng.cmult(a, segment_mask(eng, 0, 64))
    acc = d
    for k in (3, 4095, 0):
        r = eng.rotate(sums, k)
        f = eng.cmult(r, one_hot_mask(eng, 7))
        acc = eng.add(acc, f)
        assert type(f) is SparseVector and f._cache is None and f.zero is sums._pattern
        assert r._cache is None and r.src is sums
        assert type(acc) is SumVector and acc._cache is None
    acc.slots
    assert f._cache is None and r._cache is None
    # of the source, only the sign bits are kept: no full-width zero pattern
    assert sums._pattern.dtype == np.uint8 and sums._pattern.nbytes == 4096 // 8
    # a row cut from a rotation of a non-negative source: an unread sparse row
    xm = eng.encrypt(np.linspace(0.0, 1.0, 4096))
    r = eng.rotate(xm, 10)
    row = eng.cmult(r, segment_mask(eng, 0, 5))
    assert type(row) is SparseVector and r.src is xm and zero_form(row) == "float"
    eng.add(d, row)
    eng.add(d, eng.mult(u, row))
    assert row._cache is None and r._cache is None and u._cache is None


@pytest.mark.parametrize("signed", [False, True])
def test_held_one_hot_product_pins_no_source(signed):
    """Memory guard: a one-hot cmult product of a finite 32768-slot source
    keeps its zero, the float +0.0 or the source's 4 KB of sign bits, and
    its value, not the source: once the source is deleted, at most 4 KB plus
    the product's values stays held (1 KB more covers the object headers),
    where the source's slots alone are 256 KB."""
    size = 32768
    eng = lazy_engine("leveled", size)
    vals = np.linspace(-1.0 if signed else 0.0, 1.0, size)
    mask = one_hot_mask(eng, 5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        src = eng.encrypt(vals)
        held = eng.cmult(src, mask)
        del src
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= size // 8 + np.asarray(held.values).nbytes + 1024
    assert zero_form(held) == ("bits" if signed else "float")


@fp_warnings_ignored
@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_decrypt_of_an_unread_lazy_vector_fills_no_cache(backend):
    """decrypt builds an unread sparse vector, rotation, pending sum or
    uniform vector into a writeable array of its own: the vector stays
    unread, the array has the bits of a later ``slots`` read, and writing to
    it changes no later read.  A read vector is copied."""
    size = 64
    eng = lazy_engine(backend, size)
    level = eng.config.level_budget if backend == "leveled" else None
    src = eng.encrypt(np.linspace(-2.0, 2.0, size))
    src.slots
    vals = np.linspace(-2.0, 2.0, size)
    vals[[3, 8]] = [-0.0, np.nan]
    vectors = {
        "sparse": eng.encrypt(vals[:40]),
        "rotation": eng.rotate(src, 5),
        "sum": eng.add(eng.encrypt(vals), eng.cmult(eng.rotate(src, 2), one_hot_mask(eng, 4))),
        "uniform": eng._uniform(-1.5, size, level),
    }
    assert type(vectors["sum"]) is SumVector
    for name, v in vectors.items():
        out = eng.decrypt(v)
        assert v._cache is None, name
        assert out.flags.writeable, name
        got = out.copy()
        out[:] = 7.0
        assert bits(v.slots) == bits(got), name
        again = eng.decrypt(v)
        assert not np.shares_memory(again, v.slots) and bits(again) == bits(got), name


def test_lazy_forms_keep_the_trace():
    """A flood that turns uniform and one that stays dense (NaN in its
    source) record the same ops, uids and levels."""
    entries = []
    for poison in (False, True):
        trace = OpTrace()
        eng = lazy_engine("leveled", 16, trace)
        vals = np.linspace(0.5, 2.0, 16)
        if poison:
            vals[9] = np.nan
        a = eng.encrypt(vals)
        u = roll_fill(eng, eng.cmult(a, one_hot_mask(eng, 2)))
        eng.mult(eng.add(u, a), u)
        assert (type(u) is UniformVector) != poison
        entries.append(trace.entries)
    assert entries[0] == entries[1]


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pattern_is_the_zero_pattern_in_its_smallest_form(data):
    """``_pattern(v)`` is ``v.slots * 0.0``, bit for bit, when every slot is
    finite: the float +0.0 when no sign bit is set, else the sign bits
    packed eight to a byte; it is None when a slot is not finite, and it is
    cached on v."""
    size = data.draw(SIZES)
    kind = data.draw(st.sampled_from(sorted(ELEMENTS)))
    v = lazy_engine("exact", size).encrypt(
        data.draw(arrays(np.float64, size, elements=ELEMENTS[kind])))
    want = v.slots * 0.0
    pattern = _pattern(v)
    assert _pattern(v) is pattern
    if not np.isfinite(v.slots).all():
        assert pattern is None
    elif np.signbit(want).any():
        assert pattern.dtype == np.uint8 and pattern.shape == ((size + 7) // 8,)
        signs = np.unpackbits(pattern, count=size, bitorder="little").astype(bool)
        assert np.where(signs, -0.0, 0.0).tobytes() == want.tobytes()
    else:
        assert type(pattern) is float and np.full(size, pattern).tobytes() == want.tobytes()


@fp_warnings_ignored
@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_term_with_a_non_finite_zero_takes_the_dense_add(backend):
    """Pending sums hold finite zeros only.  A window-1 sparse term whose
    zero is NaN (a uniform inf times a row: its float zero inf * 0.0 is
    NaN), or a one-hot cmult of a rotation of a source with a NaN, which is
    the dense product, added to or subtracted from a pending sum gives a
    dense vector with the bits of the dense composition; the next finite
    term starts a new pending sum on it."""
    size = 16
    eng = lazy_engine(backend, size)
    level = eng.config.level_budget if backend == "leveled" else None
    poisoned = np.linspace(-1.0, 1.0, size)
    poisoned[5] = np.nan
    nan_src = eng.encrypt(poisoned)
    src = eng.encrypt(np.linspace(0.5, 2.0, size))
    row = eng.encrypt([1.0, -2.0, 3.0])
    base = eng.encrypt(np.linspace(-3.0, 3.0, size))
    placed = ref_keep(eng, np.roll(src.slots, -2), 4)

    def place():
        return eng.cmult(eng.rotate(src, 2), one_hot_mask(eng, 4))

    terms = [
        (lambda: eng.cmult(eng.rotate(nan_src, 3), one_hot_mask(eng, 7)),
         ref_keep(eng, np.roll(nan_src.slots, -3), 7), SlotVector),
        (lambda: eng.mult(eng._uniform(float("inf"), size, level), row),
         ref_mul(eng, np.full(size, float("inf")), row.slots), SparseVector),
    ]
    for term, term_want, form in terms:
        for op, ufunc in ((eng.add, np.add), (eng.sub, np.subtract)):
            acc = eng.add(base, place())
            assert type(acc) is SumVector
            t = term()
            assert type(t) is form
            out = op(acc, t)
            want = ufunc(base.slots + placed, term_want)
            assert type(out) is SlotVector and bits(out.slots) == bits(want)
            nxt = eng.add(out, place())
            assert type(nxt) is SumVector and nxt._pending[0] is out
            assert bits(nxt.slots) == bits(want + placed)


@st.composite
def structured_mask(draw, size):
    """(a one-hot or slice PlainMask of the given size, its index, its
    value)."""
    if draw(st.booleans()):
        index = draw(st.integers(-size, size - 1))
    else:
        start = draw(st.integers(0, size))
        index = slice(start, draw(st.integers(start, size)), draw(st.sampled_from([1, 1, 2, 3])))
    value = draw(st.sampled_from([1.0, -0.0, 2.5, -3.0, 0.1, 2.0**-31]))
    return PlainMask.structured(size, index, value), index, value


def ref_cmult(eng, x, index, value):
    """Dense cmult of x by a structured mask: x * 0.0 off the index."""
    vq = np.rint(value * SCALE) / SCALE if eng.config.backend == "leveled" else value
    out = x * 0.0
    out[index] = ref_mul(eng, x[index], vq)
    return out


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structured_cmult_of_dense_source_matches_dense(data):
    """cmult of an unrotated source by a one-hot or slice mask is sparse
    with the source's pattern (``_pattern``: +0.0, or its sign bits for its
    -0.0 slots) as its zero, and of a source with a NaN or an infinity it is
    the dense product; a step-1 slice mask over every slot, which is the
    source's own run (``_run``: encrypt fills every slot here), multiplies
    the run's values only, with the run's float zero.  add and sub consume
    it unread, it is read before the op, after it or never, and its
    rotate_add doublings (roll_fill) match the dense composition too."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    kind = data.draw(st.sampled_from(["finite", "non-negative", "any"]))
    vals = data.draw(arrays(np.float64, size, elements=ELEMENTS[kind]))
    if kind == "any":
        for i in data.draw(st.lists(st.integers(0, size - 1), max_size=4)):
            vals[i] = data.draw(st.sampled_from([-0.0, float("nan"), float("inf"),
                                                 float("-inf")]))
    a = eng.encrypt(vals)
    mask, index, value = data.draw(structured_mask(size))
    want = ref_cmult(eng, a.slots, index, value)
    d = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS["any"])))
    read = data.draw(st.sampled_from(["before", "after", "never"]))
    for op, ref in ((eng.add, d.slots + want), (eng.sub, d.slots - want)):
        p = eng.cmult(a, mask)
        own_run = type(index) is slice and index.indices(size) == (0, size, 1)
        if own_run:
            assert type(p) is SparseVector and p.zero is a.zero and p.k == 0
        elif np.isfinite(a.slots).all():
            assert type(p) is SparseVector and p.zero is _pattern(a) and p.k == 0
        else:
            assert type(p) is SlotVector
        if read == "before":
            assert bits(p.slots) == bits(want)
        assert bits(op(d, p).slots) == bits(ref)
        if read == "after":
            assert bits(p.slots) == bits(want)
    v = eng.cmult(a, mask)
    step = 1
    while step < size:
        v = eng.rotate_add(v, step)
        want = ref_rotate_add(want, step)
        step *= 2
    assert bits(v.slots) == bits(want)


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_uniform_times_structured_cmult_matches_dense(data):
    """mult(uniform t, cmult(rotate(a, k), one-hot or slice mask)) on both
    backends.  The cmult's zeros are +0.0 when every slot of a is finite
    with a clear sign bit, and mult then takes its support unbuilt; a
    negative or -0.0 slot of a puts -0.0 into them, and a non-finite one
    makes the cmult the dense product: mult scans the operand or takes the
    dense kernel.  Either way the product, its use in add, and the cmult
    read afterwards are the dense ones."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    kind = data.draw(st.sampled_from(sorted(ELEMENTS)))
    a = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS[kind])))
    k = data.draw(st.sampled_from([0, 1, size - 1]) | st.integers(-3 * size, 3 * size))
    mask, index, value = data.draw(structured_mask(size))
    t = data.draw(st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0) | st.just(0.3))
    level = eng.config.level_budget if backend == "leveled" else None
    u = eng._uniform(t, size, level)
    d = eng.encrypt(data.draw(arrays(np.float64, size, elements=ELEMENTS["any"])))
    want_p = ref_cmult(eng, np.roll(a.slots, -k), index, value)
    want = ref_mul(eng, np.full(size, t), want_p)
    p = eng.cmult(eng.rotate(a, k), mask)
    prod = eng.mult(u, p)
    if (a.slots.view(np.uint64) < 0x7FF0000000000000).all():
        assert type(prod) is SparseVector and p._cache is None
    assert bits(prod.slots) == bits(want)
    assert bits(eng.add(d, eng.mult(u, p)).slots) == bits(d.slots + want)
    assert bits(p.slots) == bits(want_p)


@st.composite
def sum_chain(draw):
    """A plan for a chain of adds and subs of window-1 sparse terms: the
    backend and size, two sources, a base, and steps.  A step adds or
    subtracts a one-hot or slice cmult of a rotation of either source, a
    uniform times a short encrypted row (slice support) or a dense row
    (index-array support, or the dense kernel past an eighth of the slots),
    or again an earlier term; it continues the latest sum or an earlier one,
    and may read the sum afterwards."""
    backend = draw(st.sampled_from(["exact", "leveled"]))
    size = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    sources = []
    for _ in range(2):
        vals = draw(arrays(np.float64, size, elements=ELEMENTS[draw(st.sampled_from(
            sorted(ELEMENTS)))]))
        if draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
                vals[i] = draw(st.sampled_from([-0.0, float("nan"), float("inf"),
                                                float("-inf")]))
        sources.append(vals)
    base = draw(st.sampled_from(["encrypted", "first term", "uniform"]))
    # mostly finite: a non-finite t, and so a NaN float zero, makes the sum replay
    t_values = (st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 5e-324, -0.5, 1e300])
                | st.sampled_from(SPECIAL))
    base_vals = draw(arrays(np.float64, size, elements=st.sampled_from([0.0, -0.0]) | t_values))
    # one family of terms makes long sums; mixing them builds a sum per switch
    kinds = draw(st.sampled_from([["one-hot", "slice"], ["row", "dense row"],
                                  ["one-hot", "slice", "row", "dense row"]]))
    one_source = draw(st.booleans())
    steps = []
    for n in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds + (["again"] if n else [])))
        step = {"op": draw(st.sampled_from(["add", "sub"])), "kind": kind,
                "read": draw(st.integers(0, 3)) == 0,
                "from": n if draw(st.integers(0, 4)) else draw(st.integers(0, n))}
        if kind == "again":
            step["term"] = draw(st.integers(0, n - 1))
        elif kind in ("one-hot", "slice"):
            step["src"] = 0 if one_source else draw(st.integers(0, 1))
            step["k"] = draw(st.integers(-size, size))
            mask, step["index"], step["value"] = draw(structured_mask(size))
            if (type(step["index"]) is int) != (kind == "one-hot"):
                step["kind"] = "slice" if kind == "one-hot" else "one-hot"
        else:
            step["t"] = draw(t_values)
            if kind == "row":
                step["row"] = draw(arrays(np.float64, draw(st.integers(0, size)),
                                          elements=st.sampled_from([0.0, -0.0]) | t_values))
            else:
                row = np.zeros(size)
                for i in draw(st.lists(st.integers(0, size - 1), max_size=size // 4)):
                    row[i] = draw(t_values)
                step["row"] = row
        steps.append(step)
    return backend, size, sources, base, base_vals, steps


def run_sum_chain(plan, eager):
    """Run a sum_chain plan; eager reads each term before its op, which takes
    the dense path.  Returns the trace entries and the checks: (name, got,
    want) for every read of the sum and the final result, against a numpy
    composition."""
    backend, size, sources, base, base_vals, steps = plan
    trace = OpTrace()
    eng = lazy_engine(backend, size, trace)
    level = eng.config.level_budget if backend == "leveled" else None
    srcs = [eng.encrypt(v) for v in sources]
    terms, wants, checks = [], [], []

    def term(step):
        if step["kind"] == "again":
            return terms[step["term"]], wants[step["term"]]
        if step["kind"] in ("one-hot", "slice"):
            src = srcs[step["src"]]
            mask = PlainMask.structured(size, step["index"], step["value"])
            want = ref_cmult(eng, np.roll(src.slots, -(step["k"] % size)), step["index"],
                             step["value"])
            return eng.cmult(eng.rotate(src, step["k"]), mask), want
        u = eng._uniform(step["t"], size, level)
        if step["kind"] == "row":
            row = eng.encrypt(step["row"])
        else:
            row = eng._new(step["row"].copy(), level)
        return eng.mult(u, row), ref_mul(eng, np.full(size, step["t"]), row.slots)

    if base == "first term":
        acc, want = term(steps[0])
        terms.append(acc)
        wants.append(want)
        steps = steps[1:]
    elif base == "uniform":
        acc = eng._uniform(float(base_vals[0]), size, level)
        want = np.full(size, float(base_vals[0]))
    else:
        acc = eng.encrypt(base_vals)
        want = lazy_engine(backend, size).encrypt(base_vals).slots
    sums = [(acc, want)]
    for n, step in enumerate(steps):
        t, t_want = term(step)
        terms.append(t)
        wants.append(t_want)
        if eager:
            t.slots
        acc, want = sums[min(step["from"], len(sums) - 1)]
        if step["op"] == "add":
            acc, want = eng.add(acc, t), want + t_want
        else:
            acc, want = eng.sub(acc, t), want - t_want
        sums.append((acc, want))
        if step["read"] or eager:
            checks.append((f"step {n}", acc.slots, want))
    checks.append(("result", acc.slots, want))
    return trace.entries, checks


def row_step(n, value):
    return {"op": "add", "kind": "row", "read": False, "from": n, "t": 1.0,
            "row": np.array([value])}


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(sum_chain())
# the values' order decides the sum: (1 + 2**-53) + 2**-53 is 1
@example(("exact", 4, [np.zeros(4)] * 2, "encrypted", np.zeros(4),
          [row_step(0, 1.0), row_step(1, 2.0**-53), row_step(2, 2.0**-53)]))
# a -0.0 value on a support slot whose zero would be +0.0 keeps the base's -0.0
@example(("exact", 2, [np.ones(2)] * 2, "encrypted", np.array([-0.0, -0.0]),
          [{"op": "add", "kind": "one-hot", "read": False, "from": 0, "src": 0, "k": 0,
            "index": 0, "value": -0.0}]))
def test_sum_chains_match_dense_composition_and_eager_trace(plan):
    """A chain of adds and subs of unread window-1 sparse terms (a pending
    sum, built on first read) gives the bits of the slotwise composition,
    at every read of an intermediate sum and at the end: sources with -0.0,
    NaN and infinities, float zeros of either sign, a term added twice, and
    switches between sources.  Its trace is that of the same ops run with
    every term read first."""
    lazy_entries, checks = run_sum_chain(plan, eager=False)
    eager_entries, eager_checks = run_sum_chain(plan, eager=True)
    assert lazy_entries == eager_entries
    for name, got, want in checks + eager_checks:
        assert bits(got) == bits(want), name


# --- slice runs against the dense composition ---------------------------------

RUN_FORMS = ["+0.0 zero", "-0.0 zero", "+0.0 pattern", "NaN zero", "sign-bit pattern"]
IS_RUN = {"+0.0 zero", "-0.0 zero", "+0.0 pattern", "sign-bit pattern"}


@st.composite
def slice_run(draw, eng, lo, hi):
    """(a window-1 sparse vector over slice(lo, hi), its form).  Values hold
    -0.0, NaN and infinities; the zeros are a float +0.0, -0.0 or NaN, or the
    pattern of a source whose slots are finite and non-negative (+0.0) or
    include a negative one (sign bits), small so that the leveled encrypt
    keeps them finite.  A mask over a whole source is that source's own run,
    so a pattern form covers fewer slots."""
    size = eng.config.slots
    level = None if eng.config.backend == "exact" else eng.config.level_budget - draw(
        st.integers(0, 2))
    forms = RUN_FORMS if (lo, hi) != (0, size) else [f for f in RUN_FORMS if "zero" in f]
    form = draw(st.sampled_from(forms))
    if "zero" in form:
        zero = {"+0.0 zero": 0.0, "-0.0 zero": -0.0, "NaN zero": float("nan")}[form]
        values = draw(arrays(np.float64, hi - lo, elements=ELEMENTS["any"]))
        return SparseVector(size, 0, zero, slice(lo, hi), values, 1, level,
                            next(eng._uid)), form
    src = draw(arrays(np.float64, size, elements=st.floats(0.0, 4.0)))
    if form == "sign-bit pattern":
        src[draw(st.sampled_from([i for i in range(size) if not lo <= i < hi]))] = -1.0
    mask = segment_mask(eng, lo, hi - lo, draw(st.sampled_from([1.0, -0.0, 2.5, -3.0])))
    return eng.cmult(eng.encrypt(src), mask), form


def rotated_range(lo, hi, k, size):
    """The slots of rotate(v, k) that read v's slots [lo, hi), or None when
    they wrap."""
    start = lo - k if lo >= k else lo - k + size
    return (start, start + hi - lo) if start + hi - lo <= size else None


@st.composite
def two_ranges(draw, size):
    """Two slot ranges that are equal, overlap, touch or leave a gap."""
    lo = draw(st.integers(0, size - 2))
    hi = draw(st.integers(lo, size - 1))
    relation = draw(st.sampled_from(["equal", "overlapping", "touching", "gapped", "any"]))
    if relation == "equal":
        return (lo, hi), (lo, hi)
    if relation == "overlapping":
        blo = draw(st.integers(lo, hi))
        return (lo, hi), (blo, draw(st.integers(max(blo, hi), size)))
    if relation == "touching":
        return (lo, hi), (hi, draw(st.integers(hi, size)))
    if relation == "gapped":
        blo = draw(st.integers(hi + 1, size))
        return (lo, hi), (blo, draw(st.integers(blo, size)))
    blo = draw(st.integers(0, size))
    return (lo, hi), (blo, draw(st.integers(blo, size)))


@fp_warnings_ignored
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_slice_run_rules_match_dense_composition(data):
    """add and sub of two slice runs (``_run``) whose union is one run give a
    run over the union, as does rotate_add of a run and its rotated copy;
    a structured cmult by a mask on a run's own slice multiplies its values
    only and keeps the run's zero, unless the run is a rotation, whose
    picks come from its source, with the source's pattern as the zero.
    Equal, overlapping, touching and gapped runs, an unread rotation as the
    right operand (rotate, then add), shifts that wrap, right operands read
    first.  A sign-bit pattern is a run.  An unread sparse right operand on
    another run, a NaN zero, a gap or a wrap take the path they take without
    the rule.  Either way type, bits and level are checked against the dense
    composition."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([2, 8, 16, 32]))
    eng = lazy_engine(backend, size)
    (alo, ahi), (blo, bhi) = data.draw(two_ranges(size))
    a, a_form = data.draw(slice_run(eng, alo, ahi))
    op = data.draw(st.sampled_from(["add", "sub", "rotate-then-add", "rotate_add", "cmult"]))

    if op == "rotate_add":
        k = data.draw(st.integers(0, size - 1))
        out = eng.rotate_add(a, k)
        shifted = rotated_range(alo, ahi, k, size)
        merged = (a_form in IS_RUN and shifted is not None
                  and not (alo > shifted[1] or shifted[0] > ahi))
        if k == 1:      # the window doubling stays first
            assert type(out) is SparseVector and out.window == 2
        else:
            assert type(out) is (SparseVector if merged else SlotVector)
        assert out.level == a.level
        assert bits(out.slots) == bits(ref_rotate_add(a.slots, k))
        return

    if op == "cmult":
        k = data.draw(st.integers(0, size - 1))
        shifted = rotated_range(alo, ahi, k, size) if data.draw(st.booleans()) else None
        operand = eng.rotate(a, k) if shifted is not None else a
        lo, hi = shifted if shifted is not None else (alo, ahi)
        value = data.draw(st.sampled_from([1.0, -0.0, 2.5, -3.0, 2.0**-31]))
        mask = PlainMask.structured(size, data.draw(st.sampled_from(
            [slice(lo, hi), slice(lo, hi, 1)] + ([slice(None, hi)] if lo == 0 else []))), value)
        out = eng.cmult(operand, mask)
        own_run = a_form in IS_RUN and operand is a       # a rotation reads its source
        if own_run:
            assert type(out) is SparseVector and out.zero is a.zero
        elif np.isfinite(a.slots).all():
            assert type(out) is SparseVector and out.zero is _pattern(a)
        else:
            assert type(out) is SlotVector
        assert out.level == (None if a.level is None else a.level - 1)
        assert bits(out.slots) == bits(ref_cmult(eng, operand.slots, mask.index, value))
        return

    b, b_form = data.draw(slice_run(eng, blo, bhi))
    rotated = op == "rotate-then-add"
    if rotated:
        k = data.draw(st.integers(0, size - 1))
        b = eng.rotate(b, k)
        rb = rotated_range(blo, bhi, k, size)
    else:
        rb = (blo, bhi)
    read = data.draw(st.booleans())
    if read:
        b.slots
    run_b = b_form in IS_RUN and rb is not None and not (rotated and read)
    gap = rb is None or alo > rb[1] or rb[0] > ahi
    merged = (a_form in IS_RUN and run_b and not gap
              and ((alo, ahi) == rb or rotated or read))
    pending = not rotated and not read and b_form != "NaN zero"
    ufunc = np.add if op != "sub" else np.subtract
    out = (eng.sub if op == "sub" else eng.add)(a, b)
    assert type(out) is (SparseVector if merged else SumVector if pending else SlotVector)
    if merged:
        assert out.window == 1 and zero_form(out) in ("float", "bits")
        if "sign-bit pattern" not in (a_form, b_form):
            assert zero_form(out) == "float"
        assert out.support.indices(size)[:2] == (min(alo, rb[0]), max(ahi, rb[1]))
    want_level = None if a.level is None else min(a.level, b.level)
    assert out.level == want_level
    assert bits(out.slots) == bits(ufunc(a.slots, b.slots))


# --- sign-bit runs and reach builds against the dense composition --------------

@st.composite
def signed_run(draw, eng):
    """(a slice cmult of a rotated encrypted source, its slot range if it is
    a run).  The source is +0.0-signed but for one -0.0 or -1.0, mostly
    negative, of mixed signs, or holds a NaN or an infinity (no run: the
    dense product)."""
    size = eng.config.slots
    kind = draw(st.sampled_from(["one negative", "mostly negative", "mixed", "non-finite"]))
    sign = -1.0 if kind == "mostly negative" else 1.0
    vals = sign * draw(arrays(np.float64, size, elements=st.floats(0.0, 4.0)))
    if kind == "mixed":
        vals *= draw(arrays(np.float64, size, elements=st.sampled_from([1.0, -1.0])))
    if kind in ("one negative", "non-finite"):
        vals[draw(st.integers(0, size - 1))] = draw(st.sampled_from(
            [-0.0, -1.0] if kind == "one negative" else [float("nan"), float("inf"), -np.inf]))
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo, size))
    mask = segment_mask(eng, lo, hi - lo, draw(st.sampled_from([1.0, -0.0, 2.5, -3.0])))
    v = eng.cmult(eng.rotate(eng.encrypt(vals), draw(st.integers(0, size - 1))), mask)
    return v, (None if kind == "non-finite" else (lo, hi))


@fp_warnings_ignored
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_sign_bit_runs_match_dense_composition(data):
    """Runs whose zero is a finite source's sign bits merge like float-zero
    runs: a chain of add, sub, rotate_add and rotate-then-add (or add of a
    right operand read first) over sign-bit runs, float +-0.0 runs and
    non-runs, at relative shifts that are and are not multiples of 8.  Each
    result whose operands are runs with one union is a run over it, which
    keeps sign bits only while some slot off the union is -0.0; any other
    result takes the path it takes without the rule.  Type and level are
    checked at each op, bits at the end (every vector read), against the
    dense composition."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    lo = data.draw(st.integers(0, size - 1))
    v, form = data.draw(slice_run(eng, lo, data.draw(st.integers(lo, size))))
    runs = [data.draw(signed_run(eng)), data.draw(signed_run(eng)),
            (v, v.support.indices(size)[:2] if form in IS_RUN else None)]
    pool = [(v, v.slots.copy() if data.draw(st.booleans()) else eng.decrypt(v), run)
            for v, run in runs]
    for _ in range(data.draw(st.integers(1, 6))):
        x, x_ref, x_run = pool[data.draw(st.integers(0, len(pool) - 1))]
        op = data.draw(st.sampled_from(["add", "sub", "rotate_add"]))
        k = data.draw(st.integers(0, size - 1))
        if op == "rotate_add":
            out, ref = eng.rotate_add(x, k), ref_rotate_add(x_ref, k)
            y_run, level = x_run if x_run is None else rotated_range(*x_run, k, size), x.level
            doubling = type(x) is SparseVector and k == x.window
        else:
            y, y_ref, y_run = pool[data.draw(st.integers(0, len(pool) - 1))]
            if data.draw(st.booleans()):
                y, y_ref = eng.rotate(y, k), np.roll(y_ref, -k)
                y_run = y_run if y_run is None else rotated_range(*y_run, k, size)
            else:
                y.slots                 # read: no pending sum
            out = (eng.add if op == "add" else eng.sub)(x, y)
            ref = (np.add if op == "add" else np.subtract)(x_ref, y_ref)
            level = None if x.level is None else min(x.level, y.level)
            doubling = False
        merged = (not doubling and x_run is not None and y_run is not None
                  and not (x_run[0] > y_run[1] or y_run[0] > x_run[1]))
        assert type(out) is (SparseVector if merged or doubling else SlotVector)
        assert out.level == level
        run = None
        if merged:
            run = min(x_run[0], y_run[0]), max(x_run[1], y_run[1])
            assert zero_form(out) in ("float", "bits")
            assert out.support.indices(size)[:2] == run
            if type(out.zero) is np.ndarray:     # the off-union -0.0 slots, at least one
                signs = np.roll(np.unpackbits(out.zero, count=size, bitorder="little"), -out.k)
                off = np.r_[0:run[0], run[1]:size]
                assert not signs[run[0]:run[1]].any() and signs.any()
                assert list(signs[off]) == list(np.signbit(ref[off]))
        pool.append((out, ref, run))
    for v, ref, _ in pool:
        assert bits(eng.decrypt(v)) == bits(ref)
        assert bits(v.slots) == bits(ref)


@fp_warnings_ignored
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_reach_builds_match_dense_doublings(data):
    """A sparse vector of window w over a step-1 slice [lo, hi) whose zero is
    a float +-0.0 is built on its reach [lo - w + 1, hi) alone, which may
    wrap at slot 0, while the reach plus w fits the slots; past that guard,
    and for a NaN zero or sign bits, the full-width doublings run.  Windows 2
    up to size/2, reaches at, below and past the guard; bits of a read and
    of a decrypt against the dense doublings, and the full-width kernel runs
    only where the rule does not apply."""
    from unittest import mock

    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([4, 8, 16, 32, 64, 128]))
    eng = lazy_engine(backend, size)
    window = 2 ** data.draw(st.integers(1, size.bit_length() - 2))
    guard = size - 2 * window + 1           # the longest run whose reach fits
    length = {"at": guard, "below": data.draw(st.integers(1, guard)),
              "past": data.draw(st.integers(guard + 1, size))}[
        data.draw(st.sampled_from(["at", "below", "past"]))]
    lo = data.draw(st.integers(0, size - length) | st.integers(0, min(window - 2, size - length)))
    form = data.draw(st.sampled_from(["+0.0", "-0.0", "NaN", "sign bits"]))
    values = data.draw(arrays(np.float64, length, elements=ELEMENTS["any"]))
    k = 0
    if form == "sign bits":
        signs = data.draw(arrays(np.uint8, size, elements=st.integers(0, 1)))
        zero, k = np.packbits(signs, bitorder="little"), data.draw(st.integers(0, size - 1))
        ref = np.where(np.roll(signs, -k), -0.0, 0.0)
    else:
        zero = {"+0.0": 0.0, "-0.0": -0.0, "NaN": float("nan")}[form]
        ref = np.full(size, zero)
    ref[lo:lo + length] = values
    level = None if backend == "exact" else 20
    v = SparseVector(size, k, zero, slice(lo, lo + length), values, 1, level, next(eng._uid))
    step = 1
    while step < window:
        v, ref = eng.rotate_add(v, step), ref_rotate_add(ref, step)
        step *= 2
    assert type(v) is SparseVector and v.window == window and v.level == level
    calls = Counter()
    full_width = _kernels.rotate_add

    def counted(a, k):
        calls["rotate_add"] += 1
        return full_width(a, k)

    with mock.patch.object(_kernels, "rotate_add", counted):
        owned = eng.decrypt(v)
        read = v.slots
    assert bits(owned) == bits(ref)
    assert bits(read) == bits(ref)
    reach_only = form in ("+0.0", "-0.0") and length <= guard
    assert (calls["rotate_add"] == 0) == reach_only


@fp_warnings_ignored
@settings(max_examples=200, deadline=None)
@given(sum_chain())
def test_sum_chains_built_in_blocks_of_one_term_match_dense_composition(plan):
    """A pending sum resolves its -0.0 candidates in blocks of terms; with
    one term per block the bits are those of the slotwise composition."""
    from unittest import mock

    from henn import engine

    with mock.patch.object(engine, "_BLOCK", 1):
        _, checks = run_sum_chain(plan, eager=False)
    for name, got, want in checks:
        assert bits(got) == bits(want), name


# --- the matmul column rules against the dense composition --------------------

def dense_pattern(eng, slots):
    """``_pattern`` of a dense vector of these slots, read from them."""
    return _pattern(eng._new(slots.copy(), None))


def same_pattern(got, want):
    if type(want) is np.ndarray:
        return type(got) is np.ndarray and got.tobytes() == want.tobytes()
    return type(got) is not np.ndarray and got == want


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_sum_resolve_matches_dense_composition(data):
    """A pending sum of one-slot terms resolves the -0.0 slots of its base
    with one row per (op, shift, zero) group: groups of one and of many
    terms, groups whose terms all take one slot (which the group then
    excludes) or several, sub terms, terms over one source's sign bits or
    its +0.0 pattern and products with a float zero of either sign, in
    blocks of ``_BLOCK`` candidate x term entries or of one; bits against
    the dense composition."""
    from unittest import mock

    from henn import engine

    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([2, 8, 16, 32]))
    eng = lazy_engine(backend, size)
    zeros = data.draw(st.sampled_from(["sign bits", "+0.0 pattern"]))
    # finite after the leveled encrypt, so that every term joins one sum
    src_vals = data.draw(arrays(np.float64, size, elements=(
        st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, -5e-324])) if zeros == "sign bits"
        else st.floats(0.0, 4.0) | st.sampled_from([0.0, 5e-324])))
    src = eng.encrypt(src_vals)
    src_ref = src.slots.copy()
    base_vals = data.draw(arrays(np.float64, size,
                                 elements=st.sampled_from([-0.0, -0.0, -0.0, 0.0, 1.5, -2.0])))
    acc, want = eng.encrypt(base_vals), eng.encrypt(base_vals).slots.copy()
    shifts = data.draw(st.lists(st.integers(-size, size), min_size=1, max_size=3))
    slots = data.draw(st.lists(st.integers(-size, size - 1), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(1, 12))):
        k, i = data.draw(st.sampled_from(shifts)), data.draw(st.sampled_from(slots))
        if zeros == "+0.0 pattern" and data.draw(st.booleans()):
            t = data.draw(st.sampled_from([1.5, -2.0, 0.0, -0.0]))     # zero t * 0.0
            x = eng.cmult(src, one_hot_mask(eng, i))
            term = eng.mult(eng._uniform(t, size, x.level), x)
            term_ref = ref_mul(eng, np.full(size, t), ref_cmult(eng, src_ref, i, 1.0))
        else:       # a value whose sign differs from its zero's needs the skipped slot
            m = data.draw(st.sampled_from([1.0, 2.5, -1.0, -0.0]))
            term = eng.cmult(eng.rotate(src, k), PlainMask.structured(size, i, m))
            term_ref = ref_cmult(eng, np.roll(src_ref, -(k % size)), i, m)
        if data.draw(st.booleans()):
            acc, want = eng.add(acc, term), want + term_ref
        else:
            acc, want = eng.sub(acc, term), want - term_ref
    assert type(acc) is SumVector
    with mock.patch.object(engine, "_BLOCK", data.draw(st.sampled_from([1, engine._BLOCK]))):
        assert bits(eng.decrypt(acc)) == bits(want)
        assert bits(acc.slots) == bits(want)


@pytest.mark.parametrize("backend", ["exact", "leveled"])
@pytest.mark.parametrize("slots", [(0, 1), (0, 0)])
def test_grouped_resolve_skips_a_slot_only_when_every_term_takes_it(backend, slots):
    """Two terms of one group, the first a -0.0 value (+0.0 times a negative
    mask) on slot 0 of a -0.0 base: where the second adds a +0.0 zero there,
    the slot clears before the value is added, as in the dense composition."""
    eng = lazy_engine(backend, 8)
    src = eng.encrypt(np.arange(8.0))
    acc, want = eng.encrypt(np.full(8, -0.0)), np.full(8, -0.0)
    for i, m in zip(slots, [-1.0, 1.0]):
        acc = eng.add(acc, eng.cmult(eng.rotate(src, 0), PlainMask.structured(8, i, m)))
        want = want + ref_cmult(eng, src.slots, i, m)
    assert type(acc) is SumVector
    assert bits(acc.slots) == bits(want)


@st.composite
def run_values(draw, length):
    """Run values, finite and non-zero but for an optional +-0.0, NaN or
    infinity."""
    values = draw(arrays(np.float64, length, elements=st.floats(-4.0, 4.0).filter(bool)
                         | st.sampled_from([5e-324, -1e300])))
    if length and draw(st.booleans()):
        values[draw(st.integers(0, length - 1))] = draw(st.sampled_from(
            [0.0, -0.0, float("nan"), float("inf"), -np.inf]))
    return values


@fp_warnings_ignored
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_touching_runs_concatenate_only_finite_non_zero_values(data):
    """An add of two touching runs whose values are all finite and non-zero
    concatenates them, in either operand order, as x + (+-0.0) is x; a
    +-0.0, NaN or infinity among them, or a sub, spreads both over the
    union as before.  Float and sign-bit zeros; type, support and bits
    against the dense composition."""
    from unittest import mock

    from henn import engine

    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([8, 16, 32]))
    eng = lazy_engine(backend, size)
    lo = data.draw(st.integers(0, size))
    mid = data.draw(st.integers(lo, size))
    hi = data.draw(st.integers(mid, size))
    level = None if backend == "exact" else 20
    runs = []
    for start, stop in ((lo, mid), (mid, hi)):
        values = data.draw(run_values(stop - start))
        if data.draw(st.booleans()):
            zero, k = data.draw(st.sampled_from([0.0, -0.0])), 0
        else:
            signs = data.draw(arrays(np.uint8, size, elements=st.integers(0, 1)))
            zero, k = np.packbits(signs, bitorder="little"), data.draw(st.integers(0, size - 1))
        runs.append(SparseVector(size, k, zero, slice(start, stop), values, 1, level,
                                 next(eng._uid)))
    a, b = runs if data.draw(st.booleans()) else runs[::-1]
    op = data.draw(st.sampled_from(["add", "sub"]))
    want = (np.add if op == "add" else np.subtract)(a.slots, b.slots)
    a, b = (SparseVector(size, v.k, v.zero, v.support, v.values, 1, level, next(eng._uid))
            for v in (a, b))       # unread twins
    b = eng.rotate(b, 0)        # an unread rotation: a merge, not a pending sum
    with mock.patch.object(engine, "_spread", wraps=engine._spread) as spread:
        out = getattr(eng, op)(a, b)
    joined = np.concatenate([runs[0].values, runs[1].values])
    concatenated = op == "add" and bool(np.isfinite(joined).all() and joined.all())
    assert type(out) is SparseVector and out.support.indices(size)[:2] == (lo, hi)
    assert (spread.call_count == 0) == (concatenated or runs[0].support == runs[1].support)
    assert bits(out.slots) == bits(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clear_bits_matches_the_unpacked_clear(data):
    """``_clear_bits`` clears [start, stop) of packed bits, by whole bytes
    when both ends are multiples of 8 and bit by bit otherwise."""
    from henn.engine import _clear_bits

    size = data.draw(st.sampled_from([8, 16, 64, 128]))
    packed = data.draw(arrays(np.uint8, size // 8))
    ends = st.integers(0, size) | st.integers(0, size // 8).map(lambda e: 8 * e)
    start, stop = data.draw(ends), data.draw(ends)
    want = np.unpackbits(packed, bitorder="little")
    want[start:stop] = 0
    got = packed.copy()
    _clear_bits(got, start, stop)
    assert got.tobytes() == np.packbits(want, bitorder="little").tobytes()


@fp_warnings_ignored
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_block_sums_picked_from_the_reach_match_dense_composition(data):
    """A slice cmult of an unread reach-built window picks from the reach and
    sets the window's ``_pattern`` from the reach, for a zero of either
    sign.  That pattern is the block sums' zero, and the window stays unread;
    a reach with a NaN or an infinity has no pattern, and the product is the
    dense one, which reads the window.  The block sums inherit the pattern
    when their values are finite and keep the picks' sign bits: a negative
    or -0.0 mask value refuses, as does a non-finite product.  One-hot
    cmults of rotations of the block sums read their values.  Reaches that
    wrap at slot 0, strides of either sign; patterns against those of the
    built slots, bits against the dense composition."""
    backend = data.draw(st.sampled_from(["exact", "leveled"]))
    size = data.draw(st.sampled_from([8, 16, 32, 64]))
    eng = lazy_engine(backend, size)
    window = 2 ** data.draw(st.integers(1, size.bit_length() - 3))
    length = data.draw(st.integers(1, size - 2 * window + 1))
    lo = data.draw(st.integers(0, size - length) | st.integers(0, min(window - 2, size - length)))
    zero = data.draw(st.sampled_from([0.0, -0.0]))
    values = data.draw(arrays(np.float64, length, elements=ELEMENTS["finite"]))
    if data.draw(st.integers(0, 4)) == 0:
        values[data.draw(st.integers(0, length - 1))] = data.draw(st.sampled_from(
            [float("nan"), float("inf")]))
    level = None if backend == "exact" else 20
    v = SparseVector(size, 0, zero, slice(lo, lo + length), values, 1, level, next(eng._uid))
    ref = v.slots.copy()
    v = SparseVector(size, 0, zero, slice(lo, lo + length), values, 1, level, next(eng._uid))
    step = 1
    while step < window:
        v, ref = eng.rotate_add(v, step), ref_rotate_add(ref, step)
        step *= 2
    stride = data.draw(st.sampled_from([1, 2, 3, window, -1, -window]))
    start = data.draw(st.integers(0, size - 1))
    index = slice(start, data.draw(st.integers(-1, size)) if stride > 0 else
                  data.draw(st.sampled_from([None, -size - 1]) | st.integers(-1, start)), stride)
    value = data.draw(st.sampled_from([1.0, 2.5, 1e300, -3.0, 0.0, -0.0]))
    sums = eng.cmult(v, PlainMask.structured(size, index, value))
    sums_ref = ref_cmult(eng, ref, index, value)
    window_pattern = getattr(v, "_pattern", False)
    assert window_pattern is not False
    assert same_pattern(window_pattern, dense_pattern(eng, ref))
    finite = window_pattern is not None
    assert (v._cache is None) == finite
    assert type(sums) is (SparseVector if finite else SlotVector)
    if finite:
        assert sums.zero is window_pattern
    picks = len(range(size)[index])
    inherited = getattr(sums, "_pattern", False)
    if inherited is not False:
        assert same_pattern(inherited, dense_pattern(eng, sums_ref))
    if picks and np.signbit(value):
        assert inherited is False
    if finite and not np.signbit(value) and np.isfinite(sums_ref).all():
        assert inherited is not False
    for _ in range(data.draw(st.integers(0, 3))):
        k, i = data.draw(st.integers(-size, size)), data.draw(st.integers(0, size - 1))
        placed = eng.cmult(eng.rotate(sums, k), one_hot_mask(eng, i))
        assert bits(placed.slots) == bits(ref_cmult(eng, np.roll(sums_ref, -(k % size)), i, 1.0))
    assert bits(sums.slots) == bits(sums_ref)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_weight_update_runs_no_full_width_kernel(lam, monkeypatch):
    """Traffic guard: the weight update of a leveled step (desk scale:
    iris, hidden 16, 4096 slots) keeps every gradient row, its replication
    over the n row blocks, the L2 and learning-rate masks and the
    subtraction on the rows' slice runs: no rotation kernel and no pending
    sum build runs inside ``_updated_row``.  The one-step benchmark reads
    the same bits whether or not these stay sparse."""
    from henn import data
    from henn.enc_train import EncryptedTrainer
    from henn.losses import LossSpec
    from henn.nn import init_params

    batch = data.preprocess(data.load_iris())
    trainer = EncryptedTrainer(lazy_engine("leveled", 4096), batch,
                               init_params(batch.d, 16, batch.Y.shape[1], 0, eta=0.01, lam=lam),
                               LossSpec("sle2"))
    inside, calls = [False], Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += inside[0]
            return fn(*args)
        return wrapper

    for name in ("rotate_add", "rotate"):
        monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
    monkeypatch.setattr(SumVector, "_build", counted("sum", SumVector._build))
    update = type(trainer)._updated_row

    def guarded(self, *args):
        inside[0] = True
        try:
            return update(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(type(trainer), "_updated_row", guarded)
    trainer.iterate()
    assert sum(calls.values()) == 0, dict(calls)
    assert all(type(em.parts[0]) is SparseVector for em in trainer.W_enc + trainer.V_enc)


def test_training_step_builds_only_the_counted_lazy_vectors(monkeypatch):
    """Traffic guard: one leveled training step builds exactly these lazy
    vectors, so a fast path that silently falls back to a build shows here
    although its bits stay the same.  The keys name the form of each
    vector's zero: a float, or sign bits, which a cmult takes from a source
    with a negative slot.  With n = 8 rows, m = 4 hidden units and c = 3
    classes: the block-start sums of the c output columns, over dense
    windows, are read for the pattern that their first placement's cmult
    takes (3: two over sign bits, one over a float), and the
    activation-derivative grid and the error signal are slice cmults over
    sign bits whose slots the one-hot cmults of ``keep_only`` read (2); the
    first placement of each of the two matmuls starts its accumulator (2,
    one of each form); the c output weight rows are read by the dense
    product with the hidden re-layout (3), and the bias ones of that
    re-layout are its pending sum's base (1).  The m hidden columns'
    products of the input block and a weight row, doubled to the row-sum
    window of 1 + d = 4 slots, stay unread, and so do their block sums:
    the block-start cmult picks from the window's reach, the block sums
    inherit the pattern it sets, and the placements read their values.
    The rotations read are the shifted partial sums of the output matmul's
    windowed sums over 1 + m = 5 slots, one per column (3).  The pending
    sums built (9) are one per result column of the two matmuls (7), the
    hidden re-layout and the error signal.  The m + c gradient rows, their
    replications and the updated weight rows are slice runs (``_run``),
    which the step builds nowhere."""
    from henn.enc_train import EncryptedTrainer
    from henn.losses import LossSpec
    from henn.nn import init_params

    n, d, c, m = 8, 3, 3, 4
    batch = make_classification_batch(np.random.default_rng(0), n, d, c)
    eng = lazy_engine("leveled", 64)
    trainer = EncryptedTrainer(eng, batch, init_params(d, m, c, 0, eta=0.1), LossSpec("sle2"))

    built = Counter()
    build, rotated, summed = SparseVector._build, RotatedVector._build, SumVector._build

    def counted_build(v):
        zero = zero_form(v)
        support = "one-hot" if type(v.support) is int else type(v.support).__name__
        built[f"sparse {zero} {support}"] += 1
        return build(v)

    def counted_sum(v):
        built["sum"] += 1
        return summed(v)

    def counted_rotation(v):
        built["rotation"] += v.src is not None
        return rotated(v)

    monkeypatch.setattr(SparseVector, "_build", counted_build)
    monkeypatch.setattr(RotatedVector, "_build", counted_rotation)
    monkeypatch.setattr(SumVector, "_build", counted_sum)
    trainer.iterate()
    assert dict(built) == {"sparse bits slice": 4, "sparse bits one-hot": 1,
                           "sparse float slice": 5, "sparse float one-hot": 1, "rotation": 3,
                           "sum": 9}


def test_zscore_step_scans_each_input_row_once_and_keeps_its_products_sparse(monkeypatch):
    """Traffic guard for zscore-scaled inputs, which no benchmark workload
    has.  mult's unbuilt path takes a window-1 sparse row whose zeros are
    +0.0; a row cut from a matrix with negative entries has -0.0 zeros there,
    so each of the n = 150 input rows is scanned once (``_support``, cached on
    the row) and each of its products by a uniform gradient factor, n * m =
    150 * 16 at desk scale, is still sparse.  A dense product there made a
    zscore step about twice as slow."""
    from henn import data, engine
    from henn.enc_train import EncryptedTrainer
    from henn.losses import LossSpec
    from henn.nn import init_params

    batch = data.preprocess(data.load_iris(), "zscore")
    eng = lazy_engine("exact", 4096)
    trainer = EncryptedTrainer(eng, batch, init_params(batch.d, 16, batch.Y.shape[1], 0),
                               LossSpec("sle2"))
    assert type(_pattern(trainer.X_em.parts[0])) is np.ndarray      # negative entries
    rows = {id(r) for r in trainer.x_rows}
    scans, products = Counter(), Counter()
    support, mult = engine._support, SlotEngine.mult

    def counted_support(v):
        if getattr(v, "_support", False) is False:
            scans["row" if id(v) in rows else type(v).__name__] += 1
        return support(v)

    def counted_mult(self, a, b):
        out = mult(self, a, b)
        if type(a) is UniformVector and id(b) in rows:
            products[type(out).__name__] += 1
        return out

    monkeypatch.setattr(engine, "_support", counted_support)
    monkeypatch.setattr(SlotEngine, "mult", counted_mult)
    trainer.iterate()
    assert dict(scans) == {"row": 150}
    assert dict(products) == {"SparseVector": 150 * 16}


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_matmul_builds_its_accumulator_once_per_result_column(backend, monkeypatch):
    """Traffic guard: vr_matmul adds the n placed values of each of its p
    result columns into its accumulator as terms of one pending sum over
    that column's block sums, so the accumulator costs at most p full-width
    passes (sum builds, and adds that take the dense path), not one per
    placed value."""
    from henn.encoding import decode_matrix, encode_matrix
    from henn.linalg import vr_matmul

    n, k, p = 16, 8, 6
    rng = np.random.default_rng(0)
    A, B = rng.uniform(-1.0, 1.0, (n, k)), rng.uniform(-1.0, 1.0, (k, p))
    eng = lazy_engine(backend, 4096)
    a = encode_matrix(eng, A, Layout.FULL_MATRIX)
    b_t = encode_matrix(eng, B.T, Layout.FULL_MATRIX)
    passes = Counter()
    add, summed = SlotEngine.add, SumVector._build

    def counted_add(self, x, y):
        out = add(self, x, y)
        passes["dense add"] += type(out) is SlotVector
        return out

    def counted_sum(v):
        passes["sum"] += 1
        return summed(v)

    monkeypatch.setattr(SlotEngine, "add", counted_add)
    monkeypatch.setattr(SumVector, "_build", counted_sum)
    product = decode_matrix(eng, vr_matmul(eng, a, b_t))
    assert np.max(np.abs(product - A @ B)) < 1e-6
    assert passes["sum"] + passes["dense add"] <= p


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_matmul_column_stays_on_the_tile_slots(backend, monkeypatch):
    """Traffic guard: at desk scale (4096 slots, a 16x8 tile times an 8x8
    transposed tile, uniform in [-1, 1]), a row cut from the transposed tile
    is a sign-bit run, so its replication over the row blocks merges runs,
    the product multiplies two runs, each block-sum window stays unread
    while the block-start cmult picks from its reach, and the placements
    read the block sums' values and the pattern they inherit from the
    reach: one vr_matmul runs no full-width rotate_add kernel and no dense
    mult, builds no block-sum window or block-sum vector and scans the
    pattern of no vector it makes."""
    from henn import engine
    from henn.encoding import decode_matrix, encode_matrix
    from henn.linalg import vr_matmul

    rng = np.random.default_rng(0)
    A, B = rng.uniform(-1.0, 1.0, (16, 8)), rng.uniform(-1.0, 1.0, (8, 8))
    eng = lazy_engine(backend, 4096)
    a = encode_matrix(eng, A, Layout.FULL_MATRIX)
    b_t = encode_matrix(eng, B.T, Layout.FULL_MATRIX)
    operands = max(a.parts[0].uid, b_t.parts[0].uid)
    calls = Counter()
    rotate_add, mult = _kernels.rotate_add, SlotEngine.mult
    build, pattern = SparseVector._build, engine._pattern

    def counted_rotate_add(x, k):
        calls["full-width rotate_add"] += x.shape[0] == 4096
        return rotate_add(x, k)

    def counted_mult(self, x, y):
        out = mult(self, x, y)
        calls["dense mult"] += type(out) is SlotVector
        return out

    def counted_build(v):
        # the windows (window > 1) and the block sums (a strided slice)
        calls["block-sum build"] += v.window > 1 or (
            type(v.support) is slice and v.support.step not in (None, 1))
        return build(v)

    def counted_pattern(v):
        calls["pattern scan"] += v.uid > operands and getattr(v, "_pattern", False) is False
        return pattern(v)

    monkeypatch.setattr(_kernels, "rotate_add", counted_rotate_add)
    monkeypatch.setattr(SlotEngine, "mult", counted_mult)
    monkeypatch.setattr(SparseVector, "_build", counted_build)
    monkeypatch.setattr(engine, "_pattern", counted_pattern)
    product = vr_matmul(eng, a, b_t)
    assert sum(calls.values()) == 0, dict(calls)
    assert np.max(np.abs(decode_matrix(eng, product) - A @ B)) < 1e-6

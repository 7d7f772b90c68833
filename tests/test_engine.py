"""Slot engine contract: algebra, levels, purity, trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from henn import _kernels
from henn.encoding import (EncodedMatrix, Layout, keep_only, one_hot_mask, roll_fill,
                           segment_mask)
from henn.engine import (EngineConfig, FloodVector, OpTrace, PlainMask, ProductVector,
                         RotatedVector, SlotEngine, UniformVector, depth_report)
from henn.errors import DepthExhausted, InputTooLong, LengthMismatch

from conftest import bits


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
    assert EngineConfig(slots=16, backend="exact").slots == 16


def test_encrypt_pads_and_roundtrips(exact8):
    v = exact8.encrypt([1, 2, 3])
    assert np.array_equal(exact8.decrypt(v), [1, 2, 3, 0, 0, 0, 0, 0])
    assert np.array_equal(exact8.decrypt(exact8.encrypt([])), np.zeros(8))
    with pytest.raises(InputTooLong):
        exact8.encrypt(np.arange(9))


def test_leveled_encrypt_quantizes():
    eng = SlotEngine(EngineConfig(slots=8, logQ=990, logp=30))
    v = eng.encrypt([0.1])
    assert v.level == 33 == eng.config.level_budget
    assert v.scale_bits == 30
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


def test_length_mismatch():
    a = SlotEngine(EngineConfig(slots=8, backend="exact")).encrypt([1])
    other = SlotEngine(EngineConfig(slots=16, backend="exact"))
    b = other.encrypt([1])
    with pytest.raises(LengthMismatch):
        other.add(a, b)


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
    assert (type(eng.mult(t, x)) is ProductVector) == sparse
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
    """cmult of an unread rotation by a slice mask is a product, unbuilt,
    when the slice holds at most an eighth of the slots and every source slot
    times 0.0 is +0.0; the result, its uses in mult, add and sub, and the
    result and the rotation read afterwards are the dense ones."""
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
    sparse = (len(range(start, stop, step)) <= size // 8
              and (a.slots.view(np.uint64) < 0x7FF0000000000000).all())
    for op, ref in cases:
        r = eng.rotate(a, k)
        p = eng.cmult(r, mask)
        assert (type(p) is ProductVector) == sparse
        assert bits(op(p).slots) == bits(ref(want))
        assert bits(p.slots) == bits(want)
        assert bits(r.slots) == bits(rolled)


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
    assert type(kept.parts[0]) is FloodVector
    v = roll_fill(eng, kept)
    assert type(v) is UniformVector
    assert v._cache is None and kept.parts[0]._cache is None     # no slots were built
    assert v.value == em.parts[0].slots[3 * 64 + 5]
    assert len(v) == 4096 and v.level == (32 if backend == "leveled" else None)


@pytest.mark.parametrize("backend", ["exact", "leveled"])
def test_lazy_fast_paths_build_no_slots(backend):
    """The lazy paths that training and dvr_matmul take build no slots: two
    uniform operands of add, sub and mult give a uniform vector, mult reads a
    uniform left operand as one value, on the leveled backend a uniform
    times a sparse row is a product that add consumes unread, and a one-hot
    cmult of a rotation, added unread, builds neither the rotation nor the
    flood but one zero pattern of the source; a short slice cmult of a
    rotation of a non-negative source is such a product."""
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
    assert (type(p) is ProductVector) == (backend == "leveled")
    eng.add(d, p)
    assert getattr(p, "_cache", None) is None and u._cache is None
    # the placement loop: one-hot cmult of a rotation, added unread
    sums = eng.cmult(a, segment_mask(eng, 0, 64))
    acc = d
    for k in (3, 4095, 0):
        r = eng.rotate(sums, k)
        f = eng.cmult(r, one_hot_mask(eng, 7))
        acc = eng.add(acc, f)
        assert type(f) is FloodVector and f._cache is None
        assert r._cache is None and r.src is sums
        if k == 3:
            zero = sums._zero
    assert sums._zero is zero                     # one zero pattern per source
    assert getattr(r, "_zero", None) is None
    # a row cut from a rotation of a non-negative source: an unread product
    xm = eng.encrypt(np.linspace(0.0, 1.0, 4096))
    r = eng.rotate(xm, 10)
    row = eng.cmult(r, segment_mask(eng, 0, 5))
    assert type(row) is ProductVector and r.src is xm
    eng.add(d, row)
    if backend == "leveled":
        eng.add(d, eng.mult(u, row))
    assert row._cache is None and r._cache is None and u._cache is None


def test_lazy_forms_keep_the_trace():
    """A flood that turns uniform and one that replays (NaN in its source)
    record the same ops, uids and levels."""
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

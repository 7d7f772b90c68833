"""Slot engine contract: algebra, levels, purity, trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henn.engine import EngineConfig, OpTrace, SlotEngine, depth_report
from henn.errors import DepthExhausted, InputTooLong, LengthMismatch


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

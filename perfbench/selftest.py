#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every output check trips on a corrupted result, that the call
count check trips on a changed count or depth, that the printed
metric names and units are exactly those of BENCHMARK.json, that the
host-speed sampler subtracts and scales as documented, that the tracer
patches helpers where enc_train and linalg look them up and restores them,
and that run.py refuses to run in a directory without the package sources.
Takes about half a minute (it runs the desk workload a few times).
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time

import numpy as np

import run
from hostspeed import SpeedSampler
from tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def corrupt(a, delta):
    b = np.array(a, dtype=np.float64)
    b.flat[0] += delta
    return b


def test_training_checks():
    desk = run.WORKLOADS["iris-desk-exact"]
    ref = desk.reference(0)
    ep = run.run_episode(desk, 0, ref, run.load_hashes().get("iris-desk-exact", {}).get("0"))
    expect(ep.failures == [], f"desk seed 0 passes every check: {ep.failures}")
    state = desk.setup(0)
    desk.step(state)
    out = desk.outputs(state)
    expect(desk.check(out, ref) == [], "desk output matches the plain oracle")
    expect(desk.check({**out, "W": corrupt(out["W"], 1e-7)}, ref) != [],
           "exact weight check trips on a 1e-7 change")
    expect(run.check_digest(desk.digest({**out, "V": corrupt(out["V"], 1e-15)}), ep.digest) != [],
           "digest check trips on a last-bit change")

    paper = run.WORKLOADS["iris-paper-leveled"]
    pref = paper.reference(0)
    levels = [run.LEVEL_BUDGET - run.LEVELS_PER_ITER] * paper.hidden
    good = {"W": pref["W"], "V": pref["V"], "levels": levels}
    expect(paper.check(good, pref) == [], "leveled check accepts the oracle at level 19")
    expect(paper.check({**good, "W": corrupt(pref["W"], 2e-3)}, pref) != [],
           "leveled weight check trips on a 2e-3 change")
    expect(paper.check({**good, "levels": levels[:-1] + [levels[-1] + 1]}, pref) != [],
           "hidden-weight level check trips on one row at the wrong level")


def test_matmul_checks():
    mm = run.WORKLOADS["dvr-matmul-leveled"]
    ref = mm.reference(mm.inputs(0))
    good = {"P": ref["P"].copy(), "levels": [run.MATMUL_LEVEL] * 4}
    expect(mm.check(good, ref) == [], "matmul check accepts A@B at level 29")
    expect(mm.check({**good, "P": corrupt(ref["P"], 1e-5)}, ref) != [],
           "matmul check trips on a 1e-5 error")
    expect(mm.check({**good, "levels": [run.MATMUL_LEVEL - 1] * 4}, ref) != [],
           "matmul check trips on the wrong output level")
    expect(mm.check({**good, "P": ref["P"][:, :-1]}, ref) != [],
           "matmul check trips on the wrong shape")


def test_digest_check():
    expect(run.check_digest("ab" * 32, None) == [], "unrecorded seed passes the digest check")
    expect(run.check_digest("ab" * 32, "cd" * 32) != [], "digest mismatch fails")


def test_count_checks():
    counts = run.load_counts()
    for name, wl in run.WORKLOADS.items():
        rec = counts.get(name)
        expect(rec is not None and run.check_counts(wl, rec, rec) == [],
               f"{name}: counts recorded, at {wl.levels_per_step} levels per step")
    desk = run.WORKLOADS["iris-desk-exact"]
    rec = counts["iris-desk-exact"]
    more = {**rec, "engine.mult.calls": rec["engine.mult.calls"] + 1}
    expect(run.check_counts(desk, more, rec) != [], "count check trips on one more mult")
    deeper = {**rec, "engine.levels_per_iter": run.LEVELS_PER_ITER + 1}
    expect(run.check_counts(desk, deeper, deeper) != [],
           "depth check trips on 15 levels, even when recorded so")
    expect(run.check_counts(desk, rec, None) != [], "count check fails with nothing recorded")


def test_speed_sampler():
    sampler = SpeedSampler(4096)
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.1:
            sum(range(1000))
        t1 = time.perf_counter()
    n = len(sampler.samples)
    time.sleep(0.6)
    expect(n >= 3 and len(sampler.samples) == n, "sampler probes while active, and only then")
    inside = sum(e - s for s, e, _ in sampler.samples if t0 <= s and e <= t1)
    expect(inside > 0 and abs(sampler.busy(t0, t1) - (t1 - t0 - inside)) < 1e-12,
           "busy time leaves out the probes inside the window")
    fake = SpeedSampler(4096)
    fake.samples = [(0.0, 0.1, fake.reference / 2), (0.2, 0.3, fake.reference / 2),
                    (0.4, 0.5, fake.reference * 9), (5.0, 5.1, fake.reference)]
    expect(math.isclose(fake.speed(0.0, 1.0), 2.0) and math.isclose(fake.speed(2.0, 3.0), 4 / 3),
           "speed is the reference round over the median round inside, else over all")


def test_tracer_patches_lookup_sites():
    from henn import enc_train, encoding, linalg

    before = (enc_train.keep_only, linalg.one_hot_mask, encoding.roll_fill,
              enc_train.vr_matmul_repeated, enc_train.EncryptedTrainer.iterate)
    t = Tracer()
    with t.installed():
        expect(all(hasattr(f, "__wrapped__") for f in (
            enc_train.keep_only, enc_train.roll_fill, enc_train.prefix_mask,
            linalg.one_hot_mask, linalg.extract_row, enc_train.vr_matmul_repeated,
            encoding.windowed_sum, enc_train.EncryptedTrainer.iterate)),
            "helpers are wrapped in the modules that import them")
    after = (enc_train.keep_only, linalg.one_hot_mask, encoding.roll_fill,
             enc_train.vr_matmul_repeated, enc_train.EncryptedTrainer.iterate)
    expect(all(a is b for a, b in zip(before, after)), "uninstall restores every original")


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        res = run.run("iris-desk-exact", 0, 0.0, traced)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        label = f"trace {int(traced)}"
        expect(res["correct"] and res["failed"] == 0, f"{label} run is correct")
        expect(all(NAME.fullmatch(k) for k in got), f"{label} metric names are well formed")
        expect(got == want, f"{label} metrics and units are those in BENCHMARK.json (missing "
                            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
        if traced:
            expect(res["metrics"]["engine.levels_per_iter"]["value"] == run.LEVELS_PER_ITER,
                   "one sle2 iteration consumes 14 levels")


def test_refuses_without_sources():
    bare = run.SPANS_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "iris-desk-exact",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "run.py exits non-zero, printing no result, without src/henn")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    test_training_checks()
    test_matmul_checks()
    test_digest_check()
    test_count_checks()
    test_speed_sampler()
    test_tracer_patches_lookup_sites()
    test_metric_names()
    test_refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

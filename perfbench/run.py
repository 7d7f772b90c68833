#!/usr/bin/env python3
"""henn benchmark: seconds per encrypted step, set-up time, peak memory and
per-layer spans on three workloads.

    python3 perfbench/run.py --workload iris-paper-leveled --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  One run is single-threaded and repeats
episodes until ``--seconds`` have passed (at least one).  An episode is:
set up (load data, build the engine, encrypt inputs and weights), run one
step (``EncryptedTrainer.iterate`` or ``dvr_matmul``), decode, check.

``--trace 0`` prints the end-to-end metrics; its times are normalised to
the reference host speed (see ``hostspeed.py``).  ``--trace 1`` alternates an
untraced episode with a traced one, whose spans give the per-layer metrics;
the untraced one is the baseline for ``trace.overhead_s``.  Traced runs take
no host-speed probe, so their times are raw wall seconds.  A traced episode
also fails when its call counts differ from those in ``counts.json`` or its
step consumes another number of levels than the workload's schedule.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Single-threaded run: pin BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "henn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no henn sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import henn  # noqa: E402
from henn import _kernels, data, encoding, linalg, nn  # noqa: E402
from henn.enc_train import EncryptedTrainer  # noqa: E402
from henn.engine import EngineConfig, OpTrace, SlotEngine, depth_report  # noqa: E402
from henn.losses import LossSpec  # noqa: E402
from henn.train import train  # noqa: E402

if not Path(henn.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: henn imported from {henn.__file__}, not from {SRC}")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from hostspeed import SpeedSampler  # noqa: E402
from tracer import (ENCODING_FNS, ENGINE_OPERANDS, ENGINE_OPS, LINALG_FNS,  # noqa: E402
                    MASK_BUILDERS, Tracer)

HERE = Path(__file__).resolve().parent
HASHES = HERE / "hashes.json"
COUNTS = HERE / "counts.json"
SPANS_DIR = ROOT / ".perfbench"

LOGQ, LOGP = 990, 30
LOSS, ETA = "sle2", 0.01
LEVEL_BUDGET = LOGQ // LOGP      # 33
LEVELS_PER_ITER = 14             # sle2 schedule, see enc_train.py
MATMUL_LEVELS = 4                # extract_row, mult, block-start mask, placement
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 25, 0.05, 100  # extra set-ups per episode
PLAIN_REPEATS = 51


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class TrainingWorkload:
    """One sle2 iteration of the 3-layer net on iris (150 x 4 plus bias)."""

    levels_per_step = LEVELS_PER_ITER

    hidden: int
    slots: int
    backend: str
    weight_tol: float            # max |W - W_plain|, |V - V_plain| after one step

    def config(self):
        return EngineConfig(logQ=LOGQ, logp=LOGP, slots=self.slots, backend=self.backend)

    def inputs(self, seed):
        return seed              # the program receives only the init seed

    def setup(self, seed, trace=None):
        batch = data.preprocess(data.load_iris())
        params = nn.init_params(batch.d, self.hidden, batch.Y.shape[1], seed, eta=ETA)
        engine = SlotEngine(self.config(), trace=trace)
        return EncryptedTrainer(engine, batch, params, LossSpec(LOSS))

    def step(self, trainer):
        trainer.iterate()

    def outputs(self, trainer):
        W, V = trainer.current_weights()
        return {"W": W, "V": V, "levels": [em.parts[0].level for em in trainer.W_enc]}

    def reference(self, seed):
        rep = train(data.preprocess(data.load_iris()), loss=LOSS, hidden=self.hidden, eta=ETA,
                    iterations=1, backend="plain", seed=seed)
        return {"W": rep.W, "V": rep.V}

    def check(self, out, ref):
        fails = []
        for key in ("W", "V"):
            err = float(np.max(np.abs(out[key] - ref[key])))
            if not err <= self.weight_tol:
                fails.append(f"{key} differs from the plain oracle by {err:.3g} > {self.weight_tol:g}")
        if self.backend == "leveled":
            want = LEVEL_BUDGET - LEVELS_PER_ITER
            if any(lv != want for lv in out["levels"]):
                fails.append(f"hidden-weight levels {sorted(set(out['levels']))}, expected {want}")
        return fails

    def digest(self, out):
        return sha256_of(out["W"], out["V"])

    def plain_step_s(self, seed):
        """Median seconds of one plaintext oracle iteration on the same problem."""
        batch = data.preprocess(data.load_iris())
        params = nn.init_params(batch.d, self.hidden, batch.Y.shape[1], seed, eta=ETA)
        spec = LossSpec(LOSS)
        times = []
        for _ in range(PLAIN_REPEATS):
            t0 = time.perf_counter()
            fw = nn.forward(params, batch.X)
            gW, gV = nn.backward(params, batch.X, batch.Y, fw, spec)
            nn.sgd_step(params, gW, gV)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


@dataclass
class MatmulState:
    engine: SlotEngine
    team_a: list
    team_b: list
    tiles: list | None = None


# dvr-matmul-leveled: A is TILES row tiles of TILE_ROWS_A x INNER, and B^T is
# TILES row tiles of TILE_ROWS_B x INNER.
TILES, TILE_ROWS_A, TILE_ROWS_B, INNER = 2, 64, 32, 32
MATMUL_TOL = 1e-6
MATMUL_LEVEL = LEVEL_BUDGET - MATMUL_LEVELS     # 29


@dataclass(frozen=True)
class MatmulWorkload:
    """dvr_matmul of A (two 64x32 row tiles) by B (B^T as two 32x32 tiles)."""

    levels_per_step = MATMUL_LEVELS

    slots: int = 32768

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (TILES * TILE_ROWS_A, INNER))
        B = rng.uniform(-1.0, 1.0, (INNER, TILES * TILE_ROWS_B))
        return A, B

    def setup(self, inputs, trace=None):
        A, B = inputs
        engine = SlotEngine(EngineConfig(logQ=LOGQ, logp=LOGP, slots=self.slots,
                                         backend="leveled"), trace=trace)
        ra, rb, full = TILE_ROWS_A, TILE_ROWS_B, encoding.Layout.FULL_MATRIX
        team_a = [encoding.encode_matrix(engine, A[t * ra:(t + 1) * ra], full)
                  for t in range(TILES)]
        team_b = [encoding.encode_matrix(engine, B.T[t * rb:(t + 1) * rb], full)
                  for t in range(TILES)]
        return MatmulState(engine, team_a, team_b)

    def step(self, state):
        state.tiles = linalg.dvr_matmul(state.engine, state.team_a, state.team_b)

    def outputs(self, state):
        P = linalg.assemble_tiles(state.engine, state.tiles, TILES, TILES)
        return {"P": P, "levels": [t.parts[0].level for t in state.tiles]}

    def reference(self, inputs):
        A, B = inputs
        return {"P": A @ B}

    def check(self, out, ref):
        fails = []
        if out["P"].shape != ref["P"].shape:
            return [f"product shape {out['P'].shape}, expected {ref['P'].shape}"]
        err = float(np.max(np.abs(out["P"] - ref["P"])))
        if not err <= MATMUL_TOL:
            fails.append(f"product differs from numpy A@B by {err:.3g} > {MATMUL_TOL:g}")
        if any(lv != MATMUL_LEVEL for lv in out["levels"]):
            fails.append(f"product tile levels {sorted(set(out['levels']))}, expected {MATMUL_LEVEL}")
        return fails

    def digest(self, out):
        return sha256_of(out["P"])

    def plain_step_s(self, seed):
        return 0.0               # no henn.nn oracle step on this workload


WORKLOADS = {
    "iris-paper-leveled": TrainingWorkload(hidden=120, slots=32768, backend="leveled",
                                           weight_tol=1e-3),
    "dvr-matmul-leveled": MatmulWorkload(),
    "iris-desk-exact": TrainingWorkload(hidden=16, slots=4096, backend="exact",
                                        weight_tol=1e-9),
}


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def load_hashes():
    return json.loads(HASHES.read_text()) if HASHES.is_file() else {}


def load_counts():
    return json.loads(COUNTS.read_text()) if COUNTS.is_file() else {}


def check_digest(digest, recorded):
    """A recorded digest must match; a seed with none recorded passes."""
    if recorded is None or digest == recorded:
        return []
    return [f"output sha256 {digest[:16]}... differs from the recorded {recorded[:16]}..."]


def count_metrics(metrics):
    """The per-layer figures that are counts, {name: value}."""
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def check_counts(wl, counts, recorded):
    """The step's depth must be the workload's schedule, and every count must
    equal the recorded one (the counts do not depend on the seed)."""
    fails = []
    if counts["engine.levels_per_iter"] != wl.levels_per_step:
        fails.append(f"step consumed {counts['engine.levels_per_iter']} levels, "
                     f"expected {wl.levels_per_step}")
    if recorded is None:
        return fails + ["no call counts recorded for this workload"]
    for k in sorted(set(counts) | set(recorded)):
        if counts.get(k) != recorded.get(k):
            fails.append(f"{k} is {counts.get(k)}, recorded {recorded.get(k)}")
    return fails


# --- one episode --------------------------------------------------------------

@dataclass
class Episode:
    setup: tuple                 # (start, end) perf_counter readings
    step: tuple | None           # None when the step raised
    failures: list
    digest: str | None = None

    @property
    def setup_s(self):
        return self.setup[1] - self.setup[0]

    @property
    def step_s(self):
        return None if self.step is None else self.step[1] - self.step[0]


def run_episode(wl, inputs, ref, recorded, trace=None):
    """Set up, step, decode and check once; ops go to the OpTrace `trace` if
    given.  An exception in the step (DepthExhausted included) fails the
    episode."""
    t0 = time.perf_counter()
    state = wl.setup(inputs, trace)
    setup = (t0, time.perf_counter())
    try:
        if trace is not None:
            trace.begin_phase("step")
        t0 = time.perf_counter()
        wl.step(state)
        step = (t0, time.perf_counter())
        if trace is not None:
            trace.begin_phase("decode")
        out = wl.outputs(state)
    except Exception as e:  # a failed step is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Episode(setup, None, [f"step raised {type(e).__name__}: {e}"])
    digest = wl.digest(out)
    fails = wl.check(out, ref) + check_digest(digest, recorded)
    return Episode(setup, step, fails, digest)


def setup_samples(wl, inputs):
    """Extra set-ups, discarded, so set-up time is a median of several taken
    throughout the run, like the steps.  Returns their (start, end) windows."""
    windows = []
    while len(windows) < SETUP_MAX_REPEATS and (
            len(windows) < SETUP_REPEATS or sum(e - s for s, e in windows) < SETUP_MIN_S):
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        windows.append((t0, time.perf_counter()))
        del state
    return windows


def layer_metrics(wl, tracer, trace):
    """Per-layer figures of one traced episode (set-up, one step, decode)."""
    s = tracer.summary()
    zero = (0, 0.0, 0.0)
    m = {}
    mb = 0.0
    slots = wl.slots
    for op in ENGINE_OPS:
        calls, total, _ = s.get(f"engine.{op}", zero)
        m[f"engine.{op}.calls"] = (calls, "count")
        m[f"engine.{op}.s"] = (total, "s")
        m[f"engine.{op}.us"] = (total / calls * 1e6 if calls else 0.0, "us")
        mb += calls * ENGINE_OPERANDS[op] * slots * 8 / 1e6
    m["engine.bytes_computed_mb"] = (mb, "MB")
    m["engine.levels_per_iter"] = (depth_report(trace).phase("step").depth, "count")
    for fn in ENCODING_FNS:
        calls, _, own = s.get(f"encoding.{fn}", zero)
        m[f"encoding.{fn}.calls"] = (calls, "count")
        m[f"encoding.{fn}.self_s"] = (own, "s")
    built = sum(s.get(f"encoding.{b}", zero)[0] for b in MASK_BUILDERS)
    m["encoding.masks.built"] = (built, "count")
    m["encoding.masks.distinct"] = (len(tracer.mask_keys), "count")
    m["encoding.masks.distinct_share"] = (len(tracer.mask_keys) / built if built else 1.0, "ratio")
    for fn in LINALG_FNS:
        calls, _, own = s.get(f"linalg.{fn}", zero)
        m[f"linalg.{fn}.calls"] = (calls, "count")
        m[f"linalg.{fn}.self_s"] = (own, "s")
    m["enc_train.grad_w_row.s"] = (s.get("enc_train.grad_w_row", zero)[1], "s")
    m["enc_train.grad_v_row.s"] = (s.get("enc_train.grad_v_row", zero)[1], "s")
    m["enc_train.iterate.self_s"] = (s.get("enc_train.iterate", zero)[2], "s")
    m["enc_train.setup_s"] = (s.get("enc_train.setup", zero)[1], "s")
    for stage, secs in tracer.stages().items():
        m[f"stage.{stage}_s"] = (secs, "s")
    return m


def traced_episode(wl, inputs, ref, recorded):
    """One episode under the span wrappers and an OpTrace.  Returns the
    episode, its per-layer figures (None if the step raised) and the tracer."""
    tracer, trace = Tracer(), OpTrace()
    with tracer.installed():
        ep = run_episode(wl, inputs, ref, recorded, trace)
    return ep, (layer_metrics(wl, tracer, trace) if ep.step is not None else None), tracer


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "has_numba": _kernels.HAS_NUMBA,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "vector_kb": {name: wl.slots * 8 // 1024 for name, wl in WORKLOADS.items()},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --- main ---------------------------------------------------------------------

def run_untraced(wl, inputs, ref, recorded, seconds):
    """Episodes under the host-speed sampler; end-to-end metrics."""
    episodes, setups, steps, speeds = [], [], [], []
    sampler = SpeedSampler(wl.slots)
    t_start = time.perf_counter()
    while not episodes or time.perf_counter() - t_start < seconds:
        with sampler:
            t0 = time.perf_counter()
            extra = setup_samples(wl, inputs)
            ep = run_episode(wl, inputs, ref, recorded)
            speed = sampler.speed(t0, time.perf_counter())
        episodes.append(ep)
        _report("untraced", ep)
        speeds.append(speed)
        setups += [sampler.busy(*w) * speed for w in extra + [ep.setup]]
        if ep.step is not None:
            steps.append(sampler.busy(*ep.step) * speed)
    raw = [ep.step_s for ep in episodes if ep.step is not None]
    if raw:
        print(f"# wall step median {statistics.median(raw):.4f} s, host speed median "
              f"{statistics.median(speeds):.3f} of reference (min {min(speeds):.3f}, "
              f"max {max(speeds):.3f}), {len(sampler.samples)} probes")
    return episodes, {
        "step_s": (statistics.median(steps) if steps else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_traced(wl, workload, seed, inputs, ref, recorded, seconds):
    """Pairs of an untraced and a traced episode; per-layer metrics."""
    plain, traced, layers = [], [], []
    recorded_counts = load_counts().get(workload)
    t_start = time.perf_counter()
    while not plain or time.perf_counter() - t_start < seconds:
        ep = run_episode(wl, inputs, ref, recorded)
        plain.append(ep)
        _report("untraced", ep)
        tep, m, tracer = traced_episode(wl, inputs, ref, recorded)
        traced.append(tep)
        if m is not None:
            tep.failures += check_counts(wl, count_metrics(m), recorded_counts)
            layers.append(m)
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.save(SPANS_DIR / f"spans-{workload}-{seed}.npz")
        _report("traced", tep)
        del tracer
    metrics = {}
    for k in layers[0] if layers else ():
        vals = [lm[k][0] for lm in layers]
        unit = layers[0][k][1]
        metrics[k] = (vals[0] if unit == "count" else statistics.median(vals), unit)
    metrics["nn.plain_iter_s"] = (wl.plain_step_s(seed), "s")
    raw = [ep.step_s for ep in plain if ep.step is not None]
    raw_traced = [ep.step_s for ep in traced if ep.step is not None]
    overhead = (statistics.median(raw_traced) - statistics.median(raw)
                if raw and raw_traced else 0.0)
    metrics["trace.overhead_s"] = (overhead, "s")
    return plain + traced, metrics


def run(workload, seed, seconds, traced):
    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed)
    ref = wl.reference(inputs)
    recorded = load_hashes().get(workload, {}).get(str(seed))
    print(f"# workload {workload} seed {seed} trace {int(traced)} "
          f"digest {'recorded' if recorded else 'not recorded for this seed'}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    if traced:
        episodes, metrics = run_traced(wl, workload, seed, inputs, ref, recorded, seconds)
    else:
        episodes, metrics = run_untraced(wl, inputs, ref, recorded, seconds)
    failed = sum(1 for ep in episodes if ep.failures)
    for ep in episodes:
        for f in ep.failures:
            print(f"# FAIL {f}")
    return {
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report(kind, ep):
    step = "raised" if ep.step_s is None else f"{ep.step_s:.4f} s"
    status = "ok" if not ep.failures else "FAIL"
    print(f"# {kind} episode: setup {ep.setup_s:.4f} s, step {step}, "
          f"sha256 {ep.digest or '-'}, {status}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Training orchestration: plaintext oracle loop, encrypted loop, reports.

The same configuration runs on three backends: ``plain`` (numpy oracle),
``exact`` (slot arithmetic in float64) and ``leveled`` (fixed-point slots with
a depth budget).  Reports separate the deterministic payload (hashed, byte
stable for a fixed seed) from wall-clock timing.  Sigmoid-based losses default
to the true sigmoid on the plain backend and to a least-squares cubic on the
encrypted backends; pass an explicit polynomial to pin both paths to the same
evaluation, e.g. for oracle comparisons.
"""

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .enc_train import EncryptedTrainer
from .engine import BACKENDS, EngineConfig, OpTrace, SlotEngine, depth_report
from .errors import DepthExhausted, NonFinite
from .losses import LossSpec, PolyApprox, fit_sigmoid_poly
from .nn import ModelParams, backward, evaluate, forward, init_params, sgd_step

TRAIN_BACKENDS = ("plain", *BACKENDS)
DEFAULT_HIDDEN_CLASSIFICATION = 120
DEFAULT_HIDDEN_REGRESSION = 12
DEFAULT_POLY_DEGREE = 3
DEFAULT_POLY_RANGE = 8.0


def default_sigmoid_poly() -> PolyApprox:
    return fit_sigmoid_poly(DEFAULT_POLY_DEGREE, -DEFAULT_POLY_RANGE, DEFAULT_POLY_RANGE)


def payload_digest(payload: dict) -> str:
    """sha256 of a report payload as compact JSON with sorted keys."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_hidden(task: str) -> int:
    return DEFAULT_HIDDEN_CLASSIFICATION if task == "classification" else DEFAULT_HIDDEN_REGRESSION


@dataclass
class TrainingReport:
    backend: str
    loss_kind: str
    seed: int
    eta: float
    lam: float
    hidden: int
    initial: dict
    iterations: list = field(default_factory=list)
    halted: dict | None = None
    W: np.ndarray | None = None
    V: np.ndarray | None = None
    engine: dict | None = None
    sigmoid_poly: dict | None = None
    depth: dict | None = None
    timing: dict = field(default_factory=dict)

    @property
    def iterations_completed(self) -> int:
        return len(self.iterations)

    def payload(self) -> dict:
        """Deterministic portion of the report (no wall-clock values)."""
        return {
            "backend": self.backend,
            "loss": self.loss_kind,
            "seed": self.seed,
            "eta": self.eta,
            "lambda": self.lam,
            "hidden": self.hidden,
            "engine": self.engine,
            "sigmoid_poly": self.sigmoid_poly,
            "initial": self.initial,
            "iterations": self.iterations,
            "halted": self.halted,
            "depth": self.depth,
            "W": None if self.W is None else [[float(x) for x in r] for r in self.W],
            "V": None if self.V is None else [[float(x) for x in r] for r in self.V],
        }

    def payload_hash(self) -> str:
        return payload_digest(self.payload())

    def to_document(self) -> dict:
        return {"payload": self.payload(), "payload_sha256": self.payload_hash(),
                "timing": self.timing}


def _metrics(params: ModelParams, batch, spec: LossSpec) -> dict:
    out = evaluate(params, batch.X, batch.Y, spec,
                   labels=batch.labels if batch.task == "classification" else None)
    return {k: float(v) for k, v in out.items()}


def resolve_sigmoid_poly(kind: str, backend: str, sigmoid_poly):
    """"auto": true sigmoid on plain, default cubic on encrypted backends."""
    spec_probe = LossSpec(kind)
    if not spec_probe.uses_sigmoid:
        return None
    if isinstance(sigmoid_poly, PolyApprox):
        return sigmoid_poly
    if sigmoid_poly == "auto":
        return None if backend == "plain" else default_sigmoid_poly()
    if sigmoid_poly is None:
        if backend != "plain":
            raise ValueError(f"{kind!r} on backend {backend!r} needs a sigmoid polynomial")
        return None
    raise ValueError(f"bad sigmoid_poly {sigmoid_poly!r}")


def train(batch, *, loss: str = "sle2", hidden: int | None = None, eta: float = 0.01,
          lam: float = 0.0, iterations: int = 2, backend: str = "plain", seed: int = 0,
          engine_config: EngineConfig | None = None, sigmoid_poly="auto",
          instrument: bool = False, test_batch=None) -> TrainingReport:
    """Full-batch gradient descent for `iterations` passes.

    Weights start from normal(0, 0.05) under the given seed, identically on
    every backend.  On the leveled backend a depth-exhausted run halts with a
    structured report instead of raising; on every backend so does the first
    iteration with a non-finite metric or weight (reason ``non_finite``),
    the ``sle`` log-likelihood at its singularity included; at the initial
    weights that halt names iteration 0 and no step runs.  Either halt
    keeps the rows and weights of the last complete iteration.  An
    encrypted backend refuses an ``engine_config`` made for another backend;
    the plain backend ignores it.
    """
    if backend not in TRAIN_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {TRAIN_BACKENDS}")
    m = default_hidden(batch.task) if hidden is None else hidden
    c = batch.Y.shape[1]
    poly = resolve_sigmoid_poly(loss, backend, sigmoid_poly)
    spec = LossSpec(loss, sigmoid_poly=poly)
    params = init_params(batch.d, m, c, seed, eta=eta, lam=lam)

    report = TrainingReport(
        backend=backend, loss_kind=loss, seed=seed, eta=eta, lam=lam, hidden=m, initial={},
        sigmoid_poly=poly.to_dict() if poly is not None else None,
    )
    try:
        report.initial = _metrics(params, batch, spec)
        _attach_test(report.initial, params, test_batch, spec)
    except NonFinite as e:
        report.initial = {}
        _halt(report, 0, str(e))
        iterations = 0          # no finite start to step from

    t_start = time.perf_counter()
    per_iter_ms = []

    if backend == "plain":
        for it in range(1, iterations + 1):
            t0 = time.perf_counter()
            trace = forward(params, batch.X)
            gW, gV = backward(params, batch.X, batch.Y, trace, spec)
            step = sgd_step(params, gW, gV)
            per_iter_ms.append((time.perf_counter() - t0) * 1000.0)
            if not _record(report, it, step, batch, test_batch, spec, None):
                break
            params = step
    else:
        cfg = engine_config if engine_config is not None else EngineConfig(backend=backend)
        if cfg.backend != backend:
            raise ValueError(f"engine_config is for backend {cfg.backend!r}, not {backend!r}")
        trace_obj = OpTrace() if instrument else None
        engine = SlotEngine(cfg, trace=trace_obj)
        trainer = EncryptedTrainer(engine, batch, params, spec)
        report.engine = {**cfg.to_dict(), "level_budget": cfg.level_budget}
        params = ModelParams(*trainer.current_weights(), eta=eta, lam=lam)
        for it in range(1, iterations + 1):
            if trace_obj is not None:
                trace_obj.begin_phase(f"iteration {it}")
            t0 = time.perf_counter()
            try:
                trainer.iterate()
            except DepthExhausted as e:
                report.halted = {"reason": "depth_exhausted",
                                 "iterations_completed": it - 1, "detail": str(e)}
                break
            per_iter_ms.append((time.perf_counter() - t0) * 1000.0)
            step = ModelParams(*trainer.current_weights(), eta=eta, lam=lam)
            if not _record(report, it, step, batch, test_batch, spec, trainer.min_level()):
                break
            params = step
        if trace_obj is not None:
            rep = depth_report(trace_obj)
            report.depth = {
                "max_phase_depth": rep.max_phase_depth,
                "min_level": rep.min_level,
                "phases": [
                    {"label": p.label, "depth": p.depth, "min_level": p.min_level}
                    for p in rep.phases if p.label.startswith("iteration")
                ],
            }

    report.W, report.V = params.W, params.V
    report.timing = {"wall_ms_total": (time.perf_counter() - t_start) * 1000.0,
                     "per_iteration_ms": per_iter_ms,
                     "created_unix": time.time()}
    return report


def _record(report, it, params: ModelParams, batch, test_batch, spec, min_level) -> bool:
    """Append iteration ``it``'s metrics row.  If a metric raises NonFinite
    (the ``sle`` log-likelihood at its singularity) or a metric or a weight
    is not finite, set a ``non_finite`` halt instead and return False."""
    try:
        row = {"iter": it, **_metrics(params, batch, spec), "min_level": min_level}
        _attach_test(row, params, test_batch, spec)
    except NonFinite as e:
        return _halt(report, it, str(e))
    for name, val in [*row.items(), ("W", params.W), ("V", params.V)]:
        if val is not None and not np.all(np.isfinite(val)):
            return _halt(report, it, f"{name} = {val}" if np.ndim(val) == 0 else
                         f"{name} has {np.count_nonzero(~np.isfinite(val))} non-finite entries")
    report.iterations.append(row)
    return True


def _halt(report, it, what: str) -> bool:
    """Set the ``non_finite`` halt of iteration ``it`` (0: the initial
    metrics), which keeps the iterations before it; False."""
    report.halted = {"reason": "non_finite", "iterations_completed": max(it - 1, 0),
                     "detail": f"{what} at iteration {it}"}
    return False


def _attach_test(row, params, test_batch, spec):
    if test_batch is None:
        return
    m = _metrics(params, test_batch, spec)
    for key, val in m.items():
        row["test_" + key] = val


def compare_backends(batch, *, backends=("plain", "exact"), seed: int = 0,
                     seed_b: int | None = None, **kwargs) -> dict:
    """Run the same configuration under two backends and report divergence.

    seed_b forces a different seed on the second run (diagnostic FAIL path).
    ``halted`` holds each run's halt record (None for a run that completed).
    Sigmoid-based losses get one shared polynomial so both paths evaluate the
    same arithmetic."""
    kind = kwargs.get("loss", "sle2")
    if LossSpec(kind).uses_sigmoid and not isinstance(kwargs.get("sigmoid_poly"), PolyApprox):
        kwargs["sigmoid_poly"] = default_sigmoid_poly()
    rep_a = train(batch, backend=backends[0], seed=seed, **kwargs)
    rep_b = train(batch, backend=backends[1], seed=seed if seed_b is None else seed_b, **kwargs)
    dw = float(np.max(np.abs(rep_a.W - rep_b.W)))
    dv = float(np.max(np.abs(rep_a.V - rep_b.V)))
    deltas = []
    for ra, rb in zip(rep_a.iterations, rep_b.iterations):
        deltas.append({"iter": ra["iter"], "loss_delta": abs(ra["loss"] - rb["loss"])})
    return {
        "backends": list(backends),
        "max_weight_divergence": max(dw, dv),
        "per_iteration": deltas,
        "iterations": [rep_a.iterations_completed, rep_b.iterations_completed],
        "halted": [rep_a.halted, rep_b.halted],
        "reports": (rep_a, rep_b),
    }


# --- loss-variant comparison protocol ------------------------------------------


def _experiment_repeat(args):
    """One repeat's rows from train(), training metrics named ``train_*``."""
    train_batch, test_batch, kind, lr, hidden, seed, epochs = args
    report = train(train_batch, loss=kind, hidden=hidden, eta=lr, iterations=epochs,
                   backend="plain", seed=seed, sigmoid_poly=None, test_batch=test_batch)
    if report.halted is not None:
        raise NonFinite(f"{kind}@{lr:g} seed {seed}: {report.halted['detail']}")
    return [{key if key.startswith("test_") else "train_" + key: row[key]
             for key in row if key not in ("iter", "min_level")}
            for row in report.iterations]


def run_sle_experiment(train_batch, test_batch, *, losses=("sle1", "sle2"),
                       lrs=(0.12, 0.01), repeats: int = 12, epochs: int = 30,
                       hidden: int = 120, seed: int = 0, workers: int = 1) -> dict:
    """Repeat plaintext training (``train`` on the plain backend) for each
    (loss, learning-rate) pair and average the per-epoch curves:
    ``train_loss`` plus ``train_accuracy`` (classification) or ``train_rmse``
    (regression), and the same ``test_*`` keys when there is a test batch.

    Per-repeat seeds derive as seed + repeat index, so parallel execution
    (workers > 1) aggregates identically to the sequential run.  A repeat
    that halts on a non-finite metric or weight raises NonFinite naming
    ``kind@lr``, its seed and the halt detail, which names the iteration.
    """
    out = {"hidden": hidden, "repeats": repeats, "epochs": epochs, "seed": seed,
           "curves": {}}
    for kind in losses:
        for lr in lrs:
            jobs = [(train_batch, test_batch, kind, lr, hidden, seed + r, epochs)
                    for r in range(repeats)]
            if workers > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    all_rows = list(pool.map(_experiment_repeat, jobs))
            else:
                all_rows = [_experiment_repeat(j) for j in jobs]
            curve = {}
            for key in all_rows[0][0]:
                per_epoch = np.array([[rows[e][key] for rows in all_rows] for e in range(epochs)])
                curve[key + "_mean"] = [float(v) for v in per_epoch.mean(axis=1)]
            curve["per_repeat_train_loss"] = [[float(r["train_loss"]) for r in rows]
                                              for rows in all_rows]
            out["curves"][f"{kind}@{lr:g}"] = curve
    return out

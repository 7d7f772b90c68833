"""Batch command-line front end.

Subcommands: ``train`` (one training run, JSON report + checkpoint + CSV
series), ``compare`` (plain vs exact backend oracle check), ``sle-experiment``
(the loss-variant comparison protocol), ``fit-sigmoid`` (least-squares sigmoid
polynomial).  Every flag can also come from a JSON config file (--config) or
from an HENN_<FLAG> environment variable; precedence is flag > env > config
file > default.

Exit codes: 0 ok, 2 configuration error, 3 depth budget exhausted (report is
still written with the iterations achieved), 4 backend divergence in compare.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import data as dio
from .engine import EngineConfig
from .errors import HennError
from .losses import PolyApprox, fit_sigmoid_poly
from .train import compare_backends, payload_digest, run_sle_experiment, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPTH = 3
EXIT_DIVERGED = 4

LOSS_CHOICES = ("sle", "sle1", "sle1s", "sle2", "mse")
DATASET_CHOICES = ("iris", "mnist", "boston")
BACKEND_CHOICES = ("plain", "exact", "leveled")


def _resolve(args, config_file: dict, defaults: dict):
    """flag > HENN_<NAME> env > config file > default."""
    out = {}
    for key, default in defaults.items():
        val = getattr(args, key, None)
        if val is None:
            env = os.environ.get("HENN_" + key.upper())
            if env is not None:
                val = env
            elif key in config_file:
                val = config_file[key]
            else:
                val = default
        if val is not None and default is not None and not isinstance(val, type(default)):
            if isinstance(default, bool):
                val = str(val).strip().lower() in {"1", "true", "yes", "on"}
            else:
                val = type(default)(val)
        out[key] = val
    return out


def _load_config_file(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _engine_config(opts) -> EngineConfig:
    """Engine parameters of an encrypted-backend run."""
    return EngineConfig(logN=opts["logn"], logQ=opts["logq"], logp=opts["logp"],
                        slots=opts["slots"], backend=opts["backend"])


def _load_dataset(opts):
    name = opts["dataset"]
    data_dir = Path(opts["data_dir"]) if opts["data_dir"] else None
    if name == "iris":
        ds = dio.load_iris(data_dir / "iris.csv" if data_dir else None)
    elif name == "boston":
        if data_dir is None:
            raise HennError("boston needs --data-dir with boston.csv")
        ds = dio.load_boston(data_dir / "boston.csv")
        ds = dio.split_dataset(ds, 0.2, seed=opts["seed"])
    elif name == "mnist":
        if data_dir is None:
            raise HennError("mnist needs --data-dir with the four IDX files")
        ds = dio.load_mnist_pair(
            data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte",
            data_dir / "t10k-images-idx3-ubyte", data_dir / "t10k-labels-idx1-ubyte")
    else:
        raise HennError(f"unknown dataset {name!r}")
    if opts.get("subset", 0):
        ds = ds.subset(opts["subset"])
    return ds


def _default_scheme(name):
    return "zscore" if name == "boston" else "minmax"


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


TRAIN_DEFAULTS = {
    "dataset": "iris", "loss": "sle2", "hidden": 0, "lr": 0.01, "iters": 2,
    "backend": "plain", "seed": 0, "l2": 0.0, "scheme": "", "subset": 0,
    "data_dir": "", "out": "henn-out", "logn": 16, "logq": 990, "logp": 30,
    "slots": 32768, "trace": False, "yes_huge": False,
}


def cmd_train(args) -> int:
    opts = _resolve(args, _load_config_file(args.config), TRAIN_DEFAULTS)
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(opts)
    if opts["dataset"] == "mnist" and opts["backend"] != "plain" and not opts["yes_huge"]:
        raise HennError("mnist on an encrypted backend is expensive; pass --yes-huge "
                        "(and a subset that fits the slot count)")
    scheme = opts["scheme"] or _default_scheme(opts["dataset"])
    batch, test_batch = dio.preprocess_pair(ds, scheme)
    engine_cfg = _engine_config(opts) if opts["backend"] != "plain" else None
    report = train(
        batch,
        loss=opts["loss"],
        hidden=opts["hidden"] or None,
        eta=opts["lr"],
        lam=opts["l2"],
        iterations=opts["iters"],
        backend=opts["backend"],
        seed=opts["seed"],
        engine_config=engine_cfg,
        instrument=opts["trace"],
        test_batch=test_batch,
    )
    doc = report.to_document()
    doc["payload"]["dataset"] = {"name": ds.name, "n": ds.n, "d": ds.d,
                                 "classes": ds.class_count, "scheme": scheme}
    doc["payload_sha256"] = payload_digest(doc["payload"])
    _write_json(outdir / "report.json", doc)
    dio.save_checkpoint(
        outdir / "checkpoint.json",
        config={"dataset": opts["dataset"], "loss": opts["loss"], "eta": opts["lr"],
                "lambda": opts["l2"], "backend": opts["backend"], "scheme": scheme,
                "engine": report.engine},
        W=report.W, V=report.V, loss_kind=opts["loss"],
        sigmoid_poly=(PolyApprox.from_dict(report.sigmoid_poly)
                      if report.sigmoid_poly is not None else None),
        seed=opts["seed"],
        iterations_completed=report.iterations_completed)
    _write_series(outdir / "series.csv", report, batch.task)
    print(f"wrote {outdir}/report.json ({report.iterations_completed} iterations)")
    if report.halted:
        print(f"halted: {report.halted['reason']} after "
              f"{report.halted['iterations_completed']} iterations")
        return EXIT_DEPTH
    return EXIT_OK


def _write_series(path, report, task):
    metric = "accuracy" if task == "classification" else "rmse"
    header = ["iter", "loss", "acc" if task == "classification" else "rmse"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerow([0, report.initial["loss"], report.initial.get(metric, "")])
        for row in report.iterations:
            w.writerow([row["iter"], row["loss"], row.get(metric, "")])


COMPARE_DEFAULTS = {
    "dataset": "iris", "loss": "sle2", "hidden": 8, "lr": 0.01, "iters": 2,
    "seed": 0, "seed_b": -1, "l2": 0.0, "scheme": "", "subset": 0, "data_dir": "",
    "out": "henn-out", "tolerance": 1e-9, "logn": 16, "logq": 990, "logp": 30,
    "slots": 0,
}


def cmd_compare(args) -> int:
    opts = _resolve(args, _load_config_file(args.config), COMPARE_DEFAULTS)
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(opts)
    batch, _ = dio.preprocess_pair(ds, opts["scheme"] or _default_scheme(opts["dataset"]))
    slots = opts["slots"] or _fit_slots(batch.n, batch.d, opts["hidden"], batch.Y.shape[1])
    cfg = EngineConfig(logN=opts["logn"], logQ=opts["logq"], logp=opts["logp"],
                       slots=slots, backend="exact")
    result = compare_backends(
        batch, backends=("plain", "exact"), seed=opts["seed"],
        seed_b=None if opts["seed_b"] < 0 else opts["seed_b"],
        loss=opts["loss"], hidden=opts["hidden"], eta=opts["lr"], lam=opts["l2"],
        iterations=opts["iters"], engine_config=cfg)
    passed = result["max_weight_divergence"] <= opts["tolerance"]
    doc = {
        "backends": result["backends"],
        "max_weight_divergence": result["max_weight_divergence"],
        "tolerance": opts["tolerance"],
        "per_iteration": result["per_iteration"],
        "pass": passed,
    }
    _write_json(outdir / "compare.json", doc)
    print(f"max weight divergence {result['max_weight_divergence']:.3e} "
          f"({'PASS' if passed else 'FAIL'} at {opts['tolerance']:.1e})")
    return EXIT_OK if passed else EXIT_DIVERGED


def _fit_slots(n, d, m, c, floor=64):
    need = max(n * (1 + d), n * (1 + m), n * c, floor)
    slots = 1
    while slots < need:
        slots *= 2
    return slots


EXPERIMENT_DEFAULTS = {
    "dataset": "mnist", "subset": 5000, "hidden": 120, "lrs": "0.12,0.01",
    "losses": "sle1,sle2", "repeats": 12, "epochs": 30, "seed": 0,
    "data_dir": "", "out": "henn-out", "workers": 1, "scheme": "none",
}


def cmd_sle_experiment(args) -> int:
    opts = _resolve(args, _load_config_file(args.config), EXPERIMENT_DEFAULTS)
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(opts)
    train_batch, test_batch = dio.preprocess_pair(ds, opts["scheme"])
    lrs = [float(x) for x in str(opts["lrs"]).split(",") if x]
    losses = [x.strip() for x in str(opts["losses"]).split(",") if x]
    result = run_sle_experiment(
        train_batch, test_batch, losses=losses, lrs=lrs,
        repeats=opts["repeats"], epochs=opts["epochs"], hidden=opts["hidden"],
        seed=opts["seed"], workers=opts["workers"])
    result["dataset"] = {"name": ds.name, "n": ds.n, "d": ds.d}
    doc = {"payload": result, "payload_sha256": payload_digest(result)}
    _write_json(outdir / "sle_experiment.json", doc)
    for lr in lrs:
        path = outdir / f"curves_lr{lr:g}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            cols = ["epoch"]
            for kind in losses:
                for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
                    if key + "_mean" in result["curves"][f"{kind}@{lr:g}"]:
                        cols.append(f"{kind}_{key}")
            w.writerow(cols)
            for e in range(opts["epochs"]):
                row = [e + 1]
                for kind in losses:
                    curve = result["curves"][f"{kind}@{lr:g}"]
                    for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
                        if key + "_mean" in curve:
                            row.append(curve[key + "_mean"][e])
                w.writerow(row)
        print(f"wrote {path}")
    return EXIT_OK


FIT_DEFAULTS = {"degree": 3, "lo": -8.0, "hi": 8.0, "grid": 512, "out": "sigmoid_poly.json"}


def cmd_fit_sigmoid(args) -> int:
    opts = _resolve(args, _load_config_file(args.config), FIT_DEFAULTS)
    poly = fit_sigmoid_poly(opts["degree"], opts["lo"], opts["hi"], opts["grid"])
    doc = {"degree": opts["degree"], "grid_points": opts["grid"], **poly.to_dict()}
    _write_json(opts["out"], doc)
    print(f"degree {opts['degree']} on [{opts['lo']}, {opts['hi']}]: "
          f"max abs error {poly.max_abs_error:.3e} -> {opts['out']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="henn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, defaults):
        p.add_argument("--config", default=None, help="JSON file with flag defaults")
        if "dataset" in defaults:
            p.add_argument("--dataset", choices=DATASET_CHOICES)
            p.add_argument("--data-dir", dest="data_dir")
            p.add_argument("--subset", type=int)
            p.add_argument("--scheme", choices=("none", "minmax", "zscore", ""))
            p.add_argument("--seed", type=int)
            p.add_argument("--out")

    p = sub.add_parser("train", help="run one training job")
    common(p, TRAIN_DEFAULTS)
    p.add_argument("--loss", choices=LOSS_CHOICES)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--backend", choices=BACKEND_CHOICES)
    p.add_argument("--l2", type=float)
    p.add_argument("--logn", type=int)
    p.add_argument("--logq", type=int)
    p.add_argument("--logp", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--trace", action="store_const", const=True)
    p.add_argument("--yes-huge", dest="yes_huge", action="store_const", const=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="plain vs exact backend equivalence")
    common(p, COMPARE_DEFAULTS)
    p.add_argument("--loss", choices=LOSS_CHOICES)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--seed-b", dest="seed_b", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--logn", type=int)
    p.add_argument("--logq", type=int)
    p.add_argument("--logp", type=int)
    p.add_argument("--slots", type=int)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sle-experiment", help="loss-variant comparison protocol")
    common(p, EXPERIMENT_DEFAULTS)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lrs")
    p.add_argument("--losses")
    p.add_argument("--repeats", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(fn=cmd_sle_experiment)

    p = sub.add_parser("fit-sigmoid", help="least-squares sigmoid polynomial")
    p.add_argument("--config", default=None)
    p.add_argument("--degree", type=int)
    p.add_argument("--range", dest="range_", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fit_sigmoid)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "range_", None):
        args.lo, args.hi = args.range_
    try:
        return args.fn(args)
    except (HennError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

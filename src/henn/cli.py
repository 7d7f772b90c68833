"""Batch command-line front end.

Subcommands: ``train`` (one training run, JSON report + checkpoint + CSV
series), ``compare`` (plain vs exact backend oracle check), ``sle-experiment``
(the loss-variant comparison protocol), ``fit-sigmoid`` (least-squares sigmoid
polynomial).  Every flag can also come from a JSON config file (--config) or
from an HENN_<FLAG> environment variable; precedence is flag > env > config
file > default.  A config key that no subcommand defines, or an env or config
value outside a flag's choices, is a configuration error.  Every JSON artifact
is strict JSON: no NaN or Infinity tokens.

Exit codes: 0 ok, 2 configuration error, 3 depth budget exhausted (report is
still written with the iterations achieved), 4 backend divergence in compare,
5 non-finite value (a train report is still written with the last finite
iteration; any other artifact that would hold one is not written).
"""

import argparse
import csv
import inspect
import json
import os
import sys
from pathlib import Path

from . import data as dio
from .enc_train import fit_slots
from .engine import EngineConfig
from .errors import HennError, NonFinite
from .losses import LOSS_KINDS, PolyApprox, fit_sigmoid_poly
from .train import (DEFAULT_POLY_DEGREE, DEFAULT_POLY_RANGE, TRAIN_BACKENDS, compare_backends,
                    payload_digest, run_sle_experiment, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPTH = 3
EXIT_DIVERGED = 4
EXIT_NON_FINITE = 5

BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
              **dict.fromkeys(("0", "false", "no", "off"), False)}
DATASET_CHOICES = ("iris", "mnist", "boston")
CHOICES = {"dataset": DATASET_CHOICES, "loss": LOSS_KINDS, "backend": TRAIN_BACKENDS,
           "scheme": ("none", "minmax", "zscore", "")}


def _resolve(args, defaults: dict):
    """flag > HENN_<NAME> env > config file > default.  A config key that no
    command defines, or a value outside the key's CHOICES, is an error."""
    config_file = _load_config_file(args.config)
    known = {key for _, table, _ in COMMANDS.values() for key in table}
    unknown = sorted(set(config_file) - known)
    if unknown:
        raise HennError(f"{args.config}: unknown config keys {unknown}")
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
                word = str(val).strip().lower()
                if word not in BOOL_WORDS:
                    raise HennError(f"{key} {val!r} is not one of {sorted(BOOL_WORDS)}")
                val = BOOL_WORDS[word]
            else:
                try:
                    val = type(default)(val)
                except TypeError:
                    raise HennError(f"{key} {val!r} is not a {type(default).__name__}") from None
        if key in CHOICES and val not in CHOICES[key]:
            raise HennError(f"{key} {val!r} is not one of {CHOICES[key]}")
        out[key] = val
    return out


def _load_config_file(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise HennError(f"{path}: a config file holds one JSON object")
    return doc


def _engine_config(opts) -> EngineConfig:
    """Engine parameters of an encrypted-backend run."""
    return EngineConfig(logQ=opts["logq"], logp=opts["logp"], slots=opts["slots"],
                        backend=opts["backend"])


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
    else:  # mnist
        if data_dir is None:
            raise HennError("mnist needs --data-dir with the four IDX files")
        ds = dio.load_mnist_pair(
            data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte",
            data_dir / "t10k-images-idx3-ubyte", data_dir / "t10k-labels-idx1-ubyte")
    if opts.get("subset", 0):
        ds = ds.subset(opts["subset"])
    return ds


def _default_scheme(name):
    return "zscore" if name == "boston" else "minmax"


TRAIN_DEFAULTS = {
    "dataset": "iris", "loss": "sle2", "hidden": 0, "lr": 0.01, "iters": 2,
    "backend": "plain", "seed": 0, "l2": 0.0, "scheme": "", "subset": 0,
    "data_dir": "", "out": "henn-out", "logq": EngineConfig.logQ, "logp": EngineConfig.logp,
    "slots": EngineConfig.slots, "trace": False, "yes_huge": False,
}


def cmd_train(opts) -> int:
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
    dio.write_json(outdir / "report.json", doc)
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
        return EXIT_NON_FINITE if report.halted["reason"] == "non_finite" else EXIT_DEPTH
    return EXIT_OK


def _write_series(path, report, task):
    metric = "accuracy" if task == "classification" else "rmse"
    header = ["iter", "loss", "acc" if task == "classification" else "rmse"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerow([0, report.initial.get("loss", ""), report.initial.get(metric, "")])
        for row in report.iterations:
            w.writerow([row["iter"], row["loss"], row.get(metric, "")])


COMPARE_DEFAULTS = {
    "dataset": "iris", "loss": "sle2", "hidden": 8, "lr": 0.01, "iters": 2,
    "seed": 0, "seed_b": -1, "l2": 0.0, "scheme": "", "subset": 0, "data_dir": "",
    "out": "henn-out", "tolerance": 1e-9, "logq": EngineConfig.logQ, "logp": EngineConfig.logp,
    "slots": 0,
}


def cmd_compare(opts) -> int:
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(opts)
    batch, _ = dio.preprocess_pair(ds, opts["scheme"] or _default_scheme(opts["dataset"]))
    slots = opts["slots"] or fit_slots(batch.n, 1 + batch.d, opts["hidden"], batch.Y.shape[1],
                                        floor=64)
    cfg = _engine_config({**opts, "slots": slots, "backend": "exact"})
    result = compare_backends(
        batch, backends=("plain", "exact"), seed=opts["seed"],
        seed_b=None if opts["seed_b"] < 0 else opts["seed_b"],
        loss=opts["loss"], hidden=opts["hidden"], eta=opts["lr"], lam=opts["l2"],
        iterations=opts["iters"], engine_config=cfg)
    non_finite = [h for h in result["halted"] if h and h["reason"] == "non_finite"]
    passed = not non_finite and result["max_weight_divergence"] <= opts["tolerance"]
    doc = {
        "backends": result["backends"],
        "max_weight_divergence": result["max_weight_divergence"],
        "tolerance": opts["tolerance"],
        "per_iteration": result["per_iteration"],
        "halted": result["halted"],
        "pass": passed,
    }
    dio.write_json(outdir / "compare.json", doc)
    for backend, h in zip(result["backends"], result["halted"]):
        if h:
            print(f"{backend} halted: {h['reason']} after {h['iterations_completed']} iterations")
    print(f"max weight divergence {result['max_weight_divergence']:.3e} "
          f"({'PASS' if passed else 'FAIL'} at {opts['tolerance']:.1e})")
    if non_finite:
        return EXIT_NON_FINITE
    return EXIT_OK if passed else EXIT_DIVERGED


EXPERIMENT_DEFAULTS = {
    "dataset": "mnist", "subset": 5000, "hidden": 120, "lrs": "0.12,0.01",
    "losses": "sle1,sle2", "repeats": 12, "epochs": 30, "seed": 0,
    "data_dir": "", "out": "henn-out", "workers": 1, "scheme": "none",
}


def cmd_sle_experiment(opts) -> int:
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
    dio.write_json(outdir / "sle_experiment.json", doc)
    for lr in lrs:
        cols = {}
        for kind in losses:
            curve = result["curves"][f"{kind}@{lr:g}"]
            cols.update({f"{kind}_{key.removesuffix('_mean')}": col
                         for key, col in curve.items() if key.endswith("_mean")})
        path = outdir / f"curves_lr{lr:g}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["epoch", *cols])
            w.writerows([e + 1, *(col[e] for col in cols.values())] for e in range(opts["epochs"]))
        print(f"wrote {path}")
    return EXIT_OK


FIT_DEFAULTS = {
    "degree": DEFAULT_POLY_DEGREE, "lo": -DEFAULT_POLY_RANGE, "hi": DEFAULT_POLY_RANGE,
    "grid": inspect.signature(fit_sigmoid_poly).parameters["grid_points"].default,
    "out": "sigmoid_poly.json",
}


def cmd_fit_sigmoid(opts) -> int:
    poly = fit_sigmoid_poly(opts["degree"], opts["lo"], opts["hi"], opts["grid"])
    doc = {"degree": opts["degree"], "grid_points": opts["grid"], **poly.to_dict()}
    dio.write_json(opts["out"], doc)
    print(f"degree {opts['degree']} on [{opts['lo']}, {opts['hi']}]: "
          f"max abs error {poly.max_abs_error:.3e} -> {opts['out']}")
    return EXIT_OK


COMMANDS = {
    "train": (cmd_train, TRAIN_DEFAULTS, "run one training job"),
    "compare": (cmd_compare, COMPARE_DEFAULTS, "plain vs exact backend equivalence"),
    "sle-experiment": (cmd_sle_experiment, EXPERIMENT_DEFAULTS, "loss-variant comparison protocol"),
    "fit-sigmoid": (cmd_fit_sigmoid, FIT_DEFAULTS, "least-squares sigmoid polynomial"),
}


def build_parser() -> argparse.ArgumentParser:
    """One ``--key-with-dashes`` flag per key of each command's defaults table;
    fit-sigmoid takes its ``lo``/``hi`` keys as one ``--range LO HI`` pair."""
    ap = argparse.ArgumentParser(prog="henn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, defaults, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON file with flag defaults")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_const", const=True)
            elif key not in ("lo", "hi"):
                p.add_argument(flag, dest=key, type=type(default), choices=CHOICES.get(key))
        if "lo" in defaults:
            p.add_argument("--range", dest="range_", nargs=2, type=float, metavar=("LO", "HI"))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "range_", None):
        args.lo, args.hi = args.range_
    fn, defaults, _ = COMMANDS[args.command]
    try:
        return fn(_resolve(args, defaults))
    except NonFinite as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NON_FINITE
    except (HennError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""CLI surface: flags, files, exit codes, env/config precedence."""

import argparse
import csv
import json
import os

import numpy as np
import pytest

from henn import cli
from henn import data as dio


def run(argv):
    return cli.main(argv)


def test_train_iris_plain_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--dataset", "iris", "--loss", "sle2", "--hidden", "6",
                "--iters", "2", "--backend", "plain", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["dataset"] == {"name": "iris", "n": 150, "d": 4,
                                            "classes": 3, "scheme": "minmax"}
    assert len(report["payload"]["iterations"]) == 2
    assert "payload_sha256" in report and "timing" in report
    ckpt = dio.load_checkpoint(out / "checkpoint.json")
    assert ckpt["W"].shape == (6, 5)
    with open(out / "series.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iter", "loss", "acc"]
    assert len(rows) == 4  # header + initial + 2 iterations


def test_train_bad_flag_exits_config_error(tmp_path):
    code = run(["train", "--dataset", "boston", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG  # boston without --data-dir


def test_train_depth_exhaustion_exit_code(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--dataset", "iris", "--loss", "sle2", "--hidden", "4",
                "--iters", "3", "--backend", "leveled", "--slots", "1024",
                "--logq", "300", "--seed", "0", "--out", str(out)])
    assert code == cli.EXIT_DEPTH
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["halted"]["reason"] == "depth_exhausted"


def test_train_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["train", "--dataset", "iris", "--hidden", "5", "--iters", "2",
            "--backend", "exact", "--slots", "1024", "--seed", "11"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    pa = json.loads((a / "report.json").read_text())
    pb = json.loads((b / "report.json").read_text())
    assert pa["payload_sha256"] == pb["payload_sha256"]
    assert json.dumps(pa["payload"], sort_keys=True) == json.dumps(pb["payload"], sort_keys=True)


def test_boston_regression_run(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, (506, 13))
    t = X @ rng.uniform(-1, 1, 13) + rng.normal(0, 0.5, 506)
    datadir = tmp_path / "data"
    datadir.mkdir()
    np.savetxt(datadir / "boston.csv", np.hstack([X, t[:, None]]), delimiter=",", fmt="%.6f")
    out = tmp_path / "run"
    code = run(["train", "--dataset", "boston", "--loss", "mse", "--backend", "plain",
                "--hidden", "4", "--iters", "3", "--data-dir", str(datadir),
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "rmse" in report["payload"]["iterations"][0]
    assert report["payload"]["dataset"]["scheme"] == "zscore"
    with open(out / "series.csv") as f:
        assert f.readline().strip() == "iter,loss,rmse"


def test_compare_pass_and_divergence_exit(tmp_path):
    ok = run(["compare", "--dataset", "iris", "--hidden", "8", "--iters", "2",
              "--seed", "5", "--out", str(tmp_path / "ok")])
    assert ok == 0
    doc = json.loads((tmp_path / "ok" / "compare.json").read_text())
    assert doc["pass"] is True and doc["max_weight_divergence"] <= 1e-9
    bad = run(["compare", "--dataset", "iris", "--hidden", "8", "--iters", "2",
               "--seed", "5", "--seed-b", "6", "--out", str(tmp_path / "bad")])
    assert bad == cli.EXIT_DIVERGED


def test_fit_sigmoid_cli(tmp_path):
    out = tmp_path / "poly.json"
    assert run(["fit-sigmoid", "--degree", "3", "--range", "-8", "8",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degree"] == 3 and len(doc["coefficients"]) == 4
    out7 = tmp_path / "poly7.json"
    assert run(["fit-sigmoid", "--degree", "7", "--range", "-8", "8",
                "--out", str(out7)]) == 0
    assert json.loads(out7.read_text())["max_abs_error"] <= doc["max_abs_error"]
    out1 = tmp_path / "poly1.json"
    assert run(["fit-sigmoid", "--degree", "1", "--range", "-6", "6",
                "--out", str(out1)]) == 0
    assert abs(json.loads(out1.read_text())["coefficients"][0] - 0.5) < 1e-9


def write_mnist_fixture(tmp_path):
    """Random 28 x 28 IDX images and labels: 80 train and 20 test records."""
    rng = np.random.default_rng(1)
    n, side = 80, 28
    images = rng.integers(0, 256, (n, side * side), dtype=np.uint8)
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    datadir = tmp_path / "data"
    datadir.mkdir()
    dio.write_idx_images(datadir / "train-images-idx3-ubyte", images)
    dio.write_idx_labels(datadir / "train-labels-idx1-ubyte", labels)
    dio.write_idx_images(datadir / "t10k-images-idx3-ubyte", images[:20])
    dio.write_idx_labels(datadir / "t10k-labels-idx1-ubyte", labels[:20])
    return datadir


def test_sle_experiment_smoke(tmp_path):
    datadir = write_mnist_fixture(tmp_path)
    out = tmp_path / "run"
    code = run(["sle-experiment", "--data-dir", str(datadir), "--subset", "60",
                "--hidden", "8", "--repeats", "1", "--epochs", "2",
                "--lrs", "0.12,0.01", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "sle_experiment.json").read_text())
    assert set(doc["payload"]["curves"]) == {"sle1@0.12", "sle1@0.01",
                                             "sle2@0.12", "sle2@0.01"}
    for lr in ("0.12", "0.01"):
        path = out / f"curves_lr{lr}.csv"
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "epoch" and len(rows) == 3


def test_diverging_sle_experiment_exits_non_finite_and_writes_no_report(tmp_path, capsys):
    datadir = write_mnist_fixture(tmp_path)
    out = tmp_path / "run"
    code = run(["sle-experiment", "--data-dir", str(datadir), "--subset", "60",
                "--hidden", "8", "--repeats", "1", "--epochs", "8", "--losses", "sle2",
                "--lrs", "50", "--out", str(out)])
    assert code == 5
    assert "sle2@50 seed 0" in capsys.readouterr().err
    assert not (out / "sle_experiment.json").exists()


def test_mnist_encrypted_requires_yes_huge(tmp_path):
    rng = np.random.default_rng(2)
    datadir = tmp_path / "data"
    datadir.mkdir()
    dio.write_idx_images(datadir / "train-images-idx3-ubyte",
                         rng.integers(0, 256, (30, 784), dtype=np.uint8))
    dio.write_idx_labels(datadir / "train-labels-idx1-ubyte",
                         rng.integers(0, 10, 30, dtype=np.uint8))
    dio.write_idx_images(datadir / "t10k-images-idx3-ubyte",
                         rng.integers(0, 256, (10, 784), dtype=np.uint8))
    dio.write_idx_labels(datadir / "t10k-labels-idx1-ubyte",
                         rng.integers(0, 10, 10, dtype=np.uint8))
    code = run(["train", "--dataset", "mnist", "--backend", "exact", "--subset", "8",
                "--hidden", "2", "--iters", "1", "--data-dir", str(datadir),
                "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG


def test_config_file_and_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 3, "iters": 1, "seed": 2}))
    out = tmp_path / "run"
    monkeypatch.setenv("HENN_ITERS", "2")
    code = run(["train", "--dataset", "iris", "--backend", "plain",
                "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # env beats config file; flag would beat both
    assert len(report["payload"]["iterations"]) == 2
    assert report["payload"]["hidden"] == 3
    assert report["payload"]["seed"] == 2


def test_encrypted_sle1_checkpoint_keeps_the_default_cubic(tmp_path):
    """The checkpoint names the polynomial the run evaluated, so it can be rerun."""
    from henn.train import default_sigmoid_poly

    out = tmp_path / "run"
    code = run(["train", "--dataset", "iris", "--loss", "sle1", "--hidden", "4", "--iters", "1",
                "--backend", "exact", "--slots", "1024", "--seed", "2", "--out", str(out)])
    assert code == 0
    poly = dio.load_checkpoint(out / "checkpoint.json")["sigmoid_poly"]
    assert poly.to_dict() == default_sigmoid_poly().to_dict()
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["sigmoid_poly"] == poly.to_dict()


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_diverging_run_exits_non_finite_with_strict_json(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--lr", "50", "--iters", "6", "--out", str(out)])
    assert code == cli.EXIT_NON_FINITE == 5
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    json.loads((out / "checkpoint.json").read_text(), parse_constant=_refuse_constant)
    halted = report["payload"]["halted"]
    assert halted["reason"] == "non_finite" and halted["iterations_completed"] == 3
    assert len(report["payload"]["iterations"]) == 3
    for path in out.iterdir():
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text, path.name


def test_sle_singularity_exits_non_finite_and_writes_the_finite_iterations(tmp_path):
    """The sle log-likelihood diverges at iteration 5 of this run; the
    report, checkpoint and series still hold the four finite iterations."""
    out = tmp_path / "run"
    code = run(["train", "--dataset", "iris", "--loss", "sle", "--hidden", "8", "--lr", "5",
                "--iters", "20", "--backend", "plain", "--out", str(out)])
    assert code == cli.EXIT_NON_FINITE
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    halted = report["payload"]["halted"]
    assert halted["reason"] == "non_finite" and halted["iterations_completed"] == 4
    assert halted["detail"].endswith("at iteration 5")
    json.loads((out / "checkpoint.json").read_text(), parse_constant=_refuse_constant)
    with open(out / "series.csv", newline="") as f:
        assert [row[0] for row in csv.reader(f)] == ["iter", "0", "1", "2", "3", "4"]


def test_unknown_config_key_fails_before_any_work(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hiden": 3, "iters": 1}))
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    # a key of another command is allowed, so one file serves train and compare
    cfg.write_text(json.dumps({"hidden": 3, "iters": 1, "tolerance": 1e-6}))
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK


def test_env_and_config_values_obey_the_flag_types_and_choices(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": "sle3", "iters": 1}))
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    cfg.write_text(json.dumps({"hidden": [3], "iters": 1}))
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    monkeypatch.setenv("HENN_BACKEND", "ckks")
    assert run(["train", "--iters", "1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_bool_env_and_config_values_are_bool_words_or_errors(tmp_path, monkeypatch):
    args = cli.build_parser().parse_args(["train"])
    for word, want in [("1", True), ("Yes", True), ("on", True), ("0", False),
                       ("false", False), (" OFF ", False), ("no", False)]:
        monkeypatch.setenv("HENN_TRACE", word)
        assert cli._resolve(args, cli.TRAIN_DEFAULTS)["trace"] is want, word
    out = tmp_path / "run"
    for word in ("ture", "2", ""):
        monkeypatch.setenv("HENN_TRACE", word)
        assert run(["train", "--iters", "1", "--out", str(out)]) == cli.EXIT_CONFIG, word
    monkeypatch.delenv("HENN_TRACE")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"yes_huge": "maybe"}))
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_compare_of_diverging_runs_keeps_both_halts_and_exits_non_finite(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--lr", "50", "--iters", "6", "--hidden", "8", "--out", str(out)])
    assert code == cli.EXIT_NON_FINITE
    doc = json.loads((out / "compare.json").read_text(), parse_constant=_refuse_constant)
    assert [h["reason"] for h in doc["halted"]] == ["non_finite", "non_finite"]
    assert [h["iterations_completed"] for h in doc["halted"]] == [3, 3]
    assert doc["pass"] is False


PARENT_OPTIONS = {
    "train": ["--backend", "--config", "--data-dir", "--dataset", "--hidden", "--iters",
              "--l2", "--logp", "--logq", "--loss", "--lr", "--out", "--scheme",
              "--seed", "--slots", "--subset", "--trace", "--yes-huge"],
    "compare": ["--config", "--data-dir", "--dataset", "--hidden", "--iters", "--l2", "--logp",
                "--logq", "--loss", "--lr", "--out", "--scheme", "--seed", "--seed-b", "--slots",
                "--subset", "--tolerance"],
    "sle-experiment": ["--config", "--data-dir", "--dataset", "--epochs", "--hidden", "--losses",
                       "--lrs", "--out", "--repeats", "--scheme", "--seed", "--subset",
                       "--workers"],
    "fit-sigmoid": ["--config", "--degree", "--grid", "--out", "--range"],
}


def test_cli_surface_is_the_command_tables():
    ap = cli.build_parser()
    subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli.COMMANDS) == set(PARENT_OPTIONS)
    for name, (_, defaults, _) in cli.COMMANDS.items():
        sub = subparsers.choices[name]
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == set(PARENT_OPTIONS[name]), name
        for key, default in defaults.items():
            if key in ("lo", "hi"):
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                assert getattr(ap.parse_args([name, flag]), key) is True
                assert getattr(ap.parse_args([name]), key) is None
                continue
            value = cli.CHOICES[key][-1] if key in cli.CHOICES else "7"
            parsed = getattr(ap.parse_args([name, flag, value]), key)
            assert type(parsed) is type(default) and parsed == type(default)(value), flag
    args = ap.parse_args(["fit-sigmoid", "--range", "-3", "4"])
    assert args.range_ == [-3.0, 4.0]

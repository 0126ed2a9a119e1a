"""Write the artifacts and messages of a fixed list of seeded CLI runs.

    PYTHONPATH=<tree>/src python scripts/cli_snapshot.py OUT

Each run calls u2reg.cli.run_cli in-process with OUT as the working
directory, so its artifacts land in OUT; next to them go <name>.stdout,
<name>.stderr and <name>.code. The list covers every subcommand, each model
kind, every method, --config (one benchmark takes its lists as JSON lists),
stdout output, each subcommand's --help (at 100 columns) and twenty-one rejected
invocations (names starting with "reject-", which exit 1). The benchmark
runs also reach the training engine's early stopping (all five methods,
patience 2), rbf grids over two sigmas, an mlp grid with dropout, a grid
with one failing rho = 1e308 cell, (K, fold) items that train on 64 or 65
rows, so their pooled grid search forms blocks of two row counts, folds
whose test block keeps no uncorrupted row, a run that scores no item
at all (benchmark-every-item-fails, which exits 2) and per-K point files
in a directory whose name holds a dot.
Warnings are written as "Category: message" lines without their source
location, which differs between checkouts. Run it once per checkout into
two directories and compare them with `diff -r`: a refactor that keeps the
CLI's behaviour leaves no difference.
"""

import contextlib
import io
import json
import os
import sys
import warnings

from u2reg.cli import ARG_TABLE, run_cli

TRAIN = ("train", "--data", "cor.csv", "--max-epochs", "4", "--patience", "4", "--seed", "5")
RUNS = [
    ("generate", ["generate", "--n", "200", "--d", "3", "--k", "40", "--seed", "1",
                  "--out", "gen.csv"]),
    ("generate-strict", ["generate", "--n", "60", "--d", "2", "--k", "50", "--corruption-mode",
                         "strict", "--task", "high-noise", "--seed", "2", "--out", "strict.csv"]),
    ("generate-clean", ["generate", "--n", "200", "--d", "3", "--k", "0", "--seed", "3",
                        "--out", "clean.csv"]),
    ("corrupt", ["corrupt", "--data", "clean.csv", "--k", "40", "--seed", "4", "--out", "cor.csv"]),
    *((f"train-{m}", [*TRAIN, "--method", m, "--out", f"{m}.json", "--history", f"{m}-history.csv"])
      for m in ("u2", "lu", "mse", "mae", "huber")),
    ("train-rbf", [*TRAIN, "--model", "rbf", "--sigma", "1.5", "--lambda", "0.01",
                   "--out", "rbf.json"]),
    ("train-mlp", [*TRAIN, "--model", "mlp", "--hidden", "8,4", "--dropout", "0.25",
                   "--out", "mlp.json"]),
    ("train-config", [*TRAIN, "--config", "config.json", "--max-epochs", "3",
                      "--out", "config-model.json"]),
    ("predict", ["predict", "--data", "cor.csv", "--model-file", "u2.json", "--out", "u2-preds.csv"]),
    ("predict-rbf", ["predict", "--data", "gen.csv", "--model-file", "rbf.json",
                     "--out", "rbf-preds.csv"]),
    ("predict-mlp-stdout", ["predict", "--data", "cor.csv", "--model-file", "mlp.json"]),
    ("benchmark", ["benchmark", "--n", "120", "--d", "3", "--k", "25,50", "--methods",
                   "u2,lu,mse,mae,huber", "--folds", "2", "--max-epochs", "3", "--rho-grid", "0.5,1",
                   "--lam-grid", "0.01,0.1", "--seed", "6", "--out", "bench.json",
                   "--table", "bench.txt", "--points", "bench-points.csv"]),
    ("benchmark-rbf-stdout", ["benchmark", "--data", "cor.csv", "--methods", "mse", "--model", "rbf",
                              "--sigma-grid", "1,2", "--folds", "2", "--max-epochs", "2",
                              "--lam-grid", "0.1"]),
    ("benchmark-early-stop", ["benchmark", "--n", "120", "--d", "3", "--k", "50", "--methods",
                              "u2,lu,mse,mae,huber", "--folds", "2", "--batch-size", "8",
                              "--max-epochs", "60", "--patience", "2", "--rho-grid", "0.5,1", "--lam-grid", "0.01,0.1",
                              "--seed", "8", "--out", "bench-stop.json", "--points",
                              "bench-stop-points.csv"]),
    ("benchmark-rbf-u2", ["benchmark", "--data", "cor.csv", "--methods", "u2", "--model", "rbf",
                          "--sigma-grid", "1,2", "--rho-grid", "0.5,1", "--lam-grid", "0.01",
                          "--folds", "2", "--max-epochs", "5", "--seed", "9",
                          "--out", "bench-rbf-u2.json"]),
    ("benchmark-mlp", ["benchmark", "--data", "cor.csv", "--methods", "u2,mse", "--model", "mlp",
                       "--hidden", "6,4", "--dropout", "0.25", "--rho-grid", "0.5,1",
                       "--lam-grid", "0.01,0.1", "--folds", "2", "--max-epochs", "4",
                       "--seed", "10", "--out", "bench-mlp.json"]),
    ("benchmark-failing-cell", ["benchmark", "--data", "cor.csv", "--methods", "u2",
                                "--rho-grid", "1,1e308", "--lam-grid", "0.01", "--folds", "2",
                                "--max-epochs", "3", "--seed", "11", "--out", "bench-fail.json"]),
    ("benchmark-pooled-unequal", ["benchmark", "--n", "121", "--d", "3", "--k", "25,50",
                                  "--folds", "3", "--methods", "u2,mse", "--patience", "2",
                                  "--seed", "12", "--out", "bench-pooled.json",
                                  "--points", "bench-pooled-points.csv"]),
    ("benchmark-config-lists", ["benchmark", "--config", "lists.json", "--n", "120", "--d", "3",
                                "--model", "mlp", "--folds", "2", "--max-epochs", "3",
                                "--rho-grid", "0.5,1", "--seed", "6",
                                "--out", "bench-config-lists.json"]),
    ("benchmark-empty-test-fold", ["benchmark", "--n", "40", "--d", "2", "--folds", "40",
                                   "--k", "50", "--methods", "mse", "--max-epochs", "2",
                                   "--lam-grid", "0.01"]),
    ("benchmark-every-item-fails", ["benchmark", "--n", "40", "--d", "2", "--folds", "40",
                                    "--k", "100", "--methods", "mse", "--max-epochs", "2",
                                    "--lam-grid", "0.01", "--out", "bench-every-fails.json"]),
    ("benchmark-points-dotted-dir", ["benchmark", "--n", "90", "--d", "2", "--folds", "2",
                                     "--k", "25,50", "--methods", "mse", "--max-epochs", "2",
                                     "--lam-grid", "0.01", "--out", "bench-dotted.json",
                                     "--points", "points.d/pts.csv"]),
    ("diagnose", ["diagnose", "--d", "3", "--k", "50", "--n-mc", "5000", "--seed", "7",
                  "--out", "diagnose.json"]),
    ("diagnose-model-stdout", ["diagnose", "--d", "3", "--n-mc", "5000", "--model-file", "mse.json"]),
    ("features", ["features", "--data", "gen.csv", "--window", "20", "--stride", "15",
                  "--out", "features.csv"]),
    ("reject-corrupt-strict", ["corrupt", "--data", "clean.csv", "--k", "40", "--corruption-mode",
                               "strict", "--out", "reject.csv"]),
    ("reject-ignored-flag", [*TRAIN, "--method", "mse", "--rho", "0.3", "--out", "reject.json"]),
    ("reject-model-not-object", ["predict", "--data", "cor.csv", "--model-file", "not-object.json",
                                 "--out", "reject-preds.csv"]),
    ("reject-config-fractional-int", ["generate", "--config", "fractional.json",
                                      "--out", "reject-gen.csv"]),
    ("reject-config-path-not-string", ["generate", "--config", "path-not-string.json"]),
    ("reject-config-flag-not-boolean", [*TRAIN, "--config", "flag-not-boolean.json",
                                        "--out", "reject-boolean.json"]),
    ("reject-hidden-fractional", [*TRAIN, "--model", "mlp", "--hidden", "8.5,4",
                                  "--out", "reject-mlp.json"]),
    ("reject-benchmark-batch-size-zero", ["benchmark", "--n", "60", "--d", "2", "--folds", "2",
                                          "--batch-size", "0", "--out", "reject-bench.json"]),
    ("reject-config-names-config", ["generate", "--config", "names-config.json",
                                    "--out", "reject-nested.csv"]),
    ("reject-train-timing-without-history", [*TRAIN, "--timing", "--out", "reject-timing.json"]),
    ("reject-benchmark-sigma-grid-linear", ["benchmark", "--data", "cor.csv", "--methods", "mse",
                                            "--sigma-grid", "1,2", "--out", "reject-sigma.json"]),
    ("reject-benchmark-rho-grid-mse", ["benchmark", "--data", "cor.csv", "--methods", "mse,mae",
                                       "--rho-grid", "0.5,1", "--out", "reject-rho.json"]),
    ("reject-benchmark-task-with-data", ["benchmark", "--data", "cor.csv", "--task", "high-noise",
                                         "--methods", "mse", "--out", "reject-task.json"]),
    ("reject-generate-task-with-beta", ["generate", "--task", "high-noise", "--beta", "2",
                                        "--out", "reject-task.csv"]),
    ("reject-benchmark-empty-methods", ["benchmark", "--n", "40", "--d", "2", "--folds", "2",
                                        "--methods", "", "--out", "reject-methods.json"]),
    ("reject-benchmark-empty-k", ["benchmark", "--n", "40", "--d", "2", "--folds", "2",
                                  "--k", "", "--out", "reject-k.json"]),
    ("reject-predict-non-finite-csv", ["predict", "--data", "non-finite.csv",
                                       "--model-file", "u2.json", "--out", "reject-nan.csv"]),
    ("reject-predict-non-finite-model", ["predict", "--data", "cor.csv",
                                         "--model-file", "non-finite-model.json",
                                         "--out", "reject-nan-model.csv"]),
    ("reject-predict-zero-std-model", ["predict", "--data", "cor.csv",
                                       "--model-file", "zero-std-model.json",
                                       "--out", "reject-zero-std.csv"]),
    ("reject-generate-d-zero", ["generate", "--n", "20", "--d", "0", "--out", "reject-d.csv"]),
    ("reject-benchmark-d-zero", ["benchmark", "--n", "40", "--d", "0", "--folds", "2",
                                 "--out", "reject-d.json"]),
    *((f"help-{command}", [command, "--help"]) for command in ARG_TABLE),
]
INPUTS = {
    "config.json": {"method": "u2", "lam": 0.01, "rho": 0.5, "max_epochs": 5, "batch_size": 16},
    "not-object.json": [1, 2],
    "fractional.json": {"n": 50.9, "seed": 1.7},
    "lists.json": {"k": [25, 50], "methods": ["u2", "mse"], "lam_grid": [0.01, 0.1],
                   "hidden": [6, 4]},
    "path-not-string.json": {"out": 5},
    "flag-not-boolean.json": {"no_standardize": "false"},
    "names-config.json": {"config": "missing.json", "n": 20},
    # json writes the NaN token, which json reads back as a float
    "non-finite-model.json": {"format_version": 1, "kind": "linear", "input_dim": 3,
                              "theta": [0.5, float("nan"), 0.0, 1.0]},
    "zero-std-model.json": {"format_version": 1, "kind": "linear", "input_dim": 3,
                            "theta": [0.5, 0.25, 0.0, 1.0], "standardized_features": True,
                            "feature_mean": [0.0, 0.0, 0.0], "feature_std": [1.0, 0.0, 1.0]},
}
TEXTS = {"non-finite.csv": "1,2,3\n0.5,nan,1.5\n"}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def main(out: str) -> None:
    warnings.showwarning = _show_warning
    os.environ["COLUMNS"] = "100"  # argparse wraps help and usage text to this width
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    for name, content in INPUTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    for name, text in TEXTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    os.makedirs("points.d", exist_ok=True)  # benchmark-points-dotted-dir writes into it
    for name, argv in RUNS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        for ext, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                          ("code", f"{code}\n")):
            with open(f"{name}.{ext}", "w", encoding="utf-8") as fh:
                fh.write(text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    main(sys.argv[1])

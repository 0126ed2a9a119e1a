"""Write the artifacts and messages of a fixed list of seeded CLI runs.

    PYTHONPATH=<tree>/src python scripts/cli_snapshot.py OUT

Each run calls u2reg.cli.run_cli in-process with OUT as the working
directory, so its artifacts land in OUT; next to them go <name>.stdout,
<name>.stderr and <name>.code. The list covers every subcommand, each model
kind, every method, --config, stdout output and two rejected invocations
(names starting with "reject-", which exit 1). Run it once per checkout
into two directories and compare them with `diff -r`: a refactor that keeps
the CLI's behaviour leaves no difference.
"""

import contextlib
import io
import json
import os
import sys

from u2reg.cli import run_cli

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
    ("diagnose", ["diagnose", "--d", "3", "--k", "50", "--n-mc", "5000", "--seed", "7",
                  "--out", "diagnose.json"]),
    ("diagnose-model-stdout", ["diagnose", "--d", "3", "--n-mc", "5000", "--model-file", "mse.json"]),
    ("features", ["features", "--data", "gen.csv", "--window", "20", "--stride", "15",
                  "--out", "features.csv"]),
    ("reject-corrupt-strict", ["corrupt", "--data", "clean.csv", "--k", "40", "--corruption-mode",
                               "strict", "--out", "reject.csv"]),
    ("reject-ignored-flag", [*TRAIN, "--method", "mse", "--rho", "0.3", "--out", "reject.json"]),
]
CONFIG = {"method": "u2", "lam": 0.01, "rho": 0.5, "max_epochs": 5, "batch_size": 16}


def main(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
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

"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must pass its checks and name every metric with its unit."""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("grid_linear", "mc_study", "cli_models")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "cells_per_s": "cells/s", "mc_rows_per_s": "rows/s", "train_steps_per_s": "steps/s",
    "u2_clean_mae": "label_sd", "u2_signed_error_abs": "label_sd",
}
ONLY_ON = {
    "cells_per_s": "grid_linear", "u2_clean_mae": "grid_linear",
    "u2_signed_error_abs": "grid_linear", "mc_rows_per_s": "mc_study",
    "train_steps_per_s": "cli_models",
}


def _calls_s(stem):
    return {f"{stem}.calls": "count", f"{stem}.s": "s", f"{stem}.us_per_call": "us"}


PER_LAYER = {
    **_calls_s("rngutil.derive_rng"),
    "optim.train.calls": "count", "optim.train.self_s": "s", "optim.steps": "count",
    "optim.epochs": "count", "optim.wasted_epoch_frac": "ratio",
    **_calls_s("optim.adam_step"),
    "gradients.batch_gradient.calls": "count", "gradients.batch_gradient.self_s": "s",
    "gradients.dataset_estimate.s": "s", "gradients.oracle.s": "s",
    **_calls_s("losses.dloss_df"), **_calls_s("losses.grad_coeff"),
    **{k: v for arch in ("linear", "rbf", "mlp") for k, v in {
        **_calls_s(f"models.{arch}.forward_train"),
        **_calls_s(f"models.{arch}.backward_weighted"),
        **_calls_s(f"models.{arch}.predict_batch"),
        f"models.{arch}.flops_computed": "flop", f"models.{arch}.bytes_computed": "B",
    }.items()},
    **_calls_s("data.corrupt"), "data.corrupt.rows": "count",
    "data.generate_uncorrupted.s": "s", "data.split_cv.s": "s", "data.standardize.s": "s",
    "data.csv_read.s": "s", "data.csv_read.bytes": "B",
    "data.csv_write.s": "s", "data.csv_write.bytes": "B",
    "evaluate.run_benchmark.self_s": "s", "evaluate.grid_search.calls": "count",
    "evaluate.grid_search.self_s": "s", "evaluate.cells": "count",
    "evaluate.cells_failed": "count", "evaluate.estimate_eta_xi_delta.s": "s",
    **{k: v for cmd in ("generate", "train", "predict", "diagnose")
       for k, v in _calls_s(f"cli.{cmd}").items()},
    "cli.self_s": "s", "cli.model_json_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in ("rngutil", "optim", "gradients", "losses",
                                            "models", "data", "evaluate", "bench")},
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.partition_error_s": "s",
}


def test_smoke_run_names_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"], proc.stdout[-4000:]
    assert sorted(summary["workloads"]) == sorted(WORKLOADS)

    printed = {}
    current = None
    for line in lines[:-1]:
        header = re.match(r"# workload (\S+) .* trace (\d)", line)
        if header:
            current = printed.setdefault(header.group(1), {})
            continue
        parts = line.split()
        if current is not None and len(parts) == 3 and not line.startswith("#"):
            current[parts[0]] = parts[2]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in WORKLOADS:
        entry = summary["workloads"][name]
        assert entry["correct"] and entry["traced_correct"], name
        for metric, unit in {**END_TO_END, **gated}.items():
            assert printed[name].get(metric) == unit, (name, metric)
            if ONLY_ON.get(metric, name) == name:
                assert entry["end_to_end"][metric]["unit"] == unit, (name, metric)
        assert set(layered) == set(entry["per_layer"]), name
        for metric, unit in {**PER_LAYER, **layered}.items():
            assert printed[name].get(metric) == unit, (name, metric)
            assert entry["per_layer"][metric]["unit"] == unit, (name, metric)

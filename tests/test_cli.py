"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import math
import os

import numpy as np
import pytest

from u2reg import (
    ArchSpec,
    BenchmarkTask,
    Dataset,
    GridSpec,
    LinearModel,
    LossSpec,
    SyntheticProcess,
    TrainConfig,
    estimate_eta_xi_delta,
    init_model,
    load_model,
    predict,
    run_benchmark,
    standardize,
    train,
)
from u2reg.cli import ARG_TABLE, run_cli
from u2reg.data import FeatureStats
from u2reg.rngutil import derive_rng, derive_seed


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(*argv):
    return run_cli(list(argv))


# ---------------------------------------------------------------------------
# parsing and help
# ---------------------------------------------------------------------------

def test_every_subcommand_help_exits_zero_and_shows_defaults(capsys):
    for name in ARG_TABLE:
        assert run(name, "--help") == 0
        out = capsys.readouterr().out
        assert "default" in out


def test_top_level_help_lists_every_subcommand(capsys):
    assert run("--help") == 0
    out = capsys.readouterr().out
    for name in ARG_TABLE:
        assert name in out


def test_documented_flags_are_available(capsys):
    stable = [
        "--task", "--n", "--d", "--beta", "--k", "--corruption-mode",
        "--model", "--method", "--rho", "--lambda", "--sigma",
        "--batch-size", "--max-epochs", "--seed", "--out",
    ]
    blob = ""
    for name in ARG_TABLE:
        run(name, "--help")
        blob += capsys.readouterr().out
    for flag in stable:
        assert flag in blob, flag


def test_bad_invocations_exit_one(capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("generate", "--not-a-flag", "1") == 1
    assert run("generate") == 1  # --out required
    capsys.readouterr()


# ---------------------------------------------------------------------------
# generate / corrupt
# ---------------------------------------------------------------------------

def test_generate_is_byte_deterministic(tmp_path, capsys):
    a, b, c = (str(tmp_path / f"{n}.csv") for n in "abc")
    common = ["generate", "--n", "50", "--d", "3", "--k", "40"]
    assert run(*common, "--seed", "7", "--out", a) == 0
    assert run(*common, "--seed", "7", "--out", b) == 0
    assert run(*common, "--seed", "8", "--out", c) == 0
    capsys.readouterr()
    assert read_bytes(a) == read_bytes(b)
    assert read_bytes(a) != read_bytes(c)


def test_generate_strict_mode_works(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert run("generate", "--n", "40", "--d", "2", "--k", "50",
               "--corruption-mode", "strict", "--out", out) == 0
    capsys.readouterr()
    from u2reg.data import Dataset

    ds = Dataset.from_csv(out)
    assert ds.corrupted.sum() == 20
    assert np.all(ds.ys_prime <= ds.ys_true)


def test_corrupt_strict_mode_is_rejected(tmp_path, capsys):
    data = str(tmp_path / "d.csv")
    assert run("generate", "--n", "30", "--d", "2", "--out", data) == 0
    assert run("corrupt", "--data", data, "--k", "50",
               "--corruption-mode", "strict", "--out", str(tmp_path / "o.csv")) == 1
    err = capsys.readouterr().err
    assert "strict" in err


def test_corrupt_requires_true_labels(tmp_path, capsys):
    path = str(tmp_path / "np.csv")
    with open(path, "w") as fh:
        fh.write("x0,y_prime\n1.0,2.0\n3.0,4.0\n")
    assert run("corrupt", "--data", path, "--k", "50",
               "--out", str(tmp_path / "o.csv")) == 1
    assert "y_true" in capsys.readouterr().err


def test_train_rejects_a_nan_label(tmp_path, capsys):
    path = str(tmp_path / "nan.csv")
    with open(path, "w") as fh:
        fh.write("x0,y_prime\n" + "".join(f"{i}.0,{i}.5\n" for i in range(9)) + "9.0,nan\n")
    for method in ("u2", "lu", "mse"):
        assert run("train", "--data", path, "--method", method, "--max-epochs", "1",
                   "--out", str(tmp_path / "m.json")) == 1
        assert "y_prime" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.json")


# ---------------------------------------------------------------------------
# train / predict pipeline
# ---------------------------------------------------------------------------

@pytest.fixture
def pipeline(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    cor = str(tmp_path / "cor.csv")
    assert run("generate", "--n", "120", "--d", "3", "--k", "0",
               "--seed", "5", "--out", data) == 0
    assert run("corrupt", "--data", data, "--k", "40", "--seed", "5",
               "--out", cor) == 0
    capsys.readouterr()
    return tmp_path, data, cor


def test_generate_corrupt_train_predict_happy_path(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "model.json")
    hist_path = str(tmp_path / "hist.csv")
    preds_path = str(tmp_path / "preds.csv")
    assert run("train", "--data", cor, "--method", "u2", "--rho", "1.0",
               "--max-epochs", "8", "--seed", "3",
               "--out", model_path, "--history", hist_path) == 0
    assert run("predict", "--data", cor, "--model-file", model_path,
               "--out", preds_path) == 0
    capsys.readouterr()

    model, payload = load_model(model_path)
    assert payload["method"] == "u2"
    assert payload["standardized_features"] is True
    assert payload["epochs_run"] == 8
    assert len(payload["feature_mean"]) == 3

    hist = open(hist_path).read().splitlines()
    assert hist[0] == "epoch,val_loss,grad_norm"
    assert len(hist) == 1 + 8

    preds = open(preds_path).read().splitlines()
    assert preds[0] == "index,y_pred"
    assert len(preds) == 1 + 120
    float(preds[1].split(",")[1])


def test_train_validates_on_val_data_and_rejects_a_width_mismatch(pipeline, capsys):
    tmp_path, data, cor = pipeline
    out = str(tmp_path / "m.json")
    assert run("train", "--data", cor, "--val-data", data, "--method", "mse",
               "--max-epochs", "3", "--seed", "4", "--out", out) == 0
    assert "on 120 rows" in capsys.readouterr().err  # every --data row trains
    train_s, (val_s,), _ = standardize(Dataset.from_csv(cor), (Dataset.from_csv(data),))
    result = train(init_model(ArchSpec("linear"), 3, derive_seed(4, "cli-init")), train_s, val_s,
                   TrainConfig("mse", max_epochs=3, seed=derive_seed(4, "cli-train")))
    model, payload = load_model(out)
    assert payload["best_val_loss"] == result.best_val_loss
    assert np.array_equal(model.theta, result.model.theta)

    narrow, rejected = str(tmp_path / "narrow.csv"), str(tmp_path / "rejected.json")
    assert run("generate", "--n", "30", "--d", "2", "--out", narrow) == 0
    capsys.readouterr()
    assert run("train", "--data", cor, "--val-data", narrow, "--out", rejected) == 1
    assert "validation data feature count does not match" in capsys.readouterr().err
    assert not os.path.exists(rejected)


def test_train_artifacts_are_byte_deterministic(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    h1, h2 = str(tmp_path / "h1.csv"), str(tmp_path / "h2.csv")
    args = ["train", "--data", cor, "--method", "mse", "--max-epochs", "6", "--seed", "11"]
    assert run(*args, "--out", m1, "--history", h1) == 0
    assert run(*args, "--out", m2, "--history", h2) == 0
    capsys.readouterr()
    assert read_bytes(m1) == read_bytes(m2)
    assert read_bytes(h1) == read_bytes(h2)


def test_history_timing_column_is_opt_in(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    hist = str(tmp_path / "ht.csv")
    assert run("train", "--data", cor, "--method", "mae", "--max-epochs", "2",
               "--out", str(tmp_path / "mt.json"), "--history", hist, "--timing") == 0
    capsys.readouterr()
    lines = open(hist).read().splitlines()
    assert lines[0] == "epoch,val_loss,grad_norm,seconds"
    assert len(lines[1].split(",")) == 4


def test_train_methods_lu_and_baselines(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    for method in ("lu", "mse", "huber"):
        out = str(tmp_path / f"m-{method}.json")
        assert run("train", "--data", cor, "--method", method,
                   "--max-epochs", "2", "--out", out) == 0
    capsys.readouterr()


def test_train_baselines_reject_loss_flags(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    out = str(tmp_path / "m.json")
    small = ["train", "--data", cor, "--max-epochs", "1", "--out", out]
    for method in ("mse", "mae", "huber"):
        for flag in ("--upper-loss", "--lower-loss"):
            assert run(*small, "--method", method, flag, "absolute") == 1
            assert f"{flag} has no effect with --method {method}" in capsys.readouterr().err
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"method": "mae", "lower_loss": "absolute"}))
    assert run(*small, "--config", str(config)) == 1
    assert "--lower-loss has no effect with --method mae" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(*small, "--method", "u2", "--lower-loss", "pinball:0.3") == 0
    capsys.readouterr()


def test_train_rejects_ignored_rho_and_huber_delta(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    out = str(tmp_path / "m.json")
    small = ["train", "--data", cor, "--max-epochs", "1", "--out", out]
    for method in ("mse", "mae", "huber"):
        assert run(*small, "--method", method, "--rho", "0.3") == 1
        assert f"--rho has no effect with --method {method}" in capsys.readouterr().err
    for method in ("u2", "lu", "mse", "mae"):
        assert run(*small, "--method", method, "--huber-delta", "-2") == 1
        assert f"--huber-delta has no effect with --method {method}" in capsys.readouterr().err
    config = tmp_path / "train.json"
    for key, method, flag in (("rho", "mae", "--rho"), ("huber_delta", "u2", "--huber-delta")):
        config.write_text(json.dumps({"method": method, key: 0.5}))
        assert run(*small, "--config", str(config)) == 1
        assert f"{flag} has no effect with --method {method}" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(*small, "--method", "huber", "--huber-delta", "0.5") == 0
    assert run(*small, "--method", "lu", "--rho", "0.5") == 0
    capsys.readouterr()


def test_train_rejects_ignored_model_validation_and_timing_flags(pipeline, capsys):
    tmp_path, data, cor = pipeline
    out = str(tmp_path / "m.json")
    small = ["train", "--data", cor, "--max-epochs", "1", "--out", out]
    for model, flag, value, why in (
        ("linear", "--sigma", "1.5", "(only rbf has a width)"),
        ("mlp", "--sigma", "1.5", "(only rbf has a width)"),
        ("linear", "--hidden", "8,4", "(only mlp has hidden layers)"),
        ("rbf", "--dropout", "0.25", "(only mlp has hidden layers)"),
    ):
        extra = ["--sigma", "1"] if model == "rbf" else []
        assert run(*small, "--model", model, *extra, flag, value) == 1
        assert f"{flag} has no effect with --model {model} {why}" in capsys.readouterr().err
    assert run(*small, "--val-data", data, "--val-fraction", "0.5") == 1
    assert "--val-fraction has no effect with --val-data" in capsys.readouterr().err
    assert run(*small, "--timing") == 1
    assert "--timing has no effect without --history" in capsys.readouterr().err
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"model": "linear", "dropout": 0.25}))
    assert run(*small, "--config", str(config)) == 1
    assert "--dropout has no effect with --model linear" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(*small, "--model", "mlp", "--hidden", "4", "--dropout", "0.25") == 0
    assert run(*small, "--val-data", data, "--history", str(tmp_path / "h.csv"), "--timing") == 0
    capsys.readouterr()


def test_train_rejects_bad_val_fraction(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    assert run("train", "--data", cor, "--val-fraction", "1.5",
               "--max-epochs", "1", "--out", str(tmp_path / "x.json")) == 1
    capsys.readouterr()


def test_train_out_in_missing_directory_fails(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    missing = str(tmp_path / "nodir" / "m.json")
    assert run("train", "--data", cor, "--max-epochs", "1", "--out", missing) == 1
    capsys.readouterr()
    assert not os.path.exists(missing)


def test_predict_feature_mismatch_leaves_no_file(pipeline, tmp_path, capsys):
    _tmp, _data, cor = pipeline
    model_path = str(tmp_path / "m3.json")
    assert run("train", "--data", cor, "--max-epochs", "1", "--out", model_path) == 0
    narrow = str(tmp_path / "narrow.csv")
    with open(narrow, "w") as fh:
        fh.write("a,b\n1.0,2.0\n")
    out = str(tmp_path / "preds-bad.csv")
    assert run("predict", "--data", narrow, "--model-file", model_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert "mismatch" in err
    assert not os.path.exists(out)


def test_predict_rejects_an_mlp_file_that_fails_the_archspec_checks(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "mlp.json")
    assert run("train", "--data", cor, "--model", "mlp", "--hidden", "4", "--max-epochs", "1",
               "--out", model_path) == 0
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "dropout": 1.0}, fh)
    out = str(tmp_path / "preds.csv")
    assert run("predict", "--data", cor, "--model-file", model_path, "--out", out) == 1
    assert "dropout" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_finite_numbers_exit_one_and_leave_no_file(pipeline, capsys):
    tmp_path, data, cor = pipeline
    out = str(tmp_path / "out")
    train = ("train", "--data", cor, "--max-epochs", "1")
    for argv in (
        ("generate", "--n", "50", "--k", "50", "--corruption-scale", "nan"),
        ("generate", "--n", "50", "--k", "50", "--corruption-scale", "inf"),
        ("corrupt", "--data", data, "--k", "50", "--noise-std", "nan"),
        ("corrupt", "--data", data, "--k", "50", "--corruption-scale", "nan"),
        *((*train, flag, value) for flag in ("--lambda", "--lr", "--rho") for value in ("nan", "inf")),
        ("benchmark", "--n", "60", "--folds", "2", "--lam-grid", "nan"),
    ):
        assert run(*argv, "--out", out) == 1, argv
        assert not os.path.exists(out), argv
    capsys.readouterr()


def test_non_finite_inputs_exit_one_naming_the_file(pipeline, capsys):
    # a dataset CSV with these values was already rejected; a plain CSV, a
    # series and a model file (json reads NaN and Infinity) were not
    tmp_path, _data, cor = pipeline
    out = str(tmp_path / "out.csv")
    plain = str(tmp_path / "plain.csv")
    model_path = str(tmp_path / "rbf.json")
    assert run("train", "--data", cor, "--model", "rbf", "--sigma", "1", "--max-epochs", "1",
               "--out", model_path) == 0
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for value in ("nan", "inf", "1e400"):
        with open(plain, "w") as fh:
            fh.write(f"1.0,2.0,3.0\n0.5,{value},1.5\n")
        assert run("predict", "--data", plain, "--model-file", model_path, "--out", out) == 1, value
        assert f"{plain}: the feature table holds a non-finite number" in capsys.readouterr().err
        assert run("features", "--data", plain, "--window", "2", "--out", out) == 1, value
        assert f"{plain}: the series holds a non-finite number" in capsys.readouterr().err
    bad_model = str(tmp_path / "bad.json")
    for key in ("theta", "bases", "feature_mean", "feature_std"):
        for value in (math.nan, math.inf):
            values = np.asarray(payload[key], dtype=float)
            values.flat[-1] = value
            with open(bad_model, "w", encoding="utf-8") as fh:
                json.dump({**payload, key: values.tolist()}, fh)
            assert run("predict", "--data", cor, "--model-file", bad_model, "--out", out) == 1
            assert (f"{bad_model}: model file field {key!r} holds a non-finite number"
                    in capsys.readouterr().err), (key, value)
    assert not os.path.exists(out)


def test_saved_feature_statistics_need_one_positive_std_per_feature(pipeline, capsys):
    # a zero std made predict write inf and diagnose a NaN bound; a short
    # field broadcast over every feature; a missing one raised a bare
    # KeyError, and a JSON object exited 2
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "model.json")
    assert run("train", "--data", cor, "--max-epochs", "1", "--out", model_path) == 0
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    bad_model = str(tmp_path / "bad.json")
    out = str(tmp_path / "out")
    positive = "model file field 'feature_std' holds a number <= 0"
    list_of = "model file field {!r} must be a list of 3 numbers, one per feature".format
    cases = [
        ("feature_std", [1.0, 0.0, 1.0], positive),
        ("feature_std", [1.0, 1.0, -2.0], positive),
        ("feature_std", [1.0], list_of("feature_std")),
        ("feature_mean", [0.5], list_of("feature_mean")),
        ("feature_mean", [0.5] * 4, list_of("feature_mean")),
        ("feature_mean", None, list_of("feature_mean")),
        ("feature_std", None, list_of("feature_std")),
        ("feature_std", [1.0, "2", 1.0], list_of("feature_std")),
        ("feature_mean", {"x": 0.5}, list_of("feature_mean")),
    ]
    for key, value, message in cases:
        bad = {k: v for k, v in payload.items() if k != key}
        if value is not None:
            bad[key] = value
        with open(bad_model, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        for argv in (["predict", "--data", cor], ["diagnose", "--d", "3", "--n-mc", "2000"]):
            assert run(*argv, "--model-file", bad_model, "--out", out) == 1, (argv, key, value)
            assert f"{bad_model}: {message}" in capsys.readouterr().err, (argv, key, value)
            assert not os.path.exists(out)


def test_a_feature_dimension_below_one_exits_one_and_writes_nothing(tmp_path, capsys):
    # --d 0 used to write a label-only CSV (generate), fail every cell with
    # exit 2 (benchmark) or print a bound for a process with no features
    # (diagnose)
    out = str(tmp_path / "out")
    for d in ("0", "-1"):
        for argv in (["generate", "--n", "20"],
                     ["benchmark", "--n", "40", "--folds", "2", "--max-epochs", "1"],
                     ["diagnose", "--n-mc", "2000"]):
            assert run(*argv, "--d", d, "--out", out) == 1, (argv, d)
            assert f"feature dimension must be at least 1, got {d}" in capsys.readouterr().err
            assert not os.path.exists(out)


def test_train_with_non_finite_parameters_exits_two_and_writes_no_model(tmp_path, capsys):
    # lr 1e308 overflows theta on the first step; before the parameter check
    # this run exited 0 and saved the init theta
    data = str(tmp_path / "gen.csv")
    out = str(tmp_path / "model.json")
    assert run("generate", "--n", "100", "--seed", "1", "--out", data) == 0
    with np.errstate(all="ignore"):
        assert run("train", "--data", data, "--lr", "1e308", "--max-epochs", "2", "--out", out) == 2
    assert "non-finite parameters at epoch 0, step 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_corrupt_rejects_a_noise_std_without_a_finite_precision(pipeline, capsys):
    tmp_path, data, _cor = pipeline
    out = str(tmp_path / "noisy.csv")
    # 1e-200 ** -2 overflows; 1e200 ** -2 underflows to a zero precision
    for std in ("1e-200", "1e200"):
        assert run("corrupt", "--data", data, "--k", "50", "--noise-std", std, "--out", out) == 1, std
        assert not os.path.exists(out), std
    assert "precision" in capsys.readouterr().err


def test_predict_rejects_a_model_file_with_wrong_json_types(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "mlp.json")
    assert run("train", "--data", cor, "--model", "mlp", "--hidden", "4", "--max-epochs", "1",
               "--out", model_path) == 0
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "hidden": 5}, fh)
    out = str(tmp_path / "preds.csv")
    assert run("predict", "--data", cor, "--model-file", model_path, "--out", out) == 1
    assert "'hidden' must be a list of integers" in capsys.readouterr().err
    assert not os.path.exists(out)
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump([1, 2], fh)
    assert run("predict", "--data", cor, "--model-file", model_path, "--out", out) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_predict_to_stdout(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "m4.json")
    assert run("train", "--data", cor, "--max-epochs", "1", "--out", model_path) == 0
    capsys.readouterr()
    assert run("predict", "--data", cor, "--model-file", model_path) == 0
    out = capsys.readouterr().out
    assert out.startswith("index,y_pred\n")
    assert len(out.splitlines()) == 1 + 120


def test_predict_reads_dataset_headed_and_headerless_csv_alike(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path = str(tmp_path / "m5.json")
    assert run("train", "--data", cor, "--max-epochs", "2", "--out", model_path) == 0
    xs = Dataset.from_csv(cor).xs
    rows = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in xs)
    headed, bare = str(tmp_path / "headed.csv"), str(tmp_path / "bare.csv")
    with open(headed, "w") as fh:
        fh.write("a,b,c\n" + rows)
    with open(bare, "w") as fh:
        fh.write(rows)
    blank_first = str(tmp_path / "blank-first.csv")  # read_table skips blank lines
    with open(blank_first, "w") as fh:
        fh.write("\n" + open(cor).read())
    outs = []
    for i, data in enumerate((cor, headed, bare, blank_first)):
        outs.append(str(tmp_path / f"p{i}.csv"))
        assert run("predict", "--data", data, "--model-file", model_path, "--out", outs[-1]) == 0
    capsys.readouterr()
    assert len({read_bytes(out) for out in outs}) == 1
    assert len(read_bytes(outs[0]).splitlines()) == 1 + 120


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"n": 80, "d": 2, "k": "30"}, fh)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run("generate", "--config", cfg, "--out", a) == 0
    assert run("generate", "--config", cfg, "--n", "40", "--out", b) == 0
    capsys.readouterr()
    assert len(open(a).read().splitlines()) == 1 + 80
    assert len(open(b).read().splitlines()) == 1 + 40


def test_config_file_with_unknown_key_fails(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"frobnication": 3}, fh)
    assert run("generate", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 1
    assert "unknown config keys" in capsys.readouterr().err
    with open(cfg, "w") as fh:
        json.dump({"config": "missing.json", "n": 20}, fh)  # files do not nest
    assert run("generate", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 1
    assert "config key 'config' has no effect" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.csv")


def test_config_file_must_be_json_object(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        fh.write("[1, 2]")
    assert run("generate", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 1
    capsys.readouterr()


def test_config_integer_keys_reject_fractions_and_booleans(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    out = str(tmp_path / "x.csv")
    for config, key in (({"n": 50.9, "seed": 1.7}, "n"), ({"seed": 1.7}, "seed"),
                        ({"n": True}, "n"), ({"n": [1, 2]}, "n"), ({"n": "50"}, "n")):
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        assert run("generate", "--config", cfg, "--out", out) == 1
        assert f"config key '{key}' must be an integer" in capsys.readouterr().err
        assert not os.path.exists(out)
    data = str(tmp_path / "d.csv")
    assert run("generate", "--n", "40", "--d", "2", "--out", data) == 0
    model = str(tmp_path / "m.json")
    for value in ([1], {"x": 1}, True, "0.5", None):
        with open(cfg, "w") as fh:
            json.dump({"rho": value}, fh)
        assert run("train", "--data", data, "--config", cfg, "--max-epochs", "1",
                   "--out", model) == 1
        assert "config key 'rho' must be a number" in capsys.readouterr().err
        assert not os.path.exists(model)
    with open(cfg, "w") as fh:
        json.dump({"n": 50.0, "seed": 1}, fh)
    assert run("generate", "--config", cfg, "--out", out) == 0
    assert len(Dataset.from_csv(out)) == 50


def test_config_values_must_be_of_their_flag_kind(tmp_path, capsys):
    cfg, data = str(tmp_path / "cfg.json"), str(tmp_path / "d.csv")
    assert run("generate", "--n", "40", "--d", "2", "--out", data) == 0
    out = str(tmp_path / "out")
    generate, train_ = ["generate"], ["train", "--data", data, "--max-epochs", "1"]
    for argv, config, what in (
        (generate, {"out": 5}, "config key 'out' must be a string"),
        (["train", "--max-epochs", "1"], {"data": ["d.csv"]}, "config key 'data' must be a string"),
        (train_, {"no_standardize": "false"}, "config key 'no_standardize' must be a boolean"),
        (train_, {"timing": 0}, "config key 'timing' must be a boolean"),
        (generate, {"task": ["low-noise"]}, "config key 'task' must be a string"),
        (train_ + ["--model", "mlp"], {"hidden": [8.5, 4]},
         "config key 'hidden': invalid integer list value: '8.5,4'"),
    ):
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        capsys.readouterr()
        assert run(*argv, "--config", cfg, "--out", out) == 1, config
        assert what in capsys.readouterr().err
        assert not os.path.exists(out)
    assert run(*train_, "--model", "mlp", "--hidden", "8.5,4", "--out", out) == 1
    assert "argument --hidden: invalid integer list value: '8.5,4'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_benchmark_config_lists_match_comma_flags(tmp_path, capsys):
    cfg, a, b = (str(tmp_path / name) for name in ("cfg.json", "a.json", "b.json"))
    common = ["benchmark", "--n", "60", "--d", "2", "--folds", "2", "--max-epochs", "2",
              "--model", "mlp", "--rho-grid", "1", "--dropout", "0"]
    with open(cfg, "w") as fh:
        json.dump({"k": [25, 50], "methods": ["u2", "mse"], "lam_grid": [0.01, 0.1],
                   "hidden": [3, 2]}, fh)
    assert run(*common, "--config", cfg, "--out", a) == 0
    assert run(*common, "--k", "25,50", "--methods", "u2,mse", "--lam-grid", "0.01,0.1",
               "--hidden", "3,2", "--out", b) == 0
    capsys.readouterr()
    assert read_bytes(a) == read_bytes(b)
    report = json.loads(read_bytes(a))
    assert (report["k_list"], report["methods"]) == ([25.0, 50.0], ["u2", "mse"])


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_small_run_writes_all_artifacts(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    table = str(tmp_path / "rep.txt")
    points = str(tmp_path / "pts.csv")
    assert run(
        "benchmark", "--task", "low-noise", "--n", "120", "--d", "3",
        "--folds", "2", "--methods", "mse", "--k", "50",
        "--max-epochs", "2", "--patience", "2",
        "--lam-grid", "0.01",
        "--out", rep, "--table", table, "--points", points,
    ) == 0
    capsys.readouterr()
    payload = json.loads(open(rep).read())
    assert payload["task"] == "low-noise"
    assert payload["k_list"] == [50.0]
    assert payload["summaries"][0]["method"] == "mse"
    assert "mse" in open(table).read()
    assert open(points).read().startswith("index,y_true,y_pred,error,method")


def test_benchmark_points_one_file_per_k(tmp_path, capsys):
    points = str(tmp_path / "pts.csv")
    assert run(
        "benchmark", "--n", "90", "--d", "2", "--folds", "2", "--methods", "mse",
        "--k", "25,50", "--max-epochs", "1", "--patience", "1",
        "--lam-grid", "0.01",
        "--out", str(tmp_path / "r.json"), "--points", points,
    ) == 0
    capsys.readouterr()
    assert os.path.exists(str(tmp_path / "pts-k25.csv"))
    assert os.path.exists(str(tmp_path / "pts-k50.csv"))
    assert not os.path.exists(points)
    # only the file name's extension moves behind the suffix, never a dot in a directory
    os.mkdir(tmp_path / "out.d")
    for name in ("pts", "pts.csv"):
        assert run(
            "benchmark", "--n", "90", "--d", "2", "--folds", "2", "--methods", "mse",
            "--k", "25,50", "--max-epochs", "1", "--patience", "1", "--lam-grid", "0.01",
            "--points", str(tmp_path / "out.d" / name),
        ) == 0
    assert sorted(os.listdir(tmp_path / "out.d")) == ["pts-k25", "pts-k25.csv", "pts-k50",
                                                      "pts-k50.csv"]
    capsys.readouterr()


def test_benchmark_stdout_report(capsys):
    assert run(
        "benchmark", "--n", "60", "--d", "2", "--folds", "2", "--methods", "mse",
        "--k", "50", "--max-epochs", "1", "--patience", "1",
        "--lam-grid", "0.01",
    ) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["n"] == 60


def test_benchmark_rejects_train_only_flags(tmp_path, capsys):
    small = ["--n", "40", "--d", "2", "--folds", "2", "--methods", "mse", "--max-epochs", "1"]
    assert run("benchmark", "--lr", "0.5", *small) == 1
    for flag, value in (("--upper-loss", "pinball:0.3"), ("--lower-loss", "pinball:0.3"),
                        ("--sigma", "1")):
        assert run("benchmark", flag, value, *small) == 1
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"lr": 0.5}))
    assert run("benchmark", "--config", str(config), *small) == 1
    assert "unknown config keys for 'benchmark': lr" in capsys.readouterr().err


def test_benchmark_rejects_huber_delta_without_huber(tmp_path, capsys):
    small = ["benchmark", "--n", "40", "--d", "2", "--folds", "2", "--k", "50",
             "--max-epochs", "1", "--lam-grid", "0.01"]
    assert run(*small, "--methods", "u2,mse", "--huber-delta", "5") == 1
    assert "--huber-delta has no effect with --methods u2,mse" in capsys.readouterr().err
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"methods": ["mse"], "huber_delta": 5}))
    assert run(*small, "--config", str(config)) == 1
    assert "--huber-delta has no effect with --methods mse" in capsys.readouterr().err
    assert run(*small, "--methods", "mse,huber", "--huber-delta", "5") == 0
    capsys.readouterr()


def test_benchmark_rejects_mlp_flags_without_mlp(tmp_path, capsys):
    small = ["benchmark", "--n", "40", "--d", "2", "--folds", "2", "--methods", "mse",
             "--k", "50", "--max-epochs", "1", "--lam-grid", "0.01"]
    for model in ("linear", "rbf"):
        for flag, value in (("--hidden", "8"), ("--dropout", "0.3")):
            assert run(*small, "--model", model, flag, value) == 1
            assert (f"{flag} has no effect with --model {model} (only mlp has hidden layers)"
                    in capsys.readouterr().err)
    config = tmp_path / "bench.json"
    for body, flag, model in (({"model": "rbf", "hidden": [8]}, "--hidden", "rbf"),
                              ({"dropout": 0.3}, "--dropout", "linear")):
        config.write_text(json.dumps(body))
        assert run(*small, "--config", str(config)) == 1
        assert f"{flag} has no effect with --model {model}" in capsys.readouterr().err
    assert run(*small, "--model", "mlp", "--hidden", "4", "--dropout", "0.3") == 0
    capsys.readouterr()


def test_benchmark_rejects_sigma_grid_without_rbf_and_rho_grid_without_u2_or_lu(tmp_path, capsys):
    out = tmp_path / "rep.json"
    small = ["benchmark", "--n", "40", "--d", "2", "--folds", "2", "--k", "50",
             "--max-epochs", "1", "--lam-grid", "0.01", "--out", str(out)]
    config = tmp_path / "bench.json"
    for model in ("linear", "mlp"):
        message = f"--sigma-grid has no effect with --model {model} (only rbf has a width)"
        assert run(*small, "--methods", "u2", "--model", model, "--sigma-grid", "1,2") == 1
        assert message in capsys.readouterr().err
        config.write_text(json.dumps({"model": model, "sigma_grid": [1, 2]}))
        assert run(*small, "--methods", "u2", "--config", str(config)) == 1
        assert message in capsys.readouterr().err
    message = "--rho-grid has no effect with --methods mse,huber (only u2 and lu have a rho)"
    assert run(*small, "--methods", "mse,huber", "--rho-grid", "0.5,1") == 1
    assert message in capsys.readouterr().err
    config.write_text(json.dumps({"methods": ["mse", "huber"], "rho_grid": [0.5, 1]}))
    assert run(*small, "--config", str(config)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert run(*small, "--methods", "lu,mse", "--model", "rbf", "--sigma-grid", "1",
               "--rho-grid", "0.5") == 0
    assert json.loads(out.read_text())["methods"] == ["lu", "mse"]
    capsys.readouterr()


def test_lambda_and_lam_grid_are_rejected_without_a_penalty(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    out = tmp_path / "m.json"
    train_ = ["train", "--data", cor, "--max-epochs", "1", "--out", str(out)]
    bench = ["benchmark", "--n", "40", "--d", "2", "--folds", "2", "--methods", "mse",
             "--k", "50", "--max-epochs", "1"]
    config = tmp_path / "reg.json"
    for argv, flag, key in ((train_, "--lambda", "lam"), (bench, "--lam-grid", "lam_grid")):
        message = f"{flag} has no effect with --reg none (no penalty to weight)"
        assert run(*argv, "--reg", "none", flag, "0.5") == 1
        assert message in capsys.readouterr().err
        config.write_text(json.dumps({"reg": "none", key: 0.5}))
        assert run(*argv, "--config", str(config)) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()
    assert run(*train_, "--reg", "none") == 0
    assert run(*train_, "--reg", "l1", "--lambda", "0.5") == 0
    capsys.readouterr()


def test_benchmark_data_rejects_process_flags(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    small = ["benchmark", "--data", cor, "--folds", "2", "--methods", "mse",
             "--max-epochs", "1", "--lam-grid", "0.01"]
    for flag, value in (("--n", "50"), ("--d", "99"), ("--k", "25,75"), ("--beta", "2"),
                        ("--corruption-mode", "strict"), ("--corruption-scale", "3")):
        assert run(*small, flag, value) == 1
        assert f"{flag} has no effect with --data" in capsys.readouterr().err
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"k": "25"}))
    assert run(*small, "--config", str(config)) == 1
    assert "--k has no effect with --data" in capsys.readouterr().err
    assert run(*small) == 0
    assert json.loads(capsys.readouterr().out)["k_list"] == [None]


def test_task_is_rejected_where_it_has_no_effect(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    out = tmp_path / "task-out"
    config = tmp_path / "task.json"
    config.write_text(json.dumps({"task": "high-noise"}))
    for argv, why in ((["benchmark", "--data", cor, "--methods", "mse"], "with --data"),
                      (["generate", "--beta", "2", "--n", "20", "--d", "2"], "with --beta"),
                      (["diagnose", "--beta", "2", "--n-mc", "2000", "--d", "2"], "with --beta")):
        for given in (["--task", "high-noise"], ["--config", str(config)]):
            assert run(*argv, *given, "--out", str(out)) == 1, (argv, given)
            assert f"--task has no effect {why}" in capsys.readouterr().err
            assert not out.exists()
    assert run("generate", "--task", "high-noise", "--n", "20", "--d", "2", "--out", str(out)) == 0
    capsys.readouterr()


def test_benchmark_rbf_runs_with_sigma_grid_alone(capsys):
    assert run(
        "benchmark", "--model", "rbf", "--sigma-grid", "1,2", "--n", "60", "--d", "2",
        "--folds", "2", "--methods", "mse", "--k", "50", "--max-epochs", "1",
        "--patience", "1", "--lam-grid", "0.01",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == []
    assert {h["sigma"] for h in payload["summaries"][0]["fold_hyper"]} <= {1.0, 2.0}


def test_benchmark_repeated_method_or_k_exits_one(capsys):
    small = ["--n", "100", "--folds", "2", "--max-epochs", "1"]
    assert run("benchmark", "--methods", "mse,mse", "--k", "50", *small) == 1
    assert "method 'mse' is listed more than once" in capsys.readouterr().err
    assert run("benchmark", "--methods", "mse", "--k", "50,50", *small) == 1
    assert "K 50.0 is listed more than once" in capsys.readouterr().err
    assert run("benchmark", "--methods", "u2", "--k", "50", "--lam-grid", "0.1,0.1",
               "--rho-grid", "1,1", *small) == 1
    assert "must be a nonempty tuple of distinct positive finite reals" in capsys.readouterr().err


def test_benchmark_empty_methods_or_k_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "rep.json"
    small = ["--n", "40", "--d", "2", "--folds", "2", "--max-epochs", "2", "--lam-grid", "0.01",
             "--out", str(out)]
    config = tmp_path / "lists.json"
    for key, flag in (("methods", "--methods"), ("k", "--k")):
        config.write_text(json.dumps({key: []}))
        for given in ([flag, ""], [flag, ","], ["--config", str(config)]):
            assert run("benchmark", *given, *small) == 1, given
            assert f"{flag} must list at least one value" in capsys.readouterr().err
            assert not out.exists()


def test_benchmark_bad_training_settings_exit_one_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "rep.json"
    small = ["benchmark", "--n", "60", "--d", "2", "--folds", "2", "--k", "50",
             "--lam-grid", "0.01", "--out", str(out)]
    for bad, message in ((["--batch-size", "0"], "batch_size must be positive"),
                         (["--max-epochs", "-1"], "max_epochs must be nonnegative"),
                         (["--patience", "-1"], "patience must be nonnegative"),
                         (["--methods", "huber", "--huber-delta", "0"],
                          "huber_delta must be positive and finite")):
        assert run(*small, *bad) == 1, bad
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_benchmark_names_an_empty_test_fold_on_stderr(capsys):
    # at K = 100 every test row is corrupted: each item fails, so the run
    # still writes its report and messages but exits 2
    assert run("benchmark", "--n", "40", "--d", "2", "--folds", "40", "--k", "100",
               "--methods", "mse", "--max-epochs", "2", "--lam-grid", "0.01") == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.count("no uncorrupted test row to score") == 40
    assert ("benchmark item failed: seed=0 k=100.0 fold=0 method=mse: "
            "no uncorrupted test row to score") in err
    assert "0 summaries" in err
    assert err.endswith("runtime failure: every benchmark item failed\n")
    payload = json.loads(captured.out)
    assert payload["summaries"] == [] and len(payload["errors"]) == 40


def test_benchmark_beta_and_corruption_scale_reach_the_report(capsys):
    assert run("benchmark", "--n", "60", "--d", "2", "--folds", "2", "--methods", "mse",
               "--k", "50", "--max-epochs", "1", "--lam-grid", "0.01",
               "--beta", "2", "--corruption-scale", "3") == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert (payload["beta"], payload["corruption_scale"]) == (2.0, 3.0)
    assert payload["label_scale"] == math.sqrt(2 + 1 / 2.0)
    task = BenchmarkTask("low-noise", beta=2.0, n=60, d=2, corruption_scale=3.0)
    report = run_benchmark(task, ["mse"], [50.0], folds=2, seeds=0,
                           grid=GridSpec(lams=(0.01,)), max_epochs=1)
    assert out == report.to_json()


def test_unexpected_runtime_failure_maps_to_exit_two(monkeypatch, capsys):
    import u2reg.cli as cli

    def explode(*a, **kw):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_benchmark", explode)
    assert run("benchmark", "--n", "40", "--d", "2", "--methods", "mse") == 2
    assert "runtime failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_matches_the_library_computation(tmp_path, capsys):
    out = str(tmp_path / "diag.json")
    assert run("diagnose", "--task", "low-noise", "--d", "4", "--k", "50",
               "--n-mc", "2000", "--seed", "3", "--out", out) == 0
    capsys.readouterr()
    payload = json.loads(open(out).read())

    process = SyntheticProcess.draw(
        4, derive_seed(3, "cli-process"), beta=1.0, k_percent=50.0
    )
    model = LinearModel(4, np.concatenate([process.weights, [0.0]]))
    diag = estimate_eta_xi_delta(
        process, model, LossSpec.parse("absolute", "absolute"),
        2000, derive_seed(3, "cli-diagnose-mc"),
    )
    assert payload["eta"] == pytest.approx(diag.eta, rel=1e-15)
    assert payload["delta"] == pytest.approx(diag.delta, rel=1e-15)
    assert payload["bias_lower_bound"] == pytest.approx(diag.bound, rel=1e-15)
    assert payload["xi"] == 0.5
    assert payload["n_mc"] == 2000


def test_diagnose_intercept_shift_changes_eta(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run("diagnose", "--d", "3", "--k", "50", "--n-mc", "2000", "--out", a) == 0
    assert run("diagnose", "--d", "3", "--k", "50", "--n-mc", "2000",
               "--intercept-shift", "1.5", "--out", b) == 0
    capsys.readouterr()
    eta_a = json.loads(open(a).read())["eta"]
    eta_b = json.loads(open(b).read())["eta"]
    assert eta_b < eta_a  # raising the fit moves draws below it


def test_diagnose_scores_a_model_file_and_rejects_a_width_mismatch(pipeline, capsys):
    tmp_path, _data, cor = pipeline
    model_path, out = str(tmp_path / "m.json"), str(tmp_path / "diag.json")
    assert run("train", "--data", cor, "--method", "mse", "--max-epochs", "3",
               "--out", model_path) == 0
    assert run("diagnose", "--d", "3", "--k", "50", "--n-mc", "2000", "--seed", "2",
               "--model-file", model_path, "--out", out) == 0
    capsys.readouterr()
    # the process generate --seed 2 --d 3 draws from, fed to the model in the
    # standardized coordinates train fitted it in
    process = SyntheticProcess.draw(3, derive_seed(2, "cli-process"), beta=1.0, k_percent=50.0)
    model, saved = load_model(model_path)
    stats = FeatureStats(np.asarray(saved["feature_mean"]), np.asarray(saved["feature_std"]))
    fitted_features = model.features
    model.features = lambda X: fitted_features(stats.apply(X))
    diag = estimate_eta_xi_delta(process, model, LossSpec.parse("absolute", "absolute"), 2000,
                                 derive_seed(2, "cli-diagnose-mc"))
    payload = json.loads(open(out).read())
    assert (payload["eta"], payload["delta"]) == (diag.eta, diag.delta)
    X, y = process.draw_clean(2000, derive_rng(derive_seed(2, "cli-diagnose-mc"), "eta-xi-delta"))
    assert payload["eta"] == np.mean(predict(load_model(model_path)[0], stats.apply(X)) <= y)

    rejected = str(tmp_path / "rejected.json")
    assert run("diagnose", "--d", "4", "--n-mc", "2000", "--model-file", model_path,
               "--out", rejected) == 1
    assert "model feature count does not match --d" in capsys.readouterr().err
    assert not os.path.exists(rejected)
    assert run("diagnose", "--d", "3", "--n-mc", "2000", "--model-file", model_path,
               "--intercept-shift", "5", "--out", rejected) == 1
    assert "--intercept-shift has no effect with --model-file" in capsys.readouterr().err
    assert not os.path.exists(rejected)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_features_windowed_output(tmp_path, capsys):
    data = str(tmp_path / "series.csv")
    with open(data, "w") as fh:
        fh.write("temp,load\n")
        for t in range(10):
            fh.write(f"{t}.0,{t * 10}.0\n")
    out = str(tmp_path / "feat.csv")
    assert run("features", "--data", data, "--window", "4", "--stride", "3",
               "--out", out) == 0
    capsys.readouterr()
    lines = open(out).read().splitlines()
    assert lines[0].startswith("ch0_mean,ch0_std,ch0_q05")
    assert "ch1_mean" in lines[0]
    assert len(lines) == 1 + 3  # (10 - 4) // 3 + 1 windows


def test_features_requires_window(tmp_path, capsys):
    data = str(tmp_path / "s.csv")
    with open(data, "w") as fh:
        fh.write("1.0\n2.0\n")
    assert run("features", "--data", data) == 1
    capsys.readouterr()

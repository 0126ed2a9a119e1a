"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from u2reg import Dataset, LinearModel, LossSpec, SyntheticProcess, estimate_eta_xi_delta, load_model
from u2reg.cli import ARG_TABLE, run_cli
from u2reg.rngutil import derive_seed


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
    outs = []
    for i, data in enumerate((cor, headed, bare)):
        outs.append(str(tmp_path / f"p{i}.csv"))
        assert run("predict", "--data", data, "--model-file", model_path, "--out", outs[-1]) == 0
    capsys.readouterr()
    assert read_bytes(outs[0]) == read_bytes(outs[1]) == read_bytes(outs[2])
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


def test_config_file_must_be_json_object(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        fh.write("[1, 2]")
    assert run("generate", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 1
    capsys.readouterr()


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
        "--rho-grid", "1", "--lam-grid", "0.01", "--sigma-grid", "1",
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
        "--rho-grid", "1", "--lam-grid", "0.01", "--sigma-grid", "1",
        "--out", str(tmp_path / "r.json"), "--points", points,
    ) == 0
    capsys.readouterr()
    assert os.path.exists(str(tmp_path / "pts-k25.csv"))
    assert os.path.exists(str(tmp_path / "pts-k50.csv"))
    assert not os.path.exists(points)


def test_benchmark_stdout_report(capsys):
    assert run(
        "benchmark", "--n", "60", "--d", "2", "--folds", "2", "--methods", "mse",
        "--k", "50", "--max-epochs", "1", "--patience", "1",
        "--rho-grid", "1", "--lam-grid", "0.01", "--sigma-grid", "1",
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
        4, derive_seed(3, "cli-diagnose-process"), beta=1.0, k_percent=50.0
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

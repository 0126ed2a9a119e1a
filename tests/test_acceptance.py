"""End-to-end ship checks, one recorded verdict line per guarantee.

Every test here registers a [PASS]/[FAIL] line through conftest before it
asserts, so the terminal summary always carries an explicit verdict for each
check even when one of them is red. A red line is an honest shortfall at the
stated tolerance, not a flake: everything in this module is seeded and
byte-reproducible.
"""

import math

import numpy as np
import pytest
from conftest import param_jacobian, record_acceptance

from u2reg import (
    ArchSpec,
    BenchmarkTask,
    Dataset,
    LinearModel,
    LossSpec,
    SyntheticProcess,
    TrainConfig,
    corrupt,
    dloss_df,
    generate_uncorrupted,
    gradient_study,
    init_model,
    predict,
    run_benchmark,
    split_cv,
    standardize,
    train,
)
from u2reg.cli import run_cli
from u2reg.rngutil import derive_seed

KS = (25.0, 50.0, 75.0)


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_low():
    """Low-noise benchmark: n=1000, d=10, 5 folds, fixed seed, default grids."""
    task = BenchmarkTask.named("low-noise")
    return run_benchmark(task, ["u2", "mse"], list(KS), folds=5, seeds=7)


@pytest.fixture(scope="module")
def bench_tiny_val():
    """Same run at K=50 with a 1% validation split instead of 20%."""
    task = BenchmarkTask.named("low-noise")
    return run_benchmark(task, ["u2"], [50.0], folds=5, seeds=7, val_fraction=0.01)


@pytest.fixture(scope="module")
def grad_study():
    """Monte-Carlo study of the corrected estimator and the naive one.

    Fixed linear fit f_t (true weights, intercept +0.2) against a strict-mode
    corruption process, so the upper fraction pi_up = P(eps >= 0.2) is known
    in closed form. The population gradient comes from a 1e6-draw clean
    oracle; the estimator is averaged over 200 corrupted datasets per size.
    """
    SEED = 11
    D = 10
    process = SyntheticProcess.draw(
        D, derive_seed(SEED, "harness-process"), beta=1.0,
        k_percent=50.0, mode="strict", corruption_scale=2.0,
    )
    f_t = LinearModel(D, np.concatenate([process.weights, [0.2]]))
    pi_up = 1.0 - 0.5 * (1.0 + math.erf(0.2 / math.sqrt(2.0)))

    def seed_of(*labels):
        # 10k-row datasets keep ("data"|"corrupt", r), smaller ones ("cdata"|"ccorrupt", n, r)
        if labels[0] in ("data", "corrupt"):
            kind, n_rows, r = labels
            labels = (kind, r) if n_rows == 10_000 else ("c" + kind, n_rows, r)
        return derive_seed(SEED, *labels)

    return gradient_study(process, f_t, LossSpec.parse("absolute", "absolute"), pi_up,
                          (100, 1000, 10_000), 200, 1_000_000, seed_of)


# ---------------------------------------------------------------------------
# benchmark-level guarantees
# ---------------------------------------------------------------------------

def test_low_noise_headline_mae(bench_low):
    u2 = bench_low.summary("u2", 50.0).mean_mae
    ms = bench_low.summary("mse", 50.0).mean_mae
    ok = (u2 <= 0.75) and (ms >= 1.2)
    record_acceptance(
        "low-noise-K50-headline-mae", ok,
        f"u2 mean MAE {u2:.4f} (need <= 0.75); naive-mse {ms:.4f} (need >= 1.2)",
    )
    assert ok, f"u2 {u2:.4f} vs naive-mse {ms:.4f}"


def test_corruption_rate_robustness(bench_low):
    u2 = [bench_low.summary("u2", k).mean_mae for k in KS]
    ms = [bench_low.summary("mse", k).mean_mae for k in KS]
    span = max(u2) - min(u2)
    monotone = ms[0] < ms[1] < ms[2]
    rise = ms[2] - ms[0]
    ok = (span < 0.25) and monotone and (rise > 1.0)
    record_acceptance(
        "corruption-rate-robustness", ok,
        f"u2 span {span:.4f} over K={KS} (need < 0.25); naive-mse "
        f"{ms[0]:.3f}/{ms[1]:.3f}/{ms[2]:.3f} monotone={monotone}, "
        f"rise {rise:.3f} (need > 1.0)",
    )
    assert ok


def test_clean_test_signed_error(bench_low):
    u2 = bench_low.summary("u2", 50.0).mean_signed
    ms = bench_low.summary("mse", 50.0).mean_signed
    ok = (abs(u2) < 0.1) and (ms < -0.5)
    record_acceptance(
        "signed-error-unbiasedness", ok,
        f"u2 mean signed error {u2:+.4f} (need |.| < 0.1); "
        f"naive-mse {ms:+.4f} (need < -0.5)",
    )
    assert ok, f"u2 signed {u2:+.4f}, naive-mse signed {ms:+.4f}"


def test_u2_margin_over_mse(bench_low):
    u2 = bench_low.summary("u2", 50.0).mean_mae
    ms = bench_low.summary("mse", 50.0).mean_mae
    gap = ms - u2
    record_acceptance(
        "u2-vs-mse-margin", gap >= 0.5,
        f"margin {gap:.4f} (need >= 0.5)",
    )
    assert gap >= 0.5


def test_tiny_validation_robustness(bench_low, bench_tiny_val):
    ref = bench_low.summary("u2", 50.0).mean_mae
    tiny = bench_tiny_val.summary("u2", 50.0).mean_mae
    excess = tiny - ref
    ok = excess < 0.15
    record_acceptance(
        "tiny-validation-robustness", ok,
        f"u2 mean MAE {tiny:.4f} at val_fraction=0.01 vs {ref:.4f} at 0.20; "
        f"excess {excess:+.4f} (need < 0.15)",
    )
    assert ok


# ---------------------------------------------------------------------------
# estimator-level guarantees
# ---------------------------------------------------------------------------

def test_gradient_estimator_matches_oracle(grad_study):
    z, slope = grad_study.z, grad_study.slope
    ok = (z.max() <= 4.0) and (-0.65 <= slope <= -0.35)
    record_acceptance(
        "gradient-estimator-oracle-match", ok,
        f"max |z| {z.max():.2f} over {z.size} coords (need <= 4); "
        f"log-log RMS slope {slope:.3f} vs n (need in [-0.65, -0.35])",
    )
    assert ok, f"max z {z.max():.2f}, slope {slope:.3f}"


def test_naive_gradient_bias_floor(grad_study):
    g = grad_study
    i = int(np.argmax(np.abs(g.bias)))
    measured = float(np.abs(g.bias)[i])
    se_at = g.bias_se[i]
    bound = g.diag.bound
    ok = measured >= bound - 4.0 * se_at
    record_acceptance(
        "naive-gradient-bias-floor", ok,
        f"measured max-coord bias {measured:.4f} vs floor {bound:.4f} "
        f"(eta {g.diag.eta:.3f}, xi {g.diag.xi:.2f}, "
        f"delta {g.diag.delta:.3f}) - 4se {4 * se_at:.4f}",
    )
    assert ok


def test_strict_corruption_keeps_the_fit_above_corrupted_labels():
    process = SyntheticProcess.draw(
        10, derive_seed(31, "leak-process"), beta=1.0,
        k_percent=50.0, mode="strict", corruption_scale=2.0,
    )
    ds = corrupt(
        generate_uncorrupted(process, 100_000, derive_seed(31, "leak-data")),
        process, derive_seed(31, "leak-corrupt"),
    )
    f_star = process.oracle(ds.xs)
    leaks = int(np.sum(ds.corrupted & (f_star <= ds.ys_prime)))
    ok = leaks == 0
    record_acceptance(
        "strict-corruption-identifiability", ok,
        f"{leaks} corrupted rows with f*(x) <= y' out of 100000 (need 0)",
    )
    assert ok


# ---------------------------------------------------------------------------
# gradient correctness
# ---------------------------------------------------------------------------

def _fd_jacobian_batch(model, X, h=1e-6):
    theta = model.theta
    J = np.empty((X.shape[0], theta.shape[0]))
    for j in range(theta.shape[0]):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (
            predict(model.clone_with_theta(up), X)
            - predict(model.clone_with_theta(dn), X)
        ) / (2.0 * h)
    return J


def test_jacobians_and_label_free_lower_losses():
    rng = np.random.default_rng(derive_seed(17, "fd-cases"))
    archs = {
        "linear": (ArchSpec("linear"), 7),
        "rbf": (ArchSpec("rbf", sigma=1.2), 4),
        "mlp": (ArchSpec("mlp", hidden=(8, 6), dropout=0.0), 5),
    }
    worst = {}
    for name, (arch, dim) in archs.items():
        bases = rng.standard_normal((12, dim))
        base = init_model(arch, dim, derive_seed(17, "fd-init", name), rbf_bases=bases)
        rel_max = 0.0
        for _ in range(10):  # 10 draws x 100 inputs = 1000 cases per kind
            theta = base.theta + 0.5 * rng.standard_normal(base.theta.shape)
            model = base.clone_with_theta(theta)
            X = rng.standard_normal((100, dim))
            fd = _fd_jacobian_batch(model, X)
            exact = np.vstack([param_jacobian(model, x) for x in X])
            rel_max = max(rel_max, float(np.max(np.abs(exact - fd) / (1.0 + np.abs(fd)))))
        worst[name] = rel_max

    jac_ok = all(v < 1e-5 for v in worst.values())

    # A label-free lower side: with the fit strictly above two different
    # labels, the lower-loss derivative must be bit-identical for both.
    exact_ok = True
    for lower in ("absolute", "pinball:0.1", "pinball:0.25", "pinball:0.5", "pinball:0.9"):
        spec = LossSpec.parse("squared", lower)
        f = rng.standard_normal(1000) * 3.0
        y1 = f - rng.uniform(0.01, 5.0, size=1000)
        y2 = f - rng.uniform(0.01, 5.0, size=1000)
        d1 = dloss_df(spec.lower, f, y1)
        d2 = dloss_df(spec.lower, f, y2)
        exact_ok = exact_ok and np.array_equal(d1, d2)

    ok = jac_ok and exact_ok
    record_acceptance(
        "jacobians-and-lower-loss-exactness", ok,
        "worst |J - FD|/(1+|FD|): "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + f" (need < 1e-5); label-free lower-derivative equality exact: {exact_ok}",
    )
    assert ok


def test_lu_training_mirrors_u2():
    process = SyntheticProcess.draw(10, derive_seed(5, "p"), beta=1.0, k_percent=50.0)
    ds = corrupt(
        generate_uncorrupted(process, 400, derive_seed(5, "g")),
        process, derive_seed(5, "c"),
    )
    tr, va, _te = split_cv(ds, 5, 0.2, derive_seed(5, "s"))[0]
    tr, (va,), _ = standardize(tr, (va,))
    neg_tr = Dataset(tr.xs, -tr.ys_prime)
    neg_va = Dataset(va.xs, -va.ys_prime)

    spec = LossSpec.parse("absolute", "absolute")
    cfg_u2 = TrainConfig("u2", spec=spec, rho=1.0, lam=0.01, max_epochs=40, seed=123)
    cfg_lu = TrainConfig("lu", spec=spec, rho=1.0, lam=0.01, max_epochs=40, seed=123)

    diffs = []
    inits = [
        np.zeros(tr.dim + 1),
        np.random.default_rng(0).standard_normal(tr.dim + 1) * 0.1,
    ]
    for theta0 in inits:
        res_u2 = train(LinearModel(tr.dim, theta0), tr, va, cfg_u2)
        res_lu = train(LinearModel(tr.dim, -theta0), neg_tr, neg_va, cfg_lu)
        diffs.append(float(np.max(np.abs(res_lu.model.theta + res_u2.model.theta))))

    ok = all(d <= 1e-6 for d in diffs)
    record_acceptance(
        "lu-mirror-training", ok,
        f"max |theta_lu + theta_u2| = {max(diffs):.2e} over zero and random "
        f"inits (need <= 1e-6)",
    )
    assert ok, diffs


# ---------------------------------------------------------------------------
# CLI determinism
# ---------------------------------------------------------------------------

def test_cli_artifacts_are_byte_identical(tmp_path, capsys):
    def path(name):
        return str(tmp_path / name)

    def run_twice(outputs, *argv):
        blobs = []
        for tag in ("one", "two"):
            renamed = [a.replace("@", tag) for a in argv]
            assert run_cli(renamed) == 0, renamed
            blobs.append([open(path(o.replace("@", tag)), "rb").read() for o in outputs])
        capsys.readouterr()
        return blobs[0] == blobs[1]

    series = path("series.csv")
    with open(series, "w") as fh:
        fh.write("a,b\n")
        for t in range(30):
            fh.write(f"{t}.0,{t * 2}.0\n")

    results = {}
    results["generate"] = run_twice(
        ["gen-@.csv"],
        "generate", "--n", "600", "--d", "4", "--k", "50", "--seed", "9",
        "--out", path("gen-@.csv"),
    )
    assert run_cli(["generate", "--n", "400", "--d", "3", "--k", "0", "--seed", "4",
                    "--out", path("base.csv")]) == 0
    results["corrupt"] = run_twice(
        ["cor-@.csv"],
        "corrupt", "--data", path("base.csv"), "--k", "40", "--seed", "4",
        "--out", path("cor-@.csv"),
    )
    results["train"] = run_twice(
        ["model-@.json", "hist-@.csv"],
        "train", "--data", path("cor-one.csv"), "--method", "u2",
        "--max-epochs", "25", "--seed", "2",
        "--out", path("model-@.json"), "--history", path("hist-@.csv"),
    )
    results["predict"] = run_twice(
        ["pred-@.csv"],
        "predict", "--data", path("cor-one.csv"),
        "--model-file", path("model-one.json"), "--out", path("pred-@.csv"),
    )
    results["benchmark"] = run_twice(
        ["rep-@.json", "tab-@.txt", "pts-@.csv"],
        "benchmark", "--task", "low-noise", "--n", "300", "--d", "3",
        "--folds", "2", "--methods", "mse", "--k", "50",
        "--max-epochs", "25", "--patience", "5", "--seed", "6",
        "--lam-grid", "1e-2",
        "--out", path("rep-@.json"), "--table", path("tab-@.txt"),
        "--points", path("pts-@.csv"),
    )
    results["diagnose"] = run_twice(
        ["diag-@.json"],
        "diagnose", "--d", "4", "--k", "50", "--n-mc", "2000", "--seed", "3",
        "--out", path("diag-@.json"),
    )
    results["features"] = run_twice(
        ["feat-@.csv"],
        "features", "--data", series, "--window", "6", "--stride", "2",
        "--out", path("feat-@.csv"),
    )

    ok = all(results.values())
    bad = [k for k, v in results.items() if not v]
    record_acceptance(
        "cli-byte-determinism", ok,
        f"{len(results)} subcommands, two seeded runs each, artifacts "
        f"byte-compared; mismatches: {bad if bad else 'none'}",
    )
    assert ok, bad

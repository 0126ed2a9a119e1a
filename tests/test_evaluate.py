"""Metrics, grid search, benchmark pipeline, and bias-floor estimation."""

from dataclasses import replace

import numpy as np
import pytest

from u2reg import (
    ArchSpec,
    BenchmarkTask,
    GridSpec,
    LinearModel,
    LossKind,
    LossSpec,
    SyntheticProcess,
    TrainConfig,
    corrupt,
    estimate_eta_xi_delta,
    generate_uncorrupted,
    grid_search,
    init_model,
    mae,
    mean_signed_error,
    run_benchmark,
    split_cv,
    standardize,
    train,
)
from u2reg.evaluate import DEFAULT_GRID, Hyperparams
from u2reg.losses import dloss_df
from u2reg.optim import DEFAULT_SPECS
from u2reg.gradients import bias_lower_bound, partition_upper
from u2reg.rngutil import derive_rng, derive_seed

SQ_ABS = LossSpec.parse("squared", "absolute")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_mae_and_signed_error_examples():
    y = np.array([1.0, 2.0, 3.0])
    p = np.array([2.0, 2.0, 1.0])
    assert mae(y, p) == 1.0
    assert mean_signed_error(y, p) == pytest.approx((1.0 + 0.0 - 2.0) / 3.0)


def test_mae_is_permutation_invariant():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20)
    p = rng.standard_normal(20)
    perm = rng.permutation(20)
    assert mae(y, p) == pytest.approx(mae(y[perm], p[perm]))
    assert mean_signed_error(y, p) == pytest.approx(mean_signed_error(y[perm], p[perm]))


def test_metrics_reject_mismatched_inputs():
    with pytest.raises(ValueError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mae(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        mean_signed_error(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spec_defaults_and_validation():
    spec = GridSpec()
    assert spec.rhos == DEFAULT_GRID and spec.lams == DEFAULT_GRID
    with pytest.raises(ValueError):
        GridSpec(rhos=())
    with pytest.raises(ValueError):
        GridSpec(lams=(0.1, -0.5))
    with pytest.raises(ValueError):
        GridSpec(sigmas=(0.0,))
    with pytest.raises(ValueError):
        GridSpec(lams=(np.nan,))
    with pytest.raises(ValueError):
        GridSpec(rhos=(0.1, np.inf))


# ---------------------------------------------------------------------------
# per-method train configs
# ---------------------------------------------------------------------------

def test_method_train_config_defaults():
    u2 = TrainConfig("u2", rho=0.5, lam=0.01)
    assert u2.method == "u2" and u2.rho == 0.5 and u2.lam == 0.01
    assert (str(u2.spec.upper), str(u2.spec.lower)) == DEFAULT_SPECS["u2"] == ("squared", "absolute")
    assert u2.naive_kind is None
    lu = TrainConfig("lu")
    assert (str(lu.spec.upper), str(lu.spec.lower)) == DEFAULT_SPECS["lu"] == ("absolute", "absolute")
    assert lu.naive_kind is None
    assert TrainConfig("mse").naive_kind == LossKind("squared")
    assert TrainConfig("mae").naive_kind == LossKind("absolute")
    hub = TrainConfig("huber", huber_delta=2.5)
    assert hub.naive_kind == LossKind("huber", 2.5) and hub.spec is None
    assert replace(hub, lam=0.1).naive_kind == LossKind("huber", 2.5)
    with pytest.raises(ValueError):
        TrainConfig("ols")


def test_method_train_config_custom_spec_passthrough():
    spec = LossSpec.parse("pinball:0.7", "pinball:0.7")
    assert TrainConfig("u2", spec=spec).spec is spec


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def small_corruption_splits(seed=55, n=500, scale=4.0):
    p = SyntheticProcess.draw(
        6, derive_seed(seed, "etest-proc"), beta=1.0, k_percent=50.0,
        corruption_scale=scale,
    )
    ds = corrupt(
        generate_uncorrupted(p, n, derive_seed(seed, "etest-gen")),
        p, derive_seed(seed, "etest-cor"),
    )
    tr, va, te = split_cv(ds, 3, 0.2, derive_seed(seed, "etest-split"))[0]
    tr_s, (va_s, te_s), _ = standardize(tr, (va, te))
    return tr_s, va_s, te_s


def test_grid_search_single_cell():
    tr_s, va_s, _ = small_corruption_splits()
    grid = GridSpec(rhos=(1.0,), lams=(0.01,), sigmas=(1.0,))
    template = TrainConfig("mse", max_epochs=10, seed=1)
    out = grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=1)
    assert len(out.cells) == 1
    assert out.best == Hyperparams(rho=None, lam=0.01, sigma=None)
    assert out.cells[0].val_loss == out.best_result.best_val_loss


def test_grid_search_picks_the_lowest_validation_cell():
    tr_s, va_s, _ = small_corruption_splits(seed=56)
    # an absurd penalty pins the second cell near zero, so the small one wins
    grid = GridSpec(rhos=(1.0,), lams=(1e-3, 1e3), sigmas=(1.0,))
    template = TrainConfig("mse", max_epochs=40, patience=40, seed=2)
    out = grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=2)
    assert out.best.lam == 1e-3
    vals = [c.val_loss for c in out.cells]
    assert min(vals) == out.best_result.best_val_loss


def test_grid_search_tie_breaks_toward_smaller_lam_then_rho():
    # zero training epochs: every cell keeps its zero init, so every cell
    # ties and the declared preference order decides
    tr_s, va_s, _ = small_corruption_splits(seed=57)
    grid = GridSpec(rhos=(1.0, 0.1), lams=(0.01, 0.001), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=0, seed=3)
    out = grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=3)
    assert len(out.cells) == 4
    assert out.best == Hyperparams(rho=0.1, lam=0.001, sigma=None)


def test_grid_search_chosen_cell_close_to_best_on_clean_test():
    tr_s, va_s, te_s = small_corruption_splits()
    grid = GridSpec(rhos=(0.1, 1.0), lams=(1e-3, 1e-1), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=120, patience=120, seed=9)
    arch = ArchSpec("linear")
    search = grid_search(tr_s, va_s, arch, grid, template, seed=9)
    chosen = mae(te_s.ys_true, search.best_result.model.predict_batch(te_s.xs))
    cell_maes = []
    index = 0
    for rho in grid.rhos:
        for lam in grid.lams:
            cfg = replace(template, rho=rho, lam=lam,
                          seed=derive_seed(9, "grid-cell", index))
            model = init_model(arch, tr_s.dim, derive_seed(9, "grid-init", index),
                               rbf_bases=tr_s.xs)
            res = train(model, tr_s, va_s, cfg)
            cell_maes.append(mae(te_s.ys_true, res.model.predict_batch(te_s.xs)))
            index += 1
    assert chosen <= min(cell_maes) + 0.15


def test_grid_search_rbf_expands_sigma_axis():
    tr_s, va_s, _ = small_corruption_splits(seed=58, n=120)
    grid = GridSpec(rhos=(1.0,), lams=(0.01,), sigmas=(0.5, 2.0))
    template = TrainConfig("mse", max_epochs=2, seed=4)
    out = grid_search(tr_s, va_s, ArchSpec("rbf", sigma=1.0), grid, template, seed=4)
    assert len(out.cells) == 2
    assert sorted(c.hyper.sigma for c in out.cells) == [0.5, 2.0]
    assert out.best.sigma in (0.5, 2.0)


def test_grid_search_isolates_failing_cells(monkeypatch):
    tr_s, va_s, _ = small_corruption_splits(seed=59, n=100)
    import u2reg.evaluate as ev

    real_train = ev.train

    def flaky(model, tr, va, cfg, step_callback=None):
        if cfg.lam == 0.01:
            raise RuntimeError("boom")
        return real_train(model, tr, va, cfg, step_callback)

    monkeypatch.setattr(ev, "train", flaky)
    grid = GridSpec(rhos=(1.0,), lams=(0.01, 0.001), sigmas=(1.0,))
    template = TrainConfig("mse", max_epochs=2, seed=5)
    out = ev.grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=5)
    failed = [c for c in out.cells if c.error is not None]
    assert len(failed) == 1
    assert failed[0].hyper.lam == 0.01
    assert failed[0].val_loss == np.inf
    assert "boom" in failed[0].error
    assert out.best.lam == 0.001


def test_grid_search_raises_when_every_cell_fails(monkeypatch):
    tr_s, va_s, _ = small_corruption_splits(seed=60, n=80)
    import u2reg.evaluate as ev

    def always_fail(*a, **kw):
        raise RuntimeError("no luck")

    monkeypatch.setattr(ev, "train", always_fail)
    grid = GridSpec(rhos=(1.0,), lams=(0.01, 0.001), sigmas=(1.0,))
    template = TrainConfig("mse", max_epochs=2, seed=6)
    with pytest.raises(RuntimeError, match="every grid cell failed"):
        ev.grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=6)


# ---------------------------------------------------------------------------
# benchmark pipeline
# ---------------------------------------------------------------------------

def test_benchmark_task_constructors():
    t = BenchmarkTask.named("low-noise")
    assert t.beta == 1.0 and t.is_synthetic
    assert t.label_scale == pytest.approx(np.sqrt(11.0))
    h = BenchmarkTask.named("high-noise")
    assert h.beta == 0.1
    assert h.label_scale == pytest.approx(np.sqrt(20.0))
    with pytest.raises(ValueError):
        BenchmarkTask.named("medium-noise")
    c = BenchmarkTask.from_csv("some.csv")
    assert not c.is_synthetic and c.label_scale == 1.0


def test_run_benchmark_rejects_unknown_methods():
    task = BenchmarkTask.named("low-noise", n=50)
    with pytest.raises(ValueError):
        run_benchmark(task, ["gbm"], [0.0], folds=2, max_epochs=1)


def test_benchmark_uncorrupted_mse_is_accurate():
    # with no corruption the trusting baseline should sit close to the
    # irreducible error: scaled MAE well under 0.35
    task = BenchmarkTask.named("low-noise", n=1000, d=10)
    rep = run_benchmark(
        task, ["mse"], [0.0], folds=2, seeds=5, val_fraction=0.2,
        grid=GridSpec(rhos=(1.0,), lams=(1e-3, 1e-2), sigmas=(1.0,)),
        max_epochs=300, patience=30,
    )
    s = rep.summary("mse", 0.0)
    assert rep.errors == []
    assert s.mean_mae <= 0.35
    assert len(s.fold_maes) == 2  # one seed, two folds


def test_benchmark_report_is_byte_deterministic():
    task = BenchmarkTask.named("low-noise", n=200, d=4)
    kw = dict(
        methods=["mse"], k_list=[50.0], folds=2, seeds=3, val_fraction=0.2,
        grid=GridSpec(rhos=(1.0,), lams=(1e-2,), sigmas=(1.0,)),
        max_epochs=5, patience=5,
    )
    r1 = run_benchmark(task, **kw)
    r2 = run_benchmark(task, **kw)
    assert r1.to_json() == r2.to_json()
    assert r1.to_text() == r2.to_text()
    assert r1.to_points_csv(50.0) == r2.to_points_csv(50.0)


def test_benchmark_report_accessors_and_points():
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    rep = run_benchmark(
        task, ["mse"], [50.0], folds=2, seeds=1,
        grid=GridSpec(rhos=(1.0,), lams=(1e-2,), sigmas=(1.0,)),
        max_epochs=3, patience=3,
    )
    s = rep.summary("mse", 50.0)
    assert s.method == "mse"
    with pytest.raises(KeyError):
        rep.summary("mse", 75.0)
    with pytest.raises(KeyError):
        rep.summary("u2", 50.0)
    csv_text = rep.to_points_csv(50.0)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "index,y_true,y_pred,error,method"
    # clean-test rows across both folds cover the uncorrupted half once
    n_clean = len(lines) - 1
    assert 0 < n_clean <= 120
    assert all(line.endswith(",mse") for line in lines[1:])
    text = rep.to_text()
    assert "mse" in text and "label_scale" in text


def test_benchmark_csv_task_scores_against_observed_labels(tmp_path):
    rng = np.random.default_rng(44)
    xs = rng.standard_normal((120, 3))
    ys = xs @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(120)
    from u2reg.data import Dataset

    path = str(tmp_path / "ext.csv")
    Dataset(xs, ys).to_csv(path)
    task = BenchmarkTask.from_csv(path)
    rep = run_benchmark(
        task, ["mse"], [50.0], folds=2, seeds=1,
        grid=GridSpec(rhos=(1.0,), lams=(1e-2,), sigmas=(1.0,)),
        max_epochs=3, patience=3,
    )
    assert rep.target_label == "y_prime"
    assert rep.k_list == [None]
    assert rep.label_scale == 1.0
    assert rep.summary("mse", None).mean_mae > 0.0


def test_benchmark_empty_methods_gives_empty_summaries():
    task = BenchmarkTask.named("low-noise", n=60, d=2)
    rep = run_benchmark(task, [], [50.0], folds=2, seeds=1, max_epochs=1)
    assert rep.summaries == []
    assert rep.errors == []


def test_benchmark_takes_one_int_seed():
    task = BenchmarkTask.named("low-noise", n=60, d=2)
    with pytest.raises(TypeError):
        run_benchmark(task, ["mse"], [50.0], folds=2, seeds=[1, 2], max_epochs=1)


def test_benchmark_rejects_a_repeated_method_or_k():
    task = BenchmarkTask.named("low-noise", n=100, d=2)
    with pytest.raises(ValueError, match="method 'mse' is listed more than once"):
        run_benchmark(task, ["mse", "u2", "mse"], [50.0], folds=2, seeds=1, max_epochs=1)
    with pytest.raises(ValueError, match="K 50.0 is listed more than once"):
        run_benchmark(task, ["mse"], [50.0, 25.0, 50], folds=2, seeds=1, max_epochs=1)


def test_benchmark_k_type_does_not_change_the_data():
    # the seed labels hash repr(k), so an int K must not draw other streams
    task = BenchmarkTask.named("low-noise", n=200, d=5)
    kw = dict(folds=2, seeds=1, max_epochs=3, patience=3)
    as_int = run_benchmark(task, ["mse"], [50], **kw)
    as_float = run_benchmark(task, ["mse"], [50.0], **kw)
    assert as_int.to_json() == as_float.to_json()


def test_benchmark_isolates_a_failing_item(monkeypatch):
    import u2reg.evaluate as ev

    real_search = ev.grid_search

    def flaky(tr, va, arch, grid, template, seed=0):
        if template.method == "mse":
            raise RuntimeError("boom")
        return real_search(tr, va, arch, grid, template, seed=seed)

    monkeypatch.setattr(ev, "grid_search", flaky)
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    rep = ev.run_benchmark(
        task, ["u2", "mse"], [50.0], folds=3, seeds=2,
        grid=GridSpec(rhos=(1.0,), lams=(1e-2,), sigmas=(1.0,)), max_epochs=2, patience=2,
    )
    assert rep.errors == [
        f"seed=2 k=50.0 fold={fold} method=mse: RuntimeError('boom')" for fold in range(3)
    ]
    assert len(rep.summary("u2", 50.0).fold_maes) == 3
    with pytest.raises(KeyError):
        rep.summary("mse", 50.0)
    assert {p["method"] for p in rep.points} == {"u2"}


def test_benchmark_fold_score_replays_from_its_seed_labels():
    task = BenchmarkTask.named("low-noise", n=150, d=3)
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-2,), sigmas=(1.0,))
    seed, k, fold, method = 4, 50.0, 1, "u2"
    rep = run_benchmark(
        task, ["mse", method], [25.0, k], folds=2, seeds=seed, grid=grid,
        max_epochs=3, patience=3,
    )

    process = SyntheticProcess.draw(
        task.d, derive_seed(seed, "benchmark-process", task.name), beta=task.beta,
        k_percent=0.0, corruption_scale=task.corruption_scale,
    )
    clean = generate_uncorrupted(process, task.n, derive_seed(seed, "benchmark-data", task.name))
    ds = corrupt(clean, replace(process, k_percent=k),
                 derive_seed(seed, "benchmark-corrupt", task.name, k))
    tr, va, te = split_cv(ds, 2, 0.2, derive_seed(seed, "benchmark-splits", task.name))[fold]
    tr_s, (va_s, te_s), _ = standardize(tr, (va, te))
    run_seed = derive_seed(seed, "benchmark-train", task.name, k, fold, method)
    template = TrainConfig(
        method, batch_size=min(32, len(tr_s)), max_epochs=3, patience=3, seed=run_seed,
    )
    search = grid_search(tr_s, va_s, ArchSpec("linear"), grid, template, seed=run_seed)
    preds = search.best_result.model.predict_batch(te_s.xs)

    summary = rep.summary(method, k)
    assert summary.fold_maes[fold] == mae(te_s.ys_true, preds) / task.label_scale
    assert summary.fold_signed[fold] == mean_signed_error(te_s.ys_true, preds) / task.label_scale
    assert summary.fold_hyper[fold] == search.best.as_dict()


# ---------------------------------------------------------------------------
# bias-floor ingredients from clean Monte-Carlo draws
# ---------------------------------------------------------------------------

def test_eta_xi_delta_no_corruption_has_zero_floor():
    p = SyntheticProcess.draw(4, derive_seed(70, "etest-proc"), k_percent=0.0)
    model = LinearModel(4, np.append(p.weights * 0.7, 0.1))
    diag = estimate_eta_xi_delta(p, model, SQ_ABS, n_mc=5000, seed=1)
    assert diag.xi == 1.0
    assert diag.bound == 0.0
    assert diag.delta > 0.0  # the side gap itself need not vanish


def test_eta_is_half_at_the_regression_function():
    p = SyntheticProcess.draw(5, derive_seed(71, "etest-proc"), k_percent=50.0)
    model = LinearModel(5, np.append(p.weights, 0.0))
    diag = estimate_eta_xi_delta(p, model, SQ_ABS, n_mc=20000, seed=2)
    assert 0.47 <= diag.eta <= 0.53
    assert diag.xi == 0.5
    assert diag.n_rows == 20000
    assert diag.n_upper == round(diag.eta * 20000)


def test_eta_xi_delta_matches_single_chunk_replay():
    p = SyntheticProcess.draw(3, derive_seed(72, "etest-proc"), k_percent=30.0)
    model = LinearModel(3, np.append(p.weights * 0.5, -0.2))
    n_mc, seed = 10000, 5
    diag = estimate_eta_xi_delta(p, model, SQ_ABS, n_mc, seed)
    # n_mc below the chunk size: one draw_clean call replays the stream
    rng = derive_rng(seed, "eta-xi-delta")
    X, y = p.draw_clean(n_mc, rng)
    preds = model.predict_batch(X)
    up = partition_upper(preds, y)
    coeff = np.where(up, dloss_df(SQ_ABS.upper, preds, y),
                     dloss_df(SQ_ABS.lower, preds, y))
    J = model.param_jacobian_batch(X)
    g_up = (np.where(up, coeff, 0.0) @ J) / up.sum()
    g_lo = (np.where(up, 0.0, coeff) @ J) / (n_mc - up.sum())
    delta = float(np.max(np.abs(g_up - g_lo)))
    assert diag.eta == up.sum() / n_mc
    assert diag.delta == pytest.approx(delta, rel=1e-12)
    assert diag.bound == pytest.approx(
        bias_lower_bound(diag.eta, 0.7, delta), rel=1e-12
    )


def test_eta_xi_delta_rejects_degenerate_models():
    p = SyntheticProcess.draw(2, derive_seed(73, "etest-proc"))
    sunk = LinearModel(2, np.array([0.0, 0.0, -1e9]))  # always below every label
    with pytest.raises(ValueError):
        estimate_eta_xi_delta(p, sunk, SQ_ABS, n_mc=2000, seed=0)
    with pytest.raises(ValueError):
        estimate_eta_xi_delta(p, LinearModel(2), SQ_ABS, n_mc=100, seed=0)

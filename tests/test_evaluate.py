"""Metrics, grid search, benchmark pipeline, bias-floor estimation and the gradient study."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from u2reg import (
    ArchSpec,
    BenchmarkTask,
    Dataset,
    GridSpec,
    LinearModel,
    LossKind,
    LossSpec,
    SyntheticProcess,
    TrainConfig,
    corrupt,
    estimate_eta_xi_delta,
    generate_uncorrupted,
    gradient_study,
    init_model,
    mae,
    mean_signed_error,
    naive_batch_gradient,
    pooled_grid_search,
    predict,
    run_benchmark,
    split_cv,
    standardize,
    train,
    u2_dataset_gradient_estimate,
)
from u2reg.evaluate import DEFAULT_GRID, Hyperparams
from u2reg.losses import dloss_df
from u2reg.optim import DEFAULT_SPECS
from u2reg.gradients import bias_lower_bound, partition_upper
from u2reg.rngutil import derive_rng, derive_seed

from conftest import jacobian_rows

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
    with pytest.raises(ValueError, match="distinct"):
        GridSpec(lams=(0.1, 0.1))


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
    (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
    assert len(out.cells) == 1
    assert out.best == Hyperparams(rho=None, lam=0.01, sigma=None)
    assert out.cells[0].val_loss == out.best_result.best_val_loss


def test_grid_search_picks_the_lowest_validation_cell():
    tr_s, va_s, _ = small_corruption_splits(seed=56)
    # an absurd penalty pins the second cell near zero, so the small one wins
    grid = GridSpec(rhos=(1.0,), lams=(1e-3, 1e3), sigmas=(1.0,))
    template = TrainConfig("mse", max_epochs=40, patience=40, seed=2)
    (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
    assert out.best.lam == 1e-3
    vals = [c.val_loss for c in out.cells]
    assert min(vals) == out.best_result.best_val_loss


def test_grid_search_tie_breaks_toward_smaller_lam_then_rho():
    # zero training epochs: every cell keeps its zero init, so every cell
    # ties and the declared preference order decides
    tr_s, va_s, _ = small_corruption_splits(seed=57)
    grid = GridSpec(rhos=(1.0, 0.1), lams=(0.01, 0.001), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=0, seed=3)
    (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
    assert len(out.cells) == 4
    assert out.best == Hyperparams(rho=0.1, lam=0.001, sigma=None)


def test_grid_search_chosen_cell_close_to_best_on_clean_test():
    tr_s, va_s, te_s = small_corruption_splits()
    grid = GridSpec(rhos=(0.1, 1.0), lams=(1e-3, 1e-1), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=120, patience=120, seed=9)
    arch = ArchSpec("linear")
    (search,) = pooled_grid_search([(tr_s, va_s, template)], arch, grid)
    chosen = mae(te_s.ys_true, predict(search.best_result.model, te_s.xs))
    cell_maes = []
    index = 0
    for rho in grid.rhos:
        for lam in grid.lams:
            cfg = replace(template, rho=rho, lam=lam,
                          seed=derive_seed(9, "grid-cell", index))
            model = init_model(arch, tr_s.dim, derive_seed(9, "grid-init", index),
                               rbf_bases=tr_s.xs)
            res = train(model, tr_s, va_s, cfg)
            cell_maes.append(mae(te_s.ys_true, predict(res.model, te_s.xs)))
            index += 1
    assert chosen <= min(cell_maes) + 0.15


def test_grid_search_rbf_expands_sigma_axis():
    tr_s, va_s, _ = small_corruption_splits(seed=58, n=120)
    grid = GridSpec(rhos=(1.0,), lams=(0.01,), sigmas=(0.5, 2.0))
    template = TrainConfig("mse", max_epochs=2, seed=4)
    (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("rbf", sigma=1.0), grid)
    assert len(out.cells) == 2
    assert sorted(c.hyper.sigma for c in out.cells) == [0.5, 2.0]
    assert out.best.sigma in (0.5, 2.0)


def test_pooled_search_trains_lambda_zero_alone_without_a_regularizer():
    tr_s, va_s, _ = small_corruption_splits(seed=58, n=120)
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-3, 1e-2, 1e-1), sigmas=(0.5, 2.0))
    items = [(tr_s, va_s, TrainConfig(method, reg=reg, max_epochs=2, seed=4))
             for method in ("u2", "mse") for reg in (None, "l2")]
    outcomes = pooled_grid_search(items, ArchSpec("rbf", sigma=1.0), grid)
    assert [len(out.cells) for out in outcomes] == [4, 12, 2, 6]
    assert [c.hyper for c in outcomes[0].cells] == [
        Hyperparams(rho=rho, lam=0.0, sigma=sigma) for sigma in (0.5, 2.0) for rho in (0.5, 1.0)]
    assert {c.hyper.lam for c in outcomes[2].cells} == {0.0}
    assert {c.hyper.lam for c in outcomes[3].cells} == set(grid.lams)


def test_grid_search_isolates_failing_cells():
    # rho = 1e308 overflows the label-free term of the cell's first gradient
    tr_s, va_s, _ = small_corruption_splits(seed=59, n=100)
    grid = GridSpec(rhos=(1.0, 1e308), lams=(0.01,), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=2, seed=5)
    with np.errstate(all="ignore"):
        (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
    failed = [c for c in out.cells if c.error is not None]
    assert len(failed) == 1
    assert failed[0].hyper.rho == 1e308
    assert failed[0].val_loss == np.inf
    assert "non-finite gradient at epoch 0, step 0" in failed[0].error
    assert out.best.rho == 1.0


def test_grid_search_raises_when_every_cell_fails():
    tr_s, va_s, _ = small_corruption_splits(seed=60, n=80)
    grid = GridSpec(rhos=(1e308,), lams=(0.01, 0.001), sigmas=(1.0,))
    template = TrainConfig("u2", max_epochs=2, seed=6)
    with np.errstate(all="ignore"):
        (out,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
    assert isinstance(out, RuntimeError)
    assert str(out).startswith("every grid cell failed: cell 0: FloatingPointError(")


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

    real_train_cells = ev.train_cells

    def flaky(block, data, cfgs):
        if cfgs[0].method == "mse":
            raise RuntimeError("boom")
        return real_train_cells(block, data, cfgs)

    monkeypatch.setattr(ev, "train_cells", flaky)
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    rep = ev.run_benchmark(
        task, ["u2", "mse"], [50.0], folds=3, seeds=2,
        grid=GridSpec(rhos=(1.0,), lams=(1e-2,), sigmas=(1.0,)), max_epochs=2, patience=2,
    )
    assert rep.errors == [
        f"seed=2 k=50.0 fold={fold} method=mse: "
        "RuntimeError(\"every grid cell failed: cell 0: RuntimeError('boom')\")"
        for fold in range(3)
    ]
    assert len(rep.summary("u2", 50.0).fold_maes) == 3
    with pytest.raises(KeyError):
        rep.summary("mse", 50.0)
    assert {row[3] for row in rep.points[50.0]} == {"u2"}
    assert rep.to_text().splitlines()[-3:] == [f"error: {err}" for err in rep.errors]


def test_benchmark_trains_nothing_for_an_empty_test_fold(monkeypatch):
    import u2reg.evaluate as ev

    real_train_cells = ev.train_cells
    trained = []

    def recording(block, data, cfgs):
        trained.extend(cfg.seed for cfg in cfgs)
        return real_train_cells(block, data, cfgs)

    monkeypatch.setattr(ev, "train_cells", recording)
    task = BenchmarkTask.named("low-noise", n=40, d=2)
    grid = GridSpec(lams=(1e-2,))
    rep = ev.run_benchmark(task, ["mse"], [50.0], folds=40, seeds=0, grid=grid, max_epochs=2)
    sets = _fold_sets(task, 0, 50.0, 40)
    empty = [fold for fold, (_tr, (_va, te_s), _) in enumerate(sets) if not len(te_s)]
    assert 0 < len(empty) < 40
    assert rep.errors == sorted(f"seed=0 k=50.0 fold={fold} method=mse: "
                                "no uncorrupted test row to score" for fold in empty)
    scored = [fold for fold in range(40) if fold not in empty]
    run_seeds = {fold: derive_seed(0, "benchmark-train", task.name, 50.0, fold, "mse")
                 for fold in scored}
    assert sorted(trained) == sorted(derive_seed(s, "grid-cell", 0) for s in run_seeds.values())
    # empty folds sit between scored ones: each score must come from its own fold's search
    summary = rep.summary("mse", 50.0)
    assert len(summary.fold_maes) == len(scored)
    for fold, fold_mae in zip(scored, summary.fold_maes):
        tr_s, (va_s, te_s), _ = sets[fold]
        template = TrainConfig("mse", batch_size=min(32, len(tr_s)), max_epochs=2,
                               seed=run_seeds[fold])
        (search,) = pooled_grid_search([(tr_s, va_s, template)], ArchSpec("linear"), grid)
        preds = predict(search.best_result.model, te_s.xs)
        assert fold_mae == mae(te_s.ys_true, preds) / task.label_scale


def _fold_sets(task, seed, k, folds):
    """A benchmark's standardized (train, (val, test), stats) folds at K, rebuilt by hand."""
    process = SyntheticProcess.draw(
        task.d, derive_seed(seed, "benchmark-process", task.name), beta=task.beta,
        k_percent=0.0, corruption_scale=task.corruption_scale,
    )
    clean = generate_uncorrupted(process, task.n, derive_seed(seed, "benchmark-data", task.name))
    ds = corrupt(clean, replace(process, k_percent=k),
                 derive_seed(seed, "benchmark-corrupt", task.name, k))
    splits = split_cv(ds, folds, 0.2, derive_seed(seed, "benchmark-splits", task.name))
    return [standardize(tr, (va, te)) for tr, va, te in splits]


def _assert_folds_replay_alone(n, arch, sigmas):
    """Every (K, fold) u2 item of a pooled benchmark scores as a search of that item alone."""
    task = BenchmarkTask.named("low-noise", n=n, d=3)
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-2,), sigmas=sigmas)
    seed, k_list, method = 4, [25.0, 50.0], "u2"
    rep = run_benchmark(
        task, ["mse", method], k_list, folds=2, seeds=seed, grid=grid, arch=arch,
        max_epochs=3, patience=3,
    )
    assert not rep.errors
    for k in k_list:
        summary = rep.summary(method, k)
        for fold, (tr_s, (va_s, te_s), _) in enumerate(_fold_sets(task, seed, k, 2)):
            run_seed = derive_seed(seed, "benchmark-train", task.name, k, fold, method)
            template = TrainConfig(
                method, batch_size=min(32, len(tr_s)), max_epochs=3, patience=3, seed=run_seed,
            )
            (search,) = pooled_grid_search([(tr_s, va_s, template)], arch, grid)
            preds = predict(search.best_result.model, te_s.xs)
            assert summary.fold_maes[fold] == mae(te_s.ys_true, preds) / task.label_scale
            assert (summary.fold_signed[fold]
                    == mean_signed_error(te_s.ys_true, preds) / task.label_scale)
            assert summary.fold_hyper[fold] == asdict(search.best)


def test_benchmark_fold_score_replays_from_its_seed_labels():
    _assert_folds_replay_alone(150, ArchSpec("linear"), (1.0,))
    _assert_folds_replay_alone(150, ArchSpec("mlp", hidden=(5, 3), dropout=0.25), (1.0,))
    # 2 folds of 151 rows train on 60 and 61 rows, so the items form two blocks
    _assert_folds_replay_alone(151, ArchSpec("linear"), (1.0,))
    _assert_folds_replay_alone(150, ArchSpec("rbf", sigma=1.0), (0.5, 2.0))


def test_pooled_search_isolates_an_item_whose_training_diverges():
    # an inf training label makes every cell of fold 1 fail on its first
    # gradient; the other items share its block and must not notice
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-2, 1e-1), sigmas=(1.0,))
    items = []
    for fold, (tr_s, (va_s, _), _) in enumerate(_fold_sets(task, 5, 50.0, 3)):
        if fold == 1:
            tr_s = tr_s.subset(np.arange(len(tr_s)))
            tr_s.ys_prime[:] = np.inf
        items.append((tr_s, va_s, TrainConfig("u2", max_epochs=4, patience=4, seed=fold)))
    with np.errstate(all="ignore"):
        outcomes = pooled_grid_search(items, ArchSpec("linear"), grid)
        (alone,) = pooled_grid_search(items[1:2], ArchSpec("linear"), grid)
    assert isinstance(outcomes[1], RuntimeError) and isinstance(alone, RuntimeError)
    assert str(outcomes[1]) == str(alone)
    assert "non-finite gradient at epoch 0, step 0" in str(outcomes[1])
    for item in (0, 2):
        (solo,) = pooled_grid_search(items[item:item + 1], ArchSpec("linear"), grid)
        assert outcomes[item].best == solo.best
        assert np.array_equal(outcomes[item].best_result.model.theta, solo.best_result.model.theta)
        assert ([(c.hyper, c.val_loss, c.error) for c in outcomes[item].cells]
                == [(c.hyper, c.val_loss, c.error) for c in solo.cells])


def test_pooled_search_isolates_an_item_with_a_narrower_validation_set():
    # the narrow item's cells cannot share the other item's block; its own
    # block fails in train_cells, and the other item must not notice
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-2,), sigmas=(1.0,))
    (tr0, (va0, _), _), (tr1, (va1, _), _), _ = _fold_sets(task, 6, 50.0, 3)
    narrow = Dataset(va1.xs[:, :2], va1.ys_prime)
    items = [(tr0, va0, TrainConfig("u2", max_epochs=3, patience=3, seed=0)),
             (tr1, narrow, TrainConfig("u2", max_epochs=3, patience=3, seed=1))]
    outcomes = pooled_grid_search(items, ArchSpec("linear"), grid)
    assert isinstance(outcomes[1], RuntimeError)
    assert str(outcomes[1]) == (
        "every grid cell failed: cell 0: ValueError('expected 3 features, got 2'); "
        "cell 1: ValueError('expected 3 features, got 2')"
    )
    (solo,) = pooled_grid_search(items[:1], ArchSpec("linear"), grid)
    assert outcomes[0].best == solo.best
    assert np.array_equal(outcomes[0].best_result.model.theta, solo.best_result.model.theta)
    assert ([(c.hyper, c.val_loss, c.error) for c in outcomes[0].cells]
            == [(c.hyper, c.val_loss, c.error) for c in solo.cells])


def test_grid_search_names_every_cell_of_blocks_that_fail_as_a_whole():
    # a model on zero features cannot be built: each sigma's block fails in
    # model init, before train_cells runs
    empty = Dataset(np.zeros((20, 0)), np.zeros(20))
    grid = GridSpec(rhos=(0.5, 1.0), lams=(1e-2,), sigmas=(0.5, 2.0))
    (failed,) = pooled_grid_search([(empty, empty, TrainConfig("u2", seed=3))],
                                   ArchSpec("rbf", sigma=1.0), grid)
    assert isinstance(failed, RuntimeError)
    error = "ValueError('input_dim must be a positive integer')"
    assert str(failed) == "every grid cell failed: " + "; ".join(
        f"cell {i}: {error}" for i in range(4))


def test_benchmark_blocks_stay_within_the_memory_budget(monkeypatch):
    # 120 rows in 3 folds train on 64 and validate on 16 rows of 3 features,
    # so each (K, fold) item stacks 80 * 3 float64 features, and its u2 cells
    # (one more than its mse cells) hold 2 linear thetas of 4 parameters
    import u2reg.evaluate as ev

    blocks = []
    real_train_cells = ev.train_cells

    def counted(block, data, cfgs):
        blocks.append(cfgs[0].method)
        return real_train_cells(block, data, cfgs)

    monkeypatch.setattr(ev, "train_cells", counted)
    task = BenchmarkTask.named("low-noise", n=120, d=3)
    kw = dict(folds=3, seeds=3, grid=GridSpec(rhos=(0.5, 1.0), lams=(1e-2,), sigmas=(1.0,)),
              max_epochs=3, patience=3)
    pooled = ev.run_benchmark(task, ["u2", "mse"], [25.0, 50.0], **kw)
    assert blocks == ["u2", "mse"]
    blocks.clear()
    monkeypatch.setattr(ev, "POOL_BLOCK_BYTES", 2 * (80 * 3 + ev.PARAM_COPIES * 2 * 4) * 8)
    bounded = ev.run_benchmark(task, ["u2", "mse"], [25.0, 50.0], **kw)
    assert blocks == ["u2"] * 3 + ["mse"] * 3
    assert bounded.to_json() == pooled.to_json()
    assert bounded.points == pooled.points


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
    preds = predict(model, X)
    up = partition_upper(preds, y)
    coeff = np.where(up, dloss_df(SQ_ABS.upper, preds, y),
                     dloss_df(SQ_ABS.lower, preds, y))
    J = jacobian_rows(model, X)
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


# ---------------------------------------------------------------------------
# the gradient study
# ---------------------------------------------------------------------------

def _small_study(sizes=(30, 60), n_datasets=2, seed_of=None):
    p = SyntheticProcess.draw(3, derive_seed(74, "gstudy-proc"), k_percent=50.0,
                              mode="strict", corruption_scale=2.0)
    model = LinearModel(3, np.append(p.weights, 0.2))
    seed_of = seed_of or (lambda *labels: derive_seed(74, *labels))
    return p, model, gradient_study(p, model, LossSpec.parse("absolute", "absolute"), 0.42,
                                    sizes, n_datasets, 2000, seed_of)


def test_gradient_study_names_every_stream_through_seed_of():
    seen = []

    def seed_of(*labels):
        seen.append(labels)
        return derive_seed(74, *labels)

    _p, _model, study = _small_study(sizes=(60, 30, 60), n_datasets=3, seed_of=seed_of)
    assert study.sizes == (30, 60)
    want = {("oracle",), ("diag",)} | {
        (kind, n, r) for kind in ("data", "corrupt") for n in (30, 60) for r in range(3)
    }
    assert sorted(seen) == sorted(want)


def test_gradient_study_estimate_replays_a_direct_call():
    p, model, study = _small_study()
    ds = corrupt(generate_uncorrupted(p, 30, derive_seed(74, "data", 30, 1)),
                 p, derive_seed(74, "corrupt", 30, 1))
    direct = u2_dataset_gradient_estimate(model, ds.xs, ds.ys_prime,
                                          LossSpec.parse("absolute", "absolute"), 0.42)
    assert np.array_equal(study.ests[0][1], direct.grad)
    assert study.ests[0].shape == study.ests[1].shape == (2, 4)
    assert len(study.rms) == 2 and study.z.shape == study.bias.shape == (4,)


def test_gradient_study_takes_naive_gradients_at_the_largest_size_only(monkeypatch):
    rows = []

    def recording(model, xs, *args, **kwargs):
        rows.append(len(xs))
        return naive_batch_gradient(model, xs, *args, **kwargs)

    monkeypatch.setattr("u2reg.evaluate.naive_batch_gradient", recording)
    _p, _model, study = _small_study(sizes=(30, 60, 45))
    assert rows == [60, 60]
    assert study.naive.shape == (2, 4)


@pytest.mark.parametrize("sizes, n_datasets", [((30,), 2), ((30, 30), 2), ((30, 60), 1)])
def test_gradient_study_rejects_too_little_to_compare(sizes, n_datasets):
    with pytest.raises(ValueError, match="at least two"):
        _small_study(sizes=sizes, n_datasets=n_datasets)

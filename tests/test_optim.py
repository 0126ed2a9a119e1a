"""Adam updates and the early-stopping training loop."""

import math

import numpy as np
import pytest

from u2reg import (
    AdamState,
    LinearModel,
    LossSpec,
    MlpModel,
    RbfLinearModel,
    SyntheticProcess,
    TrainConfig,
    adam_init,
    adam_step,
    generate_uncorrupted,
    train,
    u2_batch_gradient,
)
from u2reg.data import Dataset
from u2reg.optim import validation_loss
from u2reg.rngutil import derive_rng, derive_seed

from conftest import make_dataset

SQ_ABS = LossSpec.parse("squared", "absolute")


def mse_cfg(**kw) -> TrainConfig:
    base = dict(method="mse", lam=0.0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_params_validation():
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            mse_cfg(lr=bad)


def test_adam_first_step_is_signed_lr():
    lr = 1e-3
    grad = np.array([3.0, -0.02, 1e4, -1e-3])
    _state, delta = adam_step(adam_init(4), grad, lr)
    assert np.max(np.abs(delta + lr * np.sign(grad))) < 1e-6


def test_adam_zero_gradient_moves_nothing():
    state, delta = adam_step(adam_init(3), np.zeros(3), 1e-3)
    assert np.array_equal(delta, np.zeros(3))
    assert state.t == 1


def test_adam_step_is_pure():
    s0 = adam_init(2)
    g = np.array([1.0, -2.0])
    s1a, d1a = adam_step(s0, g, 1e-3)
    s1b, d1b = adam_step(s0, g, 1e-3)
    assert s0.t == 0 and np.all(s0.m == 0.0) and np.all(s0.v == 0.0)
    assert s1a.t == s1b.t == 1
    assert np.array_equal(d1a, d1b)
    assert np.array_equal(s1a.m, s1b.m)


def test_adam_recurrence_matches_by_hand():
    # Adam's published constants: beta1 = 0.9, beta2 = 0.999, eps = 1e-8
    g1, g2 = np.array([2.0]), np.array([-1.0])
    s1, d1 = adam_step(adam_init(1), g1, 0.1)
    s2, d2 = adam_step(s1, g2, 0.1)
    m2 = 0.9 * (0.1 * g1) + 0.1 * g2
    v2 = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    m_hat = m2 / (1 - 0.9**2)
    v_hat = v2 / (1 - 0.999**2)
    assert s2.t == 2
    assert np.allclose(s2.m, m2) and np.allclose(s2.v, v2)
    assert np.allclose(d2, -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="sgd")
    with pytest.raises(ValueError):
        TrainConfig(method="mse", spec=SQ_ABS)  # a baseline has no two-sided loss
    with pytest.raises(ValueError):
        TrainConfig(method="huber", huber_delta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method="u2", huber_delta=-2.0)  # checked even where no loss uses it
    with pytest.raises(ValueError):
        TrainConfig(method="u2", reg="l3")
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mse_cfg(rho=bad)
        with pytest.raises(ValueError):
            mse_cfg(lam=bad)
        with pytest.raises(ValueError):
            TrainConfig(method="huber", huber_delta=bad)
    with pytest.raises(ValueError):
        mse_cfg(batch_size=0)
    with pytest.raises(ValueError):
        mse_cfg(max_epochs=-1)
    with pytest.raises(ValueError):
        mse_cfg(patience=-2)


# ---------------------------------------------------------------------------
# training loop mechanics
# ---------------------------------------------------------------------------

def test_train_rejects_bad_splits():
    ds = make_dataset(10, 2)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train(LinearModel(2), empty, ds, mse_cfg(batch_size=1))
    with pytest.raises(ValueError):
        train(LinearModel(2), ds, empty, mse_cfg(batch_size=1))
    with pytest.raises(ValueError):
        train(LinearModel(2), ds, ds, mse_cfg(batch_size=11))


def test_train_zero_epochs_returns_init_model():
    ds = make_dataset(20, 3, seed=1)
    init = LinearModel(3, np.arange(4.0))
    res = train(init, ds, ds, mse_cfg(max_epochs=0, batch_size=10))
    assert np.array_equal(res.model.theta, init.theta)
    assert res.history == []
    assert res.best_epoch == -1
    assert not res.stopped_early
    # the run trains squared loss, so it validates on mean squared error
    init_val = float(np.mean((init.predict_batch(ds.xs) - ds.ys_prime) ** 2))
    assert res.best_val_loss == pytest.approx(init_val)


def test_train_does_not_mutate_the_input_model():
    ds = make_dataset(30, 2, seed=2)
    init = LinearModel(2, np.array([0.5, 0.5, 0.0]))
    before = init.theta.copy()
    train(init, ds, ds, mse_cfg(max_epochs=3, batch_size=10))
    assert np.array_equal(init.theta, before)


def test_train_reruns_bit_identically():
    ds = make_dataset(40, 3, seed=3)
    cfg = mse_cfg(max_epochs=8, batch_size=8, seed=11)
    r1 = train(LinearModel(3), ds, ds, cfg)
    r2 = train(LinearModel(3), ds, ds, cfg)
    assert np.array_equal(r1.model.theta, r2.model.theta)
    assert [h.val_loss for h in r1.history] == [h.val_loss for h in r2.history]
    assert [h.grad_norm for h in r1.history] == [h.grad_norm for h in r2.history]


def test_train_seed_changes_the_trajectory():
    ds = make_dataset(40, 3, seed=4)
    r1 = train(LinearModel(3), ds, ds, mse_cfg(max_epochs=5, batch_size=8, seed=1))
    r2 = train(LinearModel(3), ds, ds, mse_cfg(max_epochs=5, batch_size=8, seed=2))
    assert not np.array_equal(r1.model.theta, r2.model.theta)


def test_train_recovers_noiseless_linear_target():
    proc = SyntheticProcess.draw(2, derive_seed(9, "op-proc"), beta=1e12)
    ds = generate_uncorrupted(proc, 160, derive_seed(9, "op-data"))
    val = generate_uncorrupted(proc, 60, derive_seed(9, "op-val"))
    for method, kw in (
        ("mse", {}),
        ("u2", dict(spec=SQ_ABS, rho=0.5)),
    ):
        cfg = TrainConfig(
            method=method, lr=5e-3, batch_size=32,
            max_epochs=200, patience=200, lam=0.0, seed=3, **kw,
        )
        res = train(LinearModel(2), ds, val, cfg)
        clean_mae = float(np.mean(np.abs(res.model.predict_batch(val.xs) - proc.oracle(val.xs))))
        assert clean_mae <= 1e-2
        assert len(res.history) <= 200


def test_best_tracking_is_the_running_minimum():
    ds = make_dataset(60, 3, seed=5)
    res = train(LinearModel(3), ds, ds, mse_cfg(max_epochs=30, batch_size=15, seed=7))
    vals = [h.val_loss for h in res.history]
    init_val = float(np.mean(ds.ys_prime**2))  # squared loss of the zero model
    best = min([init_val] + vals)
    assert res.best_val_loss == pytest.approx(best)
    if res.best_epoch >= 0:
        assert vals[res.best_epoch] == res.best_val_loss
        # strict improvement: first attainment wins
        assert all(m > res.best_val_loss for m in vals[: res.best_epoch])


def test_restored_model_matches_best_epoch_not_last():
    # big learning rate so late epochs overshoot; the result must come from
    # the best validation epoch, not the final parameters
    proc = SyntheticProcess.draw(2, derive_seed(10, "op-proc"), beta=4.0)
    ds = generate_uncorrupted(proc, 80, derive_seed(10, "op-data"))
    val = generate_uncorrupted(proc, 40, derive_seed(10, "op-val"))
    thetas = []
    cfg = mse_cfg(lr=0.05, max_epochs=40, patience=40,
                  batch_size=80, seed=1)
    res = train(LinearModel(2), ds, val, cfg, step_callback=lambda s, m, g: thetas.append(m.theta.copy()))
    assert res.best_epoch >= 0
    assert np.array_equal(res.model.theta, thetas[res.best_epoch])  # one step per epoch here
    val_at_best = float(np.mean((res.model.predict_batch(val.xs) - val.ys_prime) ** 2))
    assert val_at_best == pytest.approx(res.best_val_loss)


def test_validation_loss_is_the_loss_each_baseline_trains():
    ds = make_dataset(20, 2, seed=12)
    model = LinearModel(2, np.array([0.3, -0.2, 0.1]))
    r = model.predict_batch(ds.xs) - ds.ys_prime
    a = np.abs(r)
    expected = [
        (TrainConfig("mse"), np.mean(r * r)),
        (TrainConfig("mae"), np.mean(a)),
        (TrainConfig("huber", huber_delta=0.5), np.mean(np.where(a <= 0.5, r * r, a - 0.25))),
    ]
    for cfg, value in expected:
        assert validation_loss(model, ds, cfg) == pytest.approx(value)
    # the corrected methods keep absolute error on the observed labels
    u2 = TrainConfig(method="u2", spec=SQ_ABS, rho=0.5)
    assert validation_loss(model, ds, u2) == pytest.approx(np.mean(a))


def test_patience_counts_epochs_without_improvement():
    # an init that already fits perfectly cannot be improved, so training
    # stops after exactly `patience` epochs
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((50, 2))
    theta = np.array([1.0, -2.0, 0.5])
    ys = xs @ theta[:-1] + theta[-1]
    ds = Dataset(xs, ys)
    init = LinearModel(2, theta)
    res = train(init, ds, ds, mse_cfg(max_epochs=100, patience=5, batch_size=50,
                                      lr=0.5, seed=2))
    assert res.stopped_early
    assert len(res.history) == 5
    assert res.best_epoch == -1
    assert np.array_equal(res.model.theta, theta)  # init restored
    assert res.best_val_loss == 0.0


def test_full_batch_runs_one_step_per_epoch():
    ds = make_dataset(25, 2, seed=7)
    steps = []
    train(LinearModel(2), ds, ds,
          mse_cfg(max_epochs=4, patience=100, batch_size=25, seed=0),
          step_callback=lambda s, m, g: steps.append(s))
    assert steps == [0, 1, 2, 3]


def test_partition_is_refreshed_from_the_current_model():
    # u2 training from a zero init on all-positive labels: every row starts
    # trusted; as the fit rises above the smaller labels, rows must leave the
    # trusted set, which only happens if each step repartitions
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((40, 2))
    ys = np.abs(rng.standard_normal(40)) * 0.2 + 0.05
    ds = Dataset(xs, ys)
    masks = []
    cfg = TrainConfig(method="u2", spec=SQ_ABS, rho=1.0, lam=0.0,
                      lr=0.05, batch_size=40, max_epochs=60,
                      patience=60, seed=0)
    train(LinearModel(2), ds, ds, cfg,
          step_callback=lambda s, m, g: masks.append(g.trusted.copy()))
    assert masks[0].all()
    assert not masks[-1].all()
    assert masks[-1].any()


def test_non_finite_gradient_raises():
    ds = make_dataset(16, 2, seed=9)
    ds.ys_prime[3] = np.nan
    with pytest.raises(FloatingPointError):
        train(LinearModel(2), ds, ds, mse_cfg(max_epochs=2, batch_size=16))


def test_history_records_are_ordered_and_finite():
    ds = make_dataset(30, 2, seed=10)
    res = train(LinearModel(2), ds, ds, mse_cfg(max_epochs=6, batch_size=10, seed=3))
    assert [h.epoch for h in res.history] == list(range(len(res.history)))
    assert all(np.isfinite(h.val_loss) and np.isfinite(h.grad_norm) for h in res.history)
    assert all(h.seconds >= 0.0 for h in res.history)


# ---------------------------------------------------------------------------
# per-step dropout stream
# ---------------------------------------------------------------------------

def _mlp(input_dim: int, dropout: float) -> MlpModel:
    model = MlpModel(input_dim, (5,), dropout)
    model.theta = model.init_theta(np.random.default_rng(1))
    return model


def test_only_a_model_with_dropout_derives_a_dropout_stream(monkeypatch):
    labels = []

    def spy(seed, *rest):
        labels.append((seed, *rest))
        return derive_rng(seed, *rest)

    monkeypatch.setattr("u2reg.optim.derive_rng", spy)
    ds = make_dataset(24, 2, seed=13)
    cfg = TrainConfig("u2", rho=0.5, batch_size=8, max_epochs=3, patience=3, seed=5)
    no_masks = (LinearModel(2), RbfLinearModel(ds.xs[:6], 1.0), _mlp(2, 0.0))
    for model in no_masks:
        labels.clear()
        train(model, ds, ds, cfg)
        assert labels == [(5, "shuffle", epoch) for epoch in range(3)], model.kind
    labels.clear()
    train(_mlp(2, 0.5), ds, ds, cfg)
    assert [lab for lab in labels if lab[1] == "dropout"] == [(5, "dropout", s) for s in range(9)]


def test_mlp_dropout_training_replays_by_hand():
    # the reference loop keeps the per-step stream and np.linalg.norm, so
    # train must match it bit for bit in theta, val_loss and grad_norm
    ds = make_dataset(30, 3, seed=14)
    val = make_dataset(12, 3, seed=15)
    init = _mlp(3, 0.5)
    cfg = TrainConfig("u2", rho=0.5, lam=1e-3, batch_size=8, max_epochs=4, patience=4, seed=21)
    thetas = []
    res = train(init, ds, val, cfg, step_callback=lambda s, m, g: thetas.append(m.theta.copy()))

    model = init.clone_with_theta(init.theta)
    state = adam_init(model.theta.size)
    step = 0
    for epoch in range(cfg.max_epochs):
        order = derive_rng(cfg.seed, "shuffle", epoch).permutation(len(ds))
        norms = []
        for start in range(0, len(ds), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad = u2_batch_gradient(model, ds.xs[idx], ds.ys_prime[idx], cfg.spec, cfg.rho,
                                     cfg.lam, cfg.reg, derive_rng(cfg.seed, "dropout", step)).grad
            state, delta = adam_step(state, grad, cfg.lr)
            model.theta = model.theta + delta
            norms.append(float(np.linalg.norm(grad)))
            assert np.array_equal(thetas[step], model.theta)
            step += 1
        record = res.history[epoch]
        assert record.val_loss == validation_loss(model, val, cfg)
        assert record.grad_norm == float(np.mean(norms))
    assert step == len(thetas) == 16
    best = init.theta if res.best_epoch < 0 else thetas[4 * res.best_epoch + 3]
    assert np.array_equal(res.model.theta, best)

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
    naive_batch_gradient,
    predict,
    train,
    train_cells,
)
from u2reg.data import Dataset
from u2reg.gradients import block_gradient
from u2reg.optim import BETA1, BETA2, EPS, METHODS, validation_loss
from u2reg.rngutil import derive_rng, derive_rngs, derive_seed

from conftest import make_dataset

SQ_ABS = LossSpec.parse("squared", "absolute")


def mse_cfg(**kw) -> TrainConfig:
    base = dict(method="mse", lam=0.0)
    base.update(kw)
    return TrainConfig(**base)


def record_steps(monkeypatch) -> list:
    """Spy on the engine's steps; one [theta in, GradResult, Adam delta] per step.

    Each entry holds the block's rows still training at that step. The theta
    a step produces is theta in + delta, added as the engine adds it.
    """
    steps = []

    def gradient(model, *args):
        res = block_gradient(model, *args)
        steps.append([model.theta.copy(), res])
        return res

    def adam(state, grad, lr):
        state, delta = adam_step(state, grad, lr)
        steps[-1].append(delta)
        return state, delta

    monkeypatch.setattr("u2reg.optim.block_gradient", gradient)
    monkeypatch.setattr("u2reg.optim.adam_step", adam)
    return steps


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


def _adam_textbook(state, grad, lr):
    """(m, v, delta) of one Adam step, written as the paper's formula."""
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    return m, v, -lr * m_hat / (np.sqrt(v_hat) + EPS)


def test_adam_step_equals_the_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(21)
    for shape in ((1001,), (3, 257)):
        def grad():  # magnitudes from 1e-8 to 1e8, both signs, some exact zeros
            g = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
            return np.where(rng.random(shape) < 0.1, 0.0, g)
        grads = [np.zeros(shape)] + [grad() for _ in range(19)] + [np.zeros(shape)]
        for lr in (1e-3, 0.37):
            state = adam_init(shape)
            for step, g in enumerate(grads):  # 21 chained steps
                m, v, want = _adam_textbook(state, g, lr)
                state, delta = adam_step(state, g, lr)
                assert state.t == step + 1
                assert np.array_equal(state.m, m), (shape, lr, step)
                assert np.array_equal(state.v, v), (shape, lr, step)
                assert np.array_equal(delta, want), (shape, lr, step)


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
    init_val = float(np.mean((predict(init, ds.xs) - ds.ys_prime) ** 2))
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
        clean_mae = float(np.mean(np.abs(predict(res.model, val.xs) - proc.oracle(val.xs))))
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


def test_restored_model_matches_best_epoch_not_last(monkeypatch):
    # big learning rate so late epochs overshoot; the result must come from
    # the best validation epoch, not the final parameters
    proc = SyntheticProcess.draw(2, derive_seed(10, "op-proc"), beta=4.0)
    ds = generate_uncorrupted(proc, 80, derive_seed(10, "op-data"))
    val = generate_uncorrupted(proc, 40, derive_seed(10, "op-val"))
    steps = record_steps(monkeypatch)
    cfg = mse_cfg(lr=0.05, max_epochs=40, patience=40,
                  batch_size=80, seed=1)
    res = train(LinearModel(2), ds, val, cfg)
    thetas = [theta[0] + delta[0] for theta, _, delta in steps]
    assert res.best_epoch >= 0
    assert np.array_equal(res.model.theta, thetas[res.best_epoch])  # one step per epoch here
    val_at_best = float(np.mean((predict(res.model, val.xs) - val.ys_prime) ** 2))
    assert val_at_best == pytest.approx(res.best_val_loss)


def test_validation_loss_is_the_loss_each_baseline_trains():
    ds = make_dataset(20, 2, seed=12)
    model = LinearModel(2, np.array([0.3, -0.2, 0.1]))
    r = predict(model, ds.xs) - ds.ys_prime
    a = np.abs(r)
    expected = [
        (TrainConfig("mse"), np.mean(r * r)),
        (TrainConfig("mae"), np.mean(a)),
        (TrainConfig("huber", huber_delta=0.5), np.mean(np.where(a <= 0.5, r * r, a - 0.25))),
    ]
    for cfg, value in expected:
        assert validation_loss(model, model.features(ds.xs), ds.ys_prime, cfg) == pytest.approx(value)
    # the corrected methods keep absolute error on the observed labels
    u2 = TrainConfig(method="u2", spec=SQ_ABS, rho=0.5)
    assert validation_loss(model, model.features(ds.xs), ds.ys_prime, u2) == pytest.approx(np.mean(a))


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


def test_full_batch_runs_one_step_per_epoch(monkeypatch):
    ds = make_dataset(25, 2, seed=7)
    steps = record_steps(monkeypatch)
    train(LinearModel(2), ds, ds, mse_cfg(max_epochs=4, patience=100, batch_size=25, seed=0))
    assert [res.trusted.shape for _, res, _ in steps] == [(1, 25)] * 4


def test_partition_is_refreshed_from_the_current_model(monkeypatch):
    # u2 training from a zero init on all-positive labels: every row starts
    # trusted; as the fit rises above the smaller labels, rows must leave the
    # trusted set, which only happens if each step repartitions
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((40, 2))
    ys = np.abs(rng.standard_normal(40)) * 0.2 + 0.05
    ds = Dataset(xs, ys)
    steps = record_steps(monkeypatch)
    cfg = TrainConfig(method="u2", spec=SQ_ABS, rho=1.0, lam=0.0,
                      lr=0.05, batch_size=40, max_epochs=60,
                      patience=60, seed=0)
    train(LinearModel(2), ds, ds, cfg)
    masks = [res.trusted[0] for _, res, _ in steps]
    assert masks[0].all()
    assert not masks[-1].all()
    assert masks[-1].any()


def test_non_finite_gradient_raises():
    ds = make_dataset(16, 2, seed=9)
    ds.ys_prime[3] = np.nan
    with pytest.raises(FloatingPointError):
        train(LinearModel(2), ds, ds, mse_cfg(max_epochs=2, batch_size=16))


def test_non_finite_parameters_raise():
    # lr 1e308 overflows theta on the first Adam step, and the run stops
    # there; without the parameter check it would go on until a gradient
    # overflowed, or, since rows with NaN predictions are never trusted and
    # keep the u2 gradient finite, end with the init theta as its "best"
    ds = make_dataset(40, 3, seed=16)
    cfg = TrainConfig("u2", lr=1e308, batch_size=8, max_epochs=2, seed=1)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite parameters at epoch 0, step 0"):
            train(LinearModel(3), ds, ds, cfg)


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

    def spy(seeds, *rest):
        labels.extend((seed, *rest) for seed in seeds)
        return derive_rngs(seeds, *rest)

    monkeypatch.setattr("u2reg.optim.derive_rngs", spy)
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


def _replay_by_hand(init, ds, val, cfg):
    """The training loop written out from the public per-batch pieces."""
    model = init.clone_with_theta(init.theta)
    state = adam_init(model.theta.size)

    def val_loss():
        return float(validation_loss(model, model.features(val.xs), val.ys_prime, cfg))

    best_theta, best_val, best_epoch, since = model.theta, val_loss(), -1, 0
    thetas, history = [], []
    step = 0
    for epoch in range(cfg.max_epochs):
        order = derive_rng(cfg.seed, "shuffle", epoch).permutation(len(ds))
        norms = []
        for start in range(0, len(ds), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xs, ys, rng = ds.xs[idx], ds.ys_prime[idx], derive_rng(cfg.seed, "dropout", step)
            if cfg.naive_kind is None:
                grad = block_gradient(model, model.features(xs), ys, cfg.spec, cfg.rho, cfg.lam,
                                      cfg.reg, rng, mirror=cfg.method == "lu").grad
            else:
                grad = naive_batch_gradient(model, xs, ys, cfg.naive_kind, cfg.lam, cfg.reg, rng).grad
            state, delta = adam_step(state, grad, cfg.lr)
            model.theta = model.theta + delta
            norms.append(float(np.linalg.norm(grad)))
            thetas.append(model.theta.copy())
            step += 1
        loss = val_loss()
        history.append((loss, float(np.mean(norms))))
        if loss < best_val:
            best_theta, best_val, best_epoch, since = model.theta.copy(), loss, epoch, 0
        else:
            since += 1
            if since >= cfg.patience:
                break
    return thetas, history, best_theta, best_val, best_epoch


def _assert_cells_replay_by_hand(monkeypatch, kind, method, data):
    """Train one three-cell block on data, one (train, val) pair per cell.

    Every cell, each with its own rho, lam, seed and init, must match the
    hand loop on its own pair (per-step dropout stream, np.linalg.norm) bit
    for bit in each step's theta, val_loss and grad_norm, and in what early
    stopping kept; patience 2 stops the cells at different epochs. Row i of
    a step's block is the i-th cell still training in that step's epoch.
    """
    base = {"linear": LinearModel(3), "rbf": RbfLinearModel(data[0][0].xs, 1.5),
            "mlp": _mlp(3, 0.5)}[kind]
    rng = np.random.default_rng(3)
    inits = [base.clone_with_theta(base.theta + 0.3 * rng.standard_normal(base.theta.size))
             for _ in range(3)]
    corrected = method in ("u2", "lu")
    cfgs = [TrainConfig(method, rho=rho if corrected else 1.0, lam=lam, lr=0.02, batch_size=8,
                        max_epochs=25, patience=2, seed=seed)
            for rho, lam, seed in ((0.5, 1e-3, 21), (1.0, 0.0, 22), (0.25, 0.1, 23))]
    steps = record_steps(monkeypatch)
    block = base.clone_with_theta(np.stack([init.theta for init in inits]))
    outcomes = train_cells(block, data, cfgs)
    thetas = [[], [], []]
    for step, (theta, _, delta) in enumerate(steps):
        training = [c for c, res in enumerate(outcomes) if len(res.history) > step // 5]
        assert len(theta) == len(delta) == len(training)
        for row, cell in enumerate(training):
            thetas[cell].append(theta[row] + delta[row])
    for cell, (init, (ds, val), cfg, res) in enumerate(zip(inits, data, cfgs, outcomes)):
        hand_thetas, history, best_theta, best_val, best_epoch = _replay_by_hand(init, ds, val, cfg)
        assert len(thetas[cell]) == len(hand_thetas) == 5 * len(res.history)
        assert all(np.array_equal(a, b) for a, b in zip(thetas[cell], hand_thetas))
        assert [(r.val_loss, r.grad_norm) for r in res.history] == history
        assert np.array_equal(res.model.theta, best_theta)
        assert (res.best_val_loss, res.best_epoch) == (best_val, best_epoch)
        assert res.stopped_early == (len(res.history) < cfg.max_epochs)
    assert len({len(res.history) for res in outcomes}) > 1


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
def test_mlp_dropout_training_replays_by_hand(monkeypatch, kind, method):
    # 33 rows in batches of 8 end each epoch on a one-row batch
    pair = (make_dataset(33, 3, seed=14), make_dataset(12, 3, seed=15))
    _assert_cells_replay_by_hand(monkeypatch, kind, method, [pair] * 3)


@pytest.mark.parametrize("method", ["u2", "mse"])
@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
def test_a_pooled_block_replays_each_dataset_by_hand(monkeypatch, kind, method):
    # cells 0 and 2 share one (train, val) pair and cell 1 has its own, so
    # the block stacks two datasets and gathers every batch and validation
    # pass per cell; an rbf block keeps the first training set's bases
    first = (make_dataset(33, 3, seed=14), make_dataset(12, 3, seed=15))
    second = (make_dataset(33, 3, seed=24), make_dataset(12, 3, seed=25))
    _assert_cells_replay_by_hand(monkeypatch, kind, method, [first, second, first])


def test_a_failing_cell_leaves_the_rest_of_the_block_alone():
    ds = make_dataset(30, 3, seed=17)
    val = make_dataset(12, 3, seed=18)
    cfgs = [TrainConfig("u2", rho=rho, lam=1e-2, batch_size=8, max_epochs=6, patience=6, seed=s)
            for s, rho in enumerate((0.5, 1e308, 1.0))]
    block = LinearModel(3, np.zeros((3, 4)))
    with np.errstate(all="ignore"):
        outcomes = train_cells(block, [(ds, val)] * 3, cfgs)
    assert not block.theta.any()  # the caller's block is left as it was
    assert isinstance(outcomes[1], FloatingPointError)
    assert str(outcomes[1]) == "non-finite gradient at epoch 0, step 0"
    for cell in (0, 2):
        alone = train(LinearModel(3), ds, val, cfgs[cell])
        assert np.array_equal(outcomes[cell].model.theta, alone.model.theta)
        assert ([(r.epoch, r.val_loss, r.grad_norm) for r in outcomes[cell].history]
                == [(r.epoch, r.val_loss, r.grad_norm) for r in alone.history])


def test_a_cell_whose_parameters_overflow_leaves_its_block_mates_alone():
    # lr 1e308 overflows cell 1's theta on the first Adam step. Cell 0's init
    # fits its integer rows exactly, so at rho = 1 its gradient is 0 and Adam
    # leaves it where it is, through the step on which cell 1 leaves.
    rng = np.random.default_rng(26)
    xs = rng.integers(-3, 4, size=(40, 3)).astype(float)
    theta = np.array([1.0, -2.0, 3.0, 0.5])
    exact = Dataset(xs, xs @ theta[:-1] + theta[-1])
    ds = make_dataset(40, 3, seed=16)
    cfgs = [TrainConfig("u2", rho=1.0, lr=1e308, batch_size=8, max_epochs=4, patience=2, seed=s)
            for s in (1, 2)]
    block = LinearModel(3, np.stack([theta, np.zeros(4)]))
    with np.errstate(all="ignore"):
        outcomes = train_cells(block, [(exact, exact), (ds, ds)], cfgs)
    assert isinstance(outcomes[1], FloatingPointError)
    assert str(outcomes[1]) == "non-finite parameters at epoch 0, step 0"
    alone = train(LinearModel(3, theta), exact, exact, cfgs[0])
    assert np.array_equal(outcomes[0].model.theta, alone.model.theta)
    assert np.array_equal(alone.model.theta, theta)
    assert ([(r.epoch, r.val_loss, r.grad_norm) for r in outcomes[0].history]
            == [(r.epoch, r.val_loss, r.grad_norm) for r in alone.history])
    assert len(alone.history) == 2 and alone.stopped_early


def test_train_cells_rejects_mixed_blocks():
    ds = make_dataset(20, 2, seed=19)
    u2 = TrainConfig("u2", max_epochs=1)
    pair = LinearModel(2, np.zeros((2, 3)))
    empty = LinearModel(2, np.zeros((0, 3)))
    for block, data, cfgs in ((pair, [(ds, ds)], [u2]), (pair, [(ds, ds)] * 2, [u2]),
                              (LinearModel(2), [(ds, ds)], [u2]), (empty, [], [])):
        with pytest.raises(ValueError, match="one TrainConfig per cell"):
            train_cells(block, data, cfgs)
    with pytest.raises(ValueError, match="TrainConfig field"):
        train_cells(pair, [(ds, ds)] * 2, [u2, TrainConfig("u2", max_epochs=2)])
    shorter = make_dataset(19, 2, seed=20)
    for data in ([(ds, ds), (shorter, ds)], [(ds, ds), (ds, shorter)]):
        with pytest.raises(ValueError, match="row count"):
            train_cells(pair, data, [u2, u2])
    # validation sets of two feature counts: the block rule fires before
    # the model's own feature check could
    wider = make_dataset(20, 3, seed=21)
    small_batch = TrainConfig("u2", max_epochs=1, batch_size=4)
    with pytest.raises(ValueError, match="feature counts"):
        train_cells(pair, [(ds, ds), (ds, wider)], [small_batch, small_batch])

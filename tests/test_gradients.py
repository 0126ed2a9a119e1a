"""Batch gradients: corrected forms, baselines, oracles, bias diagnostics."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2reg import (
    LinearModel,
    LossKind,
    LossSpec,
    MlpModel,
    RbfLinearModel,
    SyntheticProcess,
    bias_lower_bound,
    corrupt,
    estimate_eta_xi_delta,
    generate_uncorrupted,
    naive_batch_gradient,
    partition_upper,
    population_gradient_oracle,
    predict,
    u2_dataset_gradient_estimate,
)
from u2reg.gradients import MC_CHUNK, MC_WORKERS, block_gradient, reg_grad
from u2reg.losses import dloss_df, lower_grad_coeff, upper_grad_coeff
from u2reg.rngutil import derive_rng, derive_seed

from conftest import jacobian_rows

SQ_ABS = LossSpec.parse("squared", "absolute")
ABS_ABS = LossSpec.parse("absolute", "absolute")


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def test_reg_values_and_grads():
    theta = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(reg_grad("l1", theta), [-1.0, 0.0, 1.0])
    assert np.array_equal(reg_grad("l2", theta), [-4.0, 0.0, 6.0])
    assert np.array_equal(reg_grad(None, theta), np.zeros(3))
    with pytest.raises(ValueError):
        reg_grad("elastic", theta)


# ---------------------------------------------------------------------------
# partition conventions
# ---------------------------------------------------------------------------

def test_partition_upper_keeps_ties():
    preds = np.array([1.0, 1.0, 1.0])
    ys = np.array([2.0, 1.0, 0.0])
    assert partition_upper(preds, ys).tolist() == [True, True, False]


def test_partition_is_stable_to_tiny_label_shifts():
    preds = np.array([1.0])
    assert partition_upper(preds, np.array([1.0 + 1e-12])).tolist() == [True]
    assert partition_upper(preds, np.array([1.0 - 1e-12])).tolist() == [False]


# ---------------------------------------------------------------------------
# corrected batch gradient, downward corruption
# ---------------------------------------------------------------------------

def test_u2_hand_example():
    # f(x) = x; rows (x=1, y=2) upper and (x=2, y=1) lower.
    model = LinearModel(1, np.array([1.0, 0.0]))
    xs = np.array([[1.0], [2.0]])
    ys = np.array([2.0, 1.0])
    res = block_gradient(model, model.features(xs), ys, SQ_ABS, 0.5, 0.0, None, None)
    # coeff_up = dL_up - c_g + rho c_g = -2 - 1 + 0.5; coeff_lo = rho c_g = 0.5
    assert np.allclose(res.grad, [-2.5 * 1 + 0.5 * 2, -2.5 + 0.5])
    assert res.trusted.tolist() == [True, False]
    with_reg = block_gradient(model, model.features(xs), ys, SQ_ABS, 0.5, 0.1, "l2", None)
    assert np.allclose(with_reg.grad, res.grad + 0.1 * 2.0 * model.theta)


def test_u2_empty_upper_is_pure_unlabeled_term():
    model = LinearModel(1, np.array([1.0, 0.0]))
    xs = np.array([[1.0], [2.0]])
    ys = np.array([0.0, 0.0])  # all labels strictly below the fit
    res = block_gradient(model, model.features(xs), ys, SQ_ABS, 1.0, 0.0, None, None)
    sum_jac = jacobian_rows(model, xs).sum(axis=0)
    assert np.array_equal(res.grad, 1.0 * 1.0 * sum_jac)
    assert not res.trusted.any()


def test_u2_rho_zero_all_upper_matches_naive_accounting():
    # with every row trusted and rho = 0 the corrected sum is
    # n * naive(upper kind) - c_g * sum_i J_i
    rng = np.random.default_rng(5)
    model = LinearModel(3, rng.standard_normal(4))
    xs = rng.standard_normal((12, 3))
    preds = predict(model, xs)
    ys = preds + np.abs(rng.standard_normal(12)) + 0.1
    res = block_gradient(model, model.features(xs), ys, SQ_ABS, 0.0, 0.0, None, None)
    naive = naive_batch_gradient(model, xs, ys, SQ_ABS.upper, lam=0.0)
    sum_jac = jacobian_rows(model, xs).sum(axis=0)
    assert np.allclose(res.grad, 12 * naive.grad - 1.0 * sum_jac, atol=1e-12)
    assert res.trusted.all()


def test_u2_tie_row_is_trusted():
    model = LinearModel(1, np.array([1.0, 0.0]))
    feats = model.features(np.array([[2.0]]))
    res = block_gradient(model, feats, np.array([2.0]), SQ_ABS, 1.0, 0.0, None, None)
    assert res.trusted.tolist() == [True]
    # squared upper derivative vanishes at the tie, so the trusted-row term
    # -c_g J exactly cancels the rho c_g J unlabeled term at rho = 1
    assert np.array_equal(res.grad, np.zeros(2))


def test_naive_rejects_negative_lam():
    # the corrected form's rho and lam are checked by TrainConfig (see
    # test_train_config_validation); naive_batch_gradient is called directly
    model = LinearModel(1)
    xs, ys = np.array([[1.0]]), np.array([0.0])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            naive_batch_gradient(model, xs, ys, LossKind("squared"), lam=bad)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 24),
    rho=st.floats(0.0, 3.0),
    lam=st.floats(0.0, 1.0),
)
def test_u2_matches_three_sum_oracle(seed, n, rho, lam):
    rng = np.random.default_rng(seed)
    model = LinearModel(2, rng.standard_normal(3))
    xs = rng.standard_normal((n, 2))
    ys = rng.standard_normal(n) * 2.0
    res = block_gradient(model, model.features(xs), ys, SQ_ABS, rho, lam, "l1", None)
    preds = predict(model, xs)
    J = jacobian_rows(model, xs)
    up = preds <= ys
    c_g = lower_grad_coeff(SQ_ABS)
    d_up = dloss_df(SQ_ABS.upper, preds, ys)
    want = (
        (np.where(up, d_up, 0.0) @ J)
        + rho * c_g * J.sum(axis=0)
        - c_g * (np.where(up, 1.0, 0.0) @ J)
    )
    if lam > 0:
        want = want + lam * reg_grad("l1", model.theta)
    assert np.allclose(res.grad, want, atol=1e-9)


# ---------------------------------------------------------------------------
# mirrored batch gradient, upward corruption
# ---------------------------------------------------------------------------

def test_lu_all_upper_is_pure_unlabeled_term():
    model = LinearModel(1, np.array([1.0, 0.0]))
    xs = np.array([[1.0], [2.0]])
    ys = np.array([5.0, 5.0])  # everything above the fit: labeled set empty
    res = block_gradient(model, model.features(xs), ys, ABS_ABS, 1.0, 0.0, None, None, mirror=True)
    sum_jac = jacobian_rows(model, xs).sum(axis=0)
    assert np.array_equal(res.grad, upper_grad_coeff(ABS_ABS) * sum_jac)
    assert not res.trusted.any()


def test_lu_single_lower_row():
    model = LinearModel(1, np.array([1.0, 0.0]))
    feats = model.features(np.array([[3.0]]))
    res = block_gradient(model, feats, np.array([1.0]), ABS_ABS, 0.0, 0.0, None, None, mirror=True)
    # f = 3 > y = 1: coeff = dL_lo - c_u = 1 - (-1) = 2 on that single row
    assert np.array_equal(res.grad, 2.0 * np.array([3.0, 1.0]))
    assert res.trusted.tolist() == [True]


def test_lu_tie_row_is_not_in_the_labeled_set():
    model = LinearModel(1, np.array([1.0, 0.0]))
    feats = model.features(np.array([[2.0]]))
    res = block_gradient(model, feats, np.array([2.0]), ABS_ABS, 1.0, 0.0, None, None, mirror=True)
    assert res.trusted.tolist() == [False]
    assert np.array_equal(res.grad, -1.0 * np.array([2.0, 1.0]))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 24), rho=st.floats(0.0, 3.0))
def test_lu_mirrors_u2_on_negated_data(seed, n, rho):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(3)
    xs = rng.standard_normal((n, 2))
    ys = rng.standard_normal(n) * 2.0
    u2, lu = LinearModel(2, theta), LinearModel(2, -theta)
    g_u2 = block_gradient(u2, u2.features(xs), ys, ABS_ABS, rho, 0.01, "l2", None)
    g_lu = block_gradient(lu, lu.features(xs), -ys, ABS_ABS, rho, 0.01, "l2", None, mirror=True)
    assert np.allclose(g_lu.grad, -g_u2.grad, atol=1e-10)


@pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
@pytest.mark.parametrize("cells", [0, 3], ids=["single", "block"])
@pytest.mark.parametrize("mirror", [False, True], ids=["u2", "lu"])
def test_pushing_untrusted_labels_further_out_leaves_the_gradient_unchanged(kind, cells, mirror):
    # the paper's mechanism: a row the fit does not trust (label below the
    # fit for u2, at or above it for lu) adds only the label-free term, so
    # how far out its label sits cannot matter
    rng = np.random.default_rng(31)
    model = {"linear": LinearModel(3), "rbf": RbfLinearModel(rng.standard_normal((6, 3)), 1.1),
             "mlp": MlpModel(3, (5, 4), dropout=0.0)}[kind]
    draws = [model.init_theta(rng) if kind == "mlp" else rng.standard_normal(model.theta.size)
             for _ in range(max(cells, 1))]
    model = model.clone_with_theta(np.stack(draws) if cells else draws[0])
    rho, lam = (0.5, 0.01) if not cells else (np.array([[0.25], [0.5], [1.0]]),
                                              np.array([[0.0], [0.01], [0.1]]))
    X = rng.standard_normal((40, 3))
    feats = model.features(X)
    preds = predict(model, X)
    ys = preds + rng.standard_normal(preds.shape)
    untrusted = ys >= preds if mirror else ys < preds
    push = rng.exponential(3.0, ys.shape) * (1.0 if mirror else -1.0)
    pushed = np.where(untrusted, ys + push, ys)
    assert untrusted.any() and (~untrusted).any() and not np.array_equal(pushed, ys)
    spec = ABS_ABS if mirror else SQ_ABS  # lu needs a label-free upper side
    before = block_gradient(model, feats, ys, spec, rho, lam, "l2", None, mirror=mirror)
    after = block_gradient(model, feats, pushed, spec, rho, lam, "l2", None, mirror=mirror)
    assert np.array_equal(after.grad, before.grad)
    assert np.array_equal(after.trusted, before.trusted)
    if not mirror and not cells and kind != "mlp":
        # n_up, so rho_hat, does not move either: nor does the dataset estimate
        before = u2_dataset_gradient_estimate(model, X, ys, spec, 0.4)
        after = u2_dataset_gradient_estimate(model, X, pushed, spec, 0.4)
        assert np.array_equal(after.grad, before.grad)
        assert np.array_equal(after.trusted, before.trusted)


# ---------------------------------------------------------------------------
# label-trusting baseline
# ---------------------------------------------------------------------------

def test_naive_mse_hand_example():
    model = LinearModel(1, np.zeros(2))
    res = naive_batch_gradient(model, np.array([[1.0]]), np.array([2.0]), LossKind("squared"))
    assert np.array_equal(res.grad, [-4.0, -4.0])
    assert res.trusted.all()


def test_naive_mae_zero_at_exact_fit():
    model = LinearModel(1, np.array([2.0, 1.0]))
    xs = np.array([[0.0], [1.0], [-1.0]])
    ys = predict(model, xs)
    res = naive_batch_gradient(model, xs, ys, LossKind("absolute"), lam=0.0)
    assert np.array_equal(res.grad, np.zeros(2))


def test_naive_huber_equals_mse_inside_delta():
    rng = np.random.default_rng(9)
    model = LinearModel(2, rng.standard_normal(3))
    xs = rng.standard_normal((10, 2))
    ys = predict(model, xs) + rng.uniform(-0.5, 0.5, 10)
    g_h = naive_batch_gradient(model, xs, ys, LossKind("huber", 1.0), lam=0.0)
    g_s = naive_batch_gradient(model, xs, ys, LossKind("squared"), lam=0.0)
    assert np.allclose(g_h.grad, g_s.grad, atol=1e-14)


def test_naive_is_mean_normalized():
    rng = np.random.default_rng(10)
    model = LinearModel(2, rng.standard_normal(3))
    xs = rng.standard_normal((6, 2))
    ys = rng.standard_normal(6)
    once = naive_batch_gradient(model, xs, ys, LossKind("squared"), lam=0.0)
    twice = naive_batch_gradient(
        model, np.vstack([xs, xs]), np.concatenate([ys, ys]), LossKind("squared"), lam=0.0
    )
    assert np.allclose(once.grad, twice.grad, atol=1e-12)


# ---------------------------------------------------------------------------
# dataset-level importance-normalized estimate
# ---------------------------------------------------------------------------

def _written_formula(model, xs, ys, spec, pi_up):
    # (pi_up / n_up) sum_up [dL_up - c_g] J + (c_g / N) sum_all J, from closed-form Jacobians
    preds, J = predict(model, xs), jacobian_rows(model, xs)
    up = preds <= ys
    c_g = lower_grad_coeff(spec)
    labeled = np.where(up, dloss_df(spec.upper, preds, ys) - c_g, 0.0) @ J
    return (pi_up / up.sum()) * labeled + (c_g / len(ys)) * J.sum(axis=0)


def test_dataset_estimate_matches_written_formula():
    rng = np.random.default_rng(17)
    model = LinearModel(3, rng.standard_normal(4))
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal(40) * 2.0
    res = u2_dataset_gradient_estimate(model, xs, ys, SQ_ABS, 0.37)
    assert np.max(np.abs(res.grad - _written_formula(model, xs, ys, SQ_ABS, 0.37))) <= 1e-12


def test_dataset_estimate_empty_upper_fallback():
    model = LinearModel(1, np.array([0.0, 10.0]))  # constant fit far above labels
    xs = np.array([[1.0], [2.0], [3.0]])
    ys = np.zeros(3)
    res = u2_dataset_gradient_estimate(model, xs, ys, SQ_ABS, pi_up=0.5)
    J = jacobian_rows(model, xs)
    assert np.allclose(res.grad, (1.0 / 3.0) * J.sum(axis=0), atol=1e-15)


@pytest.mark.parametrize("mode, scale, upper", [
    ("paper", 2.0, "absolute"), ("paper", 13.0, "squared"), ("strict", 2.0, "huber:1"),
])
def test_dataset_estimate_matches_written_formula_on_5000_corrupted_rows(mode, scale, upper):
    # the estimate runs block_gradient at rho_hat = n_up / (N pi_up); the written
    # formula stays the independent reference (measured gaps 1.7e-16 to 1.4e-15)
    process = SyntheticProcess.draw(10, derive_seed(19, "one-estimator", mode, scale),
                                    k_percent=50.0, mode=mode, corruption_scale=scale)
    ds = corrupt(generate_uncorrupted(process, 5000, derive_seed(19, "one-estimator-data")),
                 process, derive_seed(19, "one-estimator-corrupt"))
    model = LinearModel(10, np.append(process.weights, 0.2))
    spec, pi_up = LossSpec.parse(upper, "absolute"), 0.42
    est = u2_dataset_gradient_estimate(model, ds.xs, ds.ys_prime, spec, pi_up).grad
    want = _written_formula(model, ds.xs, ds.ys_prime, spec, pi_up)
    assert np.max(np.abs(est - want)) <= 1e-14


def test_dataset_estimate_validates_pi_up():
    model = LinearModel(1)
    xs, ys = np.array([[1.0]]), np.array([1.0])
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            u2_dataset_gradient_estimate(model, xs, ys, SQ_ABS, bad)


# ---------------------------------------------------------------------------
# clean-population oracle
# ---------------------------------------------------------------------------

def test_oracle_is_seed_deterministic():
    process = SyntheticProcess.draw(4, derive_seed(1, "gtest-proc"))
    model = LinearModel(4, np.append(process.weights, 0.0))
    g1 = population_gradient_oracle(model, process, ABS_ABS, 5000, seed=3)
    g2 = population_gradient_oracle(model, process, ABS_ABS, 5000, seed=3)
    assert np.array_equal(g1, g2)


def test_oracle_near_zero_at_the_regression_function():
    # symmetric noise and a symmetric two-sided loss: the true weights are a
    # stationary point, so the Monte-Carlo mean sits within a few SEs of 0
    process = SyntheticProcess.draw(4, derive_seed(2, "gtest-proc"))
    model = LinearModel(4, np.append(process.weights, 0.0))
    grad, se = population_gradient_oracle(model, process, ABS_ABS, 20000, seed=5, with_se=True)
    assert np.all(np.abs(grad) <= 5.0 * se + 1e-12)


def test_oracle_two_seeds_agree_within_monte_carlo_error():
    process = SyntheticProcess.draw(3, derive_seed(4, "gtest-proc"))
    model = LinearModel(3, np.append(process.weights * 0.5, 0.3))
    g1, s1 = population_gradient_oracle(model, process, SQ_ABS, 40000, seed=11, with_se=True)
    g2, s2 = population_gradient_oracle(model, process, SQ_ABS, 40000, seed=12, with_se=True)
    assert np.all(np.abs(g1 - g2) <= 4.0 * np.sqrt(s1**2 + s2**2))


def test_oracle_standard_errors_need_per_row_jacobians():
    class NoDraws:
        dim = 2

        def fill_clean(self, X, noise, rng):
            raise AssertionError("drew Monte-Carlo rows")

    mlp = MlpModel(2, (3,), dropout=0.0)
    with pytest.raises(ValueError, match="mlp"):
        population_gradient_oracle(mlp, NoDraws(), ABS_ABS, 100, seed=0, with_se=True)
    process = SyntheticProcess.draw(2, derive_seed(7, "gtest-proc"))
    grad = population_gradient_oracle(mlp, process, ABS_ABS, 100, seed=0)
    assert grad.shape == mlp.theta.shape


def test_oracle_matches_single_chunk_replay():
    process = SyntheticProcess.draw(3, derive_seed(8, "gtest-proc"))
    model = LinearModel(3, np.append(process.weights * 0.5, -0.2))
    n_rows, seed = 10000, 5
    grad, se = population_gradient_oracle(model, process, SQ_ABS, n_rows, seed, with_se=True)
    # n_rows below the chunk size: one draw_clean call replays the stream
    X, y = process.draw_clean(n_rows, derive_rng(seed, "population-oracle"))
    preds = predict(model, X)
    up = partition_upper(preds, y)
    coeff = np.where(up, dloss_df(SQ_ABS.upper, preds, y), dloss_df(SQ_ABS.lower, preds, y))
    G = coeff[:, None] * jacobian_rows(model, X)
    assert grad == pytest.approx(G.mean(axis=0), rel=1e-12)
    assert se == pytest.approx(G.std(axis=0) / math.sqrt(n_rows), rel=1e-12)


class RecordingProcess:
    """A real process that records the row count of every fill_clean call."""

    def __init__(self, process):
        self.process, self.sizes = process, []

    def __getattr__(self, name):
        return getattr(self.process, name)

    def fill_clean(self, X, noise, rng):
        self.sizes.append(len(X))
        self.process.fill_clean(X, noise, rng)


@pytest.mark.parametrize("run", [
    lambda model, process, n: population_gradient_oracle(model, process, SQ_ABS, n, seed=1),
    lambda model, process, n: population_gradient_oracle(model, process, SQ_ABS, n, seed=1,
                                                         with_se=True),
    lambda model, process, n: estimate_eta_xi_delta(process, model, SQ_ABS, n, seed=1),
], ids=["oracle", "oracle-se", "eta-xi-delta"])
def test_clean_monte_carlo_draws_come_in_chunks(run):
    base = SyntheticProcess.draw(2, derive_seed(9, "gtest-proc"), k_percent=50.0)
    process = RecordingProcess(base)
    model = LinearModel(2, np.append(base.weights, 0.1))
    n_rows = MC_CHUNK + 10
    run(model, process, n_rows)
    assert process.sizes and max(process.sizes) <= MC_CHUNK
    assert sum(process.sizes) == n_rows


def _replay_sums(model, process, n_rows, seed, label):
    """clean_pass's sums: chunk 0 drawn from derive_rng(seed, label), chunk k
    from derive_rng(seed, label, k), the squared gradients as the forward
    features squared out of place and weighted by coeff^2, chunk sums added
    in chunk order."""
    n_up, g_up, g_lo, sq = 0, 0.0, 0.0, 0.0
    for k, start in enumerate(range(0, n_rows, MC_CHUNK)):
        rng = derive_rng(seed, label, k) if k else derive_rng(seed, label)
        X, y = process.draw_clean(min(MC_CHUNK, n_rows - start), rng)
        preds, cache = model.forward(model.features(X))
        up = partition_upper(preds, y)
        coeff = np.where(up, dloss_df(SQ_ABS.upper, preds, y), dloss_df(SQ_ABS.lower, preds, y))
        n_up += int(up.sum())
        g_up = g_up + model.backward_weighted(cache, np.where(up, coeff, 0.0))
        g_lo = g_lo + model.backward_weighted(cache, np.where(up, 0.0, coeff))
        sq = sq + model.backward_weighted(cache * cache, coeff * coeff)
    return n_up, g_up, g_lo, sq


@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_two_chunk_oracle_and_side_gap_match_a_replay_bit_for_bit(kind):
    process = SyntheticProcess.draw(3, derive_seed(11, "gtest-proc"))
    bases = derive_rng(11, "gtest-bases").standard_normal((5, 3))
    model = {"linear": LinearModel(3, np.append(process.weights * 0.5, -0.2)),
             "rbf": RbfLinearModel(bases, 1.5, np.linspace(-1.0, 1.0, 5))}[kind]
    n_rows, seed = MC_CHUNK + 10, 5
    grad, se = population_gradient_oracle(model, process, SQ_ABS, n_rows, seed, with_se=True)
    _, g_up, g_lo, sq = _replay_sums(model, process, n_rows, seed, "population-oracle")
    want = (g_up + g_lo) / n_rows
    assert np.array_equal(grad, want)
    assert np.array_equal(se, np.sqrt(np.maximum(sq / n_rows - want * want, 0.0) / n_rows))
    diag = estimate_eta_xi_delta(process, model, SQ_ABS, n_rows, seed)
    n_up, g_up, g_lo, _ = _replay_sums(model, process, n_rows, seed, "eta-xi-delta")
    assert diag.eta == n_up / n_rows
    assert diag.delta == float(np.max(np.abs(g_up / n_up - g_lo / (n_rows - n_up))))


def test_clean_pass_results_do_not_depend_on_the_worker_count(monkeypatch):
    process = SyntheticProcess.draw(3, derive_seed(13, "gtest-proc"))
    model = LinearModel(3, np.append(process.weights * 0.5, -0.2))
    n_rows, seed = 5 * MC_CHUNK + 10, 4
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr("u2reg.gradients.MC_WORKERS", workers)
            grad, se = population_gradient_oracle(model, process, SQ_ABS, n_rows, seed,
                                                  with_se=True)
            diag = estimate_eta_xi_delta(process, model, SQ_ABS, n_rows, seed)
            results.append((grad, se, np.array([diag.eta, diag.xi, diag.delta, diag.bound])))
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))
    _, g_up, g_lo, _ = _replay_sums(model, process, n_rows, seed, "population-oracle")
    assert np.array_equal(results[0][0], (g_up + g_lo) / n_rows)


@pytest.mark.parametrize("run", [
    lambda model, process, n: population_gradient_oracle(model, process, SQ_ABS, n, seed=3,
                                                         with_se=True),
    lambda model, process, n: estimate_eta_xi_delta(process, model, SQ_ABS, n, seed=3),
], ids=["oracle-se", "eta-xi-delta"])
def test_clean_pass_holds_a_window_of_chunks(run):
    # d = 10: one chunk of X and noise is MC_CHUNK * 11 float64s. The pass
    # holds the chunk being summed, MC_WORKERS chunks filled or filling and
    # one chunk's row vectors; a worker that kept its chunk past the window,
    # or a second chunk-sized array for the standard errors (a per-row
    # Jacobian), goes over
    process = SyntheticProcess.draw(10, derive_seed(10, "gtest-proc"))
    model = LinearModel(10, np.append(process.weights, 0.1))
    run(model, process, 2 * MC_CHUNK)  # imports the thread pool's modules before tracing
    tracemalloc.start()
    try:
        run(model, process, 8 * MC_CHUNK + 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (MC_WORKERS + 1.8) * MC_CHUNK * 11 * 8


def test_oracle_standard_errors_compute_rbf_features_once():
    process = SyntheticProcess.draw(3, derive_seed(12, "gtest-proc"))
    bases = derive_rng(12, "gtest-bases").standard_normal((5, 3))
    model = RbfLinearModel(bases, 1.5, np.linspace(-1.0, 1.0, 5))
    rows, features = [], model.features
    model.features = lambda X: rows.append(len(X)) or features(X)
    n_rows = MC_CHUNK + 10
    population_gradient_oracle(model, process, SQ_ABS, n_rows, seed=2, with_se=True)
    assert sum(rows) == n_rows


def test_oracle_needs_at_least_two_rows():
    process = SyntheticProcess.draw(2, derive_seed(6, "gtest-proc"))
    model = LinearModel(2)
    with pytest.raises(ValueError):
        population_gradient_oracle(model, process, ABS_ABS, 1, seed=0)


# ---------------------------------------------------------------------------
# bias floor
# ---------------------------------------------------------------------------

def test_bias_lower_bound_values():
    assert bias_lower_bound(0.5, 0.5, 2.0) == pytest.approx(0.5 * 0.5 * 0.5 * 2.0 / 0.75)
    assert bias_lower_bound(1.0, 1.0, 3.0) == 0.0  # degenerate denominator
    assert bias_lower_bound(0.0, 0.5, 1.0) == 0.0
    assert bias_lower_bound(1.0, 0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        bias_lower_bound(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        bias_lower_bound(0.5, 1.1, 1.0)
    with pytest.raises(ValueError):
        bias_lower_bound(0.5, 0.5, -1.0)

"""Batch gradients: corrected forms, baselines, oracles, bias diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2reg import (
    LinearModel,
    LossKind,
    LossSpec,
    MlpModel,
    SyntheticProcess,
    bias_lower_bound,
    naive_batch_gradient,
    partition_upper,
    population_gradient_oracle,
    u2_batch_gradient,
    u2_dataset_gradient_estimate,
)
from u2reg.gradients import reg_grad
from u2reg.losses import dloss_df, lower_grad_coeff, upper_grad_coeff
from u2reg.rngutil import derive_seed

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
    res = u2_batch_gradient(model, xs, ys, SQ_ABS, rho=0.5, lam=0.0)
    # coeff_up = dL_up - c_g + rho c_g = -2 - 1 + 0.5; coeff_lo = rho c_g = 0.5
    assert np.allclose(res.grad, [-2.5 * 1 + 0.5 * 2, -2.5 + 0.5])
    assert res.trusted.tolist() == [True, False]
    with_reg = u2_batch_gradient(model, xs, ys, SQ_ABS, rho=0.5, lam=0.1, reg="l2")
    assert np.allclose(with_reg.grad, res.grad + 0.1 * 2.0 * model.theta)


def test_u2_empty_upper_is_pure_unlabeled_term():
    model = LinearModel(1, np.array([1.0, 0.0]))
    xs = np.array([[1.0], [2.0]])
    ys = np.array([0.0, 0.0])  # all labels strictly below the fit
    res = u2_batch_gradient(model, xs, ys, SQ_ABS, rho=1.0, lam=0.0)
    sum_jac = model.param_jacobian_batch(xs).sum(axis=0)
    assert np.array_equal(res.grad, 1.0 * 1.0 * sum_jac)
    assert not res.trusted.any()


def test_u2_rho_zero_all_upper_matches_naive_accounting():
    # with every row trusted and rho = 0 the corrected sum is
    # n * naive(upper kind) - c_g * sum_i J_i
    rng = np.random.default_rng(5)
    model = LinearModel(3, rng.standard_normal(4))
    xs = rng.standard_normal((12, 3))
    preds = model.predict_batch(xs)
    ys = preds + np.abs(rng.standard_normal(12)) + 0.1
    res = u2_batch_gradient(model, xs, ys, SQ_ABS, rho=0.0, lam=0.0)
    naive = naive_batch_gradient(model, xs, ys, SQ_ABS.upper, lam=0.0)
    sum_jac = model.param_jacobian_batch(xs).sum(axis=0)
    assert np.allclose(res.grad, 12 * naive.grad - 1.0 * sum_jac, atol=1e-12)
    assert res.trusted.all()


def test_u2_tie_row_is_trusted():
    model = LinearModel(1, np.array([1.0, 0.0]))
    res = u2_batch_gradient(model, np.array([[2.0]]), np.array([2.0]), SQ_ABS, rho=1.0)
    assert res.trusted.tolist() == [True]
    # squared upper derivative vanishes at the tie, so the trusted-row term
    # -c_g J exactly cancels the rho c_g J unlabeled term at rho = 1
    assert np.array_equal(res.grad, np.zeros(2))


def test_u2_rejects_negative_rho_and_lam():
    model = LinearModel(1)
    xs, ys = np.array([[1.0]]), np.array([0.0])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            u2_batch_gradient(model, xs, ys, SQ_ABS, rho=bad)
        with pytest.raises(ValueError):
            u2_batch_gradient(model, xs, ys, SQ_ABS, rho=1.0, lam=bad)
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
    res = u2_batch_gradient(model, xs, ys, SQ_ABS, rho=rho, lam=lam, reg="l1")
    preds = model.predict_batch(xs)
    J = model.param_jacobian_batch(xs)
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
    res = u2_batch_gradient(model, xs, ys, ABS_ABS, rho=1.0, lam=0.0, mirror=True)
    sum_jac = model.param_jacobian_batch(xs).sum(axis=0)
    assert np.array_equal(res.grad, upper_grad_coeff(ABS_ABS) * sum_jac)
    assert not res.trusted.any()


def test_lu_single_lower_row():
    model = LinearModel(1, np.array([1.0, 0.0]))
    res = u2_batch_gradient(model, np.array([[3.0]]), np.array([1.0]), ABS_ABS, rho=0.0,
                            mirror=True)
    # f = 3 > y = 1: coeff = dL_lo - c_u = 1 - (-1) = 2 on that single row
    assert np.array_equal(res.grad, 2.0 * np.array([3.0, 1.0]))
    assert res.trusted.tolist() == [True]


def test_lu_tie_row_is_not_in_the_labeled_set():
    model = LinearModel(1, np.array([1.0, 0.0]))
    res = u2_batch_gradient(model, np.array([[2.0]]), np.array([2.0]), ABS_ABS, rho=1.0,
                            mirror=True)
    assert res.trusted.tolist() == [False]
    assert np.array_equal(res.grad, -1.0 * np.array([2.0, 1.0]))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 24), rho=st.floats(0.0, 3.0))
def test_lu_mirrors_u2_on_negated_data(seed, n, rho):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(3)
    xs = rng.standard_normal((n, 2))
    ys = rng.standard_normal(n) * 2.0
    g_u2 = u2_batch_gradient(LinearModel(2, theta), xs, ys, ABS_ABS, rho, 0.01, "l2")
    g_lu = u2_batch_gradient(LinearModel(2, -theta), xs, -ys, ABS_ABS, rho, 0.01, "l2",
                             mirror=True)
    assert np.allclose(g_lu.grad, -g_u2.grad, atol=1e-10)


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
    ys = model.predict_batch(xs)
    res = naive_batch_gradient(model, xs, ys, LossKind("absolute"), lam=0.0)
    assert np.array_equal(res.grad, np.zeros(2))


def test_naive_huber_equals_mse_inside_delta():
    rng = np.random.default_rng(9)
    model = LinearModel(2, rng.standard_normal(3))
    xs = rng.standard_normal((10, 2))
    ys = model.predict_batch(xs) + rng.uniform(-0.5, 0.5, 10)
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

def test_dataset_estimate_matches_written_formula():
    rng = np.random.default_rng(17)
    model = LinearModel(3, rng.standard_normal(4))
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal(40) * 2.0
    pi_up = 0.37
    res = u2_dataset_gradient_estimate(model, xs, ys, SQ_ABS, pi_up)
    preds = model.predict_batch(xs)
    J = model.param_jacobian_batch(xs)
    up = preds <= ys
    c_g = lower_grad_coeff(SQ_ABS)
    d_up = dloss_df(SQ_ABS.upper, preds, ys)
    want = (pi_up / up.sum()) * (np.where(up, d_up - c_g, 0.0) @ J) + (
        c_g / 40.0
    ) * J.sum(axis=0)
    assert np.allclose(res.grad, want, atol=1e-12)


def test_dataset_estimate_empty_upper_fallback():
    model = LinearModel(1, np.array([0.0, 10.0]))  # constant fit far above labels
    xs = np.array([[1.0], [2.0], [3.0]])
    ys = np.zeros(3)
    res = u2_dataset_gradient_estimate(model, xs, ys, SQ_ABS, pi_up=0.5)
    J = model.param_jacobian_batch(xs)
    assert np.allclose(res.grad, (1.0 / 3.0) * J.sum(axis=0), atol=1e-15)


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
        def draw_clean(self, n, rng):
            raise AssertionError("drew Monte-Carlo rows")

    mlp = MlpModel(2, (3,), dropout=0.0)
    with pytest.raises(ValueError, match="mlp"):
        population_gradient_oracle(mlp, NoDraws(), ABS_ABS, 100, seed=0, with_se=True)
    process = SyntheticProcess.draw(2, derive_seed(7, "gtest-proc"))
    grad = population_gradient_oracle(mlp, process, ABS_ABS, 100, seed=0)
    assert grad.shape == mlp.theta.shape


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

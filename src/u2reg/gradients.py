"""Corrected mini-batch gradients and their bias diagnostics.

The key move: when labels can only be corrupted downward, every row whose
prediction sits at or below its label is trustworthy for the upper side of
the loss, while the lower side's derivative is a known constant c_g that
needs no label at all. The corrected batch gradient therefore keeps the
labeled upper-side term on trustworthy rows and rebuilds the lower-side term
from the whole batch, reweighted by rho:

    g = sum_up dL_up(f_i, y_i) J_i
        + rho * c_g * sum_batch J_i
        - c_g * sum_up J_i
        + lam * dR(theta)

where J_i = d f(x_i) / d theta. rho stands for the clean fraction xi, the
share of rows the corruption left alone: trusted rows are drawn at rate xi,
so while no corrupted row is trusted the expected per-row gradient is

    xi * (clean gradient) + (rho - xi) * c_g * E[J],

proportional to the clean gradient exactly when rho == xi. The sums are
deliberately unnormalized; the learning rate absorbs the scale, and Adam's
update is invariant to it anyway. Collapsing the three sums gives one weight
per row, so a single weighted backward pass computes the whole thing:

    coeff_i = 1[up_i] * (dL_up(f_i, y_i) - c_g) + rho * c_g.

block_gradient computes it from the batch rows' features; the training
engine runs it on every step.

The mirrored variant for upward-only corruption (mirror=True) swaps the
roles of the two sides. Rows with f_i == y_i belong to the upper side in
both variants: they are trustworthy for the downward-corruption form and
unlabeled-only for the mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LossKind, LossSpec, dloss_df, lower_grad_coeff, upper_grad_coeff
from .rngutil import derive_rng

REGULARIZERS = ("l1", "l2")
# rows per draw_clean call; clean_pass holds one chunk of X (phi too for rbf) plus row vectors
MC_CHUNK = 65536


def reg_grad(reg: str | None, theta: np.ndarray) -> np.ndarray:
    if reg is None:
        return np.zeros_like(theta)
    if reg == "l1":
        return np.sign(theta)
    if reg == "l2":
        return 2.0 * theta
    raise ValueError(f"regularizer must be one of {REGULARIZERS}, got {reg!r}")


def partition_upper(preds: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """True where the prediction is at or below the label (ties trusted)."""
    return np.asarray(preds) <= np.asarray(ys)


@dataclass
class GradResult:
    grad: np.ndarray
    trusted: np.ndarray  # boolean mask of rows whose labels were used


def naive_batch_gradient(
    model,
    xs: np.ndarray,
    ys: np.ndarray,
    kind: LossKind,
    lam: float = 0.0,
    reg: str | None = "l2",
    rng=None,
) -> GradResult:
    """Plain mean gradient of a single-kind loss; trusts every label."""
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")
    return block_gradient(model, model.features(xs), np.asarray(ys, dtype=float), kind, 0.0,
                          lam, reg, rng)


def block_gradient(model, feats, ys, loss, rho, lam, reg, rng, mirror=False) -> GradResult:
    """The batch gradient both training paths share, from the rows' features.

    loss is a LossSpec for the corrected form (the unnormalized sums of the
    module docstring; rho weights the label-free term) or a LossKind for the
    naive mean gradient, which trusts every label. feats are model.features
    of the batch rows; rng enables train-mode stochasticity (dropout) in the
    forward pass, and the row partition uses that same forward pass.

    mirror=True handles upward-only corruption: rows with y_i < f_i keep the
    labeled lower-side term (ties f_i == y_i are treated as upper and dropped
    from it), and the upper side is rebuilt from the constant c_u = d/df L_up
    on f < y, reweighted by rho, which stands for the clean fraction exactly
    as in the downward form.

    Everything broadcasts over a leading cell axis: a (C, P) model with feats
    (C, B, k), ys (C, B), rho and lam (C, 1) columns and one rng per cell
    gives a (C, P) gradient, each row the same floats as that cell's
    single-model gradient. A cell's penalty is added only where its lam > 0.
    rho and lam are not checked here; TrainConfig checks them for every run.
    """
    preds, cache = model.forward(feats, rng)
    if isinstance(loss, LossKind):
        coeff = dloss_df(loss, preds, ys) / ys.shape[-1]
        trusted = np.ones(ys.shape, dtype=bool)
    else:
        if mirror:
            trusted = ys < preds
            c, kind = upper_grad_coeff(loss), loss.lower
        else:
            trusted = partition_upper(preds, ys)
            c, kind = lower_grad_coeff(loss), loss.upper
        coeff = np.where(trusted, dloss_df(kind, preds, ys) - c, 0.0) + rho * c
    grad = model.backward_weighted(cache, coeff)
    penalized = np.asarray(lam) > 0.0
    if penalized.all():
        pen = reg_grad(reg, model.theta)  # a fresh array, as is grad
        pen *= lam
        grad += pen
    elif penalized.any():
        grad = np.where(penalized, grad + lam * reg_grad(reg, model.theta), grad)
    return GradResult(grad, trusted)


# ---------------------------------------------------------------------------
# dataset estimator; one chunked clean Monte-Carlo pass (no regularizer, no dropout)
# ---------------------------------------------------------------------------

def u2_dataset_gradient_estimate(
    model,
    xs: np.ndarray,
    ys: np.ndarray,
    spec: LossSpec,
    pi_up: float,
) -> GradResult:
    """Importance-normalized corrected gradient over a full dataset.

    pi_up is the probability that a clean draw satisfies f(x) <= y. The
    trustworthy rows are reweighted by pi_up / n_up so their average matches
    the clean upper-side expectation, and the constant lower-side term is a
    plain mean over all rows:

        (pi_up / n_up) sum_up [dL_up(f_i, y_i) - c_g] J_i
        + (1 / N) c_g sum_all J_i.

    Degenerate batches with no trustworthy rows fall back to the second term
    alone (the first is an empty sum).
    """
    if not (0.0 < pi_up <= 1.0):
        raise ValueError("pi_up must lie in (0, 1]")
    ys = np.asarray(ys, dtype=float)
    c_g = lower_grad_coeff(spec)
    preds, cache = model.forward(model.features(xs))
    up = partition_upper(preds, ys)
    n_up = int(up.sum())
    coeff = np.full(ys.size, c_g / ys.size)
    if n_up > 0:
        d_up = dloss_df(spec.upper, preds, ys)
        coeff = coeff + np.where(up, (d_up - c_g) * (pi_up / n_up), 0.0)
    return GradResult(model.backward_weighted(cache, coeff), up)


def population_gradient_oracle(
    model,
    process,
    spec: LossSpec,
    n_rows: int,
    seed: int,
    with_se: bool = False,
):
    """Monte-Carlo E[dL(f(x), y) J(x)] under the clean label process.

    The loss is the full two-sided objective: upper kind where f <= y, lower
    kind where f > y. Fresh clean rows come from process.draw_clean, so this
    never sees corruption; it is the ground truth the corrected estimators
    are judged against. Returns grad, or (grad, se) with per-coordinate
    standard errors of the Monte-Carlo mean. with_se needs a linear or rbf
    model, whose squared per-row gradients clean_pass reads off the forward
    features in the same pass, with no per-row Jacobian built.
    """
    if n_rows < 2:
        raise ValueError("need at least two Monte-Carlo rows")
    if with_se and model.kind not in ("linear", "rbf"):
        raise ValueError(f"with_se needs a linear or rbf model, not a {model.kind} model")
    _, g_up, g_lo, sq = clean_pass(model, process, spec, n_rows,
                                   derive_rng(seed, "population-oracle"), with_se)
    grad = (g_up + g_lo) / n_rows
    if not with_se:
        return grad
    return grad, np.sqrt(np.maximum(sq / n_rows - grad * grad, 0.0) / n_rows)


def clean_pass(model, process, spec: LossSpec, n_rows: int, rng, with_sq: bool = False):
    """Two-sided loss-gradient sums over n_rows clean draws, MC_CHUNK rows per draw.

    Returns (n_up, g_up, g_lo, sq): the count of rows with f <= y, the summed
    gradient on that side and on the other, and with with_sq the coordinatewise
    sum of squared per-row gradients (linear or rbf only; else None). Row i's
    gradient is coeff_i J_i with J_i = [F_i, 1] (linear) or F_i (rbf), F the
    forward cache, so that sum is backward_weighted(F * F, coeff^2). F is
    squared in place once the side sums are taken: it is a fresh array this
    pass owns, X itself from draw_clean (which must return a new array) for
    linear, phi(X) for rbf. One chunk is alive at a time, with or without
    with_sq: one chunk of X plus row vectors, and for rbf one chunk of phi,
    which rbf_features builds in its own output buffer.
    """
    n_up, g_up, g_lo, sq = 0, 0.0, 0.0, 0.0 if with_sq else None
    for start in range(0, n_rows, MC_CHUNK):
        X, y = process.draw_clean(min(MC_CHUNK, n_rows - start), rng)
        preds, cache = model.forward(model.features(X))
        up = partition_upper(preds, y)
        coeff = np.where(up, dloss_df(spec.upper, preds, y), dloss_df(spec.lower, preds, y))
        n_up += int(up.sum())
        g_up = g_up + model.backward_weighted(cache, np.where(up, coeff, 0.0))
        g_lo = g_lo + model.backward_weighted(cache, np.where(up, 0.0, coeff))
        if with_sq:
            cache *= cache  # F * F in place: F is this chunk's own array
            sq = sq + model.backward_weighted(cache, coeff * coeff)
        del X, y, preds, cache, up, coeff  # freed before the next chunk is drawn
    return n_up, g_up, g_lo, sq


# ---------------------------------------------------------------------------
# bias bound and empirical diagnostics
# ---------------------------------------------------------------------------

def bias_lower_bound(eta: float, xi: float, delta: float) -> float:
    """Worst-case gradient bias floor for a label-trusting estimator.

    eta is the probability a row looks trustworthy (prediction at or below
    label), xi the clean fraction of the data, delta the gap (in max norm)
    between the mean loss gradient on the two sides of the partition:

        eta * (1 - eta) * (1 - xi) * delta / (1 - eta * xi).

    Returns 0 when eta * xi == 1 (then eta == xi == 1: nothing looks wrong
    and nothing is corrupted, so the numerator vanishes as well).
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    denom = 1.0 - eta * xi
    if denom <= 0.0:
        return 0.0
    return eta * (1.0 - eta) * (1.0 - xi) * delta / denom


@dataclass(frozen=True)
class BiasDiagnostics:
    eta: float
    xi: float
    delta: float
    bound: float
    n_rows: int
    n_upper: int

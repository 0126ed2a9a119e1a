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
unnormalized, but the naive coefficient is a batch mean and both paths add
lam * dR(theta) as is. Adam ignores the gradient's scale, not this ratio: the
corrected penalty weighs B times less against its data term, so at B = 32 the
lam grid 1e-3 .. 1 acts like 3e-5 .. 3e-2 (ROADMAP item 8). Collapsing the
three sums gives one weight per row, so one weighted backward pass computes it:

    coeff_i = 1[up_i] * (dL_up(f_i, y_i) - c_g) + rho * c_g.

block_gradient computes it from the batch rows' features; the training
engine runs it on every step, and u2_dataset_gradient_estimate is
block_gradient at rho_hat = n_up / (N pi_up), lam = 0, divided by rho_hat N.

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
# rows per Monte-Carlo chunk, each drawn from its own stream; clean_pass holds the chunk
# being summed (phi too for rbf) plus MC_WORKERS chunks of X and noise being filled
MC_CHUNK = 16384
MC_WORKERS = 2


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

    pi_up is the probability that a clean draw satisfies f(x) <= y; the
    trustworthy rows' average is scaled to the clean upper-side expectation:

        (pi_up / n_up) sum_up [dL_up(f_i, y_i) - c_g] J_i + (c_g / N) sum_all J_i,

    computed as block_gradient at rho_hat = n_up / (N pi_up) over rho_hat N.
    With no trustworthy rows rho_hat = 1 leaves the second term alone.
    """
    if not (0.0 < pi_up <= 1.0):
        raise ValueError("pi_up must lie in (0, 1]")
    ys = np.asarray(ys, dtype=float)
    feats = model.features(xs)
    n_up = int(partition_upper(model.forward(feats)[0], ys).sum())
    rho_hat = n_up / (ys.size * pi_up) if n_up else 1.0
    res = block_gradient(model, feats, ys, spec, rho_hat, 0.0, None, None)
    res.grad /= rho_hat * ys.size  # a fresh array at lam = 0
    return res


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
    kind where f > y. Fresh clean rows come from clean_pass under the label
    "population-oracle", so this never sees corruption; it is the ground
    truth the corrected estimators are judged against. The result depends
    on (seed, n_rows) only. Returns grad, or (grad, se) with per-coordinate
    standard errors of the Monte-Carlo mean. with_se needs a linear or rbf
    model, whose squared per-row gradients clean_pass reads off the forward
    features in the same pass, with no per-row Jacobian built.
    """
    if n_rows < 2:
        raise ValueError("need at least two Monte-Carlo rows")
    if with_se and model.kind not in ("linear", "rbf"):
        raise ValueError(f"with_se needs a linear or rbf model, not a {model.kind} model")
    _, g_up, g_lo, sq = clean_pass(model, process, spec, n_rows, seed, "population-oracle",
                                   with_se)
    grad = (g_up + g_lo) / n_rows
    if not with_se:
        return grad
    return grad, np.sqrt(np.maximum(sq / n_rows - grad * grad, 0.0) / n_rows)


def clean_pass(model, process, spec: LossSpec, n_rows: int, seed: int, label: str,
               with_sq: bool = False):
    """Two-sided loss-gradient sums over n_rows clean draws, in MC_CHUNK-row chunks.

    Returns (n_up, g_up, g_lo, sq): the count of rows with f <= y, the summed
    gradient on that side and on the other, and with with_sq the coordinatewise
    sum of squared per-row gradients (linear or rbf only; else None). Row i's
    gradient is coeff_i J_i with J_i = [F_i, 1] (linear) or F_i (rbf), F the
    forward cache, so that sum is backward_weighted(F * F, coeff^2). F is
    squared in place once the side sums are taken: it is a fresh array this
    pass owns, the chunk's own X for linear, phi(X) for rbf.

    Streams: chunk 0 draws from derive_rng(seed, label) and chunk k >= 1 from
    derive_rng(seed, label, k), and the chunk sums are added on this thread in
    chunk order. So the sums depend on (seed, label, n_rows) only, not on
    thread scheduling or MC_WORKERS, and a pass of at most MC_CHUNK rows draws
    exactly what process.draw_clean(n_rows, derive_rng(seed, label)) draws.

    Workers: up to MC_WORKERS chunks are filled ahead on a thread pool while
    this thread sums the current one, for a one-chunk pass too. A worker runs
    process.fill_clean only, on a stream and buffers made here, and y, the
    forward pass and the sums are computed here. Two reasons: glibc
    gives each thread its own malloc arena, so arrays allocated on a worker
    raise the peak resident memory, and the benchmark's tracer keeps one
    span stack per process, so every u2reg call must stay on one thread.

    Memory: the chunk being summed plus MC_WORKERS chunks filled or filling,
    each MC_CHUNK rows of X and noise, plus one chunk's row vectors (and phi
    for rbf): under (MC_WORKERS + 1.8) * MC_CHUNK * (dim + 1) float64s for a
    linear model.
    """
    n_up, g_up, g_lo, sq = 0, 0.0, 0.0, 0.0 if with_sq else None
    for X, y in _clean_chunks(process, n_rows, seed, label):
        preds, cache = model.forward(model.features(X))
        up = partition_upper(preds, y)
        coeff = np.where(up, dloss_df(spec.upper, preds, y), dloss_df(spec.lower, preds, y))
        n_up += int(up.sum())
        g_up = g_up + model.backward_weighted(cache, np.where(up, coeff, 0.0))
        g_lo = g_lo + model.backward_weighted(cache, np.where(up, 0.0, coeff))
        if with_sq:
            cache *= cache  # F * F in place: F is this chunk's own array
            sq = sq + model.backward_weighted(cache, coeff * coeff)
        del X, y, preds, cache, up, coeff  # freed before the next chunk is taken
    return n_up, g_up, g_lo, sq


def _clean_chunks(process, n_rows: int, seed: int, label: str):
    """(X, y) of each MC_CHUNK-row chunk of n_rows clean draws, in chunk order;
    the stream, worker and memory rules are clean_pass's."""
    sizes = [min(MC_CHUNK, n_rows - start) for start in range(0, n_rows, MC_CHUNK)]

    def chunk(k):
        rng = derive_rng(seed, label, k) if k else derive_rng(seed, label)
        return np.empty((sizes[k], process.dim)), np.empty(sizes[k]), rng

    from collections import deque
    from concurrent.futures import ThreadPoolExecutor  # imports logging: kept off the CLI's start

    with ThreadPoolExecutor(MC_WORKERS) as pool:
        def submit(k):
            X, noise, rng = chunk(k)
            return X, noise, pool.submit(process.fill_clean, X, noise, rng)

        filling = deque(submit(k) for k in range(min(MC_WORKERS, len(sizes))))
        for k in range(len(sizes)):
            X, noise, filled = filling.popleft()  # drops the previous chunk's arrays
            filled.result()
            if k + MC_WORKERS < len(sizes):
                filling.append(submit(k + MC_WORKERS))
            yield X, process.label_clean(X, noise)


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

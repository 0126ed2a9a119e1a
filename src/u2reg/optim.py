"""Adam optimizer and the one mini-batch training engine.

Adam runs at its published constants BETA1, BETA2 and EPS (Kingma & Ba
2015, arXiv:1412.6980), which are fixed; only the step size TrainConfig.lr
is set per run.

train_cells is the only training loop. It trains C cells of one model
structure, which may differ in rho, lam, seed, initial theta and dataset,
as one (C, P) parameter block: each step gathers every cell's batch from
its own training rows, runs one block forward and backward pass and one
elementwise Adam step. block_key states which cells may share a block.
train is the one-cell case. A cell sees exactly the floats it would see
alone, so a pooled grid search and train agree bit for bit.

All randomness (shuffles, dropout) is derived from each cell's seed through
labeled streams, so a run is reproducible from (data, init theta, config)
alone. Only a model that draws dropout masks (an mlp with dropout > 0)
gets a per-step dropout stream; other models train with rng=None. Early
stopping watches the validation loss (see validation_loss) against the
observed validation labels and restores the best parameters seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .gradients import REGULARIZERS, block_gradient
from .losses import LossKind, LossSpec, loss_value
from .rngutil import derive_rngs

METHODS = ("u2", "lu", "mse", "mae", "huber")
# Default (upper, lower) losses of the corrected methods. lu rebuilds its
# upper side from a label-free constant and LossSpec still wants a label-free
# lower side, so its default is absolute on both.
DEFAULT_SPECS = {"u2": ("squared", "absolute"), "lu": ("absolute", "absolute")}
_ABSOLUTE = LossKind("absolute")
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int


def adam_init(shape: int | tuple[int, ...]) -> AdamState:
    return AdamState(np.zeros(shape), np.zeros(shape), 0)


def adam_step(state: AdamState, grad: np.ndarray, lr: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, theta delta).

    Elementwise, so a (C, P) block steps C cells that share the step count.
    m, v and delta are built in place beside one scratch array, in textbook order.
    """
    t = state.t + 1
    scratch = np.multiply(grad, 1.0 - BETA1)
    m = np.multiply(state.m, BETA1)
    m += scratch
    v = np.multiply(state.v, BETA2)
    np.multiply(grad, 1.0 - BETA2, out=scratch)
    scratch *= grad
    v += scratch
    np.sqrt(np.divide(v, 1.0 - BETA2**t, out=scratch), out=scratch)
    scratch += EPS
    delta = np.divide(m, 1.0 - BETA1**t)
    delta *= -lr
    delta /= scratch
    return AdamState(m, v, t), delta


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Method, loss, penalty and loop settings for one training run.

    "u2" and "lu" train the corrected gradient on a two-sided LossSpec
    (DEFAULT_SPECS when spec is None) and weight the unlabeled term by rho.
    "mse", "mae" and "huber" are the label-trusting baselines: they train
    one loss on every label (squared, absolute, or huber of width
    huber_delta), take no spec and ignore rho. huber_delta must be positive
    for every method. naive_kind is that loss, derived from the method; it
    is None for u2 and lu. lr is Adam's step size. reg is "l1", "l2" or
    None, and rho, lam, huber_delta and lr must be finite.
    """

    method: str
    spec: LossSpec | None = None
    rho: float = 1.0
    lam: float = 0.0
    huber_delta: float = 1.0
    reg: str | None = "l2"
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    naive_kind: LossKind | None = field(init=False, default=None)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.huber_delta < math.inf:
            raise ValueError("huber_delta must be positive and finite")
        if self.reg not in REGULARIZERS + (None,):
            raise ValueError(f"reg must be one of {REGULARIZERS} or None, got {self.reg!r}")
        if self.method in DEFAULT_SPECS:
            if self.spec is None:
                object.__setattr__(self, "spec", LossSpec.parse(*DEFAULT_SPECS[self.method]))
        elif self.spec is not None:
            raise ValueError(f"method {self.method!r} trusts every label and takes no LossSpec")
        elif self.method == "huber":
            object.__setattr__(self, "naive_kind", LossKind("huber", self.huber_delta))
        else:
            object.__setattr__(self, "naive_kind",
                               LossKind("squared" if self.method == "mse" else "absolute"))
        if not 0.0 <= self.rho < math.inf:
            raise ValueError("rho must be nonnegative and finite")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.patience < 0:
            raise ValueError("patience must be nonnegative")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    val_loss: float
    grad_norm: float
    seconds: float


@dataclass
class TrainResult:
    model: object
    history: list[EpochRecord]
    best_epoch: int
    best_val_loss: float
    stopped_early: bool


def train(model, train_ds, val_ds, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam with patience-based early stopping: train_cells for one cell.

    Each epoch ends with the model's validation_loss on val_ds; the run
    stops after cfg.patience epochs without a strict improvement on the best
    value so far (the init model's value included). The caller's model is
    never mutated; the result carries a copy holding the best-validation
    parameters. A non-finite gradient or parameter vector raises
    FloatingPointError.

    Step s of a model with dropout > 0 (an mlp) draws its masks from
    derive_rng(cfg.seed, "dropout", s). Every other model has no masks to
    draw, so its steps derive no dropout stream and pass rng=None.
    """
    (outcome,) = train_cells(model.clone_with_theta(model.theta[None]), [(train_ds, val_ds)], [cfg])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def block_key(train_ds, val_ds, cfg: TrainConfig) -> tuple:
    """cfg up to rho, lam and seed, and the (train, val) row and feature counts.

    Cells may share one train_cells block only if their keys are equal.
    """
    return (replace(cfg, rho=0.0, lam=0.0, seed=0), len(train_ds), len(val_ds),
            train_ds.dim, val_ds.dim)


def train_cells(block, data, cfgs) -> list:
    """Train C cells as one (C, P) parameter block; one outcome per cell.

    block is one model whose theta holds the cells' initial parameters, one
    row per cell; data holds each cell's (train, val) dataset pair and cfgs
    its TrainConfig. Cells whose block_key differs raise ValueError. The
    caller's block is never mutated.
    Cell c trains exactly as train would on a model holding block.theta[c]
    with data[c] and cfgs[c]: its own shuffle per epoch, its own dropout
    stream, its own early stopping. The block computes the model features
    (for rbf the kernel features phi) of each distinct pair once, telling
    pairs apart by identity, and stacks them as (D, n, k), labels as (D, n).
    A step gathers its (C, B) batch with one take on each, viewed flat, at
    rows idx + where * n: idx holds each cell's next B shuffled rows, where
    the slot of its pair. Each epoch ends with one validation_loss pass
    over the block, each cell on its own validation rows.

    A cell leaves the block when its patience runs out, or fails alone when
    its gradient or, after an update, its parameters are not all finite;
    its outcome is then that FloatingPointError instead of a TrainResult.
    """
    if block.theta.ndim != 2 or not cfgs or not len(cfgs) == len(data) == len(block.theta):
        raise ValueError("train_cells needs a (C, P) theta block with C >= 1, one (train, val) "
                         "pair and one TrainConfig per cell")
    if len({block_key(tr, va, c) for (tr, va), c in zip(data, cfgs)}) > 1:
        raise ValueError("cells in one block must share every TrainConfig field but rho, lam and "
                         "seed, the training and the validation row count and the feature counts")
    cfg = cfgs[0]
    unique = {(id(tr), id(va)): (tr, va) for tr, va in data}
    slot = {key: d for d, key in enumerate(unique)}
    where = np.array([slot[id(tr), id(va)] for tr, va in data])
    pairs = list(unique.values())
    trains, vals = [tr for tr, _ in pairs], [va for _, va in pairs]
    n, batch = len(trains[0]), cfg.batch_size
    if n < 1:
        raise ValueError("training split must be nonempty")
    if len(vals[0]) < 1:
        raise ValueError("validation split must be nonempty")
    if batch > n:
        raise ValueError(f"batch_size {batch} exceeds the training set size {n}")
    block = block.clone_with_theta(block.theta)
    # Batches gather their rows' features from one pass over the training
    # rows. For rbf that pass must round as a gathered batch does: on a copy,
    # since numpy multiplies an array by its own transpose with syrk, not
    # gemm; and a one-row batch, which BLAS runs as gemv, is recomputed alone.
    flat_feats = _stack([block.features(tr.xs.copy()) for tr in trains])
    flat_feats = flat_feats.reshape(len(trains) * n, -1)
    flat_ys = _stack([tr.ys_prime for tr in trains]).reshape(-1)
    val_feats = _stack([block.features(va.xs) for va in vals])
    val_ys = _stack([va.ys_prime for va in vals])
    loss = cfg.naive_kind if cfg.naive_kind is not None else cfg.spec
    mirror = cfg.method == "lu"
    draws_masks = getattr(block, "dropout", 0.0) > 0.0
    outcomes: list = [None] * len(cfgs)
    histories: list[list[EpochRecord]] = [[] for _ in cfgs]
    state = adam_init(block.theta.shape)

    def validate(where):
        """Each cell's validation loss; the cells of a one-dataset block share its rows."""
        at = 0 if len(pairs) == 1 else where
        return validation_loss(block, val_feats[at], val_ys[at], cfg)

    # per-cell state, compacted together whenever cells leave the block
    cells = {
        "index": np.arange(len(cfgs)),
        "where": where,
        "seed": np.array([c.seed for c in cfgs], dtype=object),
        "rho": np.array([[c.rho] for c in cfgs]),
        "lam": np.array([[c.lam] for c in cfgs]),
        "best_val": validate(where),
        "best_theta": block.theta.copy(),
        "best_epoch": np.full(len(cfgs), -1),
        "since": np.zeros(len(cfgs), dtype=int),
    }

    def leave(leaving, outcome):
        """Record outcome(i) for each leaving row i and drop those rows."""
        nonlocal state, order, norms
        for i in np.flatnonzero(leaving):
            outcomes[cells["index"][i]] = outcome(i)
        keep = ~leaving
        for key in cells:
            cells[key] = cells[key][keep]
        block.theta = block.theta[keep]
        state = AdamState(state.m[keep], state.v[keep], state.t)
        order, norms = order[keep], norms[keep]

    def result(i, stopped_early):
        cell = cells["index"][i]
        return TrainResult(
            model=block.clone_with_theta(cells["best_theta"][i]),
            history=histories[cell],
            best_epoch=int(cells["best_epoch"][i]),
            best_val_loss=float(cells["best_val"][i]),
            stopped_early=stopped_early,
        )

    t0 = time.perf_counter()
    global_step = 0
    starts = range(0, n, batch)
    for epoch in range(cfg.max_epochs):
        order = np.stack([r.permutation(n) for r in derive_rngs(cells["seed"], "shuffle", epoch)])
        norms = np.empty((len(order), len(starts)))
        for s, start in enumerate(starts):
            idx = order[:, start : start + batch]
            rng = derive_rngs(cells["seed"], "dropout", global_step) if draws_masks else None
            at = cells["where"]
            flat = idx + at[:, None] * n
            rows = (flat_feats.take(flat, axis=0) if idx.shape[1] > 1
                    else np.stack([block.features(trains[w].xs[i]) for w, i in zip(at, idx)]))
            g = block_gradient(block, rows, flat_ys.take(flat), loss, cells["rho"],
                               cells["lam"], cfg.reg, rng, mirror).grad
            if not np.isfinite(g).all():
                bad = ~np.isfinite(g).all(axis=1)
                error = f"non-finite gradient at epoch {epoch}, step {global_step}"
                leave(bad, lambda i: FloatingPointError(error))
                g = g[~bad]
            state, delta = adam_step(state, g, cfg.lr)
            block.theta += delta  # block owns theta: a clone, or a copy left by leave()
            norms[:, s] = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
            if not np.isfinite(block.theta).all():
                bad = ~np.isfinite(block.theta).all(axis=1)
                error = f"non-finite parameters at epoch {epoch}, step {global_step}"
                leave(bad, lambda i: FloatingPointError(error))
            global_step += 1
            if not len(cells["index"]):
                return outcomes
        val = validate(cells["where"])
        mean_norms = np.mean(norms, axis=1)
        seconds = time.perf_counter() - t0
        for i, cell in enumerate(cells["index"]):
            histories[cell].append(EpochRecord(epoch, float(val[i]), float(mean_norms[i]), seconds))
        better = val < cells["best_val"]
        cells["best_val"] = np.where(better, val, cells["best_val"])
        cells["best_theta"][better] = block.theta[better]
        cells["best_epoch"][better] = epoch
        cells["since"] = np.where(better, 0, cells["since"] + 1)
        stop = ~better & (cells["since"] >= cfg.patience)
        if stop.any():
            leave(stop, lambda i: result(i, True))
            if not len(cells["index"]):
                return outcomes
    for i in range(len(cells["index"])):
        outcomes[cells["index"][i]] = result(i, False)
    return outcomes


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new leading axis; a lone array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def validation_loss(model, feats, ys, cfg: TrainConfig) -> np.ndarray:
    """Mean validation loss against the observed labels ys_prime.

    feats are model.features of the validation rows and ys their observed
    labels; a (C, P) block gives one mean per cell, a single model a 0-d
    value.

    A naive run is scored on the loss it trains (squared for mse, absolute
    for mae, huber for huber), so early stopping and grid selection keep it
    the least-squares, least-absolute or huber fit of the observed labels.
    u2 and lu runs keep absolute error: their corrected risk would need a
    reference clean fraction shared by every grid cell as an input, and on
    tiny validation splits its few trusted rows make it too noisy to rank
    cells.
    """
    preds = model.forward(feats)[0]
    kind = cfg.naive_kind if cfg.naive_kind is not None else _ABSOLUTE
    return np.mean(loss_value(kind, preds, ys), axis=-1)

"""Adam optimizer and the mini-batch training loop.

Adam runs at its published constants BETA1, BETA2 and EPS (Kingma & Ba
2015, arXiv:1412.6980), which are fixed; only the step size TrainConfig.lr
is set per run.

All randomness (shuffles, dropout) is derived from the config seed through
labeled streams, so a run is reproducible from (data, init theta, config)
alone. Only a model that draws dropout masks (an mlp with dropout > 0)
gets a per-step dropout stream; other models train with rng=None. Early
stopping watches the validation loss (see validation_loss) against the
observed validation labels and restores the best parameters seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .gradients import REGULARIZERS, GradResult, naive_batch_gradient, u2_batch_gradient
from .losses import LossKind, LossSpec, loss_value
from .rngutil import derive_rng

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


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0)


def adam_step(state: AdamState, grad: np.ndarray, lr: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, theta delta)."""
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    delta = -lr * m_hat / (np.sqrt(v_hat) + EPS)
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


def _batch_grad(model, xs, ys, cfg: TrainConfig, rng) -> GradResult:
    if cfg.naive_kind is not None:
        return naive_batch_gradient(model, xs, ys, cfg.naive_kind, cfg.lam, cfg.reg, rng)
    return u2_batch_gradient(model, xs, ys, cfg.spec, cfg.rho, cfg.lam, cfg.reg, rng,
                             mirror=cfg.method == "lu")


def train(model, train_ds, val_ds, cfg: TrainConfig, step_callback=None) -> TrainResult:
    """Mini-batch Adam with patience-based early stopping.

    Each epoch ends with validation_loss(model, val_ds, cfg); the run stops
    after cfg.patience epochs without a strict improvement on the best value
    so far (the init model's value included). The caller's model is never
    mutated; the result carries a copy holding the best-validation
    parameters. step_callback, when given, is invoked as
    step_callback(global_step, model, grad_result) after each update.

    Step s of a model with dropout > 0 (an mlp) draws its masks from
    derive_rng(cfg.seed, "dropout", s). Every other model has no masks to
    draw, so its steps derive no dropout stream and pass rng=None.
    """
    if len(train_ds) < 1:
        raise ValueError("training split must be nonempty")
    if len(val_ds) < 1:
        raise ValueError("validation split must be nonempty")
    if cfg.batch_size > len(train_ds):
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds the training set size {len(train_ds)}"
        )
    model = model.clone_with_theta(model.theta)
    n = len(train_ds)
    state = adam_init(model.theta.size)
    best_theta = model.theta.copy()
    best_val = validation_loss(model, val_ds, cfg)
    best_epoch = -1
    since_best = 0
    history: list[EpochRecord] = []
    stopped_early = False
    t0 = time.perf_counter()
    global_step = 0
    draws_masks = getattr(model, "dropout", 0.0) > 0.0

    for epoch in range(cfg.max_epochs):
        order = derive_rng(cfg.seed, "shuffle", epoch).permutation(n)
        norms = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rng = derive_rng(cfg.seed, "dropout", global_step) if draws_masks else None
            res = _batch_grad(model, train_ds.xs[idx], train_ds.ys_prime[idx], cfg, rng)
            if not np.all(np.isfinite(res.grad)):
                raise FloatingPointError(
                    f"non-finite gradient at epoch {epoch}, step {global_step}"
                )
            state, delta = adam_step(state, res.grad, cfg.lr)
            model.theta = model.theta + delta
            norms.append(math.sqrt(float(res.grad @ res.grad)))
            if step_callback is not None:
                step_callback(global_step, model, res)
            global_step += 1
        val_loss = validation_loss(model, val_ds, cfg)
        history.append(EpochRecord(epoch, val_loss, float(np.mean(norms)),
                                   time.perf_counter() - t0))
        if val_loss < best_val:
            best_val = val_loss
            best_theta = model.theta.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped_early = True
                break

    return TrainResult(
        model=model.clone_with_theta(best_theta),
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        stopped_early=stopped_early,
    )


def validation_loss(model, val_ds, cfg: TrainConfig) -> float:
    """Mean validation loss against the observed labels ys_prime.

    A naive run is scored on the loss it trains (squared for mse, absolute
    for mae, huber for huber), so early stopping and grid selection keep it
    the least-squares, least-absolute or huber fit of the observed labels.
    u2 and lu runs keep absolute error: their corrected risk would need a
    reference clean fraction shared by every grid cell as an input, and on
    tiny validation splits its few trusted rows make it too noisy to rank
    cells.
    """
    preds = model.predict_batch(val_ds.xs)
    kind = cfg.naive_kind if cfg.naive_kind is not None else _ABSOLUTE
    return float(np.mean(loss_value(kind, preds, val_ds.ys_prime)))

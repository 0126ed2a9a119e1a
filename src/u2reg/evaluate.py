"""Metrics, grid search and the synthetic benchmark pipeline.

The benchmark tasks pin a concrete corruption geometry: half-normal
downward corruption whose width is corruption_scale times the symmetric
noise std, applied to a K percent subset. Reported errors are divided by
the process label scale sqrt(D + 1/beta), the theoretical std of a clean
label, so headline numbers read in standardized-label units while training
itself runs in raw label units (feature standardization only; label scaling
would change how the rho grid maps onto the corrected gradient).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import (Dataset, SyntheticProcess, corrupt, generate_uncorrupted, split_cv,
                   standardize, table_text)
from .gradients import BiasDiagnostics, bias_lower_bound, partition_upper
from .losses import LossSpec, dloss_df
from .models import ArchSpec, init_model
from .optim import METHODS, TrainConfig, TrainResult, train
from .rngutil import derive_rng, derive_seed

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _paired(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size < 1:
        raise ValueError(
            f"need two equal-length nonempty vectors, got {y_true.shape} and {y_pred.shape}"
        )
    return y_true, y_pred


def mae(y_true, y_pred) -> float:
    """Mean absolute difference."""
    y_true, y_pred = _paired(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def mean_signed_error(y_true, y_pred) -> float:
    """Mean of (prediction minus truth); near zero signals unbiasedness."""
    y_true, y_pred = _paired(y_true, y_pred)
    return float(np.mean(y_pred - y_true))


# ---------------------------------------------------------------------------
# hyperparameter grid search
# ---------------------------------------------------------------------------

DEFAULT_GRID = (1e-3, 1e-2, 1e-1, 1e0)


@dataclass(frozen=True)
class GridSpec:
    rhos: tuple[float, ...] = DEFAULT_GRID
    lams: tuple[float, ...] = DEFAULT_GRID
    sigmas: tuple[float, ...] = DEFAULT_GRID

    def __post_init__(self):
        for name in ("rhos", "lams", "sigmas"):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) == 0 or not all(0.0 < v < math.inf for v in values):
                raise ValueError(f"{name} must be a nonempty tuple of positive finite reals")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class Hyperparams:
    rho: float | None = None
    lam: float = 0.0
    sigma: float | None = None

    def as_dict(self) -> dict:
        return {"rho": self.rho, "lam": self.lam, "sigma": self.sigma}


@dataclass
class CellResult:
    index: int
    hyper: Hyperparams
    val_loss: float
    error: str | None = None


@dataclass
class GridSearchResult:
    best: Hyperparams
    best_result: TrainResult
    cells: list[CellResult]


def grid_search(
    train_ds: Dataset,
    val_ds: Dataset,
    arch: ArchSpec,
    grid: GridSpec,
    template: TrainConfig,
    seed: int = 0,
) -> GridSearchResult:
    """Train one model per grid cell and return the best validation cell.

    Every cell trains template (its method, losses and loop settings) with
    the cell's rho, lambda and seed. Each cell is ranked on the best
    validation_loss its run reached: the baselines on the loss they train,
    u2 and lu on absolute error against the observed labels. The grid is
    the Cartesian product of sigma (rbf models only), rho (u2 and lu only)
    and lambda. Ties break toward
    smaller lambda, then smaller rho, then smaller sigma, then declaration
    order. A cell whose training raises is disqualified but recorded; the
    search only fails if every cell does.
    """
    sigmas = grid.sigmas if arch.kind == "rbf" else (None,)
    rhos = grid.rhos if template.naive_kind is None else (None,)
    cells: list[CellResult] = []
    outcomes: list[TrainResult | None] = []
    index = 0
    for sigma in sigmas:
        cell_arch = replace(arch, sigma=sigma) if sigma is not None else arch
        for rho in rhos:
            for lam in grid.lams:
                hyper = Hyperparams(rho=rho, lam=lam, sigma=sigma)
                cfg = replace(
                    template,
                    rho=rho if rho is not None else template.rho,
                    lam=lam,
                    seed=derive_seed(seed, "grid-cell", index),
                )
                try:
                    model = init_model(
                        cell_arch, train_ds.dim, derive_seed(seed, "grid-init", index),
                        rbf_bases=train_ds.xs,
                    )
                    result = train(model, train_ds, val_ds, cfg)
                    cells.append(CellResult(index, hyper, result.best_val_loss))
                    outcomes.append(result)
                except Exception as exc:  # isolate the cell, keep searching
                    cells.append(CellResult(index, hyper, math.inf, error=repr(exc)))
                    outcomes.append(None)
                index += 1

    def sort_key(cell: CellResult):
        h = cell.hyper
        return (
            cell.val_loss,
            h.lam,
            h.rho if h.rho is not None else -1.0,
            h.sigma if h.sigma is not None else -1.0,
            cell.index,
        )

    viable = [c for c in cells if c.error is None]
    if not viable:
        details = "; ".join(f"cell {c.index}: {c.error}" for c in cells)
        raise RuntimeError(f"every grid cell failed: {details}")
    best_cell = min(viable, key=sort_key)
    return GridSearchResult(best_cell.hyper, outcomes[best_cell.index], cells)


# ---------------------------------------------------------------------------
# benchmark tasks and report
# ---------------------------------------------------------------------------

BENCHMARK_CORRUPTION_SCALE = 13.0
TASK_BETAS = {"low-noise": 1.0, "high-noise": 0.1}


@dataclass(frozen=True)
class BenchmarkTask:
    """Synthetic task (named noise level) or an external CSV dataset."""

    name: str
    beta: float | None = None
    csv_path: str | None = None
    n: int = 1000
    d: int = 10
    corruption_scale: float = BENCHMARK_CORRUPTION_SCALE
    corruption_mode: str = "paper"

    @staticmethod
    def named(name: str, n: int = 1000, d: int = 10) -> "BenchmarkTask":
        if name not in TASK_BETAS:
            raise ValueError(f"unknown task {name!r}; expected one of {tuple(TASK_BETAS)}")
        return BenchmarkTask(name, beta=TASK_BETAS[name], n=n, d=d)

    @staticmethod
    def from_csv(path: str) -> "BenchmarkTask":
        return BenchmarkTask(name=f"csv:{path}", csv_path=path)

    @property
    def is_synthetic(self) -> bool:
        return self.csv_path is None

    @property
    def label_scale(self) -> float:
        """Std of a clean label, sqrt(D + 1/beta); 1 for external data."""
        if not self.is_synthetic:
            return 1.0
        return math.sqrt(self.d + 1.0 / self.beta)


@dataclass
class MethodSummary:
    method: str
    k: float | None
    fold_maes: list[float]
    fold_signed: list[float]
    fold_maes_raw: list[float]
    fold_hyper: list[dict]
    mean_mae: float
    se_mae: float
    mean_signed: float
    se_signed: float


@dataclass
class BenchmarkReport:
    task: str
    target_label: str  # "y_true" (synthetic) or "y_prime" (csv without truth)
    n: int
    d: int
    beta: float | None
    corruption_scale: float | None
    label_scale: float
    folds: int
    val_fraction: float
    seeds: list[int]
    methods: list[str]
    k_list: list[float | None]
    summaries: list[MethodSummary]
    errors: list[str]
    points: list[dict] = field(default_factory=list, repr=False)

    def summary(self, method: str, k: float | None) -> MethodSummary:
        for s in self.summaries:
            if s.method == method and s.k == k:
                return s
        raise KeyError(f"no summary for method={method!r}, k={k!r}")

    def to_json(self) -> str:
        """Every field but the per-point rows, which to_points_csv writes."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "points"}
        payload["summaries"] = [vars(s) for s in self.summaries]
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"task {self.task}  n={self.n} d={self.d} folds={self.folds} "
            f"seeds={self.seeds} target={self.target_label} "
            f"(errors in units of label_scale={self.label_scale:.4g})",
            f"{'k':>6}  {'method':<8} {'mae':>8} {'se':>7}  {'signed':>8} {'se':>7}  chosen",
        ]
        for s in self.summaries:
            k_txt = "-" if s.k is None else f"{s.k:g}"
            chosen = ",".join(_hyper_text(h) for h in s.fold_hyper)
            lines.append(
                f"{k_txt:>6}  {s.method:<8} {s.mean_mae:>8.4f} {s.se_mae:>7.4f}  "
                f"{s.mean_signed:>8.4f} {s.se_signed:>7.4f}  {chosen}"
            )
        for err in self.errors:
            lines.append(f"error: {err}")
        return "\n".join(lines) + "\n"

    def to_points_csv(self, k: float | None) -> str:
        rows = [(p["y_true"], p["y_pred"], p["error"], p["method"])
                for p in self.points if p["k"] == k]
        return table_text(["index", "y_true", "y_pred", "error", "method"],
                          ((i,) + row for i, row in enumerate(rows)))


def _hyper_text(h: dict) -> str:
    parts = []
    for key in ("rho", "lam", "sigma"):
        if h.get(key) is not None:
            parts.append(f"{key}={h[key]:g}")
    return "/".join(parts)


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    m = float(arr.mean())
    if arr.size < 2:
        return m, 0.0
    return m, float(arr.std(ddof=1) / math.sqrt(arr.size))


def run_benchmark(
    task: BenchmarkTask,
    methods: list[str],
    k_list: list[float],
    folds: int = 5,
    seeds: int = 7,
    val_fraction: float = 0.2,
    grid: GridSpec | None = None,
    arch: ArchSpec | None = None,
    batch_size: int = 32,
    max_epochs: int = 500,
    patience: int = 20,
    huber_delta: float = 1.0,
    reg: str | None = "l2",
) -> BenchmarkReport:
    """Full corruption-to-report pipeline, deterministic per root seed.

    ``seeds`` is one int (the report lists it as ``seeds=[seed]``). The task
    is generated or loaded once. Then, per K: corrupt, split into folds and
    feature-standardize each fold; per method and fold: grid search (which
    trains each cell of a TrainConfig(method, ...) template, so u2 and lu
    use their default losses and huber uses huber_delta), then score the
    chosen model on the fold's clean-only test rows. Synthetic scores are
    against ys_true; CSV tasks without a y_true column fall back to
    ys_prime and say so in target_label. A
    failing (K, method, fold) item is recorded in errors and the run
    continues. Synthetic K values are coerced to float, so 50 and 50.0 draw
    the same streams; a repeated method or K is rejected.
    """
    grid = grid or GridSpec()
    arch = arch or ArchSpec("linear")
    seed = operator.index(seeds)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    k_list = [float(k) for k in k_list] if task.is_synthetic else [None]
    for what, values in (("method", list(methods)), ("K", k_list)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{what} {value!r} is listed more than once")

    if task.is_synthetic:
        process = SyntheticProcess.draw(
            task.d, derive_seed(seed, "benchmark-process", task.name),
            beta=task.beta, k_percent=0.0,
            mode=task.corruption_mode, corruption_scale=task.corruption_scale,
        )
        data = generate_uncorrupted(process, task.n, derive_seed(seed, "benchmark-data", task.name))
    else:
        data = Dataset.from_csv(task.csv_path)
    target_label = "y_true" if data.ys_true is not None else "y_prime"
    scale = task.label_scale

    summaries: list[MethodSummary] = []
    points: list[dict] = []
    errors: list[str] = []
    for k in k_list:
        ds = data
        if task.is_synthetic:
            ds = corrupt(data, replace(process, k_percent=k),
                         derive_seed(seed, "benchmark-corrupt", task.name, k))
        splits = split_cv(ds, folds, val_fraction, derive_seed(seed, "benchmark-splits", task.name))
        fold_sets = [standardize(tr, (va, te)) for tr, va, te in splits]
        for method in methods:
            maes, signed, maes_raw, hyper = [], [], [], []
            for fold, (tr_s, (va_s, te_s), _) in enumerate(fold_sets):
                run_seed = derive_seed(seed, "benchmark-train", task.name, k, fold, method)
                try:
                    template = TrainConfig(
                        method, huber_delta=huber_delta, reg=reg,
                        batch_size=min(batch_size, len(tr_s)), max_epochs=max_epochs,
                        patience=patience, seed=run_seed,
                    )
                    search = grid_search(tr_s, va_s, arch, grid, template, seed=run_seed)
                    preds = search.best_result.model.predict_batch(te_s.xs)
                    target = te_s.ys_true if target_label == "y_true" else te_s.ys_prime
                    fold_mae = mae(target, preds)
                    fold_signed = mean_signed_error(target, preds)
                except Exception as exc:
                    errors.append(f"seed={seed} k={k} fold={fold} method={method}: {exc!r}")
                    continue
                maes.append(fold_mae / scale)
                signed.append(fold_signed / scale)
                maes_raw.append(fold_mae)
                hyper.append(search.best.as_dict())
                points.extend(
                    {"k": k, "method": method, "fold": fold, "seed": seed,
                     "y_true": float(t) / scale, "y_pred": float(p) / scale,
                     "error": float(p - t) / scale}
                    for t, p in zip(target, preds)
                )
            if not maes:
                continue
            mean_m, se_m = _mean_se(maes)
            mean_s, se_s = _mean_se(signed)
            summaries.append(MethodSummary(
                method=method, k=k, fold_maes=maes, fold_signed=signed,
                fold_maes_raw=maes_raw, fold_hyper=hyper,
                mean_mae=mean_m, se_mae=se_m, mean_signed=mean_s, se_signed=se_s,
            ))
    errors.sort()

    return BenchmarkReport(
        task=task.name, target_label=target_label, n=len(data), d=data.dim, beta=task.beta,
        corruption_scale=task.corruption_scale if task.is_synthetic else None,
        label_scale=scale, folds=folds, val_fraction=val_fraction, seeds=[seed],
        methods=list(methods), k_list=k_list, summaries=summaries, errors=errors, points=points,
    )


# ---------------------------------------------------------------------------
# bias diagnostics from clean Monte-Carlo draws
# ---------------------------------------------------------------------------

def estimate_eta_xi_delta(
    process: SyntheticProcess,
    model,
    spec: LossSpec,
    n_mc: int,
    seed: int,
) -> BiasDiagnostics:
    """Plug-in estimates of the bias-floor ingredients for a fixed model.

    Over n_mc fresh clean draws: eta is the fraction with f(x) <= y, xi is
    the process clean fraction 1 - K/100 (exact by construction), and delta
    is the max-norm gap between the mean two-sided loss gradient on the two
    sides of the partition. Degenerate models that put every draw on one
    side leave delta undefined and raise.
    """
    if n_mc < 1000:
        raise ValueError("need at least 1000 Monte-Carlo rows")
    rng = derive_rng(seed, "eta-xi-delta")
    chunk = 65536
    n_up, g_up, g_lo = 0, 0.0, 0.0
    for start in range(0, n_mc, chunk):
        X, y = process.draw_clean(min(chunk, n_mc - start), rng)
        preds, cache = model.forward_train(X, None)
        up = partition_upper(preds, y)
        coeff = np.where(up, dloss_df(spec.upper, preds, y), dloss_df(spec.lower, preds, y))
        n_up += int(up.sum())
        g_up = g_up + model.backward_weighted(cache, np.where(up, coeff, 0.0))
        g_lo = g_lo + model.backward_weighted(cache, np.where(up, 0.0, coeff))
    if n_up == 0 or n_up == n_mc:
        raise ValueError(
            "every row fell on one side of the partition; the side gap "
            "delta is not estimable (eta is degenerate)"
        )
    eta, xi = n_up / n_mc, 1.0 - process.k_percent / 100.0
    delta = float(np.max(np.abs(g_up / n_up - g_lo / (n_mc - n_up))))
    return BiasDiagnostics(eta=eta, xi=xi, delta=delta, bound=bias_lower_bound(eta, xi, delta),
                           n_rows=n_mc, n_upper=n_up)

"""Metrics, pooled grid search, the synthetic benchmark and the gradient study.

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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (Dataset, SyntheticProcess, corrupt, generate_uncorrupted, split_cv,
                   standardize, table_text)
from .gradients import (BiasDiagnostics, bias_lower_bound, clean_pass, naive_batch_gradient,
                        population_gradient_oracle, u2_dataset_gradient_estimate)
from .losses import LossSpec
from .models import ArchSpec, init_model, predict
from .optim import TrainConfig, TrainResult, block_key, train_cells
from .rngutil import derive_seed

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
            if (not values or len(set(values)) < len(values)
                    or not all(0.0 < v < math.inf for v in values)):
                raise ValueError(f"{name} must be a nonempty tuple of distinct positive finite reals")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class Hyperparams:
    rho: float | None = None
    lam: float = 0.0
    sigma: float | None = None


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


POOL_BLOCK_BYTES = 1 << 26
"""Most bytes one pooled block may hold, counted as its stacked training and
validation features plus PARAM_COPIES copies of its (C, P) float64 theta.

A block holds at least one item's cells of one sigma, whatever their size. Pooling pays
off where per-step overhead dominates (small models); a large parameter
block gains nothing and costs memory, so the budget stops it growing.
"""
PARAM_COPIES = 16
"""float64 copies of the (C, P) theta block that training holds at its peak
(theta, its best copy, Adam's moments, the gradient and their temporaries):
a 256-cell block of 31,501-parameter mlp cells peaked at 1,024 MB."""


def pooled_grid_search(items, arch: ArchSpec, grid: GridSpec) -> list:
    """The grid search of each (train_ds, val_ds, template) item, trained together.

    An item's grid is the Cartesian product of sigma (rbf models only), rho
    (u2 and lu only) and lambda (0 alone without a regularizer, whose lambda
    weighs nothing). Each cell trains template (its method, losses and loop
    settings) with the cell's rho and lambda. template.seed is the item's
    only seed: each cell derives its init and training seeds from it and the
    cell's index. Item i's outcome is a GridSearchResult holding its best
    cell: each cell is ranked on the best validation_loss its run reached
    (the baselines on the loss they train, u2 and lu on absolute error
    against the observed labels), and ties break toward smaller lambda,
    then smaller rho, then smaller sigma, then declaration order. A cell
    whose training fails (a non-finite gradient or parameter) is
    disqualified but recorded; the outcome is a RuntimeError naming every
    cell's error only if every cell of the item fails.

    The cells of all items that share a model structure and an
    optim.block_key train as one optim.train_cells block, possibly across
    datasets; a cell computes the same floats there as in a search of its
    item alone. rbf bases are an item's training rows, so rbf cells pool
    only within an item, one block per sigma. A block stays within
    POOL_BLOCK_BYTES. Every input that train_cells checks for a block as a
    whole is shared by its cells, so a block that raises (in model init or
    in train_cells) fails each of its cells with that error, as a search of
    their item alone would. Only each item's best result so far is kept
    while the blocks train.
    """
    cells: list[list[CellResult]] = [[] for _ in items]
    best: list = [None] * len(items)  # per item, its best (rank, cell, TrainResult) so far
    groups: dict[tuple, list] = {}  # a block's key -> its units (item, cells of one sigma)
    for item, (train_ds, val_ds, template) in enumerate(items):
        sigmas = grid.sigmas if arch.kind == "rbf" else (None,)
        rhos = grid.rhos if template.naive_kind is None else (None,)
        lams = grid.lams if template.reg is not None else (0.0,)
        for sigma in sigmas:
            cell_arch = replace(arch, sigma=sigma) if sigma is not None else arch
            first = len(cells[item])
            hypers = [Hyperparams(rho=rho, lam=lam, sigma=sigma) for rho in rhos for lam in lams]
            unit_cells = [CellResult(first + i, h, math.inf) for i, h in enumerate(hypers)]
            cells[item].extend(unit_cells)
            key = (cell_arch, id(train_ds) if arch.kind == "rbf" else None,
                   block_key(train_ds, val_ds, template))
            groups.setdefault(key, []).append((item, unit_cells))
    for (cell_arch, *_), units in groups.items():
        _train_group(cell_arch, units, items, best)
    outcomes = []
    for item_cells, item_best in zip(cells, best):
        if item_best is None:
            details = "; ".join(f"cell {c.index}: {c.error}" for c in item_cells)
            outcomes.append(RuntimeError(f"every grid cell failed: {details}"))
        else:
            _, cell, result = item_best
            outcomes.append(GridSearchResult(cell.hyper, result, item_cells))
    return outcomes


def _train_group(arch: ArchSpec, units, items, best) -> None:
    """Train one key's units in blocks that fit POOL_BLOCK_BYTES."""
    first_train = items[units[0][0]][0]
    width = len(first_train) if arch.kind == "rbf" else first_train.dim  # of a model's features
    layers = (width, *(arch.hidden if arch.kind == "mlp" else ()), 1)
    n_params = sum((a + 1) * b for a, b in zip(layers, layers[1:])) - (arch.kind == "rbf")
    block, pairs, size = [], set(), 0
    for item, unit_cells in units:
        train_ds, val_ds = items[item][:2]
        pair = (id(train_ds), id(val_ds))
        feature_bytes = (len(train_ds) + len(val_ds)) * width * 8
        param_bytes = PARAM_COPIES * len(unit_cells) * n_params * 8
        if block and size + param_bytes + (pair not in pairs) * feature_bytes > POOL_BLOCK_BYTES:
            _train_block(arch, block, items, best)
            block, pairs, size = [], set(), 0
        size += param_bytes + (pair not in pairs) * feature_bytes
        pairs.add(pair)
        block.append((item, unit_cells))
    _train_block(arch, block, items, best)


def _train_block(arch: ArchSpec, units, items, best) -> None:
    """Init and train the units' cells as one block; file each outcome in its search."""
    owned = [(item, cell) for item, unit_cells in units for cell in unit_cells]
    try:
        models, cfgs = [], []
        for item, cell in owned:
            train_ds, _, template = items[item]
            rho = cell.hyper.rho if cell.hyper.rho is not None else template.rho
            models.append(init_model(arch, train_ds.dim,
                                     derive_seed(template.seed, "grid-init", cell.index),
                                     rbf_bases=train_ds.xs))
            cfgs.append(replace(template, rho=rho, lam=cell.hyper.lam,
                                seed=derive_seed(template.seed, "grid-cell", cell.index)))
        block = models[0].clone_with_theta(np.stack([m.theta for m in models]))
        results = train_cells(block, [items[i][:2] for i, _ in owned], cfgs)
    except Exception as exc:  # the block failed as a whole, and so did each of its cells
        results = [exc] * len(owned)
    for (item, cell), result in zip(owned, results):
        if isinstance(result, Exception):
            cell.error = repr(result)
            continue
        cell.val_loss = result.best_val_loss
        rank = _rank(cell)
        if best[item] is None or rank < best[item][0]:
            best[item] = (rank, cell, result)


def _rank(cell: CellResult) -> tuple:
    """Cells sort by validation loss, then smaller lam, rho, sigma, then index."""
    h = cell.hyper
    return (
        cell.val_loss,
        h.lam,
        h.rho if h.rho is not None else -1.0,
        h.sigma if h.sigma is not None else -1.0,
        cell.index,
    )


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
    # per K, the (y_true, y_pred, error, method) rows that to_points_csv writes
    points: dict[float | None, list[tuple]] = field(default_factory=dict, repr=False)

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
        return table_text(["index", "y_true", "y_pred", "error", "method"],
                          ((i,) + row for i, row in enumerate(self.points[k])))


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

    ``seeds`` is one int (the report lists it as ``seeds=[seed]``). Each
    method's TrainConfig(method, ...) template is built first, so u2 and lu
    use their default losses, huber uses huber_delta, and an invalid
    setting raises ValueError before any data exists. The task is then
    generated or loaded once. Per K: corrupt, split into folds and
    feature-standardize each fold. One pooled_grid_search runs the grid
    search of every (K, method, fold) item, so their cells train as few
    blocks, and each item's chosen model is scored on its fold's clean-only
    test rows. Synthetic scores are against ys_true; CSV tasks without a
    y_true column fall back to ys_prime and say so in target_label. An item
    whose search or scoring fails, or whose test block kept no uncorrupted
    row (then no cell trains for it), is recorded in errors and the run
    continues. Synthetic K values are coerced to float, so 50 and 50.0 draw
    the same streams; a repeated method or K is rejected.
    """
    grid = grid or GridSpec()
    arch = arch or ArchSpec("linear")
    seed = operator.index(seeds)
    templates = {m: TrainConfig(m, huber_delta=huber_delta, reg=reg, batch_size=batch_size,
                                max_epochs=max_epochs, patience=patience)
                 for m in methods}
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

    items = []  # one grid search per (K, method, fold) whose test block kept a row
    slots: dict[tuple, list] = {}  # (K, method) -> per fold: (fold, test rows, item index or None)
    for k in k_list:
        ds = data
        if task.is_synthetic:
            ds = corrupt(data, replace(process, k_percent=k),
                         derive_seed(seed, "benchmark-corrupt", task.name, k))
        splits = split_cv(ds, folds, val_fraction, derive_seed(seed, "benchmark-splits", task.name))
        sets = [standardize(tr, (va, te)) for tr, va, te in splits]
        for method in methods:
            for fold, (tr_s, (va_s, te_s), _) in enumerate(sets):
                index = None  # nothing to score: no cell trains, an error is recorded below
                if len(te_s):
                    index = len(items)
                    run_seed = derive_seed(seed, "benchmark-train", task.name, k, fold, method)
                    items.append((tr_s, va_s, replace(templates[method], seed=run_seed,
                                                      batch_size=min(batch_size, len(tr_s)))))
                slots.setdefault((k, method), []).append((fold, te_s, index))
    searches = pooled_grid_search(items, arch, grid)

    summaries: list[MethodSummary] = []
    points: dict[float | None, list[tuple]] = {k: [] for k in k_list}
    errors: list[str] = []
    for (k, method), fold_slots in slots.items():
        maes, signed, maes_raw, hyper = [], [], [], []
        for fold, te_s, index in fold_slots:
            where = f"seed={seed} k={k} fold={fold} method={method}"
            if index is None:
                errors.append(f"{where}: no uncorrupted test row to score")
                continue
            search = searches[index]
            try:
                if isinstance(search, Exception):
                    raise search
                preds = predict(search.best_result.model, te_s.xs)
                target = te_s.ys_true if target_label == "y_true" else te_s.ys_prime
                fold_mae = mae(target, preds)
                fold_signed = mean_signed_error(target, preds)
            except Exception as exc:
                errors.append(f"{where}: {exc!r}")
                continue
            maes.append(fold_mae / scale)
            signed.append(fold_signed / scale)
            maes_raw.append(fold_mae)
            hyper.append(asdict(search.best))
            points[k].extend((float(t) / scale, float(p) / scale, float(p - t) / scale, method)
                             for t, p in zip(target, preds))
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
    sides of the partition. The draws come from clean_pass under the label
    "eta-xi-delta", so the result depends on (seed, n_mc) only. Degenerate
    models that put every draw on one side leave delta undefined and raise.
    """
    if n_mc < 1000:
        raise ValueError("need at least 1000 Monte-Carlo rows")
    n_up, g_up, g_lo, _ = clean_pass(model, process, spec, n_mc, seed, "eta-xi-delta")
    if n_up == 0 or n_up == n_mc:
        raise ValueError(
            "every row fell on one side of the partition; the side gap "
            "delta is not estimable (eta is degenerate)"
        )
    eta, xi = n_up / n_mc, 1.0 - process.k_percent / 100.0
    delta = float(np.max(np.abs(g_up / n_up - g_lo / (n_mc - n_up))))
    return BiasDiagnostics(eta=eta, xi=xi, delta=delta, bound=bias_lower_bound(eta, xi, delta),
                           n_rows=n_mc, n_upper=n_up)


@dataclass(frozen=True)
class GradientStudy:
    """What gradient_study measured; each vector has one entry per model parameter."""

    sizes: tuple  # sorted dataset sizes
    oracle: np.ndarray
    oracle_se: np.ndarray
    ests: tuple  # ests[k]: (n_datasets, P) corrected estimates at sizes[k]
    naive: np.ndarray  # (n_datasets, P) naive gradients at the largest size
    rms: tuple  # RMS error against the oracle at each size
    z: np.ndarray  # |mean estimate - oracle| at the largest size, in combined SEs
    slope: float  # log-log slope of rms against size, near -1/2 when unbiased
    bias: np.ndarray  # mean naive gradient - oracle
    bias_se: np.ndarray  # its combined standard error
    diag: BiasDiagnostics


def gradient_study(process: SyntheticProcess, model, spec: LossSpec, pi_up: float, sizes,
                   n_datasets: int, n_mc: int, seed_of) -> GradientStudy:
    """Monte-Carlo check of the corrected gradient estimator and the naive bias floor.

    A clean oracle with standard errors and the (eta, xi, delta) diagnostics
    each take n_mc draws. Each size gets n_datasets corrupted datasets, with
    the corrected estimate at pi_up on each (block_gradient, the training step's
    gradient, at rho_hat = n_up / (N pi_up), over rho_hat N) and the naive gradient
    on the largest size. seed_of(*labels) names every stream: ("oracle",), ("diag",),
    and ("data", n, r) and ("corrupt", n, r) for dataset r of size n.
    """
    sizes = tuple(sorted(set(sizes)))
    if len(sizes) < 2:
        raise ValueError(f"need at least two distinct dataset sizes, got {sizes}")
    if n_datasets < 2:
        raise ValueError(f"need at least two datasets per size, got {n_datasets}")
    # first, so that a too-small n_mc or a degenerate fit fails before any dataset is drawn
    diag = estimate_eta_xi_delta(process, model, spec, n_mc, seed_of("diag"))
    oracle, oracle_se = population_gradient_oracle(model, process, spec, n_mc,
                                                   seed_of("oracle"), with_se=True)
    ests = tuple(np.empty((n_datasets, oracle.size)) for _ in sizes)
    naive = np.empty((n_datasets, oracle.size))
    for est, n in zip(ests, sizes):
        for r in range(n_datasets):
            ds = corrupt(generate_uncorrupted(process, n, seed_of("data", n, r)),
                         process, seed_of("corrupt", n, r))
            est[r] = u2_dataset_gradient_estimate(model, ds.xs, ds.ys_prime, spec, pi_up).grad
            if n == sizes[-1]:
                naive[r] = naive_batch_gradient(model, ds.xs, ds.ys_prime, spec.upper,
                                                lam=0.0, reg=None).grad
    rms = tuple(float(np.sqrt(np.mean((est - oracle) ** 2))) for est in ests)

    def mean_se(draws):
        se = draws.std(axis=0, ddof=1) / math.sqrt(n_datasets)
        return draws.mean(axis=0) - oracle, np.sqrt(se**2 + oracle_se**2)

    gap, gap_se = mean_se(ests[-1])
    bias, bias_se = mean_se(naive)
    return GradientStudy(
        sizes=sizes, oracle=oracle, oracle_se=oracle_se, ests=ests, naive=naive, rms=rms,
        z=np.abs(gap) / gap_se, slope=float(np.polyfit(np.log10(sizes), np.log10(rms), 1)[0]),
        bias=bias, bias_se=bias_se, diag=diag,
    )

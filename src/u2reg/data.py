"""Synthetic data lab: generation, one-sided corruption, splits, features.

The observation model is y = w . x + eps_sym with x ~ N(0, I) and symmetric
Gaussian noise eps_sym of standard deviation beta**-0.5 (beta acts as a
precision). Corruption then subtracts a half-normal draw from a chosen subset
of labels, so corrupted labels only ever move down: y' <= y always.

Two corruption modes:
  - "paper": the subtracted magnitude is |N(0, (scale * beta**-0.5)^2)|
    regardless of the row's own symmetric noise.
  - "strict": the magnitude is drawn, by inversion, from the half-normal's
    tail beyond twice the row's |eps_sym|, which guarantees that any row the
    oracle places at or below its corrupted label is in fact uncorrupted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import atomic_write_text
from .rngutil import derive_rng

CORRUPTION_MODES = ("paper", "strict")


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"the feature dimension must be at least 1, got {dim}")


@dataclass(frozen=True)
class SyntheticProcess:
    """Linear-Gaussian label process with one-sided label corruption."""

    dim: int
    weights: np.ndarray
    beta: float = 1.0
    k_percent: float = 50.0
    mode: str = "paper"
    corruption_scale: float = 2.0

    def __post_init__(self):
        _check_dim(self.dim)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"weights shape {w.shape} does not match dim {self.dim}")
        object.__setattr__(self, "weights", w)
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta (noise precision) must be positive and finite")
        if not (0.0 <= self.k_percent <= 100.0):
            raise ValueError("k_percent must lie in [0, 100]")
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(f"mode must be one of {CORRUPTION_MODES}")
        if not 0.0 < self.corruption_scale < math.inf:
            raise ValueError("corruption_scale must be positive and finite")

    @staticmethod
    def draw(
        dim: int,
        seed: int,
        beta: float = 1.0,
        k_percent: float = 50.0,
        mode: str = "paper",
        corruption_scale: float = 2.0,
    ) -> "SyntheticProcess":
        """Draw oracle weights w ~ N(0, I_dim) from the process seed."""
        _check_dim(dim)
        w = derive_rng(seed, "process-weights").standard_normal(dim)
        return SyntheticProcess(dim, w, beta, k_percent, mode, corruption_scale)

    @property
    def noise_std(self) -> float:
        return float(self.beta) ** -0.5

    def oracle(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=float)) @ self.weights

    def draw_clean(self, n: int, rng: np.random.Generator):
        """Fresh uncorrupted draws (X, y), from fill_clean and then label_clean."""
        X, noise = np.empty((n, self.dim)), np.empty(n)
        self.fill_clean(X, noise, rng)
        return X, self.label_clean(X, noise)

    @staticmethod
    def fill_clean(X: np.ndarray, noise: np.ndarray, rng: np.random.Generator) -> None:
        """Draw the (n, dim) features into X, then n unit-variance noises into noise, in place."""
        rng.standard_normal(out=X)
        rng.standard_normal(out=noise)

    def label_clean(self, X: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The clean labels of filled rows: X @ weights + noise_std * noise."""
        return X @ self.weights + self.noise_std * noise


@dataclass
class Dataset:
    """Feature matrix plus observed labels and optional provenance columns.

    ys_prime holds the labels a learner sees. ys_true and corrupted are only
    present when the generator is synthetic (or the CSV carried them).
    """

    xs: np.ndarray
    ys_prime: np.ndarray
    ys_true: np.ndarray | None = None
    corrupted: np.ndarray | None = None

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.ys_prime = np.asarray(self.ys_prime, dtype=float)
        n = self.xs.shape[0]
        if self.ys_prime.shape != (n,):
            raise ValueError("ys_prime length does not match xs rows")
        if self.ys_true is not None:
            self.ys_true = np.asarray(self.ys_true, dtype=float)
            if self.ys_true.shape != (n,):
                raise ValueError("ys_true length does not match xs rows")
        # a NaN label would drop silently out of the trusted rows of u2/lu
        finite_x = np.isfinite(self.xs).all(axis=0)
        if not finite_x.all():
            raise ValueError(f"feature column x{int(np.argmin(finite_x))} holds a non-finite value")
        for name, col in (("y_prime", self.ys_prime), ("y_true", self.ys_true)):
            if col is not None and not np.isfinite(col).all():
                raise ValueError(f"column {name} holds a non-finite value")
        if self.corrupted is not None:
            self.corrupted = np.asarray(self.corrupted, dtype=bool)
            if self.corrupted.shape != (n,):
                raise ValueError("corrupted mask length does not match xs rows")

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(
            self.xs[idx],
            self.ys_prime[idx],
            None if self.ys_true is None else self.ys_true[idx],
            None if self.corrupted is None else self.corrupted[idx],
        )

    # ----- CSV round trip ---------------------------------------------------

    def to_csv(self, path: str) -> None:
        atomic_write_text(path, self.to_csv_text())

    def to_csv_text(self) -> str:
        cols = [f"x{i}" for i in range(self.dim)] + ["y_prime"]
        arrays = [self.xs, self.ys_prime[:, None]]
        if self.ys_true is not None:
            cols.append("y_true")
            arrays.append(self.ys_true[:, None])
        if self.corrupted is not None:
            cols.append("corrupted")
            arrays.append(self.corrupted[:, None].astype(float))
        return table_text(cols, np.hstack(arrays))

    @staticmethod
    def from_csv(path: str) -> "Dataset":
        return Dataset.from_table(*read_table(path))

    @staticmethod
    def from_table(header: list[str] | None, data: np.ndarray) -> "Dataset":
        """The dataset in read_table's (header, rows) of a dataset CSV."""
        cols = header or []
        n_x = sum(c.startswith("x") for c in cols)
        if n_x == 0 or cols[:n_x] != [f"x{i}" for i in range(n_x)]:
            raise ValueError(f"bad dataset header: {','.join(cols)!r}")
        rest = cols[n_x:]
        if not rest or rest[0] != "y_prime":
            raise ValueError("dataset CSV must have a y_prime column after the features")
        allowed = [["y_prime"], ["y_prime", "y_true"], ["y_prime", "corrupted"],
                   ["y_prime", "y_true", "corrupted"]]
        if rest not in allowed:
            raise ValueError(f"unexpected label columns {rest}")
        if data.shape[1] != len(cols):
            raise ValueError("row width does not match header")
        xs = data[:, :n_x]
        ys_prime = data[:, n_x]
        ys_true = data[:, n_x + 1] if "y_true" in rest else None
        corrupted = data[:, cols.index("corrupted")] if "corrupted" in rest else None
        if corrupted is not None and not np.isin(corrupted, (0.0, 1.0)).all():
            raise ValueError("column 'corrupted' must hold only 0 and 1")
        return Dataset(xs, ys_prime, ys_true, corrupted)


def table_text(header, rows) -> str:
    """CSV text: the header names, then one line per row.

    Numbers are written as format(float(v), ".17g"), which reads back as the
    same float64; strings are written as they are.
    """
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def read_table(path: str) -> tuple[list[str] | None, np.ndarray]:
    """(header names or None, rows) of a numeric CSV with at most one header line.

    Blank lines are skipped. The first line is the header when any of its
    fields is not a number. An empty file, a file with no numeric row and a
    malformed row each raise ValueError naming the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = None
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        header, lines = [c.strip() for c in lines[0].split(",")], lines[1:]
    if not lines:
        raise ValueError(f"{path} has no numeric rows")
    try:
        return header, np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path} is not a numeric CSV: {exc}") from None


# ---------------------------------------------------------------------------
# generation and corruption
# ---------------------------------------------------------------------------

def generate_uncorrupted(process: SyntheticProcess, n: int, seed: int) -> Dataset:
    """Draw n clean rows; ys_prime starts equal to ys_true."""
    if n < 1:
        raise ValueError("need at least one row")
    X, y = process.draw_clean(n, derive_rng(seed, "generate"))
    return Dataset(X, y.copy(), y, np.zeros(n, dtype=bool))


def corrupt(dataset: Dataset, process: SyntheticProcess, seed: int) -> Dataset:
    """Subtract half-normal noise from round(n * K / 100) labels.

    Rows are chosen uniformly without replacement. In strict mode each
    selected row's magnitude is drawn by inversion beyond twice its own
    |eps_sym| (needs ys_true); a floor whose tail underflows raises ValueError.
    """
    if dataset.ys_true is None:
        raise ValueError("corrupt needs ys_true to anchor the corruption")
    n = len(dataset)
    n_corrupt = int(round(n * process.k_percent / 100.0))
    rng = derive_rng(seed, "corrupt")
    ys_prime = dataset.ys_true.copy()
    corrupted = np.zeros(n, dtype=bool)
    picked = rng.choice(n, size=n_corrupt, replace=False)
    width = process.corruption_scale * process.noise_std
    if process.mode == "strict":
        from statistics import NormalDist  # at module scope it slows every import
        # a = 2|eps_sym| / width, as ys_true = oracle + eps_sym; invert the tail beyond a
        a = 2.0 * np.abs(dataset.ys_true[picked] - process.oracle(dataset.xs[picked])) / width
        p = (1.0 - rng.random(n_corrupt)) * [0.5 * math.erfc(v / math.sqrt(2.0)) for v in a]
        if not np.all(p > 0.0):
            raise ValueError(f"corruption_scale {process.corruption_scale:g} is too small: "
                             "a strict floor's tail probability underflows")
        mag = -width * np.array(list(map(NormalDist().inv_cdf, p)))
    else:
        mag = np.abs(rng.standard_normal(n_corrupt) * width)
    ys_prime[picked] -= mag
    corrupted[picked] = True
    # built last, so that Dataset validates the corrupted labels
    return Dataset(dataset.xs.copy(), ys_prime, dataset.ys_true.copy(), corrupted)


# ---------------------------------------------------------------------------
# standardization and splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureStats:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


STD_FLOOR = 1e-12


def feature_stats(train_xs: np.ndarray) -> FeatureStats:
    mean = train_xs.mean(axis=0)
    std = train_xs.std(axis=0)
    return FeatureStats(mean, np.maximum(std, STD_FLOOR))


def standardize(train: Dataset, others: tuple[Dataset, ...] = ()) -> tuple[Dataset, list[Dataset], FeatureStats]:
    """Center and scale features by training statistics; labels untouched.

    Constant training columns get a floored denominator, so they map to
    exactly zero on the training split.
    """
    stats = feature_stats(train.xs)

    def mapped(d: Dataset) -> Dataset:
        return Dataset(stats.apply(d.xs), d.ys_prime.copy(),
                       None if d.ys_true is None else d.ys_true.copy(),
                       None if d.corrupted is None else d.corrupted.copy())

    return mapped(train), [mapped(d) for d in others], stats


def carve_validation(idx: np.ndarray, val_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle idx with rng and split it into (validation, training) indices.

    round(val_fraction * len(idx)) rows go to validation, clamped so that
    each side keeps at least one row when idx has two or more.
    """
    idx = idx[rng.permutation(idx.shape[0])]
    n_val = min(max(int(round(val_fraction * idx.shape[0])), 1), idx.shape[0] - 1)
    return idx[:n_val], idx[n_val:]


def split_cv(
    dataset: Dataset,
    folds: int,
    val_fraction: float,
    seed: int,
) -> list[tuple[Dataset, Dataset, Dataset]]:
    """Seeded K-fold splits with a validation carve-out.

    Each fold's test block is one chunk of a seeded permutation; the rest is
    shuffled again and round(val_fraction * rest) rows become validation.
    When provenance is available, corrupted rows are dropped from the test
    block: incomplete observations are not scored.
    """
    n = len(dataset)
    if not (2 <= folds <= n):
        raise ValueError("folds must lie in [2, n]")
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must lie in (0, 1)")
    perm = derive_rng(seed, "cv-perm").permutation(n)
    chunks = np.array_split(perm, folds)
    out = []
    for fold_i, test_idx in enumerate(chunks):
        rest = np.concatenate([c for j, c in enumerate(chunks) if j != fold_i])
        rng = derive_rng(seed, "cv-val", fold_i)
        val_idx, train_idx = carve_validation(rest, val_fraction, rng)
        if dataset.corrupted is not None:
            test_idx = test_idx[~dataset.corrupted[test_idx]]
        out.append((dataset.subset(train_idx), dataset.subset(val_idx), dataset.subset(test_idx)))
    return out


# ---------------------------------------------------------------------------
# sliding-window features for time series
# ---------------------------------------------------------------------------

WINDOW_STATS = ("mean", "std", "q05", "q25", "q50", "q75", "q95")
_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def window_features(series: np.ndarray, window_len: int, stride: int) -> np.ndarray:
    """Per-window summary features for a (T, channels) series.

    Produces floor((T - window_len) / stride) + 1 rows; each channel
    contributes its window mean, standard deviation and the 5/25/50/75/95
    percent quantiles, in that order, channels concatenated left to right.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    T, C = series.shape
    if window_len < 1 or window_len > T:
        raise ValueError("window_len must lie in [1, T]")
    if stride < 1:
        raise ValueError("stride must be positive")
    n_rows = (T - window_len) // stride + 1
    out = np.empty((n_rows, 7 * C))
    for r in range(n_rows):
        w = series[r * stride : r * stride + window_len]
        qs = np.quantile(w, _QUANTILES, axis=0)
        for c in range(C):
            out[r, 7 * c] = w[:, c].mean()
            out[r, 7 * c + 1] = w[:, c].std()
            out[r, 7 * c + 2 : 7 * c + 7] = qs[:, c]
    return out

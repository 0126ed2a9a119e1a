"""Regression under one-sided label corruption.

Labels corrupted only downward leave a provably trustworthy subset of rows
(those the current model places at or below their label), and a loss whose
lower-side derivative does not depend on the label lets the untrustworthy
side be rebuilt from unlabeled inputs. This package implements that
corrected gradient, its mirror for upward corruption, naive baselines, a
synthetic corruption lab, and the Monte-Carlo machinery to verify the
estimator's unbiasedness and the baselines' bias floor.
"""

from .data import (
    Dataset,
    SyntheticProcess,
    corrupt,
    generate_uncorrupted,
    split_cv,
    standardize,
    window_features,
)
from .evaluate import (
    BenchmarkReport,
    BenchmarkTask,
    GridSpec,
    Hyperparams,
    estimate_eta_xi_delta,
    gradient_study,
    mae,
    mean_signed_error,
    pooled_grid_search,
    run_benchmark,
)
from .gradients import (
    BiasDiagnostics,
    GradResult,
    bias_lower_bound,
    naive_batch_gradient,
    partition_upper,
    population_gradient_oracle,
    u2_dataset_gradient_estimate,
)
from .losses import LossKind, LossSpec, dloss_df, loss_value, lower_grad_coeff, upper_grad_coeff
from .models import (
    ArchSpec,
    LinearModel,
    MlpModel,
    RbfLinearModel,
    init_model,
    load_model,
    predict,
    rbf_features,
    save_model,
)
from .optim import (AdamState, TrainConfig, TrainResult, adam_init, adam_step, train,
                    train_cells)
from .rngutil import derive_rng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ArchSpec", "BenchmarkReport", "BenchmarkTask",
    "BiasDiagnostics", "Dataset", "GradResult", "GridSpec", "Hyperparams",
    "LinearModel", "LossKind", "LossSpec", "MlpModel", "RbfLinearModel",
    "SyntheticProcess", "TrainConfig", "TrainResult", "adam_init", "adam_step",
    "bias_lower_bound", "corrupt", "derive_rng", "derive_seed", "dloss_df",
    "estimate_eta_xi_delta", "generate_uncorrupted", "gradient_study", "init_model",
    "load_model", "loss_value", "lower_grad_coeff", "mae",
    "mean_signed_error", "naive_batch_gradient",
    "partition_upper", "pooled_grid_search", "population_gradient_oracle",
    "predict",
    "rbf_features", "run_benchmark", "save_model", "split_cv", "standardize",
    "train", "train_cells", "u2_dataset_gradient_estimate",
    "upper_grad_coeff", "window_features",
]

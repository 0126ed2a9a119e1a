"""Command-line front end.

Subcommands: generate, corrupt, train, predict, benchmark, diagnose,
features. Every option can also come from a JSON config file (--config);
explicit flags override config values, which override built-in defaults.
ARG_TABLE alone owns each flag's type, choices and required-ness; flags,
config values (first checked against the flag's kind) and string defaults
all parse through the flag's own type, once, before any compute. Unknown
config keys are rejected.

Exit codes: 0 success, 1 validation error (bad flags, bad config, bad
inputs), 2 runtime failure. Messages go to standard error; data goes to
files (written atomically) or standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .data import (
    CORRUPTION_MODES,
    Dataset,
    FeatureStats,
    SyntheticProcess,
    carve_validation,
    corrupt,
    generate_uncorrupted,
    read_table,
    standardize,
    table_text,
    window_features,
    WINDOW_STATS,
)
from .evaluate import BenchmarkTask, GridSpec, TASK_BETAS, estimate_eta_xi_delta, run_benchmark
from .losses import LossSpec
from .models import (
    ArchSpec,
    LinearModel,
    _is_number,
    atomic_write_text,
    init_model,
    load_model,
    predict,
    save_model,
)
from .optim import DEFAULT_SPECS, METHODS, TrainConfig, train
from .rngutil import derive_rng, derive_seed


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# argument tables (shared between the parser and the option resolver)
# ---------------------------------------------------------------------------

def _arg(*flags, **kwargs):
    return (flags, kwargs)


def _type(name: str, parse):
    """Name a flag type; argparse reports a bad value as "invalid <name> value"."""
    parse.__name__ = name
    return parse


def _split(text, item) -> tuple:
    return tuple(item(part.strip()) for part in str(text).split(",") if part.strip())


_NUMBER = _type("number", lambda text: float(text))
_NUMBERS = _type("number list", lambda text: _split(text, float))
_INTEGERS = _type("integer list", lambda text: _split(text, int))
_NAMES = _type("name list", lambda text: _split(text, str))


def _is_scalar(value) -> bool:
    return isinstance(value, str) or _is_number(value)


# the JSON values a config file may give for a flag of each type (None: a
# store_true switch; an integer flag takes a number without a fraction)
_CONFIG_KINDS = {
    None: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    _NUMBER: (_is_scalar, "a number or a string"),
}
_LIST_KIND = (lambda v: all(map(_is_scalar, v)) if isinstance(v, list) else _is_scalar(v),
              "a string, a number or a list of them")


_COMMON = [
    _arg("--config", type=str, default=None,
         help="JSON file of option defaults; explicit flags override it"),
    _arg("--seed", type=int, default=0, help="root seed for all randomness"),
]

_TASK = dict(type=str, choices=tuple(TASK_BETAS), default="low-noise")


def _process_args(k_type, k_default: str):
    return [
        _arg("--n", type=int, default=1000, help="number of rows"),
        _arg("--d", type=int, default=10, help="feature dimension"),
        _arg("--beta", type=float, default=None,
             help="symmetric-noise precision (std = beta**-0.5); default per task"),
        _arg("--k", type=k_type, default=k_default,
             help="corruption rate percent (benchmark accepts a comma list)"),
        _arg("--corruption-mode", type=str, choices=CORRUPTION_MODES, default="paper",
             help="paper | strict (strict enforces the one-sidedness margin)"),
        _arg("--corruption-scale", type=float, default=None,
             help="corruption width as a multiple of the symmetric std"),
    ]

_LOSS_ARGS = [
    _arg("--upper-loss", type=str, default=None,
         help="u2/lu upper-side loss (squared|absolute|pinball:T|huber:D); default per method"),
    _arg("--lower-loss", type=str, default=None,
         help="u2/lu lower-side loss (absolute|pinball:T); default per method"),
    _arg("--huber-delta", type=float, default=1.0, help="huber threshold for --method huber"),
]

_TRAIN_LOOP_ARGS = [
    _arg("--batch-size", type=int, default=32, help="mini-batch size"),
    _arg("--max-epochs", type=int, default=500, help="epoch cap"),
    _arg("--patience", type=int, default=20,
         help="early-stop after this many epochs without validation improvement"),
    _arg("--lr", type=float, default=1e-3, help="Adam learning rate"),
    _arg("--reg", type=str, choices=("l1", "l2", "none"), default="l2",
         help="parameter penalty: l1 | l2 | none"),
]

_MODEL_ARGS = [
    _arg("--model", type=str, choices=("linear", "rbf", "mlp"), default="linear",
         help="linear | rbf | mlp"),
    _arg("--sigma", type=float, default=None, help="rbf kernel width"),
    _arg("--hidden", type=_INTEGERS, default="100,100,100,100",
         help="mlp hidden widths, comma separated"),
    _arg("--dropout", type=float, default=0.5, help="mlp dropout rate"),
]

# benchmark trains every method with its default losses and learning rate and
# takes each rbf width from --sigma-grid, so these train flags would do nothing
_TRAIN_ONLY = ("--upper-loss", "--lower-loss", "--lr", "--sigma")
_BENCHMARK_TRAIN_ARGS = [
    (flags, kwargs) for flags, kwargs in _LOSS_ARGS + _MODEL_ARGS + _TRAIN_LOOP_ARGS
    if flags[0] not in _TRAIN_ONLY
]

ARG_TABLE = {
    "generate": {
        "help": "draw a synthetic dataset (optionally corrupted) and write it as CSV",
        "args": _COMMON + [
            _arg("--task", **_TASK, help="low-noise | high-noise"),
            *_process_args(_NUMBER, "0"),
            _arg("--out", type=str, default=None, required=True, help="output CSV path (required)"),
        ],
    },
    "corrupt": {
        "help": "apply paper-mode downward corruption to an existing dataset CSV "
                "(strict mode needs each row's symmetric noise, which a CSV cannot "
                "supply; use generate for strict-mode data)",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, required=True,
                 help="input CSV with a y_true column"),
            _arg("--k", type=_NUMBER, default=None, required=True, help="corruption rate percent"),
            _arg("--corruption-scale", type=float, default=2.0,
                 help="corruption width as a multiple of the noise std"),
            _arg("--noise-std", type=float, default=None,
                 help="symmetric-noise std; default: std of y_true"),
            _arg("--out", type=str, default=None, required=True, help="output CSV path (required)"),
        ],
    },
    "train": {
        "help": "fit a model on a dataset CSV and persist it (plus history)",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, required=True, help="training CSV (required)"),
            _arg("--val-data", type=str, default=None,
                 help="validation CSV; default carves --val-fraction out of --data"),
            _arg("--val-fraction", type=float, default=0.2,
                 help="validation share when --val-data is absent"),
            _arg("--method", type=str, choices=METHODS, default="u2",
                 help="u2 | lu | mse | mae | huber"),
            _arg("--rho", type=float, default=1.0, help="unlabeled-term weight (u2/lu)"),
            _arg("--lambda", dest="lam", type=float, default=0.0,
                 help="regularization strength"),
            *_LOSS_ARGS, *_MODEL_ARGS, *_TRAIN_LOOP_ARGS,
            _arg("--no-standardize", action="store_true", default=False,
                 help="skip feature standardization (stats are stored in the model)"),
            _arg("--out", type=str, default=None, required=True, help="model JSON path (required)"),
            _arg("--history", type=str, default=None,
                 help="optional per-epoch CSV (epoch,val_loss,grad_norm)"),
            _arg("--timing", action="store_true", default=False,
                 help="include wall-clock seconds in --history (not reproducible)"),
        ],
    },
    "predict": {
        "help": "apply a saved model to a CSV of features",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, required=True, help="input CSV (required)"),
            _arg("--model-file", type=str, default=None, required=True,
                 help="model JSON (required)"),
            _arg("--out", type=str, default=None, help="output CSV; default stdout"),
        ],
    },
    "benchmark": {
        "help": "corruption-robustness benchmark over methods and K values",
        "args": _COMMON + [
            _arg("--task", **_TASK, help="low-noise | high-noise (not with --data)"),
            _arg("--data", type=str, default=None, help="external CSV task"),
            _arg("--methods", type=_NAMES, default="u2,mse",
                 help="comma list from u2,lu,mse,mae,huber"),
            *_process_args(_NUMBERS, "50"),
            _arg("--folds", type=int, default=5, help="cross-validation folds"),
            _arg("--val-fraction", type=float, default=0.2, help="validation share"),
            *_BENCHMARK_TRAIN_ARGS,
            _arg("--rho-grid", type=_NUMBERS, default="1e-3,1e-2,1e-1,1e0",
                 help="rho candidates, comma separated"),
            _arg("--lam-grid", type=_NUMBERS, default="1e-3,1e-2,1e-1,1e0",
                 help="lambda candidates, comma separated"),
            _arg("--sigma-grid", type=_NUMBERS, default="1e-3,1e-2,1e-1,1e0",
                 help="rbf width candidates, comma separated"),
            _arg("--out", type=str, default=None, help="report JSON path; default stdout"),
            _arg("--table", type=str, default=None, help="optional aligned-text table path"),
            _arg("--points", type=str, default=None,
                 help="optional per-point CSV path (one file per K value)"),
        ],
    },
    "diagnose": {
        "help": "bias-floor diagnostics (eta, xi, delta) for a model on a synthetic task",
        "args": _COMMON + [
            _arg("--task", **_TASK, help="low-noise | high-noise"),
            _arg("--d", type=int, default=10, help="feature dimension"),
            _arg("--beta", type=float, default=None, help="noise precision; default per task"),
            _arg("--k", type=_NUMBER, default="50", help="corruption rate percent"),
            _arg("--n-mc", type=int, default=100000, help="Monte-Carlo draws"),
            _arg("--model-file", type=str, default=None,
                 help="model JSON; default is the oracle-weight linear model"),
            _arg("--intercept-shift", type=float, default=0.0,
                 help="added to the default model's intercept"),
            _arg("--upper-loss", type=str, default="absolute", help="upper-side loss"),
            _arg("--lower-loss", type=str, default="absolute", help="lower-side loss"),
            _arg("--out", type=str, default=None, help="JSON path; default stdout"),
        ],
    },
    "features": {
        "help": "sliding-window summary features over a time-series CSV",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, required=True,
                 help="numeric CSV, rows = time steps"),
            _arg("--window", type=int, default=None, required=True,
                 help="window length (required)"),
            _arg("--stride", type=int, default=1, help="window stride"),
            _arg("--out", type=str, default=None, help="output CSV; default stdout"),
        ],
    },
}


def _build_parser() -> _Parser:
    """The CLI parser; options it is not given stay out of its namespace."""
    parser = _Parser(prog="u2reg", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, info in ARG_TABLE.items():
        # no prefix matching: benchmark would otherwise read --sigma as --sigma-grid
        sub = subs.add_parser(name, help=info["help"], description=info["help"],
                              allow_abbrev=False)
        for flags, kwargs in info["args"]:
            # argparse would check choices and required flags on the command line
            # alone; _resolve_options checks them once config values are merged
            kwargs = {k: v for k, v in kwargs.items() if k not in ("choices", "required")}
            sub.add_argument(*flags, **{**kwargs, "default": argparse.SUPPRESS,
                                        "help": f"{kwargs['help']} (default: {kwargs['default']})"})
    return parser


def _from_config(key: str, value, kwargs: dict):
    """A config value checked against its flag's kind, then parsed by its type."""
    parse = kwargs.get("type")
    accepts, what = _CONFIG_KINDS.get(parse, _LIST_KIND)
    if not accepts(value):
        raise CliError(f"config key {key!r} must be {what}, got {value!r:.60}")
    if isinstance(value, list):
        value = ",".join(map(str, value))
    try:
        return parse(value) if parse else value
    except (ValueError, OverflowError):
        raise CliError(f"config key {key!r}: invalid {parse.__name__} value: {value!r:.60}")


def _resolve_options(argv: list[str]) -> tuple[str, dict]:
    """Merge defaults, config file and explicit flags for one invocation."""
    explicit = vars(_build_parser().parse_args(argv))
    command = explicit.pop("command", None)
    if command is None:
        raise CliError("a subcommand is required (see --help)")
    table = {kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_"): (flags[0], kwargs)
             for flags, kwargs in ARG_TABLE[command]["args"]}
    opts = {key: kwargs["type"](kwargs["default"]) if isinstance(kwargs["default"], str)
            else kwargs["default"] for key, (_, kwargs) in table.items()}
    config = {}
    if explicit.get("config"):
        try:
            with open(explicit["config"], "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise CliError("config file must hold a JSON object")
        if "config" in config:
            raise CliError("config key 'config' has no effect (a config file names no other)")
        unknown = sorted(set(config) - set(table))
        if unknown:
            raise CliError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        opts.update((key, _from_config(key, config[key], table[key][1])) for key in sorted(config))
    opts.update(explicit)
    for key, (flag, kwargs) in table.items():
        if kwargs.get("required") and opts[key] in (None, ""):
            raise CliError(f"{flag} is required")
        choices = kwargs.get("choices")
        if choices and opts[key] not in choices:
            raise CliError(f"{flag} must be one of {choices}, got {opts[key]!r}")
    _reject_ignored(command, opts, {table[key][0] for key in set(config) | set(explicit)})
    return command, opts


def _reject_ignored(command: str, opts: dict, given: set[str]) -> None:
    """Fail on a flag (or config key) that this run would silently ignore."""
    ignored = {}
    if command == "benchmark":
        if opts["data"]:
            why = "with --data (the CSV fixes the rows, labels and corruption)"
            ignored = {flags[0]: why for flags, _ in _process_args(_NUMBERS, "50")}
            ignored["--task"] = why
        methods = opts["methods"]
        if "huber" not in methods:
            ignored["--huber-delta"] = f"with --methods {','.join(methods)} (only huber has a width)"
        if not {"u2", "lu"} & set(methods):
            ignored["--rho-grid"] = f"with --methods {','.join(methods)} (only u2 and lu have a rho)"
    elif command == "train":
        method = opts["method"]
        if method not in DEFAULT_SPECS:
            why = f"with --method {method} (a baseline trains one loss on every label)"
            ignored = dict.fromkeys(("--upper-loss", "--lower-loss", "--rho"), why)
        if method != "huber":
            ignored["--huber-delta"] = f"with --method {method} (only huber has a width)"
        if opts["val_data"]:
            ignored["--val-fraction"] = "with --val-data (that file holds the validation rows)"
        if not opts["history"]:
            ignored["--timing"] = "without --history (the seconds go in the history CSV)"
    elif command == "diagnose" and opts["model_file"]:
        ignored["--intercept-shift"] = "with --model-file (it shifts only the default model)"
    if command in ("generate", "diagnose") and opts["beta"] is not None:
        ignored["--task"] = "with --beta (the task only picks the noise precision)"
    if command in ("benchmark", "train"):
        model = opts["model"]
        if model != "rbf":
            why = f"with --model {model} (only rbf has a width)"
            ignored.update(dict.fromkeys(("--sigma", "--sigma-grid"), why))
        if model != "mlp":
            why = f"with --model {model} (only mlp has hidden layers)"
            ignored.update(dict.fromkeys(("--hidden", "--dropout"), why))
        if opts["reg"] == "none":
            why = "with --reg none (no penalty to weight)"
            ignored.update(dict.fromkeys(("--lambda", "--lam-grid"), why))
    for flag, why in ignored.items():
        if flag in given:
            raise CliError(f"{flag} has no effect {why}")


def _task_beta(opts: dict) -> float:
    return opts["beta"] if opts["beta"] is not None else TASK_BETAS[opts["task"]]


def _write_or_stdout(text: str, path: str | None) -> None:
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_generate(opts: dict) -> int:
    seed, k, scale = opts["seed"], opts["k"], opts["corruption_scale"]
    process = SyntheticProcess.draw(
        opts["d"], derive_seed(seed, "cli-process"),
        beta=_task_beta(opts), k_percent=k, mode=opts["corruption_mode"],
        corruption_scale=scale if scale is not None else 2.0,
    )
    ds = generate_uncorrupted(process, opts["n"], derive_seed(seed, "cli-generate"))
    if k > 0:
        ds = corrupt(ds, process, derive_seed(seed, "cli-corrupt"))
    ds.to_csv(opts["out"])
    _info(f"wrote {len(ds)} rows to {opts['out']}")
    return 0


def _run_corrupt(opts: dict) -> int:
    ds = Dataset.from_csv(opts["data"])
    if ds.ys_true is None:
        raise CliError("corrupt needs a y_true column in the input CSV")
    noise_std = opts["noise_std"] if opts["noise_std"] is not None else float(np.std(ds.ys_true))
    if noise_std <= 0:
        raise CliError("noise std must be positive (constant y_true needs --noise-std)")
    try:
        beta = noise_std**-2
    except OverflowError:  # the precision of a tiny std overflows a float
        beta = math.inf
    if not 0.0 < beta < math.inf:
        raise CliError(f"noise std {noise_std:g} has no finite positive precision noise_std**-2")
    process = SyntheticProcess(
        dim=ds.dim, weights=np.zeros(ds.dim), beta=beta,
        k_percent=opts["k"], mode="paper", corruption_scale=opts["corruption_scale"],
    )
    result = corrupt(ds, process, derive_seed(opts["seed"], "cli-corrupt"))
    result.to_csv(opts["out"])
    _info(f"corrupted {int(result.corrupted.sum())} of {len(result)} rows; wrote {opts['out']}")
    return 0


def _loss_spec_for(opts: dict, method: str) -> LossSpec | None:
    upper, lower = opts.get("upper_loss"), opts.get("lower_loss")
    if upper is None and lower is None:
        return None
    defaults = DEFAULT_SPECS[method]
    return LossSpec.parse(upper or defaults[0], lower or defaults[1])


def _arch_from(opts: dict) -> ArchSpec:
    if opts["model"] == "rbf":
        if opts["sigma"] is None:
            raise CliError("--model rbf needs --sigma")
        return ArchSpec("rbf", sigma=opts["sigma"])
    if opts["model"] == "mlp":
        return ArchSpec("mlp", hidden=opts["hidden"], dropout=opts["dropout"])
    return ArchSpec("linear")


def _reg_from(opts: dict) -> str | None:
    return None if opts["reg"] == "none" else opts["reg"]


def _finite(path: str, what: str, values: np.ndarray) -> np.ndarray:
    """values read from the file at path; what names them in the error."""
    if not np.isfinite(values).all():
        raise CliError(f"{path}: {what} holds a non-finite number")
    return values


def _load_raw_input_model(path: str):
    """A saved model whose features() first applies the standardization train stored.

    standardized_features must be a JSON boolean (absent reads as false). The
    stored feature_mean and feature_std must each hold one finite number per
    feature, and every std must be positive.
    """
    model, payload = load_model(path)
    standardized = payload.get("standardized_features", False)
    if not isinstance(standardized, bool):
        raise CliError(f"{path}: model file field 'standardized_features' must be true or "
                       f"false, got {standardized!r:.60}")
    if standardized:
        fields = []
        for key in ("feature_mean", "feature_std"):
            what, values = f"model file field {key!r}", payload.get(key)
            if not (isinstance(values, list) and len(values) == model.input_dim
                    and all(map(_is_number, values))):
                raise CliError(f"{path}: {what} must be a list of {model.input_dim} numbers, "
                               f"one per feature")
            fields.append(_finite(path, what, np.asarray(values, dtype=float)))
        stats = FeatureStats(*fields)
        if not (stats.std > 0.0).all():
            raise CliError(f"{path}: model file field 'feature_std' holds a number <= 0")
        fitted_features = model.features
        model.features = lambda X: fitted_features(stats.apply(X))
    return model


def _run_train(opts: dict) -> int:
    method, seed, out = opts["method"], opts["seed"], opts["out"]
    full = Dataset.from_csv(opts["data"])
    if opts.get("val_data"):
        train_ds, val_ds = full, Dataset.from_csv(opts["val_data"])
        if val_ds.dim != full.dim:
            raise CliError("validation data feature count does not match training data")
    else:
        vf = opts["val_fraction"]
        if not (0.0 < vf < 1.0):
            raise CliError("--val-fraction must lie in (0, 1)")
        val_idx, train_idx = carve_validation(np.arange(len(full)), vf,
                                              derive_rng(seed, "cli-val-split"))
        val_ds, train_ds = full.subset(val_idx), full.subset(train_idx)

    do_standardize = not opts["no_standardize"]
    if do_standardize:
        train_ds, (val_ds,), stats = standardize(train_ds, (val_ds,))
        stats_extra = {"feature_mean": stats.mean.tolist(), "feature_std": stats.std.tolist()}
    else:
        stats_extra = {}

    arch = _arch_from(opts)
    cfg = TrainConfig(
        method, spec=_loss_spec_for(opts, method), rho=opts["rho"], lam=opts["lam"],
        huber_delta=opts["huber_delta"], reg=_reg_from(opts), lr=opts["lr"],
        batch_size=opts["batch_size"], max_epochs=opts["max_epochs"],
        patience=opts["patience"], seed=derive_seed(seed, "cli-train"),
    )
    model = init_model(arch, train_ds.dim, derive_seed(seed, "cli-init"), rbf_bases=train_ds.xs)
    result = train(model, train_ds, val_ds, cfg)
    save_model(result.model, out, extra={
        **stats_extra,
        "standardized_features": do_standardize,
        "method": method,
        "best_val_loss": result.best_val_loss,
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "seed": seed,
    })
    if opts.get("history"):
        # the opt-in wall-clock column keeps its fixed-point text
        width = 4 if opts.get("timing") else 3
        rows = [(r.epoch, r.val_loss, r.grad_norm, f"{r.seconds:.6f}")[:width]
                for r in result.history]
        header = ["epoch", "val_loss", "grad_norm", "seconds"][:width]
        atomic_write_text(opts["history"], table_text(header, rows))
    _info(
        f"trained {method} ({arch.kind}) on {len(train_ds)} rows; "
        f"best val loss {result.best_val_loss:.6g} at epoch {result.best_epoch}; wrote {out}"
    )
    return 0


def _run_predict(opts: dict) -> int:
    data_path = opts["data"]
    model = _load_raw_input_model(opts["model_file"])
    # a dataset CSV (its header names y_prime) or a plain numeric CSV
    header, xs = read_table(data_path)
    if header and "y_prime" in header:
        xs = Dataset.from_table(header, xs).xs
    _finite(data_path, "the feature table", xs)
    if xs.shape[1] != model.input_dim:
        raise CliError(
            f"feature count mismatch: data has {xs.shape[1]} features, "
            f"model expects {model.input_dim}"
        )
    preds = predict(model, xs)
    _write_or_stdout(table_text(["index", "y_pred"], enumerate(preds)), opts.get("out"))
    if opts.get("out"):
        _info(f"wrote {len(preds)} predictions to {opts['out']}")
    return 0


def _run_benchmark(opts: dict) -> int:
    for flag in ("--methods", "--k"):
        if not opts[flag[2:]]:
            raise CliError(f"{flag} must list at least one value")
    if opts["data"]:
        task, k_list = BenchmarkTask.from_csv(opts["data"]), [0.0]
    else:
        given = {key: opts[key] for key in ("beta", "corruption_scale") if opts[key] is not None}
        task = replace(BenchmarkTask.named(opts["task"], n=opts["n"], d=opts["d"]),
                       corruption_mode=opts["corruption_mode"], **given)
        k_list = opts["k"]
    grid = GridSpec(rhos=opts["rho_grid"], lams=opts["lam_grid"], sigmas=opts["sigma_grid"])
    # the grid search gives each rbf cell its own width from --sigma-grid; the
    # first value only satisfies ArchSpec
    arch = _arch_from({**opts, "sigma": grid.sigmas[0]})
    report = run_benchmark(
        task, opts["methods"], k_list, folds=opts["folds"], seeds=opts["seed"],
        val_fraction=opts["val_fraction"], grid=grid, arch=arch, batch_size=opts["batch_size"],
        max_epochs=opts["max_epochs"], patience=opts["patience"],
        huber_delta=opts["huber_delta"], reg=_reg_from(opts),
    )
    _write_or_stdout(report.to_json(), opts.get("out"))
    if opts.get("table"):
        atomic_write_text(opts["table"], report.to_text())
    if opts.get("points"):
        for k in report.k_list:
            path = opts["points"]
            if len(report.k_list) > 1:
                stem, ext = os.path.splitext(path)
                path = f"{stem}-k{k:g}{ext}"
            atomic_write_text(path, report.to_points_csv(k))
    for err in report.errors:
        _info(f"benchmark item failed: {err}")
    _info(f"benchmark done: task {report.task}, {len(report.summaries)} summaries")
    if report.errors and not report.summaries:
        _info("runtime failure: every benchmark item failed")
        return 2
    return 0


def _run_diagnose(opts: dict) -> int:
    # the process generate --seed S --d D draws from
    seed = opts["seed"]
    process = SyntheticProcess.draw(
        opts["d"], derive_seed(seed, "cli-process"), beta=_task_beta(opts), k_percent=opts["k"],
    )
    if opts["model_file"]:
        model = _load_raw_input_model(opts["model_file"])
        if model.input_dim != process.dim:
            raise CliError("model feature count does not match --d")
    else:
        theta = np.concatenate([process.weights, [opts["intercept_shift"]]])
        model = LinearModel(process.dim, theta)
    spec = LossSpec.parse(opts["upper_loss"], opts["lower_loss"])
    diag = estimate_eta_xi_delta(process, model, spec, opts["n_mc"],
                                 derive_seed(seed, "cli-diagnose-mc"))
    payload = {
        "task": opts["task"], "d": opts["d"], "beta": process.beta,
        "k_percent": opts["k"], "n_mc": diag.n_rows, "n_upper": diag.n_upper,
        "eta": diag.eta, "xi": diag.xi, "delta": diag.delta,
        "bias_lower_bound": diag.bound,
        "upper_loss": opts["upper_loss"], "lower_loss": opts["lower_loss"],
    }
    _write_or_stdout(json.dumps(payload, indent=1, sort_keys=True) + "\n", opts.get("out"))
    return 0


def _run_features(opts: dict) -> int:
    data_path = opts["data"]
    try:
        _, series = read_table(data_path)
    except OSError as exc:
        raise CliError(f"cannot read {data_path}: {exc}")
    _finite(data_path, "the series", series)
    feats = window_features(series, opts["window"], opts["stride"])
    n_channels = feats.shape[1] // len(WINDOW_STATS)
    header = [f"ch{c}_{stat}" for c in range(n_channels) for stat in WINDOW_STATS]
    _write_or_stdout(table_text(header, feats), opts.get("out"))
    if opts.get("out"):
        _info(f"wrote {feats.shape[0]} windows x {feats.shape[1]} features to {opts['out']}")
    return 0


_RUNNERS = {
    "generate": _run_generate,
    "corrupt": _run_corrupt,
    "train": _run_train,
    "predict": _run_predict,
    "benchmark": _run_benchmark,
    "diagnose": _run_diagnose,
    "features": _run_features,
}


def run_cli(argv: list[str]) -> int:
    try:
        command, opts = _resolve_options(list(argv))
        return _RUNNERS[command](opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError) as exc:
        # domain validation raised below the CLI layer, or unreadable inputs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: generate, corrupt, train, predict, benchmark, diagnose,
features. Every option can also come from a JSON config file (--config);
explicit flags override config values, which override built-in defaults.
Unknown config keys are rejected before any compute happens.

Exit codes: 0 success, 1 validation error (bad flags, bad config, bad
inputs), 2 runtime failure. Messages go to standard error; data goes to
files (written atomically) or standard output.
"""

from __future__ import annotations

import argparse
import json
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
from .losses import LossSpec, parse_loss_kind
from .models import (
    ArchSpec,
    LinearModel,
    atomic_write_text,
    init_model,
    load_model,
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
# argument tables (shared between the help parser and the override detector)
# ---------------------------------------------------------------------------

def _arg(*flags, **kwargs):
    return (flags, kwargs)


_COMMON = [
    _arg("--config", type=str, default=None,
         help="JSON file of option defaults; explicit flags override it"),
    _arg("--seed", type=int, default=0, help="root seed for all randomness"),
]

def _process_args(k_default: str):
    return [
        _arg("--n", type=int, default=1000, help="number of rows"),
        _arg("--d", type=int, default=10, help="feature dimension"),
        _arg("--beta", type=float, default=None,
             help="symmetric-noise precision (std = beta**-0.5); default per task"),
        _arg("--k", type=str, default=k_default,
             help="corruption rate percent (benchmark accepts a comma list)"),
        _arg("--corruption-mode", type=str, default="paper",
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
    _arg("--reg", type=str, default="l2", help="parameter penalty: l1 | l2 | none"),
]

_MODEL_ARGS = [
    _arg("--model", type=str, default="linear", help="linear | rbf | mlp"),
    _arg("--sigma", type=float, default=None, help="rbf kernel width"),
    _arg("--hidden", type=str, default="100,100,100,100",
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
            _arg("--task", type=str, default="low-noise", help="low-noise | high-noise"),
            *_process_args("0"),
            _arg("--out", type=str, default=None, help="output CSV path (required)"),
        ],
    },
    "corrupt": {
        "help": "apply paper-mode downward corruption to an existing dataset CSV "
                "(strict mode needs each row's symmetric noise, which a CSV cannot "
                "supply; use generate for strict-mode data)",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, help="input CSV with a y_true column"),
            _arg("--k", type=str, default=None, help="corruption rate percent"),
            _arg("--corruption-scale", type=float, default=2.0,
                 help="corruption width as a multiple of the noise std"),
            _arg("--noise-std", type=float, default=None,
                 help="symmetric-noise std; default: std of y_true"),
            _arg("--out", type=str, default=None, help="output CSV path (required)"),
        ],
    },
    "train": {
        "help": "fit a model on a dataset CSV and persist it (plus history)",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, help="training CSV (required)"),
            _arg("--val-data", type=str, default=None,
                 help="validation CSV; default carves --val-fraction out of --data"),
            _arg("--val-fraction", type=float, default=0.2,
                 help="validation share when --val-data is absent"),
            _arg("--method", type=str, default="u2",
                 help="u2 | lu | mse | mae | huber"),
            _arg("--rho", type=float, default=1.0, help="unlabeled-term weight (u2/lu)"),
            _arg("--lambda", dest="lam", type=float, default=0.0,
                 help="regularization strength"),
            *_LOSS_ARGS, *_MODEL_ARGS, *_TRAIN_LOOP_ARGS,
            _arg("--no-standardize", action="store_true",
                 help="skip feature standardization (stats are stored in the model)"),
            _arg("--out", type=str, default=None, help="model JSON path (required)"),
            _arg("--history", type=str, default=None,
                 help="optional per-epoch CSV (epoch,val_loss,grad_norm)"),
            _arg("--timing", action="store_true",
                 help="include wall-clock seconds in --history (not reproducible)"),
        ],
    },
    "predict": {
        "help": "apply a saved model to a CSV of features",
        "args": _COMMON + [
            _arg("--data", type=str, default=None, help="input CSV (required)"),
            _arg("--model-file", type=str, default=None, help="model JSON (required)"),
            _arg("--out", type=str, default=None, help="output CSV; default stdout"),
        ],
    },
    "benchmark": {
        "help": "corruption-robustness benchmark over methods and K values",
        "args": _COMMON + [
            _arg("--task", type=str, default="low-noise",
                 help="low-noise | high-noise (ignored when --data is given)"),
            _arg("--data", type=str, default=None, help="external CSV task"),
            _arg("--methods", type=str, default="u2,mse",
                 help="comma list from u2,lu,mse,mae,huber"),
            *_process_args("50"),
            _arg("--folds", type=int, default=5, help="cross-validation folds"),
            _arg("--val-fraction", type=float, default=0.2, help="validation share"),
            *_BENCHMARK_TRAIN_ARGS,
            _arg("--rho-grid", type=str, default="1e-3,1e-2,1e-1,1e0",
                 help="rho candidates, comma separated"),
            _arg("--lam-grid", type=str, default="1e-3,1e-2,1e-1,1e0",
                 help="lambda candidates, comma separated"),
            _arg("--sigma-grid", type=str, default="1e-3,1e-2,1e-1,1e0",
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
            _arg("--task", type=str, default="low-noise", help="low-noise | high-noise"),
            _arg("--d", type=int, default=10, help="feature dimension"),
            _arg("--beta", type=float, default=None, help="noise precision; default per task"),
            _arg("--k", type=str, default="50", help="corruption rate percent"),
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
            _arg("--data", type=str, default=None, help="numeric CSV, rows = time steps"),
            _arg("--window", type=int, default=None, help="window length (required)"),
            _arg("--stride", type=int, default=1, help="window stride"),
            _arg("--out", type=str, default=None, help="output CSV; default stdout"),
        ],
    },
}


def _build_parser(suppress: bool) -> _Parser:
    parser = _Parser(prog="u2reg", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, info in ARG_TABLE.items():
        # no prefix matching: benchmark would otherwise read --sigma as --sigma-grid
        sub = subs.add_parser(
            name, help=info["help"], description=info["help"],
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False,
        )
        for flags, kwargs in info["args"]:
            kw = dict(kwargs)
            if suppress:
                kw.pop("default", None)
                kw["default"] = argparse.SUPPRESS
            sub.add_argument(*flags, **kw)
    return parser


def _resolve_options(argv: list[str]) -> tuple[str, dict]:
    """Merge defaults, config file and explicit flags for one invocation."""
    _build_parser(suppress=False).parse_args(argv)  # full validation + --help
    explicit = vars(_build_parser(suppress=True).parse_args(argv))
    command = explicit.pop("command", None)
    if command is None:
        raise CliError("a subcommand is required (see --help)")
    defaults = {}
    for flags, kwargs in ARG_TABLE[command]["args"]:
        dest = kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_")
        defaults[dest] = False if kwargs.get("action") == "store_true" else kwargs.get("default")
    opts = dict(defaults)
    config = {}
    config_path = explicit.get("config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise CliError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        opts.update(config)
    opts.update(explicit)
    _reject_ignored(command, opts, set(config) | set(explicit))
    return command, opts


def _reject_ignored(command: str, opts: dict, given: set[str]) -> None:
    """Fail on a flag (or config key) that this run would silently ignore."""
    ignored = {}
    if command == "benchmark":
        if opts.get("data"):
            why = "with --data (the CSV fixes the rows, labels and corruption)"
            ignored = {flags[0]: why for flags, _ in _process_args("50")}
        methods = _str_list(opts["methods"], "--methods")
        if "huber" not in methods:
            ignored["--huber-delta"] = f"with --methods {','.join(methods)} (only huber has a width)"
    elif command == "train" and opts["method"] in METHODS:
        method = opts["method"]
        if method not in DEFAULT_SPECS:
            why = f"with --method {method} (a baseline trains one loss on every label)"
            ignored = dict.fromkeys(("--upper-loss", "--lower-loss", "--rho"), why)
        if method != "huber":
            ignored["--huber-delta"] = f"with --method {method} (only huber has a width)"
    for flag, why in ignored.items():
        if flag.lstrip("-").replace("-", "_") in given:
            raise CliError(f"{flag} has no effect {why}")


# ---------------------------------------------------------------------------
# small option coercers (config values may be strings, lists or scalars)
# ---------------------------------------------------------------------------

def _float_list(value, what: str) -> list[float]:
    if value is None:
        raise CliError(f"{what} is required")
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(part) for part in str(value).split(",") if part.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse {what} from {value!r}")


def _int_list(value, what: str) -> list[int]:
    return [int(v) for v in _float_list(value, what)]


def _str_list(value, what: str) -> list[str]:
    if value is None:
        raise CliError(f"{what} is required")
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [part.strip() for part in str(value).split(",") if part.strip() != ""]


def _require(opts: dict, key: str, flag: str):
    if opts.get(key) in (None, ""):
        raise CliError(f"{flag} is required")
    return opts[key]


def _one_float(value, what: str) -> float:
    values = _float_list(value, what)
    if len(values) != 1:
        raise CliError(f"{what} takes a single value here, got {values}")
    return values[0]


def _choice(value, what: str, allowed) -> str:
    value = str(value)
    if value not in allowed:
        raise CliError(f"{what} must be one of {tuple(allowed)}, got {value!r}")
    return value


def _task_beta(opts: dict) -> float:
    task = _choice(opts["task"], "--task", TASK_BETAS)
    beta = opts.get("beta")
    return float(beta) if beta is not None else TASK_BETAS[task]


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
    out = _require(opts, "out", "--out")
    mode = _choice(opts["corruption_mode"], "--corruption-mode", CORRUPTION_MODES)
    k = _one_float(opts["k"], "--k")
    scale = opts["corruption_scale"]
    process = SyntheticProcess.draw(
        int(opts["d"]), derive_seed(int(opts["seed"]), "cli-process"),
        beta=_task_beta(opts), k_percent=k, mode=mode,
        corruption_scale=float(scale) if scale is not None else 2.0,
    )
    ds = generate_uncorrupted(process, int(opts["n"]), derive_seed(int(opts["seed"]), "cli-generate"))
    if k > 0:
        ds = corrupt(ds, process, derive_seed(int(opts["seed"]), "cli-corrupt"))
    ds.to_csv(out)
    _info(f"wrote {len(ds)} rows to {out}")
    return 0


def _run_corrupt(opts: dict) -> int:
    data = _require(opts, "data", "--data")
    out = _require(opts, "out", "--out")
    k = _one_float(_require(opts, "k", "--k"), "--k")
    ds = Dataset.from_csv(data)
    if ds.ys_true is None:
        raise CliError("corrupt needs a y_true column in the input CSV")
    noise_std = opts.get("noise_std")
    noise_std = float(noise_std) if noise_std is not None else float(np.std(ds.ys_true))
    if noise_std <= 0:
        raise CliError("noise std must be positive (constant y_true needs --noise-std)")
    process = SyntheticProcess(
        dim=ds.dim, weights=np.zeros(ds.dim), beta=noise_std**-2,
        k_percent=k, mode="paper", corruption_scale=float(opts["corruption_scale"]),
    )
    result = corrupt(ds, process, derive_seed(int(opts["seed"]), "cli-corrupt"))
    result.to_csv(out)
    _info(f"corrupted {int(result.corrupted.sum())} of {len(result)} rows; wrote {out}")
    return 0


def _loss_spec_for(opts: dict, method: str) -> LossSpec | None:
    upper, lower = opts.get("upper_loss"), opts.get("lower_loss")
    if upper is None and lower is None:
        return None
    defaults = DEFAULT_SPECS[method]
    return LossSpec.parse(upper or defaults[0], lower or defaults[1])


def _arch_from(opts: dict) -> ArchSpec:
    kind = _choice(opts["model"], "--model", ("linear", "rbf", "mlp"))
    if kind == "rbf":
        if opts.get("sigma") is None:
            raise CliError("--model rbf needs --sigma")
        return ArchSpec("rbf", sigma=float(opts["sigma"]))
    if kind == "mlp":
        hidden = tuple(_int_list(opts["hidden"], "--hidden"))
        return ArchSpec("mlp", hidden=hidden, dropout=float(opts["dropout"]))
    return ArchSpec("linear")


def _reg_from(opts: dict) -> str | None:
    reg = _choice(str(opts["reg"]), "--reg", ("l1", "l2", "none"))
    return None if reg == "none" else reg


def _run_train(opts: dict) -> int:
    data_path = _require(opts, "data", "--data")
    out = _require(opts, "out", "--out")
    method = _choice(opts["method"], "--method", METHODS)
    seed = int(opts["seed"])
    full = Dataset.from_csv(data_path)
    if opts.get("val_data"):
        train_ds, val_ds = full, Dataset.from_csv(opts["val_data"])
        if val_ds.dim != full.dim:
            raise CliError("validation data feature count does not match training data")
    else:
        vf = float(opts["val_fraction"])
        if not (0.0 < vf < 1.0):
            raise CliError("--val-fraction must lie in (0, 1)")
        val_idx, train_idx = carve_validation(np.arange(len(full)), vf,
                                              derive_rng(seed, "cli-val-split"))
        val_ds, train_ds = full.subset(val_idx), full.subset(train_idx)

    do_standardize = not bool(opts.get("no_standardize"))
    if do_standardize:
        train_ds, (val_ds,), stats = standardize(train_ds, (val_ds,))
        stats_extra = {"feature_mean": stats.mean.tolist(), "feature_std": stats.std.tolist()}
    else:
        stats_extra = {}

    arch = _arch_from(opts)
    cfg = TrainConfig(
        method,
        spec=_loss_spec_for(opts, method),
        rho=float(opts["rho"]), lam=float(opts["lam"]),
        huber_delta=float(opts["huber_delta"]), reg=_reg_from(opts),
        lr=float(opts["lr"]),
        batch_size=int(opts["batch_size"]), max_epochs=int(opts["max_epochs"]),
        patience=int(opts["patience"]), seed=derive_seed(seed, "cli-train"),
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
    data_path = _require(opts, "data", "--data")
    model_path = _require(opts, "model_file", "--model-file")
    model, payload = load_model(model_path)
    # a dataset CSV (its header names y_prime) or a plain numeric CSV
    with open(data_path, "r", encoding="utf-8") as fh:
        dataset_format = "y_prime" in [c.strip() for c in fh.readline().split(",")]
    xs = Dataset.from_csv(data_path).xs if dataset_format else read_table(data_path)[1]
    if xs.shape[1] != model.input_dim:
        raise CliError(
            f"feature count mismatch: data has {xs.shape[1]} features, "
            f"model expects {model.input_dim}"
        )
    if payload.get("standardized_features"):
        xs = FeatureStats(np.asarray(payload["feature_mean"], dtype=float),
                          np.asarray(payload["feature_std"], dtype=float)).apply(xs)
    preds = model.predict_batch(xs)
    _write_or_stdout(table_text(["index", "y_pred"], enumerate(preds)), opts.get("out"))
    if opts.get("out"):
        _info(f"wrote {len(preds)} predictions to {opts['out']}")
    return 0


def _run_benchmark(opts: dict) -> int:
    methods = _str_list(opts["methods"], "--methods")
    if opts.get("data"):
        task = BenchmarkTask.from_csv(opts["data"])
        k_list: list[float] = [0.0]
    else:
        task = BenchmarkTask.named(
            _choice(opts["task"], "--task", TASK_BETAS), n=int(opts["n"]), d=int(opts["d"])
        )
        if opts.get("beta") is not None:
            task = replace(task, beta=float(opts["beta"]))
        if opts.get("corruption_scale") is not None:
            task = replace(task, corruption_scale=float(opts["corruption_scale"]))
        task = replace(task, corruption_mode=_choice(
            opts["corruption_mode"], "--corruption-mode", CORRUPTION_MODES))
        k_list = _float_list(opts["k"], "--k")
    grid = GridSpec(
        rhos=tuple(_float_list(opts["rho_grid"], "--rho-grid")),
        lams=tuple(_float_list(opts["lam_grid"], "--lam-grid")),
        sigmas=tuple(_float_list(opts["sigma_grid"], "--sigma-grid")),
    )
    # grid_search gives each rbf cell its own width from --sigma-grid; the
    # first value only satisfies ArchSpec
    arch = _arch_from({**opts, "sigma": grid.sigmas[0]})
    report = run_benchmark(
        task, methods, k_list,
        folds=int(opts["folds"]), seeds=int(opts["seed"]),
        val_fraction=float(opts["val_fraction"]), grid=grid, arch=arch,
        batch_size=int(opts["batch_size"]), max_epochs=int(opts["max_epochs"]),
        patience=int(opts["patience"]), huber_delta=float(opts["huber_delta"]),
        reg=_reg_from(opts),
    )
    _write_or_stdout(report.to_json(), opts.get("out"))
    if opts.get("table"):
        atomic_write_text(opts["table"], report.to_text())
    if opts.get("points"):
        for k in report.k_list:
            path = opts["points"]
            if len(report.k_list) > 1:
                stem, dot, ext = path.rpartition(".")
                suffix = f"-k{k:g}"
                path = f"{stem}{suffix}{dot}{ext}" if dot else f"{path}{suffix}"
            atomic_write_text(path, report.to_points_csv(k))
    for err in report.errors:
        _info(f"benchmark item failed: {err}")
    _info(f"benchmark done: task {report.task}, {len(report.summaries)} summaries")
    return 0


def _run_diagnose(opts: dict) -> int:
    seed = int(opts["seed"])
    k = _one_float(opts["k"], "--k")
    process = SyntheticProcess.draw(
        int(opts["d"]), derive_seed(seed, "cli-diagnose-process"),
        beta=_task_beta(opts), k_percent=k,
    )
    if opts.get("model_file"):
        model, _payload = load_model(opts["model_file"])
        if model.input_dim != process.dim:
            raise CliError("model feature count does not match --d")
    else:
        theta = np.concatenate([process.weights, [float(opts["intercept_shift"])]])
        model = LinearModel(process.dim, theta)
    spec = LossSpec.parse(str(opts["upper_loss"]), str(opts["lower_loss"]))
    diag = estimate_eta_xi_delta(process, model, spec, int(opts["n_mc"]),
                                 derive_seed(seed, "cli-diagnose-mc"))
    payload = {
        "task": str(opts["task"]), "d": int(opts["d"]), "beta": process.beta,
        "k_percent": k, "n_mc": diag.n_rows, "n_upper": diag.n_upper,
        "eta": diag.eta, "xi": diag.xi, "delta": diag.delta,
        "bias_lower_bound": diag.bound,
        "upper_loss": str(opts["upper_loss"]), "lower_loss": str(opts["lower_loss"]),
    }
    _write_or_stdout(json.dumps(payload, indent=1, sort_keys=True) + "\n", opts.get("out"))
    return 0


def _run_features(opts: dict) -> int:
    data_path = _require(opts, "data", "--data")
    window = opts.get("window")
    if window is None:
        raise CliError("--window is required")
    window, stride = int(window), int(opts["stride"])
    try:
        _, series = read_table(data_path)
    except OSError as exc:
        raise CliError(f"cannot read {data_path}: {exc}")
    feats = window_features(series, window, stride)
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

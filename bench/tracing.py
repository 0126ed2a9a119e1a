"""In-memory span tracer that instruments u2reg from the outside.

Nothing under ``src/`` knows about tracing. :func:`instrument` rebinds,
inside the current process only, every public module-level function of each
``u2reg`` module in every namespace that holds it by name (the defining
module, modules that did ``from .x import f``, and the package itself), plus
the model methods and the ``Dataset`` CSV methods. Each wrapper records one
span per call: name, start, end, parent span and run id (the benchmark
iteration). Spans stay in flat in-memory arrays until :meth:`Tracer.save`
writes them out when the run ends. The function returned by ``instrument``
puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
import types
from array import array

import numpy as np

ROOT_SPAN = "bench.iteration"
ARCHS = ("linear", "rbf", "mlp")
MODEL_OPS = ("forward_train", "backward_weighted", "predict_batch")
MODEL_METHODS = MODEL_OPS + ("param_jacobian_batch",)
CLI_COMMANDS = ("generate", "train", "predict", "diagnose")
LAYERS = ("rngutil", "optim", "gradients", "losses", "models", "data", "evaluate", "cli", "bench")

# Metric name -> the span names it sums over. Spans are named
# "<module>.<function>"; a few metrics pool functions that play one role.
SPAN_GROUPS = {
    "gradients.batch_gradient": ("gradients.u2_batch_gradient", "gradients.lu_batch_gradient",
                                 "gradients.naive_batch_gradient"),
    "gradients.dataset_estimate": ("gradients.u2_dataset_gradient_estimate",),
    "gradients.oracle": ("gradients.population_gradient_oracle",),
    "losses.dloss_df": ("losses.dloss_df", "losses.plain_dloss_df"),
    "losses.grad_coeff": ("losses.lower_grad_coeff", "losses.upper_grad_coeff"),
}

# (metric stem, reported fields). Every ".s" that has a ".calls" also gets
# a ".us_per_call".
SPAN_METRICS = (
    ("rngutil.derive_rng", ("calls", "s", "us_per_call")),
    ("optim.train", ("calls", "self_s")),
    ("optim.adam_step", ("calls", "s", "us_per_call")),
    ("gradients.batch_gradient", ("calls", "self_s")),
    ("gradients.dataset_estimate", ("s",)),
    ("gradients.oracle", ("s",)),
    ("losses.dloss_df", ("calls", "s", "us_per_call")),
    ("losses.grad_coeff", ("calls", "s", "us_per_call")),
    *((f"models.{arch}.{op}", ("calls", "s", "us_per_call")) for arch in ARCHS for op in MODEL_OPS),
    ("data.corrupt", ("calls", "s", "us_per_call")),
    ("data.generate_uncorrupted", ("s",)),
    ("data.split_cv", ("s",)),
    ("data.standardize", ("s",)),
    ("data.csv_read", ("s",)),
    ("data.csv_write", ("s",)),
    ("evaluate.run_benchmark", ("self_s",)),
    ("evaluate.grid_search", ("calls", "self_s")),
    ("evaluate.estimate_eta_xi_delta", ("s",)),
    *((f"cli.{cmd}", ("calls", "s", "us_per_call")) for cmd in CLI_COMMANDS),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_per_call": "us"}

# Counters recorded by call hooks (or by the workload), summed per iteration.
COUNTER_METRICS = (
    ("optim.steps", "count"),
    ("optim.epochs", "count"),
    *((f"models.{arch}.{kind}", unit) for arch in ARCHS
      for kind, unit in (("flops_computed", "flop"), ("bytes_computed", "B"))),
    ("data.corrupt.rows", "count"),
    ("data.csv_read.bytes", "B"),
    ("data.csv_write.bytes", "B"),
    ("evaluate.cells", "count"),
    ("evaluate.cells_failed", "count"),
    ("cli.model_json_bytes", "B"),
)

TRACE_METRICS = (
    ("trace.iterations", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.partition_error_s", "s"),
)


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for stem, fields in SPAN_METRICS:
        out += [(f"{stem}.{f}", FIELD_UNITS[f]) for f in fields]
    out += list(COUNTER_METRICS)
    out.append(("optim.wasted_epoch_frac", "ratio"))
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += list(TRACE_METRICS)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.run_id = -1
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        """Wrapper recording a span per call. ``name`` is a string or a
        function of the call's positional args; ``after(tracer, args,
        kwargs, result)`` runs after a successful call, outside the span."""
        fixed = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fixed if fixed is not None else self.name_id(name(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def iteration(self, run_id: int):
        """Root span of one workload iteration; its spans share run_id."""
        self.run_id = run_id
        idx = self._open(self.name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self.run_id = -1

    def columns(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name", "parent", "run", "start", "end")}

    def save(self, path: str) -> None:
        cols = self.columns()
        np.savez(path, names=np.array(self.names), name=cols["name"], parent=cols["parent"],
                 run=cols["run"], start_ns=cols["start"], end_ns=cols["end"])

    def layer_metrics(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-iteration per-layer metrics (name -> (value, unit)).

        Self time is a span's duration minus the durations of its direct
        children; the self times of all spans of an iteration therefore sum
        to its root span, and "bench.self_s" is the harness's own share.
        """
        cols = self.columns()
        iters = max(len(traced_walls), 1)
        dur = (cols["end"] - cols["start"]).astype(float) * 1e-9
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(cols["name"], minlength=n_names)
        total = np.bincount(cols["name"], weights=dur, minlength=n_names)
        selfs = np.bincount(cols["name"], weights=self_t, minlength=n_names)

        def field(stem: str, what: str) -> float:
            ids = [self._ids[n] for n in SPAN_GROUPS.get(stem, (stem,)) if n in self._ids]
            c = float(sum(calls[i] for i in ids))
            s = float(sum(total[i] for i in ids))
            if what == "calls":
                return c / iters
            if what == "s":
                return s / iters
            if what == "self_s":
                return float(sum(selfs[i] for i in ids)) / iters
            return s / c * 1e6 if c else 0.0

        out = {}
        for stem, fields in SPAN_METRICS:
            for f in fields:
                out[f"{stem}.{f}"] = (field(stem, f), FIELD_UNITS[f])
        for key, unit in COUNTER_METRICS:
            out[key] = (self.counters.get(key, 0.0) / iters, unit)
        epochs = self.counters.get("optim.epochs", 0.0)
        wasted = self.counters.get("optim.wasted_epochs", 0.0)
        out["optim.wasted_epoch_frac"] = (wasted / epochs if epochs else 0.0, "ratio")
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(selfs[nid])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / iters, "s")
        traced = float(np.median(traced_walls)) if traced_walls else 0.0
        untraced = float(np.median(untraced_walls)) if untraced_walls else 0.0
        # iteration i ran untraced and then traced, so pair them up
        overhead = float(np.median(np.subtract(traced_walls, untraced_walls))) if traced_walls else 0.0
        partition = abs(sum(layer_self.values()) - sum(traced_walls)) / iters
        out["trace.iterations"] = (float(len(traced_walls)), "count")
        out["trace.spans"] = (dur.size / iters, "count")
        out["trace.wall_s"] = (traced, "s")
        out["trace.untraced_wall_s"] = (untraced, "s")
        out["trace.overhead_s"] = (overhead, "s")
        out["trace.overhead_frac"] = (overhead / untraced if untraced else 0.0, "ratio")
        out["trace.partition_error_s"] = (partition, "s")
        return out


# ---------------------------------------------------------------------------
# call hooks: counts recorded where the work happens
# ---------------------------------------------------------------------------

def _after_train(tracer, args, kwargs, result):
    train_ds, cfg = args[1], args[3]
    epochs = len(result.history)
    tracer.count("optim.epochs", epochs)
    tracer.count("optim.wasted_epochs", epochs - (result.best_epoch + 1))
    tracer.count("optim.steps", epochs * math.ceil(len(train_ds) / cfg.batch_size))


def _after_grid_search(tracer, args, kwargs, result):
    tracer.count("evaluate.cells", len(result.cells))
    tracer.count("evaluate.cells_failed", sum(c.error is not None for c in result.cells))


def _after_corrupt(tracer, args, kwargs, result):
    tracer.count("data.corrupt.rows", len(args[0]))


def _after_csv_read(tracer, args, kwargs, result):
    tracer.count("data.csv_read.bytes", os.path.getsize(args[0]))


def _after_csv_write(tracer, args, kwargs, result):
    tracer.count("data.csv_write.bytes", os.path.getsize(args[1]))


HOOKS = {
    "optim.train": _after_train,
    "evaluate.grid_search": _after_grid_search,
    "data.corrupt": _after_corrupt,
}


def model_cost(model, op: str, rows: int, dropout: bool) -> tuple[float, float]:
    """Flops and bytes of one model call, computed from the shapes.

    A matrix product of (m, k) by (k, n) counts 2mnk flops; every other
    array pass counts one flop per output element. Bytes count each float64
    operand read once and each result written once; cache misses and
    temporaries are ignored, so both numbers are labelled as computed.
    """
    b = rows
    if model.kind == "linear":
        d = model.input_dim
        return 2.0 * b * d + b, 8.0 * (b * d + d + 1 + b)
    if model.kind == "rbf":
        m, d = model.bases.shape
        if op == "backward_weighted":
            return 2.0 * b * m, 8.0 * (b * m + b + m)
        # row norms, base norms, cross product, 6 passes over (b, m), phi @ theta
        flops = 2.0 * b * d + 2.0 * m * d + 2.0 * b * m * d + 6.0 * b * m + 2.0 * b * m
        return flops, 8.0 * (b * d + m * d + b * m + m + b)
    flops = 0.0
    nbytes = 0.0
    shapes = list(zip(model.widths[:-1], model.widths[1:]))
    for li, (win, wout) in enumerate(shapes):
        hidden = li < len(shapes) - 1
        if op == "backward_weighted":
            flops += 2.0 * b * win * wout + b * wout  # weight grad, bias grad
            if li > 0:
                flops += 2.0 * b * wout * win + 2.0 * b * win  # delta @ W.T, masks
            nbytes += 8.0 * (b * win + b * wout + 2 * win * wout + wout)
        else:
            flops += 2.0 * b * win * wout + b * wout  # product, bias
            if hidden:
                flops += b * wout + (3.0 * b * wout if dropout else 0.0)  # relu, dropout
            nbytes += 8.0 * (b * win + win * wout + wout + b * wout)
    return flops, nbytes


def _model_hook(arch: str, op: str):
    flops_key = f"models.{arch}.flops_computed"
    bytes_key = f"models.{arch}.bytes_computed"

    def after(tracer, args, kwargs, result):
        model = args[0]
        if op == "backward_weighted":
            rows = len(args[2])
            dropout = False
        else:
            rows = np.atleast_2d(args[1]).shape[0]
            rng = args[2] if len(args) > 2 else kwargs.get("rng")
            dropout = (op == "forward_train" and rng is not None
                       and getattr(model, "dropout", 0.0) > 0.0)
        flops, nbytes = model_cost(model, op, rows, dropout)
        tracer.count(flops_key, flops)
        tracer.count(bytes_key, nbytes)

    return after


def _cli_span_name(args) -> str:
    argv = args[0] if args else []
    return f"cli.{argv[0]}" if argv else "cli.run_cli"


def instrument(tracer: Tracer):
    """Rebind u2reg's public functions and methods to traced wrappers.

    Returns a function that restores every original binding.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "u2reg" or name.startswith("u2reg.")}
    wrappers = {}
    for modname, mod in modules.items():
        if modname == "u2reg":
            continue
        layer = modname.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == modname
                    and not attr.startswith("_")):
                span = f"{layer}.{attr}"
                name = _cli_span_name if span == "cli.run_cli" else span
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(span))
    undo = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((mod, attr, obj))

    models = modules["u2reg.models"]
    for cls in (models.LinearModel, models.RbfLinearModel, models.MlpModel):
        for meth in MODEL_METHODS:
            if meth in cls.__dict__:
                orig = cls.__dict__[meth]
                hook = _model_hook(cls.kind, meth) if meth in MODEL_OPS else None
                setattr(cls, meth, tracer.wrap(f"models.{cls.kind}.{meth}", orig, hook))
                undo.append((cls, meth, orig))
    dataset = modules["u2reg.data"].Dataset
    read_orig = dataset.__dict__["from_csv"]
    write_orig = dataset.__dict__["to_csv"]
    dataset.from_csv = staticmethod(tracer.wrap("data.csv_read", read_orig.__func__, _after_csv_read))
    dataset.to_csv = tracer.wrap("data.csv_write", write_orig, _after_csv_write)
    undo += [(dataset, "from_csv", read_orig), (dataset, "to_csv", write_orig)]

    def uninstall():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return uninstall

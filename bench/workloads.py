"""The three benchmark workloads.

Each workload is a closed loop with one caller: the runner calls
``iteration(i)`` again only after the previous call returned. Every input is
derived from the run seed and the iteration index, so a given (seed, i)
always feeds the program the same data, and the program itself only ever
sees those generated inputs. Each iteration checks the program's outputs and
counts failed operations; ``finish`` runs the checks that need the whole
run's results.

grid_linear  run_benchmark, linear model, default 4x4 grid: about 2e4 tiny
             Adam steps per iteration, so Python per-step overhead in optim,
             rngutil, losses and gradients sets the time.
mc_study     the gradient-bias study on a strict-mode process: Monte-Carlo
             oracle and bias diagnostics (large memory-bound array passes in
             gradients/models/evaluate) plus small strict-corrupted datasets.
cli_models   in-process run_cli: generate, train linear/rbf/mlp, predict,
             diagnose. Few calls, each dominated by per-step model compute,
             plus CLI parsing, CSV and model-JSON I/O.

README.md next to this file gives the reasons and the layer each one stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np


def sub_seed(seed: int, *labels) -> int:
    """A 63-bit seed for the input named by ``labels`` under the run seed."""
    entropy = [int(seed) & (2**64 - 1)] + [zlib.crc32(repr(label).encode()) for label in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class IterationResult:
    ops: int
    failed: int
    work: float  # cells, rows or train steps done by this iteration
    work_time: float | None = None  # seconds the work rate is taken over; None = the wall
    digest: str = ""  # fingerprint of the outputs; a traced rerun must match it
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class GridLinear:
    """``run_benchmark`` on low-noise, n=1000, d=10, methods u2 and mse, K=50,
    the default 4x4 grid and a linear model, 2 folds (40 grid cells).

    Every cell trains for a fixed budget of epochs (patience equal to the
    budget, so no cell stops early). With the default 500/20 early stopping
    the work per dataset varies about 2x from seed to seed, more than a
    time-boxed run can average away; a fixed budget keeps the same per-step
    mechanism while making the work per iteration identical for every seed.
    """

    name = "grid_linear"
    rate_name = "cells_per_s"
    methods = ("u2", "mse")
    k = 50.0
    folds = 2

    def __init__(self, u2reg, seed: int, smoke: bool, workdir: str):
        self.u2 = u2reg
        self.seed = seed
        self.epochs = 3 if smoke else 40
        self.task = u2reg.BenchmarkTask.named("low-noise", n=200 if smoke else 1000, d=10)
        grid = u2reg.GridSpec()
        per_fold = len(grid.rhos) * len(grid.lams) + len(grid.lams)  # u2 cells + mse cells
        self.cells = self.folds * per_fold
        self.ops_per_iteration = self.folds * len(self.methods)

    def iteration(self, i: int, tracer=None) -> IterationResult:
        report = self.u2.run_benchmark(
            self.task, list(self.methods), [self.k], folds=self.folds,
            seeds=sub_seed(self.seed, "grid", i), max_epochs=self.epochs, patience=self.epochs,
        )
        problems = [f"report error: {err}" for err in report.errors]
        failed = 0
        summaries = {}
        for method in self.methods:
            try:
                s = report.summary(method, self.k)
            except KeyError:
                failed += self.folds
                problems.append(f"no summary for {method} at K={self.k:g}")
                continue
            bad = self.folds - len(s.fold_maes)
            bad += sum(not _finite(m, sg) for m, sg in zip(s.fold_maes, s.fold_signed))
            if bad == 0 and not _finite(s.mean_mae, s.se_mae, s.mean_signed, s.se_signed):
                bad = self.folds
            if bad:
                failed += bad
                problems.append(f"{method}: {bad} fold(s) missing or not finite")
            summaries[method] = s
        values = {}
        digest = ""
        if "u2" in summaries:
            values = {"u2_mae": summaries["u2"].mean_mae, "u2_signed": summaries["u2"].mean_signed}
            digest = _digest(*(summaries[m].fold_maes + summaries[m].fold_signed for m in summaries))
        return IterationResult(self.ops_per_iteration, failed, self.cells, digest=digest,
                               problems=problems, values=values)

    def finish(self) -> IterationResult:
        return IterationResult(0, 0, 0.0)


class McStudy:
    """The gradient-bias study on a strict-mode process (d=10, K=50,
    corruption scale 2, fit f_t = oracle weights with intercept +0.2).

    Each iteration recomputes the clean Monte-Carlo oracle (with standard
    errors) and the (eta, xi, delta) diagnostics on ``n_mc`` rows, then draws
    one strict-corrupted dataset per size and evaluates the corrected and the
    naive gradient on it. The oracle and diagnostics use the run seed, so
    every iteration must reproduce them bit for bit; the datasets are fresh
    per iteration and are pooled over the run for the z, slope and bias-floor
    checks.

    Strict corruption is kept small on purpose. Its rejection loop needs
    about n_c / E rounds for n_c corrupted rows, with E ~ Exp(1): a call
    exceeds T seconds with probability about (seconds per n_c rounds) / T,
    whatever the size. A run that spends S seconds there hits a call longer
    than the run time limit with probability near S / 180 s, so S stays
    well under a second.
    """

    name = "mc_study"
    rate_name = "mc_rows_per_s"
    d = 10
    intercept = 0.2

    def __init__(self, u2reg, seed: int, smoke: bool, workdir: str):
        self.u2 = u2reg
        self.seed = seed
        self.sizes = (30, 100, 300)
        self.per_size = 10 if smoke else 1
        self.n_mc = 20_000 if smoke else 500_000
        self.process = u2reg.SyntheticProcess.draw(
            self.d, sub_seed(seed, "mc-process"), beta=1.0, k_percent=50.0,
            mode="strict", corruption_scale=2.0,
        )
        self.f_t = u2reg.LinearModel(self.d, np.concatenate([self.process.weights, [self.intercept]]))
        self.spec = u2reg.LossSpec.parse("absolute", "absolute")
        # P(y >= f_t(x)) = P(eps >= intercept) for unit-variance clean noise
        self.pi_up = 1.0 - 0.5 * (1.0 + math.erf(self.intercept / math.sqrt(2.0)))
        self.ops_per_iteration = 1 + len(self.sizes) * self.per_size
        self.reference = None
        self.pool: dict[int, dict[int, list]] = {}

    def iteration(self, i: int, tracer=None) -> IterationResult:
        u2 = self.u2
        oracle, oracle_se = u2.population_gradient_oracle(
            self.f_t, self.process, self.spec, self.n_mc, sub_seed(self.seed, "mc-oracle"),
            with_se=True,
        )
        diag = u2.estimate_eta_xi_delta(self.process, self.f_t, self.spec, self.n_mc,
                                        sub_seed(self.seed, "mc-diag"))
        reference = (oracle, oracle_se, np.array([diag.eta, diag.xi, diag.delta, diag.bound]))
        failed = 0
        problems = []
        if not _finite(*reference):
            failed, problems = 1, ["oracle or diagnostics not finite"]
        elif self.reference is None:
            self.reference = reference
        elif not all(np.array_equal(a, b) for a, b in zip(reference, self.reference)):
            failed, problems = 1, ["oracle or diagnostics differ between iterations"]
        pooled = {size: [] for size in self.sizes}
        rows = 2 * self.n_mc
        for size in self.sizes:
            for r in range(self.per_size):
                try:
                    clean = u2.generate_uncorrupted(self.process, size,
                                                    sub_seed(self.seed, "mc-data", i, size, r))
                    ds = u2.corrupt(clean, self.process, sub_seed(self.seed, "mc-corrupt", i, size, r))
                    est = u2.u2_dataset_gradient_estimate(
                        self.f_t, ds.xs, ds.ys_prime, self.spec, self.pi_up).grad
                    naive = u2.naive_batch_gradient(
                        self.f_t, ds.xs, ds.ys_prime, self.spec.upper, lam=0.0, reg=None).grad
                except Exception as exc:  # one failed dataset; keep the run going
                    failed += 1
                    problems.append(f"dataset n={size} r={r}: {exc!r}")
                    continue
                rows += size
                # strict mode promises f*(x) > y' on every corrupted row
                leaks = int(np.sum(ds.corrupted & (ds.xs @ self.process.weights <= ds.ys_prime)))
                if leaks or not _finite(est, naive):
                    failed += 1
                    problems.append(f"dataset n={size} r={r}: {leaks} leaks, finite="
                                    f"{_finite(est, naive)}")
                    continue
                pooled[size].append((est, naive))
        self.pool[i] = pooled
        digest = _digest(*reference, *(g for size in self.sizes for pair in pooled[size] for g in pair))
        return IterationResult(self.ops_per_iteration, failed, float(rows), digest=digest,
                               problems=problems)

    def finish(self) -> IterationResult:
        """Pooled checks over every dataset of the run, one operation."""
        done = IterationResult(1, 0, 0.0)
        pooled = {size: [pair for i in sorted(self.pool) for pair in self.pool[i][size]]
                  for size in self.sizes}
        if self.reference is None or min(len(v) for v in pooled.values()) < 2:
            done.failed = 1
            done.problems.append("too few datasets or no oracle for the pooled checks")
            return done
        oracle, oracle_se, (eta, xi, delta, bound) = self.reference
        ests = {size: np.array([e for e, _ in pooled[size]]) for size in self.sizes}
        top = ests[self.sizes[-1]]
        se_est = top.std(axis=0, ddof=1) / math.sqrt(len(top))
        z = np.abs(top.mean(axis=0) - oracle) / np.sqrt(se_est**2 + oracle_se**2)
        rms = [float(np.sqrt(np.mean((ests[size] - oracle) ** 2))) for size in self.sizes]
        slope = float(np.polyfit(np.log10(self.sizes), np.log10(rms), 1)[0])
        naive = np.array([nv for _, nv in pooled[self.sizes[-1]]])
        se_naive = naive.std(axis=0, ddof=1) / math.sqrt(len(naive))
        bias = naive.mean(axis=0) - oracle
        j = int(np.argmax(np.abs(bias)))
        se_at = math.sqrt(se_naive[j] ** 2 + oracle_se[j] ** 2)
        done.values = {"max_z": float(z.max()), "rms_slope": slope,
                       "naive_bias": float(abs(bias[j])), "bias_floor": float(bound),
                       "datasets_per_size": float(len(top))}
        if not z.max() <= 4.0:
            done.problems.append(f"max |z| {z.max():.2f} > 4")
        if not -0.65 <= slope <= -0.35:
            done.problems.append(f"log-log RMS slope {slope:.3f} outside [-0.65, -0.35]")
        if not abs(bias[j]) >= bound - 4.0 * se_at:
            done.problems.append(f"naive bias {abs(bias[j]):.4f} below floor {bound:.4f} - 4 se")
        done.failed = int(bool(done.problems))
        return done


class CliModels:
    """In-process ``run_cli``: generate 1k rows, train u2 on a linear, an rbf
    (sigma 1, 800 bases) and an mlp (4x100, dropout 0.5) model, each with
    --history, predict with each model, then diagnose.

    Every train runs a fixed number of epochs (patience equal to the budget),
    so the work is the same for every seed.
    """

    name = "cli_models"
    rate_name = "train_steps_per_s"
    d = 10
    batch = 32
    models = (
        ("linear", []),
        ("rbf", ["--sigma", "1.0"]),
        ("mlp", ["--hidden", "100,100,100,100", "--dropout", "0.5"]),
    )

    def __init__(self, u2reg, seed: int, smoke: bool, workdir: str):
        self.cli = u2reg.cli
        self.seed = seed
        self.n = 200 if smoke else 1000
        self.epochs = 2 if smoke else 10
        self.n_mc = 2_000 if smoke else 100_000
        self.dir = os.path.join(workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        n_train = self.n - min(max(int(round(0.2 * self.n)), 1), self.n - 1)
        self.steps_per_epoch = math.ceil(n_train / self.batch)
        self.ops_per_iteration = 2 + 2 * len(self.models)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _call(self, argv: list[str], problems: list[str]) -> tuple[bool, float]:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = self.cli.run_cli(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return code == 0, wall

    def iteration(self, i: int, tracer=None) -> IterationResult:
        seed = str(sub_seed(self.seed, "cli", i) % 2**31)
        data = self._path("data.csv")
        problems: list[str] = []
        failed = 0
        artifacts = []

        ok, _ = self._call(["generate", "--n", str(self.n), "--d", str(self.d), "--k", "50",
                            "--seed", seed, "--out", data], problems)
        table = _read_csv(data) if ok else None
        if table is None or table.shape != (self.n, self.d + 3):
            failed += 1
            problems.append("generate: dataset missing, malformed or not finite")

        steps = 0
        train_time = 0.0
        json_bytes = 0
        for arch, extra in self.models:
            model, hist = self._path(f"{arch}.json"), self._path(f"{arch}-history.csv")
            ok, wall = self._call(
                ["train", "--data", data, "--method", "u2", "--model", arch, *extra,
                 "--max-epochs", str(self.epochs), "--patience", str(self.epochs),
                 "--seed", seed, "--out", model, "--history", hist], problems)
            train_time += wall
            history = _read_csv(hist) if ok else None
            theta = _model_theta(model, arch) if ok else None
            if history is None or theta is None or history.shape[0] != self.epochs:
                failed += 1
                problems.append(f"train {arch}: model or history missing, malformed or not finite")
                continue
            steps += history.shape[0] * self.steps_per_epoch
            json_bytes += os.path.getsize(model)
            artifacts.append(history)

        for arch, _ in self.models:
            preds = self._path(f"{arch}-preds.csv")
            ok, _ = self._call(["predict", "--data", data, "--model-file", self._path(f"{arch}.json"),
                                "--out", preds], problems)
            table = _read_csv(preds) if ok else None
            if table is None or table.shape != (self.n, 2):
                failed += 1
                problems.append(f"predict {arch}: predictions missing, malformed or not finite")
                continue
            artifacts.append(table)

        diag = self._path("diagnose.json")
        ok, _ = self._call(["diagnose", "--d", str(self.d), "--k", "50", "--n-mc", str(self.n_mc),
                            "--seed", seed, "--out", diag], problems)
        values = _diagnose_values(diag) if ok else None
        if values is None:
            failed += 1
            problems.append("diagnose: report missing, malformed or not finite")
        else:
            artifacts.append(values)

        if tracer is not None:
            tracer.count("cli.model_json_bytes", json_bytes)
        return IterationResult(self.ops_per_iteration, failed, float(steps), work_time=train_time,
                               digest=_digest(*artifacts), problems=problems)

    def finish(self) -> IterationResult:
        return IterationResult(0, 0, 0.0)


def _read_csv(path: str) -> np.ndarray | None:
    """A headed numeric CSV as a 2-D array, or None if it is not one."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    return table if _finite(table) else None


def _model_theta(path: str, kind: str) -> np.ndarray | None:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        theta = np.asarray(payload["theta"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return theta if payload.get("kind") == kind and theta.size and _finite(theta) else None


def _diagnose_values(path: str) -> np.ndarray | None:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        values = np.array([payload[k] for k in ("eta", "xi", "delta", "bias_lower_bound")], dtype=float)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return values if _finite(values) else None


WORKLOADS = {cls.name: cls for cls in (GridLinear, McStudy, CliModels)}

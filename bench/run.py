"""Benchmark for u2reg: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run.py --workload grid_linear --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One process drives u2reg's public API from the ``src/`` tree next to this
directory, with BLAS and OpenMP pinned to one thread before numpy loads.
Each workload (see workloads.py and README.md) runs as a closed loop for
``--seconds``; the inputs come from ``--seed``. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` every iteration runs untraced and then
again with every public u2reg function wrapped (tracing.py), and the run
reports the per-layer metrics instead. Details of each run, machine facts included, go to
``.bench_out/`` at the repository root, and the traced run dumps its spans
there. ``--smoke`` runs every workload at a tiny size, untraced and traced,
and prints every metric with its unit.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, so BLAS starts single-threaded
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, instrument, per_layer_catalog  # noqa: E402
from workloads import WORKLOADS, IterationResult  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 15
MIN_ITERATIONS = 3
HARD_LIMIT_S = 170.0  # the run must end within 180 s; this leaves time to report

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)
# Printed with the end-to-end metrics; the driver gets only END_TO_END.
# The three rates are work_per_s under each workload's own unit.
REPORTED = (
    ("failed_frac", "ratio"),
    ("cells_per_s", "cells/s"),
    ("mc_rows_per_s", "rows/s"),
    ("train_steps_per_s", "steps/s"),
    ("u2_clean_mae", "label_sd"),
    ("u2_signed_error_abs", "label_sd"),
)


class RunDeadline(BaseException):
    """Raised by the run's watchdog. A BaseException, so the program's own
    ``except Exception`` isolation cannot swallow it."""


def _on_alarm(signum, frame):
    raise RunDeadline()


def import_program():
    """Fresh import of u2reg (and its CLI) from this checkout's src/."""
    for name in [n for n in sys.modules if n == "u2reg" or n.startswith("u2reg.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    u2reg = importlib.import_module("u2reg")
    importlib.import_module("u2reg.cli")
    if not os.path.abspath(u2reg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"u2reg was imported from {u2reg.__file__}, not from {SRC}")
    return u2reg


def setup(name: str, seed: int, smoke: bool, reps: int):
    """Import the program and build the workload's inputs, ``reps`` times;
    the last build is the one measured. Returns it and the median time."""
    times = []
    for _ in range(reps):
        gc.collect()  # garbage from the previous import must not land in this one
        t0 = time.perf_counter()
        workload = WORKLOADS[name](import_program(), seed, smoke, OUT)
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def timed_iteration(workload, i: int, tracer=None) -> tuple[float, IterationResult]:
    """Wall time and result of iteration ``i``, traced when a tracer is given."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = workload.iteration(i)
        else:
            with tracer.iteration(i):
                res = workload.iteration(i, tracer)
    except Exception:  # a crash fails the iteration's operations; the run goes on
        ops = workload.ops_per_iteration
        res = IterationResult(ops, ops, 0.0, problems=[traceback.format_exc(limit=5)])
    return time.perf_counter() - t0, res


def closed_loop(step, budget_s: float, count: int | None = None) -> bool:
    """Call ``step(0)``, ``step(1)``, ... back to back, each after the last returned.

    Stops after ``count`` steps when given; otherwise before the next step
    would overrun ``budget_s``, after at least MIN_ITERATIONS. Returns
    whether the run deadline cut the loop short.
    """
    walls: list[float] = []
    t_start = time.perf_counter()
    while count is None or len(walls) < count:
        t0 = time.perf_counter()
        try:
            step(len(walls))
        except RunDeadline:
            return True
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if count is None and len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > budget_s:
            break
    return False


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # the config layout differs across numpy versions
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns everything the report and the JSON need."""
    workload, setup_s = setup(name, seed, smoke, 2 if smoke else SETUP_REPS)
    problems: list[str] = []
    results: dict = {}
    traced: dict[int, IterationResult] = {}
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = Tracer() if trace else None

    def step(i: int) -> None:
        # A traced run reruns every iteration with tracing on right after
        # its untraced run, so both see the same inputs and machine state.
        wall, results[i] = timed_iteration(workload, i)
        untraced_walls.append(wall)
        if tracer is not None:
            uninstall = instrument(tracer)
            try:
                wall, traced[i] = timed_iteration(workload, i, tracer)
            finally:
                uninstall()
            traced_walls.append(wall)

    remaining = HARD_LIMIT_S - (time.perf_counter() - PROCESS_START)
    signal.setitimer(signal.ITIMER_REAL, max(remaining, 1.0))
    try:
        hit = closed_loop(step, seconds, count=2 if smoke else None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if hit:
        ops = workload.ops_per_iteration
        results["deadline"] = IterationResult(ops, ops, 0.0, problems=["stopped by the run deadline"])
    metrics = {}
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"{name}-seed{seed}-spans.npz"))
        # The traced rerun must reproduce the untraced outputs exactly, and
        # its self times must add up to the traced wall time.
        check = IterationResult(1, 0, 0.0)
        for i, res in traced.items():
            if res.digest != results[i].digest:
                check.problems.append(f"iteration {i}: traced outputs differ from untraced ones")
            results[f"traced-{i}"] = res
        n = len(traced_walls)
        metrics = tracer.layer_metrics(traced_walls, untraced_walls[:n])
        partition = metrics["trace.partition_error_s"][0]
        if not partition <= 0.01 * max(metrics["trace.wall_s"][0], 1e-3):
            check.problems.append(f"self times miss the traced wall by {partition:.6f} s")
        check.failed = int(bool(check.problems))
        results["trace-check"] = check
    results["finish"] = workload.finish()

    attempted = sum(r.ops for r in results.values())
    failed = sum(r.failed for r in results.values())
    for key, res in results.items():
        problems += [f"[{key}] {p}" for p in res.problems]
    rates = [results[i].work / (results[i].work_time or w) for i, w in enumerate(untraced_walls)]
    wall = statistics.median(untraced_walls) if untraced_walls else 0.0
    rate = statistics.median(rates) if rates else 0.0
    reported = {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": rate,
        "failed_frac": failed / attempted if attempted else 1.0,
        workload.rate_name: rate,
    }
    u2_values = [r.values for i, r in results.items() if isinstance(i, int) and "u2_mae" in r.values]
    if u2_values:
        reported["u2_clean_mae"] = float(np.mean([v["u2_mae"] for v in u2_values]))
        reported["u2_signed_error_abs"] = abs(float(np.mean([v["u2_signed"] for v in u2_values])))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": len(untraced_walls),
        "walls_s": untraced_walls,
        "correct": failed == 0 and not hit and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "deadline_hit": hit,
        "problems": problems,
        "end_to_end": reported,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
        "checks": results["finish"].values,
        "machine": machine_facts(seed),
    }


def print_report(result: dict, out) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"{result['iterations']} untraced iterations  attempted {result['attempted']}  "
          f"failed {result['failed']}", file=out)
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}", file=out)
    for name, unit in END_TO_END + REPORTED:
        value = result["end_to_end"].get(name)
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<40} {text:>14} {unit}", file=out)
    if result["trace"]:
        for name, unit in per_layer_catalog():
            print(f"{name:<40} {result['per_layer'][name]:>14.6g} {unit}", file=out)
    for key, value in sorted(result["checks"].items()):
        print(f"# check {key} = {value:.6g}", file=out)
    for problem in result["problems"]:
        print(f"# problem {problem}", file=out)


def final_json(result: dict) -> dict:
    if result["trace"]:
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u in per_layer_catalog()}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u} for n, u in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(out) -> dict:
    """Every workload at a tiny size, two iterations untraced and one traced."""
    summary = {"smoke": True, "correct": True, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (False, True):
            result = run(name, 0, 0.0, trace, smoke=True)
            print_report(result, out)
            summary["correct"] &= result["correct"]
            entry["correct" if not trace else "traced_correct"] = result["correct"]
            key = "per_layer" if trace else "end_to_end"
            units = dict(per_layer_catalog()) if trace else dict(END_TO_END + REPORTED)
            entry[key] = {n: {"value": v, "unit": units[n]} for n, v in result[key].items()}
        summary["workloads"][name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0 and not args.smoke:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import u2reg from {SRC}: {exc}", file=sys.stderr)
        return 2

    stdout = sys.stdout
    signal.signal(signal.SIGALRM, _on_alarm)
    # the program may print; keep stdout for the report
    with contextlib.redirect_stdout(sys.stderr):
        if args.smoke:
            result = smoke(stdout)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.smoke:
        print(json.dumps(result), file=stdout)
        return 0
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_report(result, stdout)
    print(json.dumps(final_json(result)), file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

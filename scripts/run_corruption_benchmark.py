"""Run the synthetic corruption benchmark and emit report artifacts.

Trains every requested method across a grid of corruption rates on one of
the named synthetic tasks, then writes the aggregate report as JSON, an
aligned text table, and per-point error CSVs (one per corruption rate)
into --outdir. Errors are reported in units of the task's label scale.

Typical runs:

    python scripts/run_corruption_benchmark.py --quick
    python scripts/run_corruption_benchmark.py --task low-noise \
        --methods u2,lu,mse,mae,huber --k 25,50,75 --folds 5 --seed 7
"""

import argparse
import os

from u2reg import BenchmarkTask, run_benchmark


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--task", default="low-noise", help="low-noise | high-noise")
    p.add_argument("--methods", default="u2,mse", help="comma list: u2,lu,mse,mae,huber")
    p.add_argument("--k", default="25,50,75", help="corruption percentages, comma list")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--outdir", default="results")
    p.add_argument("--quick", action="store_true",
                   help="small n / 2 folds / single K, for a fast smoke run")
    return p.parse_args()


def main():
    args = parse_args()
    if args.quick:
        args.n, args.folds, args.k = 300, 2, "50"

    task = BenchmarkTask.named(args.task, n=args.n, d=args.d)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    k_list = [float(k) for k in args.k.split(",")]

    report = run_benchmark(task, methods, k_list, folds=args.folds, seeds=args.seed)

    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.join(args.outdir, f"benchmark-{args.task}-seed{args.seed}")
    with open(stem + ".json", "w") as fh:
        fh.write(report.to_json())
    with open(stem + ".txt", "w") as fh:
        fh.write(report.to_text())
    for k in k_list:
        with open(f"{stem}-points-k{k:g}.csv", "w") as fh:
            fh.write(report.to_points_csv(k))

    print(report.to_text())
    print(f"artifacts under {args.outdir}/ (stem {os.path.basename(stem)})")
    for err in report.errors:
        print("item failed:", err)


if __name__ == "__main__":
    main()

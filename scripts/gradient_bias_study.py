"""Monte-Carlo study: corrected-estimator accuracy and the naive bias floor.

Fixes a linear fit f_t slightly above the true surface of a strict-mode
corruption process, so the clean upper-set probability pi_up is known in
closed form. Then:

  1. compares the mean of the corrected (normalized) gradient estimator over
     many corrupted datasets against a large clean-sample oracle, coordinate
     by coordinate in combined standard-error units; the estimate is the
     training step's block_gradient at rho_hat = n_up / (N pi_up), over rho_hat N;
  2. measures the RMS decay of the estimator error as the dataset grows,
     reporting the log-log slope (should sit near -1/2);
  3. measures the naive label-trusting gradient's bias on the largest datasets
     and checks it against the analytic lower bound built from the
     estimated (eta, xi, delta) diagnostics.

    python scripts/gradient_bias_study.py            # about 0.6 s on 2 cores
    python scripts/gradient_bias_study.py --full     # acceptance-scale, about 2.2 s
"""

import argparse
import math

import numpy as np

from u2reg import LinearModel, LossSpec, SyntheticProcess, gradient_study
from u2reg.rngutil import derive_seed


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--datasets", type=int, default=50)
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--oracle-mc", type=int, default=200_000)
    p.add_argument("--full", action="store_true",
                   help="200 datasets x 10k rows, 1e6-draw oracle")
    return p.parse_args()


def main():
    args = parse_args()
    if args.full:
        args.datasets, args.rows, args.oracle_mc = 200, 10_000, 1_000_000

    process = SyntheticProcess.draw(
        args.d, derive_seed(args.seed, "study-process"), beta=1.0,
        k_percent=50.0, mode="strict", corruption_scale=2.0,
    )
    f_t = LinearModel(args.d, np.concatenate([process.weights, [0.2]]))
    spec = LossSpec.parse("absolute", "absolute")
    pi_up = 1.0 - 0.5 * (1.0 + math.erf(0.2 / math.sqrt(2.0)))
    print(f"d={args.d} datasets={args.datasets} rows={args.rows} "
          f"oracle_mc={args.oracle_mc}  pi_up={pi_up:.4f}")

    sizes = tuple(min(n, args.rows) for n in (max(args.rows // 100, 50),
                                              max(args.rows // 10, 500), args.rows))
    study = gradient_study(
        process, f_t, spec, pi_up, sizes, args.datasets, args.oracle_mc,
        lambda kind, *rest: derive_seed(args.seed, "study-" + kind, *rest),
    )
    for n_rows, rms in zip(study.sizes, study.rms):
        print(f"  n={n_rows:>6}  estimator RMS error {rms:.5f}")
    print(f"corrected estimator at n={study.sizes[-1]}: max |z| = {study.z.max():.2f} "
          f"over {study.z.size} coords (4 is the property-test gate)")
    print(f"log-log RMS slope vs n: {study.slope:.3f} (expect near -0.5)")

    i = int(np.argmax(np.abs(study.bias)))
    diag = study.diag
    print(f"naive gradient: max-coordinate bias {abs(study.bias[i]):.4f} at "
          f"coord {i}")
    print(f"analytic floor from (eta={diag.eta:.3f}, xi={diag.xi:.2f}, "
          f"delta={diag.delta:.3f}): {diag.bound:.4f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Truncation sweep for the Fock-truncated Gaussian family.

For a grid of Fock cutoffs N, reports the truncation leakage 1 - Tr P rho P,
the maximum relative entry error of the numerical RLD Fisher matrix against
the closed form with its gate, and the weighted reverse-estimation bound:

    python3 scripts/gaussian_convergence.py --sigma2 1 --cutoffs 30,40,60,80
"""

import argparse
import sys
import time

from qig.errors import TruncationError
from qig.harness import GaussianSpec, gaussian_check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--hbar", type=float, default=1.0)
    ap.add_argument("--cutoffs", type=str, default="30,40,60,80")
    args = ap.parse_args(argv)

    print(f"{'N':>5s} {'leakage':>11s} {'max rel err':>12s} {'tolerance':>10s} {'reverse bound':>14s} {'time':>7s}")
    for n in (int(v) for v in args.cutoffs.split(",")):
        t0 = time.time()
        try:
            d = gaussian_check(GaussianSpec(sigma2=args.sigma2, hbar=args.hbar, truncation=n)).details
        except TruncationError as exc:
            print(f"{n:>5d}  {exc}")
            continue
        print(f"{n:>5d} {d['leakage']:>11.2e} {d['max_relative_entry_error']:>12.3e} "
              f"{d['tolerances']['entrywise_relative']:>10.2e} {d['reverse_bound']:>14.8f} {time.time() - t0:>6.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Truncation sweep for the Fock-truncated Gaussian family.

For a grid of Fock cutoffs N, reports truncation leakage, the maximum
relative entry error of the numerical RLD Fisher matrix against the
closed form, and the weighted reverse-estimation bound:

    python3 scripts/gaussian_convergence.py --sigma2 1 --cutoffs 30,40,60,80
"""

import argparse
import sys
import time

import numpy as np

from qig.errors import TruncationError
from qig.fisher import rld_fisher
from qig.harness import GaussianSpec, _gaussian_rho, gaussian_closed_form, gaussian_family
from qig.reverse import multiparam_bounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--hbar", type=float, default=1.0)
    ap.add_argument("--cutoffs", type=str, default="30,40,60,80")
    ap.add_argument("--quad-nodes", type=int, default=61)
    ap.add_argument("--radius-cut", type=float, default=6.0)
    args = ap.parse_args(argv)

    jref = gaussian_closed_form(GaussianSpec(sigma2=args.sigma2, hbar=args.hbar, truncation=20))
    print(f"{'N':>5s} {'leakage':>11s} {'max rel err':>12s} {'reverse bound':>14s} {'time':>7s}")
    for n in (int(v) for v in args.cutoffs.split(",")):
        spec = GaussianSpec(
            sigma2=args.sigma2, hbar=args.hbar, truncation=n,
            quad_nodes=args.quad_nodes, radius_cut=args.radius_cut,
        )
        t0 = time.time()
        try:
            point = gaussian_family(spec)
        except TruncationError as exc:
            print(f"{n:>5d}  {exc}")
            continue
        leak = abs(1.0 - _gaussian_rho(spec, spec.theta)[1])  # raw trace, before normalization
        jr = rld_fisher(point)
        err = float(np.max(np.abs(jr.as_complex() - jref) / np.abs(jref)))
        bound = multiparam_bounds(jr, np.eye(2)).reverse
        print(f"{n:>5d} {leak:>11.2e} {err:>12.3e} {bound:>14.8f} {time.time() - t0:>6.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

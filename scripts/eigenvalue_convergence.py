"""Mesh refinement study for the degenerate radial eigensolver.

Sweeps the interior node count over successive doublings and reports the
relative error of the leading eigenvalues against the closed form
lam_k = ((2-alpha)/2)^2 j_{nu,k}^2 with nu = (1-alpha)/(2-alpha), where
j_{nu,k} are Bessel zeros. The graded mesh exponent defaults to
2/(2-alpha), which keeps the scheme near second order despite the
vanishing diffusion coefficient at r = 0; pass --grid-power 1 to watch a
uniform mesh lose that.

Example:
    python3 scripts/eigenvalue_convergence.py --alphas 0.1 0.5 0.9 \
        --base-n 500 --doublings 4 --k 5
"""

import argparse
import csv
import math
import sys
import time

import numpy as np

from degenctrl import (assemble_radial_operator, bessel_oracle,
                       build_radial_grid, radial_spectrum)


def run_sweep(alpha, base_n, doublings, k, grid_power):
    oracle = bessel_oracle(alpha, k)
    rows = []
    prev = None
    for j in range(doublings + 1):
        n_r = base_n * 2 ** j
        power = grid_power if grid_power else 2.0 / (2.0 - alpha)
        t0 = time.perf_counter()
        grid = build_radial_grid(n_r, power)
        op = assemble_radial_operator(alpha, grid)
        spec = radial_spectrum(op, k)
        dt = time.perf_counter() - t0
        rel = np.abs(spec.values - oracle) / oracle
        worst = float(np.max(rel))
        order = math.log2(prev / worst) if prev else float("nan")
        rows.append(dict(alpha=alpha, n_r=n_r, worst_rel=worst,
                         observed_order=order, seconds=dt))
        prev = worst
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.1, 0.5, 0.9])
    ap.add_argument("--base-n", type=int, default=500)
    ap.add_argument("--doublings", type=int, default=4)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--grid-power", type=float, default=None,
                    help="mesh grading exponent; default 2/(2-alpha)")
    ap.add_argument("--csv", default=None, help="optional output table")
    args = ap.parse_args(argv)

    all_rows = []
    for alpha in args.alphas:
        rows = run_sweep(alpha, args.base_n, args.doublings, args.k,
                         args.grid_power)
        all_rows.extend(rows)
        print(f"alpha = {alpha}")
        print(f"  {'n_r':>8}  {'worst rel err':>14}  {'order':>7}  {'s':>6}")
        for r in rows:
            order = "" if math.isnan(r["observed_order"]) \
                else f"{r['observed_order']:.2f}"
            print(f"  {r['n_r']:>8}  {r['worst_rel']:>14.3e}  {order:>7}"
                  f"  {r['seconds']:>6.2f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(all_rows[0]))
            w.writeheader()
            w.writerows(all_rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end observability study over a measurable space-time region.

Builds a union of boxes inside the torus x radial-band x time cylinder,
thresholds it into a set of good time slices, walks a geometric sequence
toward a density point of that set, and reports the worst ratio of
terminal energy to observed signal over a seeded family of random data.
Exit code 3 signals that the density-point search did not converge.
"""

import argparse
import sys

from degenctrl import (BoxUnionSet, ModelConfig, NonConvergenceError,
                       build_model, datum_family,
                       measurable_observability_ratio)
from degenctrl.cli import _DEFAULT_BOXES


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--n-theta-max", type=int, default=2)
    ap.add_argument("--n-r", type=int, default=48)
    ap.add_argument("--n-time", type=int, default=32)
    ap.add_argument("--band", type=float, nargs=2, default=[0.3, 0.6])
    ap.add_argument("--family-size", type=int, default=20)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--c-calib", type=float, default=1.0)
    ap.add_argument("--h-calib", type=float, default=0.5)
    ap.add_argument("--m-max", type=int, default=32)
    args = ap.parse_args(argv)

    cfg = ModelConfig(alpha=args.alpha, T_horizon=args.horizon,
                      n_theta_max=args.n_theta_max, n_r=args.n_r,
                      n_time=args.n_time)
    model = build_model(cfg)
    region = BoxUnionSet(boxes=_DEFAULT_BOXES, band_a=args.band[0],
                         band_b=args.band[1], horizon=args.horizon)
    family = datum_family(model, args.family_size, args.seed)

    try:
        rep = measurable_observability_ratio(
            family, region, c_calib=args.c_calib,
            h_calib=args.h_calib, m_max=args.m_max)
    except NonConvergenceError as exc:
        print(f"density-point search failed: {exc}", file=sys.stderr)
        return 3

    print(f"region measure      {rep.region_measure:.6e}")
    print(f"slice threshold     {rep.slice_threshold:.6e}")
    print(f"good-slice measure  {rep.e_measure:.6e}"
          f"  ({len(rep.e_intervals)} intervals)")
    print(f"density point       {rep.ell:.6f}   contraction q {rep.q:.6f}")
    if rep.sequence:
        seq = "  ".join(f"{v:.6f}" for v in rep.sequence[:6])
        more = " ..." if len(rep.sequence) > 6 else ""
        print(f"approach sequence   {seq}{more}  [{rep.sequence_note}]")
    print()
    print(f"{'datum':>5}  {'terminal norm':>14}  {'observed L1':>12}"
          f"  {'ratio':>10}")
    for rec in rep.per_datum:
        tag = f"{rec.rho:>10.3e}" if not rec.excluded else "  excluded"
        print(f"{rec.index:>5}  {rec.terminal_norm:>14.4e}"
              f"  {rec.observed_l1:>12.4e}  {tag}")
    print(f"\nworst ratio {rep.rho_max:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

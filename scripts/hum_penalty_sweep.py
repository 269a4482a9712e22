"""Penalty sweep for the regularized minimal-norm control solver."""

import argparse
import sys

import numpy as np

from degenctrl import (Cylinder, ModeCoeffs, ModelConfig, build_model,
                       hum_control, radial_spectrum)


def smooth_datum(model, spec):
    # first radial shape on cos n=1, third on sin n=2 when present
    data = np.zeros((model.n_modes, model.n_radial))
    for pos, mode in enumerate(model.modes):
        if mode.parity == "cos" and mode.n == 1:
            data[pos] = spec.vectors[:, 0]
        if mode.parity == "sin" and mode.n == 2:
            data[pos] = spec.vectors[:, 2]
    return ModeCoeffs(model, data)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="terminal residual and control cost versus penalty")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--n-theta-max", type=int, default=4)
    ap.add_argument("--n-r", type=int, default=60)
    ap.add_argument("--n-time", type=int, default=48)
    ap.add_argument("--band", type=float, nargs=2, default=[0.3, 0.6])
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[1e-2, 1e-4, 1e-6, 1e-8])
    ap.add_argument("--cg-tol", type=float, default=1e-9)
    ap.add_argument("--max-iter", type=int, default=500)
    args = ap.parse_args(argv)

    cfg = ModelConfig(alpha=args.alpha, T_horizon=args.horizon,
                      n_theta_max=args.n_theta_max, n_r=args.n_r,
                      n_time=args.n_time)
    model = build_model(cfg)
    spec = radial_spectrum(model.op, 3)
    phi0 = smooth_datum(model, spec)
    region = Cylinder(args.band[0], args.band[1])

    print(f"{'eps':>10}  {'iters':>5}  {'|phi(T)|/|phi0|':>16}"
          f"  {'identity gap':>13}  {'cost':>10}  {'ok':>3}")
    for eps in args.epsilons:
        res = hum_control(phi0, region, eps, cg_tol=args.cg_tol,
                          max_iter=args.max_iter)
        ratio = res.terminal_residual / res.phi0_norm
        print(f"{eps:>10.1e}  {res.iterations:>5}  {ratio:>16.3e}"
              f"  {res.identity_gap:>13.3e}  {res.cost:>10.4e}"
              f"  {'y' if res.converged else 'n'}")
    # the residual tracks eps * |y|: tightening the penalty buys a
    # smaller terminal state at the price of a more expensive control
    return 0


if __name__ == "__main__":
    sys.exit(main())

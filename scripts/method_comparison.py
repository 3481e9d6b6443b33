#!/usr/bin/env python
"""Seeded comparison of the five recovery methods on synthetic fields.

Runs the desk-scale ensemble (20x20 grid, 3-5 bumps, 15 stations) over a
seed range, prints per-method mean relative errors and head-to-head win
rates, and optionally renders a bar chart.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from csmooth.admm import AdmmConfig
from csmooth.benchmark import EnsembleSpec, compare_methods, mean_mre, win_fraction
from csmooth.methods import CSS, CSS_FEATURES, PE, PE_SSR1, PE_SSR2
from csmooth.svgplot import render_bars_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=30, help="number of seeds (0..k-1)")
    ap.add_argument("--stations", type=int, default=15)
    ap.add_argument("--lambda", dest="lam", type=float, default=AdmmConfig.lam)
    ap.add_argument("--rho", type=float, default=AdmmConfig.rho)
    ap.add_argument("--covariates", action="store_true",
                    help="add a covariate effect and include css-features")
    ap.add_argument("--svg", help="write a mean-MRE bar chart here")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")

    methods = [PE, PE_SSR1, PE_SSR2, CSS]
    beta = None
    if args.covariates:
        methods.append(CSS_FEATURES)
        beta = (0.5, 2.0, 1.5)
    spec = EnsembleSpec(n_stations=args.stations, lam=args.lam, rho=args.rho, beta=beta)
    outcomes = compare_methods(spec, tuple(range(args.seeds)), tuple(methods))

    means = {m: mean_mre(outcomes, m) for m in methods}
    print(f"{'method':<14} mean MRE")
    for m in methods:
        print(f"{m:<14} {means[m]:.4f}")
    print(f"css beats pe on {win_fraction(outcomes, CSS, PE):.0%} of seeds")
    if args.covariates:
        print(f"css-features beats css on "
              f"{win_fraction(outcomes, CSS_FEATURES, CSS):.0%} of seeds")
    if args.svg:
        render_bars_svg(methods, [means[m] for m in methods], args.svg)
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

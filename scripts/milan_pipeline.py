#!/usr/bin/env python
"""End-to-end recovery pipeline on city-scale activity data.

Reads per-square telecom activity (and optionally per-square geographic
features), restricts the grid to the squares the feature file covers,
samples stations proportional to activity, and runs every recovery method
at each requested station count and smoothing level. Emits estimate CSVs,
a report CSV, CDF CSVs, and SVG charts per configuration.

Without --activity, a seeded synthetic stand-in of the same shape is
generated so the pipeline stays runnable end to end.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from csmooth.admm import AdmmConfig
from csmooth.benchmark import run_pipeline
from csmooth.dataio import (
    load_cdr_csv,
    load_features_csv,
    restrict_field,
    write_cdf_csv,
    write_field_csv,
    write_report_csv,
)
from csmooth.domain import SpatialField, make_domain
from csmooth.svgplot import render_bars_svg, render_cdf_svg, render_field_svg
from csmooth.synth import SynthSpec, generate_field


def synthetic_standin(n_rows: int, n_cols: int, seed: int) -> SpatialField:
    spec = SynthSpec(n_rows=n_rows, n_cols=n_cols, bumps=12,
                     amp_range=(5.0, 60.0), width_range=(3.0, 12.0), seed=seed)
    field, _ = generate_field(spec)
    return field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--activity", help="activity CSV "
                    "(square_id,timestamp,sms_in,sms_out,call_in,call_out)")
    ap.add_argument("--features", help="per-square feature CSV")
    ap.add_argument("--rows", type=int, default=100)
    ap.add_argument("--cols", type=int, default=100)
    ap.add_argument("--time-range", type=str, default=None,
                    help="inclusive 'start,end' timestamp filter")
    ap.add_argument("--stations", type=int, nargs="+", default=[200, 100])
    ap.add_argument("--lambdas", type=float, nargs="+", default=[1.0, 10.0])
    ap.add_argument("--rho", type=float, default=AdmmConfig.rho)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.activity:
        time_range = None
        if args.time_range:
            lo, hi = args.time_range.split(",")
            time_range = (float(lo), float(hi))
        truth = load_cdr_csv(args.activity, time_range=time_range,
                             n_rows=args.rows, n_cols=args.cols)
    else:
        truth = synthetic_standin(args.rows, args.cols, args.seed)

    covariates = None
    if args.features:
        covariates = load_features_csv(args.features, truth.domain)
        truth = restrict_field(truth, covariates.domain)
        print(f"restricted to {covariates.domain.n} squares with features")
    render_field_svg(truth, out / "truth.svg", title="observed activity")
    write_field_csv(truth, out / "truth.csv")

    for n_st in args.stations:
        for lam in args.lambdas:
            tag = f"m{n_st}_lam{lam:g}"
            res = run_pipeline(truth, covariates=covariates, n_stations=n_st,
                               lam=lam, rho=args.rho, seed=args.seed)
            reports = [res.reports[m] for m in res.estimates]
            write_report_csv(reports, out / f"report_{tag}.csv")
            series = []
            for m, est in res.estimates.items():
                write_field_csv(est, out / f"estimate_{m}_{tag}.csv")
                rep = res.reports[m]
                write_cdf_csv(rep, out / f"cdf_{m}_{tag}.csv")
                series.append((m, rep.cdf_errors, rep.cdf_values))
            render_cdf_svg(series, out / f"cdf_{tag}.svg",
                           title=f"error cdf ({n_st} stations, lam={lam:g})",
                           x_max=2.0)
            render_bars_svg(list(res.estimates), [res.reports[m].mre for m in res.estimates],
                            out / f"mre_{tag}.svg",
                            title=f"mean relative error ({n_st} stations, lam={lam:g})")
            mres = ", ".join(f"{m}={res.reports[m].mre:.3f}" for m in res.estimates)
            print(f"[{tag}] {mres}")
            css = res.results.get("css")
            if css is not None:
                print(f"[{tag}] css iterations={css.iterations} "
                      f"converged={css.converged} "
                      f"violation={css.constraint_violation:.2e}")
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

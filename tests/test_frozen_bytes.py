"""Frozen output bytes of every CSV writer and SVG renderer.

The digests were computed with writers that formatted one row, and
renderers that formatted one cell or point, at a time. Any change in float
text, csv quoting, line endings, coordinates or color rounding changes one.
"""
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from csmooth.dataio import (
    write_aggregates_csv,
    write_cdf_csv,
    write_covariates_csv,
    write_diagnostics_csv,
    write_field_csv,
    write_report_csv,
    write_stations_csv,
)
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.metrics import EvalReport
from csmooth.partition import AggregateObservations, StationSet
from csmooth.svgplot import render_bars_svg, render_cdf_svg, render_field_svg

MASK = np.ones((3, 4), dtype=bool)
MASK[0, 0] = MASK[2, 3] = False
DOMAIN = make_domain(3, 4, mask=MASK)

EXTREMES = np.array([0.0, 5e-324, 1e300, -2.5, -0.0, 1.0, 0.1, 123.456, -1e-300, 7.0])
# over the maximum 8: 1, .125, .375, .625 and .875 each put a color channel at
# exactly .5 before rounding; -.5 clamps to the ramp's low end
RAMP = np.array([8.0, 1.0, 3.0, 5.0, 7.0, -4.0, 0.0, 2.0, 4.0, 6.0])

# cut by x_max=0.6 after the fourth level
CUT_ERRORS = np.array([0.05, 0.1, 0.3, 0.6, 0.75, 2.0])
CUT_CDF = np.arange(1, 7) / 6
INSIDE_ERRORS = np.array([0.0, 1 / 3, 0.4, 0.55])
INSIDE_CDF = np.array([0.25, 0.5, 0.75, 1.0])
# a label csv.writer must quote: a quote, a comma and a line break
QUOTED = 'say "hi",\nthen'


def report(method, seed, errors, cdf):
    return EvalReport(method, seed, errors, float(errors.mean()), errors, cdf, 2)


OUTPUTS = {
    "field.csv": lambda p: write_field_csv(SpatialField(DOMAIN, EXTREMES), p),
    "covariates.csv": lambda p: write_covariates_csv(
        CovariateMatrix(DOMAIN, np.column_stack([EXTREMES, RAMP]), ("a", "b")), p),
    "stations.csv": lambda p: write_stations_csv(StationSet(DOMAIN, np.array([9, 0, 4])), p),
    "aggregates.csv": lambda p: write_aggregates_csv(
        AggregateObservations(np.array([0.0, 5e-324, 1e300, 0.1])), p),
    "report.csv": lambda p: write_report_csv([
        report("pe,ssr", 3, CUT_ERRORS, CUT_CDF),
        report("css", None, INSIDE_ERRORS, INSIDE_CDF),
    ], p),
    "cdf.csv": lambda p: write_cdf_csv(report("pe,ssr", 3, CUT_ERRORS, CUT_CDF), p),
    "cdf_quoted.csv": lambda p: write_cdf_csv(report(QUOTED, None, INSIDE_ERRORS, INSIDE_CDF), p),
    "report_quoted.csv": lambda p: write_report_csv([
        report(QUOTED, None, CUT_ERRORS, CUT_CDF),
        report("a\r\nb", 7, INSIDE_ERRORS, INSIDE_CDF),
    ], p),
    "diagnostics.csv": lambda p: write_diagnostics_csv(SimpleNamespace(
        primal_residuals=[1e300, 0.5, 5e-324],
        dual_residuals=[2.0, 1 / 3, 0.0],
        objectives=[-1.5, 0.1, 1e-300],
    ), p),
    "field.svg": lambda p: render_field_svg(SpatialField(DOMAIN, EXTREMES), p, title="extremes"),
    "ramp.svg": lambda p: render_field_svg(SpatialField(DOMAIN, RAMP), p),
    "cdf.svg": lambda p: render_cdf_svg(
        [("pe,ssr", CUT_ERRORS, CUT_CDF), ("css", INSIDE_ERRORS, INSIDE_CDF)], p, x_max=0.6),
    "cdf_auto.svg": lambda p: render_cdf_svg(
        [("pe,ssr", CUT_ERRORS, CUT_CDF), ("empty", np.array([]), np.array([]))], p),
    "bars.svg": lambda p: render_bars_svg(["pe,ssr", "css"], [0.25, 1e-7], p, title="mre"),
}

DIGESTS = {
    "aggregates.csv": "2ca4f97134f2d6e82e25a8c2c37eebd5248756e976ae84f53bd1d96af21c7e09",
    "bars.svg": "e634e694d3d44ace2169d8bff3af9705edf7aeefc9a5b8eed33d77f7e597a25c",
    "cdf.csv": "561f54c0a622776cae82e53852ed3eb7c480215971a8b3c69572243a753af54d",
    "cdf.svg": "dc519500188300e5c1164460677c8d6747c26b99c65d69e53c43bc5be4b7783c",
    "cdf_quoted.csv": "a9b0038147f50b2dc027c99a41320fa59d476878833bede184e22b830984cb7f",
    "cdf_auto.svg": "86cb5d80b61db4d4356ec7636c6ab5c95663350570fe2ec7d052db7556cea0fc",
    "covariates.csv": "f532f59efd23c5ce230151c9d7e3b8b7b2a6ec38bf3b4df6ecfb3ab630b36f44",
    "diagnostics.csv": "c38557b7f83403a56f93bbe7aa0fb96b2496e9ed16c6073bd63c4f4043c2471b",
    "field.csv": "02c820233ccfb351f03136c44beadc8d6ee9050e30cef4436330934e3f77a2ca",
    "field.svg": "0a0b7dddd873f88afb838d2787c3d394498d03249f250421f11787f9d4d988e2",
    "ramp.svg": "f2553f789cc04b159f5358b3d2c598809a49692857d0c3ccbdf62d6449668112",
    "report.csv": "523c9c939223a34e99b18ab9a79da196625f3aa98130091aa786b1093f9ce1ab",
    "report_quoted.csv": "661e9955bedbbc2237a12494fa7a1aa959a0016c8998b625d02f0cb7a018b10d",
    "stations.csv": "0a33bcdcb346ea2ea69bc269a201dd260d6a14ffc34d0113576fc0aa3ce8c411",
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_bytes_are_frozen(tmp_path, name):
    path = tmp_path / name
    OUTPUTS[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]

"""The example scripts run end to end at toy size."""
import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csmooth.dataio import FEATURE_NAMES, read_field_csv, read_report_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_method_comparison(tmp_path):
    proc = run_script("method_comparison.py", "--seeds", 2, "--covariates",
                      "--svg", tmp_path / "mre.svg", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "css-features beats css" in proc.stdout
    assert (tmp_path / "mre.svg").read_text().startswith("<svg")


def test_method_comparison_needs_a_seed(tmp_path):
    proc = run_script("method_comparison.py", "--seeds", 0, cwd=tmp_path)
    assert proc.returncode == 2
    assert "--seeds must be at least 1" in proc.stderr


def test_milan_pipeline(tmp_path):
    out = tmp_path / "out"
    proc = run_script("milan_pipeline.py", "--rows", 30, "--cols", 30,
                      "--stations", 40, "--lambdas", 1, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    tag = "m40_lam1"
    expected = {"truth.svg", "truth.csv", f"report_{tag}.csv", f"cdf_{tag}.svg",
                f"mre_{tag}.svg"}
    for m in ("pe", "pe-ssr1", "pe-ssr2", "css"):
        expected |= {f"estimate_{m}_{tag}.csv", f"cdf_{m}_{tag}.csv"}
    assert {p.name for p in out.iterdir()} == expected


def test_milan_pipeline_on_activity_and_features(tmp_path):
    # a 12 x 12 grid of square ids: activity on every square, features on
    # the central 8 x 8, so the pipeline restricts the grid to those 64
    rng = np.random.default_rng(3)
    activity, features = tmp_path / "activity.csv", tmp_path / "features.csv"
    with open(activity, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["square_id", "timestamp", "sms_in", "sms_out", "call_in", "call_out"])
        for square in range(1, 145):
            w.writerow([square, 0, *map(repr, rng.uniform(1.0, 5.0, 4).tolist())])
    central = [r * 12 + c + 1 for r in range(2, 10) for c in range(2, 10)]
    with open(features, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["square_id", *FEATURE_NAMES])
        for square in central:
            w.writerow([square, *map(repr, rng.uniform(0.0, 10.0, len(FEATURE_NAMES)).tolist())])
    out = tmp_path / "out"
    proc = run_script("milan_pipeline.py", "--activity", activity, "--features", features,
                      "--rows", 12, "--cols", 12, "--stations", 8, "--lambdas", 1,
                      "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "restricted to 64 squares with features" in proc.stdout
    tag = "m8_lam1"
    estimate = read_field_csv(out / f"estimate_css-features_{tag}.csv")
    truth = read_field_csv(out / "truth.csv")
    assert estimate.domain.same_grid(truth.domain) and truth.domain.n == 64
    assert (estimate.values >= 0).all()
    # the estimate keeps the observed total: its patches cover every square
    assert estimate.total() == pytest.approx(truth.total(), rel=1e-9)
    report = {row[0]: row for row in read_report_csv(out / f"report_{tag}.csv")}
    assert set(report) == {"pe", "pe-ssr1", "pe-ssr2", "css", "css-features"}
    assert np.isfinite(report["css-features"][2])
    assert (out / f"cdf_css-features_{tag}.csv").is_file()

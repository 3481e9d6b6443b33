"""The example scripts run end to end at toy size."""
import subprocess
import sys
from pathlib import Path

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

"""The package's public surface."""
import json
import os
import subprocess
import sys
from pathlib import Path

import csmooth

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    missing = [name for name in csmooth.__all__ if not hasattr(csmooth, name)]
    assert not missing
    assert len(set(csmooth.__all__)) == len(csmooth.__all__)


# Runs in a fresh interpreter, since this one has scipy loaded already:
# imports csmooth, runs the commands that never factor a smoothing system,
# then a recovery that does, and prints the scipy modules loaded after each.
START_UP = """
import json, sys
from pathlib import Path

loaded = {}
def step(name):
    loaded[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import csmooth
step("import csmooth")
from csmooth import cli
step("import csmooth.cli")
out = Path(sys.argv[1])
truth, ev = out / "synth" / "truth.csv", out / "ev"
commands = {
    "synth": ["synth", "--rows", 8, "--cols", 8, "--seed", 5, "--out", out / "synth"],
    "stations": ["stations", "--field", truth, "--stations", 5, "--seed", 1, "--out", out / "st"],
    "aggregate": ["aggregate", "--field", truth, "--stations-csv", out / "st" / "stations.csv",
                  "--out", out / "agg"],
    "evaluate": ["evaluate", "--truth", truth, "--estimate", f"t={truth}", "--out", ev],
    "plot": ["plot", "--field", truth, "--cdf", ev / "cdf_t.csv", "--report", ev / "report.csv",
             "--out", out / "plot"],
    "recover pe": ["recover", "--truth", truth, "--stations", 5, "--method", "pe",
                   "--out", out / "rec-pe"],
    "recover css": ["recover", "--truth", truth, "--stations", 5, "--method", "css",
                    "--out", out / "rec"],
}
codes = {}
for name, argv in commands.items():
    codes[name] = cli.main([str(a) for a in argv])
    step(name)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_loads_only_when_a_command_needs_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", START_UP, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    commands = ["synth", "stations", "aggregate", "evaluate", "plot", "recover pe"]
    assert got["codes"] == dict.fromkeys([*commands, "recover css"], 0)
    loaded = got["loaded"]
    assert "scipy.linalg" in loaded.pop("recover css")
    assert loaded == dict.fromkeys(["import csmooth", "import csmooth.cli", *commands], [])

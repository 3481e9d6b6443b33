"""Self-test of the benchmark at toy size; exits nonzero on the first failure.

    python3 perfbench/selftest.py

Runs every workload's code path untraced and traced, and checks that:
  * every metric of BENCHMARK.json is emitted by name and unit, and a
    per-layer metric with no value is reported absent with its reason;
  * every per-layer metric is exercised by at least one workload;
  * tracing rebinds names and restores them afterwards, and a missing
    name is reported absent instead of raising;
  * a deliberately corrupted css estimate lands in the failed count;
  * without the csmooth sources the benchmark exits nonzero, printing no result.
"""
import contextlib
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import run

TOY = {
    "desk_ensemble": dict(size=8, stations=5, seeds=2, max_iter=40),
    "city_recover": dict(size=16, stations=12),
}


def toy_run(workload: str, trace: int) -> dict:
    from workloads import WORKLOADS

    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    return run.run(args, lambda: WORKLOADS[workload](**TOY[workload]))


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_outputs() -> None:
    declared = run.declared_metrics()
    exercised = set()
    for workload in TOY:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = toy_run(workload, trace)
            res, units = out["result"], declared[kind]
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} trace={trace}: every output check passes")
            expect(emitted == units, f"{workload} trace={trace}: every {kind} metric by name and unit")
            expect(set(out["absent"]) <= set(units)
                   and all(res["metrics"][k]["value"] == 0.0 for k in out["absent"]),
                   f"{workload} trace={trace}: metrics without a value are reported absent")
            if trace:
                exercised |= set(units) - set(out["absent"])
            else:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{workload}: end-to-end metrics are nonzero")
    missing = set(declared["per_layer"]) - exercised
    expect(not missing, f"every per-layer metric is exercised by some workload (missing {sorted(missing)})")


def check_tracer() -> None:
    import csmooth.admm
    import csmooth.methods
    from layers import instrument
    from tracer import Tracer

    original = csmooth.admm.css_recover
    tr = Tracer()
    instrument(tr)
    rebound = csmooth.methods.css_recover is not original and csmooth.admm.css_recover is not original
    tr.wrap("csmooth.admm", "no_such_function", "admm.none")
    tr.restore()
    expect(rebound, "css_recover is rebound in methods as well as admm")
    expect(csmooth.methods.css_recover is original and csmooth.admm.css_recover is original,
           "restore puts the original functions back")
    expect("csmooth.admm.no_such_function" in tr.absent, "a missing name is reported absent")


def check_corruption() -> None:
    import csmooth.benchmark
    from csmooth.domain import SpatialField

    honest = csmooth.benchmark.run_method_full

    def corrupted(spec, *args, **kwargs):
        est, res = honest(spec, *args, **kwargs)
        if spec.method != "css":
            return est, res
        bad = SpatialField(est.domain, est.values + 1.0)
        return bad, dataclasses.replace(res, estimate=bad)

    csmooth.benchmark.run_method_full = corrupted
    try:
        res = toy_run("desk_ensemble", 0)["result"]
    finally:
        csmooth.benchmark.run_method_full = honest
    css_runs = res["attempted"] // 5
    ok_frac = res["metrics"]["ok_frac"]["value"]
    expect(res["failed"] == css_runs and not res["correct"]
           and abs(ok_frac - (1 - css_runs / res["attempted"])) < 1e-12,
           f"a corrupted css estimate counts as failed ({res['failed']} of {res['attempted']})")


def check_bare_directory() -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "city_recover", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    printed = '"correct"' in proc.stdout
    expect(proc.returncode != 0 and not printed,
           f"without sources it exits {proc.returncode} and prints no result")


def main() -> int:
    run.import_csmooth()
    check_outputs()
    check_tracer()
    check_corruption()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of csmooth: one workload, one process, one compute thread.

    python3 perfbench/run.py --workload desk_ensemble --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; csmooth is imported from its
``src`` directory. The seed generates the inputs, a fixed tuple of units
(see workloads.py). Set-up (importing csmooth in a fresh interpreter, then
generating the inputs) is repeated nine times and its median reported.
One untimed run of the first unit warms up; then reps over every unit
run while another still fits in ``--seconds`` (at least one). With ``--trace 0`` the last
line reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
untraced and traced reps alternate and it reports the per-layer metrics.
Lines before it give the environment, the raw and host-corrected unit
times, any output check that failed, and the per-layer metrics that are
absent.

``wall_s`` is the time of one rep corrected for the host's speed. A shared
host drifts by tens of percent from one minute to the next, so raw times
of the same code spread past any useful bound from run to run. After
every unit the run therefore times a fixed reference kernel
(calibrate.py) until the kernel has taken KERNEL_SHARE of the time the
units took so far, and takes the run's median kernel time as the host's
speed during it. The raw rep time is the sum over units of each unit's
median time; ``wall_s`` is that times REF_KERNEL_S over the run's median
kernel time, so that it reads in seconds. ``setup_s`` is corrected the
same way. The raw figures are printed beside them as ``raw_wall_s`` and
``raw_setup_s``. A change that leaves work running between its calls
(threads, processes) would slow the kernel and flatter both; compare the
raw figures too.
"""
import os

# pin every thread pool to one thread before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 9
# a typical median of calibrate.kernel_seconds() over a run on the 2-vCPU
# x86-64 VM where the bounds were set (numpy 2.4, scipy 1.17); it only
# scales wall_s into seconds
REF_KERNEL_S = 0.085
KERNEL_SHARE = 0.1
IMPORT_PROBE = "import time; t = time.perf_counter(); import csmooth; print(time.perf_counter() - t)"
WORKLOAD_NAMES = ("desk_ensemble", "city_recover")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_csmooth():
    """Import csmooth from this checkout's sources, never from elsewhere."""
    if not (SRC / "csmooth" / "__init__.py").is_file():
        raise SystemExit(f"error: no csmooth sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import csmooth

    if Path(csmooth.__file__).resolve().parent != SRC / "csmooth":
        raise SystemExit(f"error: csmooth imported from {csmooth.__file__}, not {SRC}")
    return csmooth


def import_seconds() -> float:
    """Time `import csmooth` in a fresh interpreter (the child's own clock, not its start-up)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def run(args, make_workload=None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import_csmooth()
    from checks import Tally
    from layers import ROOT_SPAN, instrument, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = (make_workload or WORKLOADS[args.workload])()
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
        input_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            work_units = workload.make_inputs(args.seed, work)
            input_s.append(time.perf_counter() - t)
        setup = {"import_s": import_s, "inputs_s": statistics.median(input_s)}

        tally = Tally()
        # warm-up on the first unit: lazy imports, first allocations, file
        # caches; every unit runs the same code, so one is enough
        workload.run(work_units[0], tally)
        # set-up plus the warm-up; later reps only add allocator slack,
        # which would make the peak depend on how many reps fit
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from calibrate import kernel_seconds   # its arrays stay out of the peak

        raw = [[] for _ in work_units]   # seconds, per unit
        kernels = []
        unit_total = 0.0
        tracer = Tracer()
        reps = 0
        start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            for i, unit in enumerate(work_units):
                t = time.perf_counter()
                workload.run(unit, tally)
                elapsed = time.perf_counter() - t
                raw[i].append(elapsed)
                unit_total += elapsed
                while not kernels or sum(kernels) < KERNEL_SHARE * unit_total:
                    kernels.append(kernel_seconds())
            if args.trace:
                instrument(tracer)
                try:
                    with tracer.span(ROOT_SPAN):
                        for unit in work_units:
                            workload.run(unit, tally)
                finally:
                    tracer.restore()
            reps += 1
            step = time.perf_counter() - rep_start
            if time.perf_counter() - start + step > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still be using it
            work.parent.rmdir()

    raw_wall_s = sum(statistics.median(times) for times in raw)
    kernel_s = statistics.median(kernels)
    if args.trace:
        values = layer_metrics(tracer, reps, tally.mre, raw_wall_s, setup)
        absent = dict(tracer.absent)
        absent.update({k: "not exercised by this workload" for k, v in values.items() if v is None})
    else:
        values = {
            "setup_s": (setup["import_s"] + setup["inputs_s"]) * REF_KERNEL_S / kernel_s,
            "wall_s": raw_wall_s * REF_KERNEL_S / kernel_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        absent = {}
    unknown = set(values) ^ set(units)
    if unknown:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(unknown)}")
    return {
        "env": environment(args),
        "timing": {
            "reps": reps,
            "raw_wall_s": raw_wall_s,
            "raw_setup_s": setup["import_s"] + setup["inputs_s"],
            "kernel_s": kernel_s,
            "kernels": [round(k, 4) for k in kernels],
            "unit_s": [[round(t, 4) for t in times] for times in raw],
        },
        "absent": absent,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v or 0.0), "unit": units[k]} for k, v in values.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run(args)
    print(json.dumps({"env": out["env"], "timing": out["timing"]}))
    if out["absent"]:
        print(json.dumps({"absent": out["absent"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

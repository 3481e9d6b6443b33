"""The workloads: how each builds its inputs from a seed and runs them.

A workload's inputs are a fixed tuple of units, the same for every commit
measured with the same seed; a rep runs every unit once. Each unit runs
its methods, checks every estimate and scores it. Units are a few seconds
long so that a run can time each of them several times.

Synthetic truths carry a positive background (a constant covariate column
with beta 1.0 on city_recover; the 0.5 intercept of the covariate ensemble
on desk_ensemble). Without it, cells near zero dominate
the mean relative error: on the full 100x100 stand-in (seed 0, 200
stations, default 1e-9 floor) pe and pe-ssr2 both score MRE 421; with it
they score 0.42 and 0.38, and css 0.26.
"""
from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# calls that belong to a measured layer go through module attributes
# (benchmark.run_seed, fem.assemble, ...) so that tracing sees them
from csmooth import benchmark, cli, fem
from csmooth.dataio import read_cdf_csv, read_field_csv, read_report_csv, restrict_field, write_field_csv
from csmooth.domain import make_domain
from csmooth.methods import ALL_METHODS
from csmooth.synth import SynthSpec, generate_field

import checks
from checks import RUN_ERRORS, Tally

VOLUME_EXACT = ("css", "css-features")   # the methods that enforce every station volume


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, Path], tuple]   # (seed, work directory) -> the units
    run: Callable[[object, Tally], None]         # runs one unit


# ----------------------------------------------------------- desk_ensemble

@dataclass(frozen=True)
class DeskSeed:
    spec: benchmark.EnsembleSpec
    seed: int
    methods: tuple[str, ...]
    shared: object   # the FemSystem every seed of the ensemble uses


def desk_ensemble(size: int = 20, stations: int = 15, seeds: int = 16, max_iter: int = 100) -> Workload:
    """scripts/method_comparison.py --covariates: every method on many small seeded problems.

    A unit is one seed of the ensemble through benchmark.run_seed. The
    FemSystem is built with the inputs and shared by every seed, as
    compare_methods(jobs=1) builds it once per ensemble. Seeds differ in
    cost by ~20%, so a rep runs 16 of them: with 8, the sum moved by ~15%
    from one workload seed to the next.

    The sweep cap is 100 instead of the default 500. At the default cap
    only 1 of 126 css and css-features runs (63 seeds) converged within 100
    sweeps, so nearly every run does the same number of sweeps and a run's
    time reflects the code rather than which seeds it drew: at the default
    cap, blocks of 21 seeds took from 29 s to 41 s, a spread beyond any
    regression bound the benchmark could set. Fewer sweeps still show: a
    css run that converges sooner stops sooner.
    """

    def make_inputs(seed: int, work: Path) -> tuple[DeskSeed, ...]:
        spec = benchmark.EnsembleSpec(
            n_rows=size, n_cols=size, n_stations=stations, max_iter=max_iter, beta=(0.5, 2.0, 1.5)
        )
        shared = fem.assemble(fem.triangulate(make_domain(spec.n_rows, spec.n_cols)))
        return tuple(DeskSeed(spec, seed * 1000 + i, ALL_METHODS, shared) for i in range(seeds))

    def run(unit: DeskSeed, tally: Tally) -> None:
        tally.attempted += len(unit.methods)
        try:
            outcome = benchmark.run_seed(unit.spec, unit.seed, unit.methods, unit.shared)
        except RUN_ERRORS as exc:
            tally.fail(len(unit.methods), f"seed {unit.seed}: {exc!r}")
            return
        check_desk(unit.spec, outcome, unit.methods, tally)

    return Workload(make_inputs, run)


def check_desk(spec, outcome, methods, tally: Tally) -> None:
    truth = outcome.truth
    seen = None
    for m in methods:
        rep = outcome.reports.get(m)
        problems = (
            ["no error report"] if rep is None
            else checks.score(tally, m, rep.mre, rep.errors.size, rep.excluded, truth.domain.n)
        )
        res = outcome.results.get(m)
        if m in VOLUME_EXACT:
            if res is None:
                problems.append("no recovery result")
            else:
                est = res.estimate
                if seen is None:
                    seen = checks.observed(truth, spec.n_stations, outcome.seed + spec.station_seed_offset)
                problems += checks.estimate_problems(est.values, est.domain, truth.domain)
                problems += checks.volume_problems(est.values, *seen)
        if problems:
            tally.fail(1, f"seed {outcome.seed} {m}: {'; '.join(problems)}")


# ------------------------------------------------------------ city_recover

def standin(n: int, seed: int):
    """scripts/milan_pipeline.py's synthetic stand-in, plus the positive background."""
    spec = SynthSpec(n_rows=n, n_cols=n, bumps=12, amp_range=(5.0, 60.0),
                     width_range=(3.0, 12.0), beta=(1.0,), seed=seed)
    return generate_field(spec)[0]


@dataclass(frozen=True)
class CityInputs:
    truth_csv: Path
    work: Path
    stations: int
    seed: int
    max_iter: int


CITY_METHODS = ("pe", "pe-ssr1", "pe-ssr2", "css")


def city_recover(size: int = 100, stations: int = 200, max_iter: int = 100) -> Workload:
    """The user's command path: recover, evaluate and plot through csmooth.cli on a masked disc.

    The one unit is the whole command path. css runs with ``--max-iter``
    100 instead of the default 500, where it reaches the cap on this field
    and a unit takes ~15 s; at 100 a run can time the unit several times,
    and a sweep that gets cheaper or a loop that stops sooner still shows.
    """

    def make_inputs(seed: int, work: Path) -> tuple[CityInputs]:
        truth = standin(size, seed)
        c = np.arange(size) + 0.5 - size / 2
        disc = (c[:, None] ** 2 + c[None, :] ** 2 <= (size / 2) ** 2).ravel()
        truth = restrict_field(truth, make_domain(size, size, disc))
        path = work / "truth.csv"
        write_field_csv(truth, path)
        return (CityInputs(path, work, stations, seed, max_iter),)

    def run(inputs: CityInputs, tally: Tally) -> None:
        rec, ev, plot = (inputs.work / d for d in ("recover", "evaluate", "plot"))
        for d in (rec, ev, plot):
            shutil.rmtree(d, ignore_errors=True)
        truth = str(inputs.truth_csv)
        recover = ["recover", "--truth", truth, "--stations", str(inputs.stations),
                   "--seed", str(inputs.seed), "--max-iter", str(inputs.max_iter), "--out", str(rec)]
        for m in CITY_METHODS:
            recover += ["--method", m]
        tally.attempted += len(CITY_METHODS) + 2   # the method runs, evaluate, plot
        if _cli(recover) != 0:
            tally.fail(len(CITY_METHODS) + 2, "recover exited nonzero")
            return
        evaluate = ["evaluate", "--truth", truth, "--out", str(ev)]
        for m in CITY_METHODS:
            evaluate += ["--estimate", f"{m}={rec / f'estimate_{m}.csv'}"]
        if _cli(evaluate) != 0:
            tally.fail(2, "evaluate exited nonzero, so nothing could be scored or plotted")
            return
        plot_args = ["plot", "--field", str(rec / "estimate_css.csv"),
                     "--report", str(ev / "report.csv"), "--out", str(plot)]
        for m in CITY_METHODS:
            plot_args += ["--cdf", str(ev / f"cdf_{m}.csv")]
        if _cli(plot_args) != 0 or not all(
            (plot / f).is_file() and (plot / f).stat().st_size > 0
            for f in ("field.svg", "cdf.svg", "report.svg")
        ):
            tally.fail(1, "plot failed or wrote an empty file")
        check_city(inputs, rec, ev, tally)

    return Workload(make_inputs, run)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_city(inputs: CityInputs, rec: Path, ev: Path, tally: Tally) -> None:
    truth = read_field_csv(inputs.truth_csv)
    try:
        mres = {row[0]: (row[2], row[3]) for row in read_report_csv(ev / "report.csv")}
    except RUN_ERRORS as exc:
        tally.fail(len(CITY_METHODS), f"report.csv: {exc!r}")
        return
    for m in CITY_METHODS:
        try:
            est = read_field_csv(rec / f"estimate_{m}.csv")
            n_errors = read_cdf_csv(ev / f"cdf_{m}.csv")[1].size
        except RUN_ERRORS as exc:
            tally.fail(1, f"{m}: {exc!r}")
            continue
        problems = checks.estimate_problems(est.values, est.domain, truth.domain)
        if m in mres:
            problems += checks.score(tally, m, mres[m][0], n_errors, mres[m][1], truth.domain.n)
        else:
            problems.append("missing from report.csv")
        if m in VOLUME_EXACT and not problems:
            problems += checks.volume_problems(
                est.values, *checks.observed(truth, inputs.stations, inputs.seed)
            )
        if problems:
            tally.fail(1, f"{m}: {'; '.join(problems)}")


WORKLOADS = {
    "desk_ensemble": desk_ensemble,
    "city_recover": city_recover,
}

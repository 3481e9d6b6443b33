"""Seeded method-comparison ensembles and an end-to-end pipeline driver.

Both drivers run one seeded pass: sample stations from a truth field,
aggregate it over their patches, recover it with each method and score
every estimate. An ensemble seed owns its own synthetic truth, station
draw, and aggregation, so ensemble statistics are reproducible run to run;
its finite-element system is assembled once per grid shape and shared
across seeds.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import ClassVar

import numpy as np

from .admm import AdmmConfig, RecoveryResult
from .domain import CovariateMatrix, SpatialField, make_domain
from .fem import FemSystem, assemble, triangulate
from .methods import ALL_METHODS, CSS_FEATURES, MethodSpec, run_method_full
from .metrics import EvalReport, relative_errors
from .partition import aggregate, build_partition, sample_stations
from .synth import SynthSpec, generate_field


@dataclass(frozen=True)
class EnsembleSpec:
    """Shape of one comparison ensemble; the seed list is supplied separately."""

    n_rows: int = 20
    n_cols: int = 20
    n_stations: int = 15
    lam: float = AdmmConfig.lam
    rho: float = AdmmConfig.rho
    max_iter: int = AdmmConfig.max_iter
    bump_choices: ClassVar[tuple[int, ...]] = (3, 4, 5)
    amp_range: tuple[float, float] = (1.0, 3.0)
    width_range: tuple[float, float] = (5.5, 9.0)
    noise: float = 0.0
    beta: tuple[float, ...] | None = None
    covariate_blocks: int = 4
    # station draws use their own seed stream so placement does not replay
    # the field generator's sequence
    station_seed_offset: ClassVar[int] = 1009

    def synth_spec(self, seed: int) -> SynthSpec:
        return SynthSpec(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            bumps=self.bump_choices[seed % len(self.bump_choices)],
            amp_range=self.amp_range,
            width_range=self.width_range,
            beta=self.beta,
            covariate_blocks=self.covariate_blocks,
            noise=self.noise,
            seed=seed,
        )


@dataclass(frozen=True)
class SeedOutcome:
    """Estimates, scores and solver details of one seeded pass, by method."""

    seed: int
    truth: SpatialField
    estimates: dict[str, SpatialField] = dc_field(default_factory=dict)
    reports: dict[str, EvalReport] = dc_field(default_factory=dict)
    results: dict[str, RecoveryResult | None] = dc_field(default_factory=dict)

    def mre(self, method: str) -> float:
        return self.reports[method].mre


def _recover_and_score(
    truth: SpatialField,
    covariates: CovariateMatrix | None,
    n_stations: int,
    station_seed: int,
    seed: int,
    admm: AdmmConfig,
    methods: tuple[str, ...],
    fem: FemSystem | None,
) -> SeedOutcome:
    """Observe ``truth`` at sampled stations, recover it with each method, score.

    ``fem`` is reused when it is on the truth's grid. Each stage is called
    through its module-level name, so a wrapper rebound over one (as a
    tracer does) sees every call.
    """
    stations = sample_stations(truth, n_stations, seed=station_seed)
    part = build_partition(truth.domain, stations)
    volumes = aggregate(part, truth)
    if fem is None or not fem.tri.domain.same_grid(truth.domain):
        fem = assemble(triangulate(truth.domain))
    outcome = SeedOutcome(seed=seed, truth=truth)
    for method in methods:
        est, res = run_method_full(
            MethodSpec(method, admm), truth.domain, part, volumes,
            covariates=covariates, fem=fem,
        )
        outcome.estimates[method] = est
        outcome.results[method] = res
        outcome.reports[method] = relative_errors(est, truth, method=method, seed=seed)
    return outcome


def run_seed(
    spec: EnsembleSpec,
    seed: int,
    methods: tuple[str, ...],
    fem: FemSystem | None = None,
) -> SeedOutcome:
    """Generate truth, aggregate it at sampled stations, and run each method."""
    truth, cov = generate_field(spec.synth_spec(seed))
    admm = AdmmConfig(lam=spec.lam, rho=spec.rho, max_iter=spec.max_iter)
    return _recover_and_score(
        truth, cov, spec.n_stations, seed + spec.station_seed_offset, seed,
        admm, methods, fem,
    )


def compare_methods(
    spec: EnsembleSpec,
    seeds: tuple[int, ...],
    methods: tuple[str, ...],
) -> list[SeedOutcome]:
    """Run every method on every seed, in seed order."""
    if not seeds:
        raise ValueError("at least one seed is required")
    if CSS_FEATURES in methods and spec.beta is None:
        raise ValueError("css-features in the method list needs spec.beta set")
    fem = assemble(triangulate(make_domain(spec.n_rows, spec.n_cols)))
    return [run_seed(spec, s, methods, fem) for s in seeds]


def mean_mre(outcomes: list[SeedOutcome], method: str) -> float:
    return float(np.mean([o.mre(method) for o in outcomes]))


def win_fraction(outcomes: list[SeedOutcome], method: str, other: str) -> float:
    """Fraction of seeds where ``method`` has strictly lower MRE than ``other``."""
    wins = sum(1 for o in outcomes if o.mre(method) < o.mre(other))
    return wins / len(outcomes)


def run_pipeline(
    truth: SpatialField,
    covariates: CovariateMatrix | None = None,
    n_stations: int = 200,
    lam: float = AdmmConfig.lam,
    rho: float = AdmmConfig.rho,
    seed: int = 0,
    methods: tuple[str, ...] | None = None,
) -> SeedOutcome:
    """Aggregate ``truth`` at sampled stations, recover with each method, score.

    The observed field itself plays the role of ground truth: it is reduced
    to station totals and each method tries to reconstruct it. ``seed``
    draws the stations and labels the reports.
    """
    if methods is None:
        methods = ALL_METHODS if covariates is not None else ALL_METHODS[:-1]
    return _recover_and_score(
        truth, covariates, n_stations, seed, seed,
        AdmmConfig(lam=lam, rho=rho), methods, None,
    )

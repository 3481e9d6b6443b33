"""Seeded method-comparison ensembles and an end-to-end pipeline driver.

Every seed owns its own synthetic truth, station draw, and aggregation, so
ensemble statistics are reproducible run to run. The finite-element system
is assembled once per grid shape and shared across seeds.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .admm import AdmmConfig, RecoveryResult
from .domain import CovariateMatrix, SpatialField, make_domain
from .fem import FemSystem, assemble, triangulate
from .methods import ALL_METHODS, CSS_FEATURES, MethodSpec, run_method_full
from .metrics import EvalReport, relative_errors
from .partition import (
    AggregateObservations,
    StationSet,
    aggregate,
    build_partition,
    sample_stations,
)
from .synth import SynthSpec, generate_field


@dataclass(frozen=True)
class EnsembleSpec:
    """Shape of one comparison ensemble; the seed list is supplied separately."""

    n_rows: int = 20
    n_cols: int = 20
    n_stations: int = 15
    lam: float = 1.0
    rho: float = 1.0
    max_iter: int = 500
    bump_choices: tuple[int, ...] = (3, 4, 5)
    amp_range: tuple[float, float] = (1.0, 3.0)
    width_range: tuple[float, float] = (5.5, 9.0)
    noise: float = 0.0
    beta: tuple[float, ...] | None = None
    covariate_blocks: int = 4
    # station draws use their own seed stream so placement does not replay
    # the field generator's sequence
    station_seed_offset: int = 1009

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
    """All per-seed artifacts a comparison needs to rank methods."""

    seed: int
    truth: SpatialField
    reports: dict[str, EvalReport] = dc_field(default_factory=dict)
    results: dict[str, RecoveryResult | None] = dc_field(default_factory=dict)

    def mre(self, method: str) -> float:
        return self.reports[method].mre


def run_seed(
    spec: EnsembleSpec,
    seed: int,
    methods: tuple[str, ...],
    fem: FemSystem | None = None,
) -> SeedOutcome:
    """Generate truth, aggregate it at sampled stations, and run each method."""
    truth, cov = generate_field(spec.synth_spec(seed))
    if fem is not None and not fem.tri.domain.same_grid(truth.domain):
        fem = None
    if fem is None:
        fem = assemble(triangulate(truth.domain))
    stations = sample_stations(truth, spec.n_stations, seed=seed + spec.station_seed_offset)
    part = build_partition(truth.domain, stations)
    volumes = aggregate(part, truth)
    admm = AdmmConfig(lam=spec.lam, rho=spec.rho, max_iter=spec.max_iter)
    outcome = SeedOutcome(seed=seed, truth=truth)
    for method in methods:
        est, res = run_method_full(
            MethodSpec(method, admm), truth.domain, part, volumes, covariates=cov, fem=fem
        )
        outcome.reports[method] = relative_errors(est, truth, method=method, seed=seed)
        outcome.results[method] = res
    return outcome


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


@dataclass(frozen=True)
class PipelineResult:
    """Artifacts of one recover-and-score pass over an observed field."""

    truth: SpatialField
    stations: StationSet
    volumes: AggregateObservations
    estimates: dict[str, SpatialField]
    reports: dict[str, EvalReport]
    results: dict[str, RecoveryResult | None]


def run_pipeline(
    truth: SpatialField,
    covariates: CovariateMatrix | None = None,
    n_stations: int = 200,
    lam: float = 1.0,
    rho: float = 1.0,
    seed: int = 0,
    methods: tuple[str, ...] | None = None,
) -> PipelineResult:
    """Aggregate ``truth`` at sampled stations, recover with each method, score.

    The observed field itself plays the role of ground truth: it is reduced
    to station totals and each method tries to reconstruct it.
    """
    if methods is None:
        methods = ALL_METHODS if covariates is not None else ALL_METHODS[:-1]
    stations = sample_stations(truth, n_stations, seed=seed)
    part = build_partition(truth.domain, stations)
    volumes = aggregate(part, truth)
    fem = assemble(triangulate(truth.domain))
    admm = AdmmConfig(lam=lam, rho=rho)
    estimates: dict[str, SpatialField] = {}
    results: dict[str, RecoveryResult | None] = {}
    for m in methods:
        estimates[m], results[m] = run_method_full(
            MethodSpec(m, admm),
            truth.domain, part, volumes, covariates=covariates, fem=fem,
        )
    reports = {
        m: relative_errors(estimates[m], truth, method=m, seed=seed) for m in methods
    }
    return PipelineResult(truth, stations, volumes, estimates, reports, results)

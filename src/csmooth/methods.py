"""The five recovery methods behind one dispatch point.

pe         spread each station volume uniformly over its patch
pe-ssr1    smooth fit to the m patch densities observed at station cells
pe-ssr2    smooth fit to the patched estimate at every cell
css        constrained recovery (volume-exact, nonnegative)
css-features   css with covariates in the smoothing step

Covariates are standardized before fitting, so their units do not matter: a
column is z-scored, or divided by its largest magnitude where it is (near)
constant (see ``CovariateMatrix.standardized``); raw values stay on the
CovariateMatrix handed in.
"""
from __future__ import annotations

from dataclasses import dataclass

from .admm import AdmmConfig, RecoveryResult, css_recover
from .domain import CovariateMatrix, SpatialField
from .errors import ConfigError, ShapeMismatch
from .fem import FemSystem, mesh_for
from .partition import AggregateObservations, Partition, patched_estimate
from .smoother import SsrSolver

PE = "pe"
PE_SSR1 = "pe-ssr1"
PE_SSR2 = "pe-ssr2"
CSS = "css"
CSS_FEATURES = "css-features"
ALL_METHODS = (PE, PE_SSR1, PE_SSR2, CSS, CSS_FEATURES)


@dataclass(frozen=True)
class MethodSpec:
    """A method tag plus the smoothing settings it needs.

    ``admm.lam`` is the roughness weight of every smoothing method; the
    rest of ``admm`` applies to css and css-features only.
    """

    method: str
    admm: AdmmConfig = AdmmConfig()

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS:
            raise ConfigError(
                f"unknown method '{self.method}'; expected one of {ALL_METHODS}"
            )


def run_method_full(
    spec: MethodSpec,
    partition: Partition,
    volumes: AggregateObservations,
    covariates: CovariateMatrix | None = None,
    fem: FemSystem | None = None,
) -> tuple[SpatialField, RecoveryResult | None]:
    """Run one method; returns the estimate plus solver details for css runs."""
    if volumes.m != partition.m:
        raise ShapeMismatch(f"{volumes.m} volumes for {partition.m} stations")
    if spec.method == PE:
        return patched_estimate(partition, volumes), None

    domain = partition.domain
    fem = mesh_for(domain, fem)

    if spec.method == PE_SSR1:
        cells = partition.stations.cells
        density = volumes.values / partition.patch_sizes
        solver = SsrSolver(fem, spec.admm.lam, subset=cells)
        model = solver.solve(density)
        return SpatialField(domain, model.fitted), None

    if spec.method == PE_SSR2:
        patched = patched_estimate(partition, volumes)
        model = SsrSolver(fem, spec.admm.lam).solve(patched.values)
        return SpatialField(domain, model.fitted), None

    if spec.method == CSS:
        result = css_recover(partition, volumes, None, spec.admm, fem)
        return result.estimate, result

    if covariates is None:
        raise ConfigError(f"method '{CSS_FEATURES}' requires covariates")
    result = css_recover(partition, volumes, covariates.standardized(), spec.admm, fem)
    return result.estimate, result


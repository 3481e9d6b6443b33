"""Constrained recovery of a fine-grained field by operator splitting.

The recovery problem asks for the least-rough nonnegative field whose
per-patch volumes match the station observations. Splitting the field into
a smooth copy f and a constrained copy g coupled by a scaled dual variable,
each sweep performs

  1. volume projection (g): per patch, minimize
     (rho/2)||g||^2 + (dual - rho f)' g subject to the patch sum matching
     the observed volume and g >= 0. Each patch is the one its total was
     measured over, and the patches are disjoint, so each has its own
     closed-form water level; one sort by cost, then stably by patch id,
     finds every level at once (the sort-based simplex projection of Duchi
     et al. 2008 and Condat 2016).
     The patch layout around that sort (slot offsets and a narrow
     patch-id key that numpy sorts by radix) depends on the partition
     alone and is cached with it; only the costs change from sweep to
     sweep. A patch observing no volume gets water level -inf,
     so g = 0 on it.
  2. smoothing (f): a penalized least-squares fit (see smoother) pulling
     the surface toward g + dual/rho with data weight rho/2, covariates
     included here and nowhere else.
  3. dual ascent: dual += rho * (g - f).

Iterations stop when the primal gap ||g - f||_2 and the dual movement
rho ||g_new - g_old||_2 both drop below the tolerance times sqrt(n).
The returned estimate is the final g: it is nonnegative and satisfies the
volume constraints exactly regardless of where the sweep stopped.

A sweep pays only for what changes from sweep to sweep:

  * fixed per partition, cached with it: the patch layout (sort key, each
    sorted slot's patch, the first slot of that patch and the slot's count
    within it) and the check that every patch holds a cell;
  * fixed per run, set up once by css_recover: the band Cholesky factor of
    the smoothing system, the LAPACK routine that solves with it and the
    stacked matrix that maps its solution to everything read from it (see
    smoother), the stopping threshold, and the scale the constraint check
    divides by;
  * fixed per (partition, volumes, rho), derived by the first projection
    and kept while the next one is handed the same partition and volume
    values: the densities, their check for a negative volume, rho times
    them, gathered by sorted slot, and the patches observing no volume;
  * per sweep: the sort of the new costs, one band solve, the dual step,
    and the checks on what the sweep produced or was handed (the patch
    count, the projection's constraints, the solve's targets, residual
    and finiteness). Each 2-norm is sqrt(x @ x), the value np.linalg.norm
    computes for a real vector, and the objective reuses the primal gap's
    squared norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CovariateMatrix, GridDomain, SpatialField, _check_same_domain
from .errors import ConfigError, InfeasibleVolume, NumericalFailure
from .fem import FemSystem, assemble, triangulate
from .partition import (
    AggregateObservations,
    Partition,
    PatchLayout,
    patch_layout,
    patched_estimate,
)
from .smoother import SsrSolver

_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class AdmmConfig:
    """Settings for css_recover.

    ``lam`` weights the roughness penalty and ``rho`` the coupling between
    the smooth and constrained copies. The loop stops after ``max_iter``
    sweeps or once the primal and dual residuals both fall below ``tol``
    times sqrt(n). At the default ``rho`` all 30 seeds of the ordering
    suite converge within the default ``max_iter``; at 1.0 one does not.
    """

    lam: float = 1.0
    rho: float = 0.8
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"tol must be nonnegative and finite, got {self.tol}")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    estimate: SpatialField          # final g; volume-exact and nonnegative
    smooth_component: np.ndarray    # surface part of f: f - W beta
    beta: np.ndarray                # minimum-norm covariate coefficients; a
                                    # combination affine at the cells (such as
                                    # a constant column) gets 0 and its effect
                                    # stays in smooth_component
    iterations: int
    converged: bool
    primal_residuals: np.ndarray
    dual_residuals: np.ndarray
    objectives: np.ndarray          # augmented Lagrangian after each sweep
    constraint_violation: float     # worst relative patch-sum violation seen
    config: AdmmConfig = AdmmConfig()


def waterfill(costs: np.ndarray, total: float, rho: float) -> np.ndarray:
    """Minimize (rho/2)||g||^2 + costs' g  s.t.  sum(g) = total, g >= 0.

    Closed form: g_j = max(0, (nu - costs_j) / rho) where the water level nu
    makes the sum match. Sorting the costs, nu = (rho * total + S_r) / r for
    the unique prefix size r whose level lies between the r-th and (r+1)-th
    smallest cost.
    """
    c = np.asarray(costs, dtype=float).ravel()
    layout = patch_layout(np.zeros(c.size, dtype=np.int64), 1)
    return _waterfill(c, layout, np.array([float(total)]), rho)


def _waterfill(
    costs: np.ndarray, layout: PatchLayout, totals: np.ndarray, rho: float
) -> np.ndarray:
    """waterfill on every patch of the layout at once."""
    return _fill(costs, layout, _total_terms(layout, totals, rho))


@dataclass(frozen=True, eq=False)
class _TotalTerms:
    """What water-filling derives from the patch totals and rho, not from the costs."""

    rho: float
    rho_totals: np.ndarray      # rho * total of each patch
    slot_totals: np.ndarray     # rho_totals of each sorted slot's patch
    empty: np.ndarray           # the patches observing no volume


def _total_terms(layout: PatchLayout, totals: np.ndarray, rho: float) -> _TotalTerms:
    if (totals < 0).any():
        raise InfeasibleVolume(f"patch volume {totals.min()} is negative")
    rho_totals = rho * totals
    return _TotalTerms(rho, rho_totals, rho_totals[layout.patch], np.flatnonzero(totals == 0))


def _fill(costs: np.ndarray, layout: PatchLayout, terms: _TotalTerms) -> np.ndarray:
    """The water-filling kernel: every patch's g from its costs and its totals' terms."""
    ps, count = layout.patch, layout.count
    # by cost, then stably by patch: the order of a lexsort by (patch, cost)
    # up to swaps of equal costs within a patch, which change no sum below
    order = costs.argsort()
    order = order[layout.key[order].argsort(kind="stable")]
    cs = costs[order]
    # running sums of the sorted costs after a leading 0: run[slot_start]
    # is the sum over the slots before each patch
    run = np.zeros(cs.size + 1)
    np.add.accumulate(cs, out=run[1:])
    prefix = run[1:] - run[layout.slot_start]
    nu = (terms.slot_totals + prefix) / count
    # largest prefix whose level clears its own largest cost; ties put the
    # boundary element at exactly zero, so >= picks the same solution while
    # keeping the first prefix valid even when rho * total underflows
    support = np.maximum.reduceat(np.where(nu >= cs, count, 1), layout.starts)
    # the level again over the support alone: bincount adds each patch's
    # sorted costs one by one, as a per-patch cumsum does, free of the
    # rounding the running sum picked up from earlier patches
    inside = count <= support[ps]
    sums = np.bincount(ps[inside], weights=cs[inside], minlength=support.size)
    level = (terms.rho_totals + sums) / support
    # a patch observing no volume gets g = max(0, -inf) = 0 on every cell
    level[terms.empty] = -np.inf
    g = level[layout.cell_patch]
    g -= costs
    g /= terms.rho
    return np.maximum(0.0, g, out=g)


# (partition, volume values, rho, their _TotalTerms) of the latest
# projection: a css run projects with the same three every sweep. Keyed on
# the objects themselves, so new volume values, even swapped into the same
# observation object, are checked and derived anew.
_last_terms: tuple = (None, None, None, None)


def volume_projection(
    partition: Partition,
    field: np.ndarray,
    dual: np.ndarray,
    rho: float,
    volumes: AggregateObservations,
) -> np.ndarray:
    """Exact g-step: per-patch water-filling against costs dual - rho * field."""
    global _last_terms
    if volumes.m != partition.m:
        raise InfeasibleVolume(f"{volumes.m} volumes for {partition.m} patches")
    values = volumes.values
    last_partition, last_values, last_rho, terms = _last_terms
    if not (last_partition is partition and last_values is values and last_rho == rho):
        terms = _total_terms(partition.layout, values / partition.domain.cell_area, rho)
        _last_terms = (partition, values, rho, terms)
    return _fill(dual - rho * field, partition.layout, terms)


def dual_update(dual: np.ndarray, f: np.ndarray, g: np.ndarray, rho: float) -> np.ndarray:
    """Ascent step on the gap between the copies: dual + rho * (g - f)."""
    return dual + rho * (g - f)


def _check_constraints(
    partition: Partition, g: np.ndarray, observed: np.ndarray, scale: float
) -> float:
    """Worst patch-sum violation of g relative to ``scale``; raises past the tolerance."""
    area = partition.domain.cell_area
    sums = np.bincount(partition.station_of_cell, weights=g, minlength=partition.m) * area
    viol = float(np.abs(sums - observed).max(initial=0.0)) / scale
    if (g.size and g.min() < -1e-12) or viol > _CONSTRAINT_TOL:
        raise NumericalFailure(
            f"volume projection violated its constraints (violation {viol:.3e}, "
            f"min {g.min():.3e})"
        )
    return viol


def css_recover(
    domain: GridDomain,
    partition: Partition,
    volumes: AggregateObservations,
    covariates: CovariateMatrix | None = None,
    config: AdmmConfig | None = None,
    fem: FemSystem | None = None,
) -> RecoveryResult:
    """Recover a nonnegative field matching the observed patch volumes.

    Covariates, when given, enter the smoothing step as a parametric offset;
    the volume constraints always apply to the total field.
    """
    cfg = config if config is not None else AdmmConfig()
    _check_same_domain(domain, partition.domain, "partition")
    if covariates is not None:
        _check_same_domain(domain, covariates.domain, "covariates")
    if volumes.m != partition.m:
        raise InfeasibleVolume(f"{volumes.m} volumes for {partition.m} stations")
    if fem is None:
        fem = assemble(triangulate(domain))
    else:
        _check_same_domain(domain, fem.tri.domain, "mesh")

    g = patched_estimate(partition, volumes).values
    f = g.copy()
    dual = np.zeros(domain.n)

    # fixed for the run: the solver's factorization, the stopping threshold
    # and the scale the constraint check measures violations against
    solver = SsrSolver(fem, cfg.lam, weight=cfg.rho / 2.0)
    lam, rho = cfg.lam, cfg.rho
    threshold = cfg.tol * float(np.sqrt(domain.n))
    observed = volumes.values
    scale = max(float(np.abs(observed).max(initial=0.0)), 1.0)
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    objective_hist: list[float] = []
    worst_violation = 0.0
    converged = False

    for k in range(1, cfg.max_iter + 1):
        g_prev = g
        g = volume_projection(partition, f, dual, rho, volumes)
        worst_violation = max(
            worst_violation, _check_constraints(partition, g, observed, scale)
        )

        model = solver.solve(g + dual / rho, covariates)
        f = model.fitted

        gap = g - f
        gap_sq = float(gap @ gap)
        step = g - g_prev
        primal = math.sqrt(gap_sq)
        dual_res = rho * math.sqrt(step @ step)
        dual = dual_update(dual, f, g, rho)
        # augmented Lagrangian at the end of the sweep, ascended dual included
        objective = lam * model.roughness + float(dual @ gap) + 0.5 * rho * gap_sq

        primal_hist.append(primal)
        dual_hist.append(dual_res)
        objective_hist.append(objective)
        if primal <= threshold and dual_res <= threshold:
            converged = True
            break

    covariate_effect = (
        np.zeros(domain.n) if covariates is None else covariates.values @ model.beta
    )
    return RecoveryResult(
        estimate=SpatialField(domain, g, nonnegative=True),
        smooth_component=f - covariate_effect,
        beta=model.beta,
        iterations=k,
        converged=converged,
        primal_residuals=np.asarray(primal_hist),
        dual_residuals=np.asarray(dual_hist),
        objectives=np.asarray(objective_hist),
        constraint_violation=worst_violation,
        config=cfg,
    )

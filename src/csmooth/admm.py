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
     The layout around that sort (slot offsets and a narrow patch-id key
     that numpy sorts by radix) and the totals' terms depend on the
     partition, the volumes and rho alone and are built once per run;
     only the costs change from sweep to sweep. A patch observing no
     volume gets water level -inf, so g = 0 on it.
  2. smoothing (f): a penalized least-squares fit (see smoother) pulling
     the surface toward g + dual/rho with data weight rho/2, covariates
     included here and nowhere else.
  3. dual ascent: dual += rho * (g - f).

Iterations stop when the primal gap ||g - f||_2 and the dual movement
rho ||g_new - g_old||_2 both drop below the tolerance times sqrt(n).
The returned estimate is the final g: it is nonnegative and satisfies the
volume constraints exactly regardless of where the sweep stopped.

A sweep pays only for what changes from sweep to sweep:

  * fixed per run, built by css_recover before any mesh is assembled or
    any system factored: the constraint set (VolumeConstraints), which
    holds the patch layout (sort key, each sorted slot's patch, the first
    slot of that patch and the slot's count within it), rho times each
    patch's density, gathered by sorted slot, the patches observing no
    volume, and what the constraint check compares with. Building it
    checks that the volumes match the patches one to one, that every
    patch holds a cell and that no volume is negative;
  * fixed per run, set up once by css_recover: the band Cholesky factor of
    the smoothing system, the LAPACK routine that solves with it and the
    stacked matrix that maps its solution to everything read from it (see
    smoother), and the stopping threshold;
  * per sweep: the sort of the new costs, one band solve, the dual step,
    and the checks on what the sweep produced or was handed (the
    projection's constraints, the solve's targets, residual and
    finiteness). Each 2-norm is sqrt(x @ x), the value np.linalg.norm
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
from .partition import AggregateObservations, Partition, patched_estimate
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
    one_patch = _constraints(np.zeros(c.size, dtype=np.int64), np.array([float(total)]), 1.0, rho)
    return _fill(c, one_patch)


@dataclass(frozen=True, eq=False)
class VolumeConstraints:
    """The constraint set of a css run, fixed by its partition, volumes and rho.

    Every patch holds at least one cell and observes a nonnegative volume.
    ``key`` is the patch id of each cell in the narrowest unsigned dtype, so
    that a stable sort by it is a radix sort up to 65,536 patches. The
    sorted slots group the cells by patch: patch ``i`` starts at slot
    ``starts[i]``; slot ``s`` belongs to patch ``patch[s]``, whose first
    slot is ``slot_start[s]``, and is number ``count[s]`` in it, counting
    from 1. ``rho_totals`` is rho times each patch's observed density and
    ``slot_totals`` gathers it by sorted slot; ``empty`` lists the patches
    observing no volume. The constraint check compares patch sums times
    ``cell_area`` with ``observed``, relative to ``scale``.
    """

    rho: float
    cell_patch: np.ndarray
    key: np.ndarray
    starts: np.ndarray
    patch: np.ndarray
    slot_start: np.ndarray
    count: np.ndarray
    rho_totals: np.ndarray
    slot_totals: np.ndarray
    empty: np.ndarray
    observed: np.ndarray
    cell_area: float
    scale: float


def volume_constraints(
    partition: Partition, volumes: AggregateObservations, rho: float
) -> VolumeConstraints:
    """Each patch's volume as css enforces it, with ``rho``; InfeasibleVolume if
    the volumes do not match the patches one to one, a patch holds no cell or
    a volume is negative."""
    if volumes.m != partition.m:
        raise InfeasibleVolume(f"{volumes.m} volumes for {partition.m} patches")
    return _constraints(
        partition.station_of_cell, volumes.values, partition.domain.cell_area, rho
    )


def _constraints(
    cell_patch: np.ndarray, observed: np.ndarray, cell_area: float, rho: float
) -> VolumeConstraints:
    cell_patch = np.asarray(cell_patch, dtype=np.int64)
    m = observed.size
    sizes = np.bincount(cell_patch, minlength=m)
    if not sizes.all():
        raise InfeasibleVolume(f"patch {int(np.argmin(sizes))} holds no cell")
    totals = observed / cell_area
    if (totals < 0).any():
        raise InfeasibleVolume(f"patch volume {totals.min()} is negative")
    starts = np.cumsum(sizes) - sizes
    patch = np.repeat(np.arange(m), sizes)
    slot_start = starts[patch]
    rho_totals = rho * totals
    return VolumeConstraints(
        rho=rho,
        cell_patch=cell_patch,
        key=cell_patch.astype(np.min_scalar_type(m - 1)),
        starts=starts,
        patch=patch,
        slot_start=slot_start,
        count=np.arange(1, cell_patch.size + 1) - slot_start,
        rho_totals=rho_totals,
        slot_totals=rho_totals[patch],
        empty=np.flatnonzero(totals == 0),
        observed=observed,
        cell_area=cell_area,
        scale=max(float(np.abs(observed).max(initial=0.0)), 1.0),
    )


def _fill(costs: np.ndarray, vc: VolumeConstraints) -> np.ndarray:
    """The water-filling kernel: every patch's g from its costs."""
    ps, count = vc.patch, vc.count
    # by cost, then stably by patch: the order of a lexsort by (patch, cost)
    # up to swaps of equal costs within a patch, which change no sum below
    order = costs.argsort()
    order = order[vc.key[order].argsort(kind="stable")]
    cs = costs[order]
    # running sums of the sorted costs after a leading 0: run[slot_start]
    # is the sum over the slots before each patch
    run = np.zeros(cs.size + 1)
    np.add.accumulate(cs, out=run[1:])
    prefix = run[1:] - run[vc.slot_start]
    nu = (vc.slot_totals + prefix) / count
    # largest prefix whose level clears its own largest cost; ties put the
    # boundary element at exactly zero, so >= picks the same solution while
    # keeping the first prefix valid even when rho * total underflows
    support = np.maximum.reduceat(np.where(nu >= cs, count, 1), vc.starts)
    # the level again over the support alone: bincount adds each patch's
    # sorted costs one by one, as a per-patch cumsum does, free of the
    # rounding the running sum picked up from earlier patches
    inside = count <= support[ps]
    sums = np.bincount(ps[inside], weights=cs[inside], minlength=support.size)
    level = (vc.rho_totals + sums) / support
    # a patch observing no volume gets g = max(0, -inf) = 0 on every cell
    level[vc.empty] = -np.inf
    g = level[vc.cell_patch]
    g -= costs
    g /= vc.rho
    return np.maximum(0.0, g, out=g)


def volume_projection(
    constraints: VolumeConstraints, field: np.ndarray, dual: np.ndarray
) -> np.ndarray:
    """Exact g-step: per-patch water-filling against costs dual - rho * field."""
    return _fill(dual - constraints.rho * field, constraints)


def dual_update(dual: np.ndarray, f: np.ndarray, g: np.ndarray, rho: float) -> np.ndarray:
    """Ascent step on the gap between the copies: dual + rho * (g - f)."""
    return dual + rho * (g - f)


def _check_constraints(vc: VolumeConstraints, g: np.ndarray) -> float:
    """Worst patch-sum violation of g relative to the scale; raises past the tolerance."""
    sums = np.bincount(vc.cell_patch, weights=g, minlength=vc.starts.size) * vc.cell_area
    viol = float(np.abs(sums - vc.observed).max(initial=0.0)) / vc.scale
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
    # the constraint set first, so that infeasible volumes fail before any
    # mesh is assembled or any system factored
    constraints = volume_constraints(partition, volumes, cfg.rho)
    if fem is None:
        fem = assemble(triangulate(domain))
    else:
        _check_same_domain(domain, fem.tri.domain, "mesh")

    g = patched_estimate(partition, volumes).values
    f = g.copy()
    dual = np.zeros(domain.n)

    # fixed for the run: the solver's factorization and the stopping threshold
    solver = SsrSolver(fem, cfg.lam, weight=cfg.rho / 2.0)
    lam, rho = cfg.lam, cfg.rho
    threshold = cfg.tol * float(np.sqrt(domain.n))
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    objective_hist: list[float] = []
    worst_violation = 0.0
    converged = False

    for k in range(1, cfg.max_iter + 1):
        g_prev = g
        g = volume_projection(constraints, f, dual)
        worst_violation = max(worst_violation, _check_constraints(constraints, g))

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

"""Constrained recovery of a fine-grained field by operator splitting.

The recovery problem asks for the least-rough nonnegative field whose
per-patch volumes match the station observations. Splitting the field into
a smooth copy f and a constrained copy g coupled by the scaled dual u (the
dual variable over rho), each sweep performs

  1. volume projection (g): per patch, minimize (1/2)||g||^2 + (u - f)' g
     subject to the patch sum matching the observed density total T_p and
     g >= 0. Each patch is the one its total was measured over, and the
     patches are disjoint, so g = max(0, nu - c) with one water level nu per
     patch, the root of sum_j max(0, nu - c_j) = T_p. Newton's method on
     that convex piecewise-linear function steps to
     nu <- (T_p + sum_{c_j <= nu} c_j) / #{c_j <= nu}; once every patch's
     active set repeats, nu is the exact root, whichever side it started
     on; a start below every cost of a patch restarts it from min cost +
     T_p, above the root. Each sweep starts from the previous sweep's
     levels, so it mostly takes one step and the pass that confirms it. A
     patch observing no volume gets level -inf, so g = 0 on it.
  2. over-relaxation: r = alpha g + (1 - alpha) f_prev with alpha =
     _ALPHA (Boyd et al. 2011, section 3.4.3), which cuts the sweeps a run
     needs while the objective still falls monotonically.
  3. smoothing (f): a penalized least-squares fit (see smoother) pulling
     the surface toward r + u with data weight rho/2, covariates included
     here and nowhere else.
  4. dual ascent: u += r - f.

Iterations stop when the primal gap ||g - f||_2 and the dual movement
rho ||g_new - g_old||_2 both drop below the tolerance times sqrt(n). The
objective after each sweep is lam roughness + rho u'(g - f) + (rho/2)||g - f||^2.
The returned estimate is the final g: it is nonnegative and satisfies the
volume constraints exactly regardless of where the sweep stopped.

A sweep pays only for what changes from sweep to sweep:

  * fixed per run, built by css_recover before any mesh is assembled or
    any system factored: the constraint set (VolumeConstraints), which
    holds each cell's patch, each patch's density total, the patches
    observing no volume, the cap on Newton passes, and what the
    constraint check compares with. It depends on the partition and the
    volumes alone. Building it checks that the volumes match the patches
    one to one, that every patch holds a cell and that no volume is
    negative;
  * fixed per run, set up once by css_recover: the band Cholesky factor of
    the smoothing system, the LAPACK routine that solves with it and the
    stacked matrix that maps its solution to everything read from it (see
    smoother), and the stopping threshold;
  * carried from sweep to sweep: the water levels;
  * per sweep: the projection's Newton passes (each a gather and a
    comparison over the cells, and two bincounts where it steps), one band
    solve, the relaxed target, the dual step, and the checks on what the
    sweep produced or was handed (the projection's constraints, the solve's
    targets, residual and finiteness). Each 2-norm is sqrt(x @ x), the
    value np.linalg.norm computes for a real vector, and the objective
    reuses the primal gap's squared norm.
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
# over-relaxation of the coupling; on the ordering suite 1.9 already lets
# the objective rise between sweeps
_ALPHA = 1.8


@dataclass(frozen=True)
class AdmmConfig:
    """Settings for css_recover.

    ``lam`` weights the roughness penalty and ``rho`` the coupling between
    the smooth and constrained copies. The loop stops after ``max_iter``
    sweeps or once the primal and dual residuals both fall below ``tol``
    times sqrt(n). All 30 seeds of the ordering suite converge within the
    default ``max_iter``: within 242 sweeps at the default ``rho``, and
    within 302 at 1.0.
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

    Closed form: g_j = max(0, nu - costs_j / rho) where the water level nu
    makes the sum match; volume_projection finds it from a cold start. With
    no cell, only a zero total is feasible.
    """
    c = np.asarray(costs, dtype=float).ravel()
    if not c.size:
        if total != 0:
            raise InfeasibleVolume(f"no cell to hold total {total}")
        return c
    one_patch = _constraints(np.zeros(c.size, dtype=np.int64), np.array([float(total)]), 1.0)
    return volume_projection(one_patch, np.zeros(c.size), c / rho)


@dataclass(frozen=True, eq=False)
class VolumeConstraints:
    """The constraint set of a css run, fixed by its partition and volumes.

    Every patch holds at least one cell and observes a nonnegative volume.
    ``cell_patch`` is each cell's patch and ``totals`` each patch's
    observed density total, held at -inf where it is zero so that a Newton
    step puts that patch's level at -inf; ``filled`` marks the patches
    with a positive total. ``passes``, the largest patch size plus two,
    caps the Newton passes over the cells. The constraint check compares
    patch sums times ``cell_area`` with ``observed``, relative to ``scale``,
    the largest volume; when every volume is 0 each sum must be exactly 0.
    """

    cell_patch: np.ndarray
    totals: np.ndarray
    filled: np.ndarray
    passes: int
    observed: np.ndarray
    cell_area: float
    scale: float


def volume_constraints(partition: Partition, volumes: AggregateObservations) -> VolumeConstraints:
    """Each patch's volume as css enforces it; InfeasibleVolume if the volumes
    do not match the patches one to one, a patch holds no cell or a volume is
    negative."""
    if volumes.m != partition.m:
        raise InfeasibleVolume(f"{volumes.m} volumes for {partition.m} patches")
    return _constraints(partition.station_of_cell, volumes.values, partition.domain.cell_area)


def _constraints(
    cell_patch: np.ndarray, observed: np.ndarray, cell_area: float
) -> VolumeConstraints:
    cell_patch = np.asarray(cell_patch, dtype=np.int64)
    sizes = np.bincount(cell_patch, minlength=observed.size)
    if not sizes.all():
        raise InfeasibleVolume(f"patch {int(np.argmin(sizes))} holds no cell")
    totals = observed / cell_area
    if (totals < 0).any():
        raise InfeasibleVolume(f"patch volume {totals.min()} is negative")
    filled = totals > 0
    return VolumeConstraints(
        cell_patch=cell_patch,
        totals=np.where(filled, totals, -np.inf),
        filled=filled,
        passes=int(sizes.max()) + 2,
        observed=observed,
        cell_area=cell_area,
        scale=float(np.abs(observed).max(initial=0.0)),
    )


def volume_projection(
    constraints: VolumeConstraints,
    field: np.ndarray,
    dual: np.ndarray,
    level: np.ndarray | None = None,
) -> np.ndarray:
    """Exact g-step: per-patch water-filling against costs dual - field, the
    dual scaled by 1/rho. Newton starts from ``level``, each patch's water
    level from an earlier projection, and overwrites it with the new levels.
    Without it, or from +inf, every cell starts active: the first step is
    then the one from max cost + total / size, a cold start."""
    p, m = constraints.cell_patch, constraints.totals.size
    costs = dual - field
    nu = level = np.full(m, np.inf) if level is None else level
    active = None
    for _ in range(constraints.passes):
        at = nu[p]
        new = costs <= at
        # the step from an active set lands where that set started, so a
        # repeated set means every level is its patch's root
        if active is not None and np.array_equal(new, active):
            level[:] = nu
            at -= costs
            return np.maximum(0.0, at, out=at)
        weight = new.astype(float)
        count = np.bincount(p, weights=weight, minlength=m)
        sums = np.bincount(p, weights=costs * weight, minlength=m)
        # a total of -inf keeps a zero-volume patch at -inf; max(.., 1)
        # leaves a patch with no active cell finite until it restarts
        step = (constraints.totals + sums) / np.maximum(count, 1.0)
        if active is not None:
            # past the first step the levels fall to the root, so a level
            # rounding pushed back up could cycle the active sets
            np.minimum(step, nu, out=step)
        # count 0 where the total is positive: no cost at or below the start
        stuck = count < constraints.filled
        if np.count_nonzero(stuck):
            # restart from min cost + total, above the root, where the
            # cheapest cell is active
            low = np.full(m, np.inf)
            np.minimum.at(low, p, costs)
            step[stuck] = low[stuck] + constraints.totals[stuck]
        nu, active = step, new
    raise NumericalFailure(f"water levels did not settle within {constraints.passes} Newton passes")


def dual_update(dual: np.ndarray, f: np.ndarray, relaxed: np.ndarray) -> np.ndarray:
    """Scaled ascent step on the gap between the copies: dual + relaxed - f."""
    return dual + (relaxed - f)


def _check_constraints(vc: VolumeConstraints, g: np.ndarray) -> float:
    """Worst patch-sum violation of g relative to the scale; raises past the tolerance."""
    sums = np.bincount(vc.cell_patch, weights=g, minlength=vc.totals.size) * vc.cell_area
    gap = float(np.abs(sums - vc.observed).max(initial=0.0))
    viol = gap / vc.scale if vc.scale else (np.inf if gap else 0.0)
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
    constraints = volume_constraints(partition, volumes)
    if fem is None:
        fem = assemble(triangulate(domain))
    else:
        _check_same_domain(domain, fem.tri.domain, "mesh")

    g = patched_estimate(partition, volumes).values
    f = g.copy()
    dual = np.zeros(domain.n)  # scaled: the dual variable over rho
    level = np.full(partition.m, np.inf)  # a cold start

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
        g = volume_projection(constraints, f, dual, level)
        worst_violation = max(worst_violation, _check_constraints(constraints, g))

        # the over-relaxed copy replaces g in the smoothing target and the dual step
        relaxed = f + _ALPHA * (g - f)
        model = solver.solve(relaxed + dual, covariates)
        f = model.fitted

        gap = g - f
        gap_sq = float(gap @ gap)
        step = g - g_prev
        primal = math.sqrt(gap_sq)
        dual_res = rho * math.sqrt(step @ step)
        dual = dual_update(dual, f, relaxed)
        # augmented Lagrangian at the end of the sweep, ascended dual included
        objective = lam * model.roughness + rho * float(dual @ gap) + 0.5 * rho * gap_sq

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

"""Constrained recovery of a fine-grained field by operator splitting.

The recovery problem asks for the least-rough nonnegative field whose
per-patch volumes match the station observations. Splitting the field into
a smooth copy f and a constrained copy g coupled by the scaled dual u (the
dual variable over rho), each sweep performs

  1. volume projection (g): per patch, minimize (1/2)||g||^2 + (u - f)' g
     subject to the patch sum matching the observed volume T_p and
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
     the surface toward r + u, covariates included here and nowhere else.
  4. dual ascent: u += r - f.

Iterations stop when the primal gap ||g - f||_2 and the dual movement
rho ||g_new - g_old||_2 both drop below the tolerance times sqrt(n). The
objective after each sweep is lam roughness + rho u'(g - f) + (rho/2)||g - f||^2.
The returned estimate is the final g: it is nonnegative and satisfies the
volume constraints exactly regardless of where the sweep stopped.

A sweep pays only for what changes from sweep to sweep:

  * fixed per run, built by css_recover before any mesh is assembled or
    any system factored: the constraint set (VolumeConstraints), which
    holds each cell's patch, each patch's volume, the patches observing
    no volume, the cap on Newton passes, and what the constraint check
    compares with. It depends on the partition and the volumes alone.
    Building it checks that the volumes match the stations one to one, that
    every patch holds a cell and that no volume is negative;
  * fixed per run, set up once by css_recover: the band Cholesky factor of
    the smoothing system, the LAPACK routine that solves with it and the
    stacked matrix that maps its solution to everything read from it (see
    smoother), and the stopping threshold;
  * carried from sweep to sweep: the water levels;
  * per sweep: the projection's Newton passes (each a gather and a
    comparison over the cells, and two bincounts where it steps), one band
    solve, the relaxed target, the dual step, and the checks on what the
    sweep produced or was handed (the projection's constraints, the solve's
    targets, residual and finiteness, and that the residuals and objective
    are finite: data near the top of the float range overflow there, a
    NumericalFailure naming the sweep). Each 2-norm is sqrt(x @ x), the
    value np.linalg.norm computes for a real vector, and the objective
    reuses the primal gap's squared norm.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .domain import CovariateMatrix, SpatialField, _check_same_domain
from .errors import ConfigError, InfeasibleVolume, NumericalFailure, ShapeMismatch
from .fem import FemSystem, mesh_for
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
        for name in ("lam", "rho", "tol"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {x!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be positive, got {self.rho}")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"max_iter must be an integer of at least 1, got {n!r}")
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


@dataclass(frozen=True, eq=False)
class VolumeConstraints:
    """The constraint set of a css run, fixed by its partition and volumes.

    Every patch holds at least one cell and observes a nonnegative volume,
    the sum of its cell values. ``cell_patch`` is each cell's patch and
    ``totals`` each patch's observed volume, held at -inf where it is zero
    so that a Newton step puts that patch's level at -inf; ``filled`` marks
    the patches with a positive volume. ``passes``, the largest patch size
    plus two, caps the Newton passes over the cells. The constraint check
    compares patch sums with ``observed``, relative to ``scale``, the
    largest volume; when every volume is 0 each sum must be exactly 0.
    """

    cell_patch: np.ndarray
    totals: np.ndarray
    filled: np.ndarray
    passes: int
    observed: np.ndarray
    scale: float


def volume_constraints(partition: Partition, volumes: AggregateObservations) -> VolumeConstraints:
    """Each patch's volume as css enforces it; ShapeMismatch if the volumes
    do not match the stations one to one, InfeasibleVolume if a volume is
    negative. The partition has already checked that every patch holds a
    cell, and its ``patch_sizes`` set the Newton pass cap."""
    if volumes.m != partition.m:
        raise ShapeMismatch(f"{volumes.m} volumes for {partition.m} stations")
    observed = volumes.values
    if (observed < 0).any():
        raise InfeasibleVolume(f"patch volume {observed.min()} is negative")
    filled = observed > 0
    return VolumeConstraints(
        cell_patch=partition.station_of_cell,
        totals=np.where(filled, observed, -np.inf),
        filled=filled,
        passes=int(partition.patch_sizes.max()) + 2,
        observed=observed,
        scale=float(np.abs(observed).max(initial=0.0)),
    )


def volume_projection(
    constraints: VolumeConstraints,
    field: np.ndarray,
    dual: np.ndarray,
    level: np.ndarray,
) -> np.ndarray:
    """Exact g-step: per-patch water-filling against costs dual - field, the
    dual scaled by 1/rho. Newton starts from ``level``, each patch's water
    level from an earlier projection, and overwrites it with the new levels.
    From +inf every cell starts active: the first step is then the one from
    max cost + total / size, a cold start. ``field`` and ``dual`` must be
    finite: a NaN cost gives NaN cells."""
    p, m = constraints.cell_patch, constraints.totals.size
    costs = dual - field
    nu = level
    active = floor = None
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
            if floor is None:
                low = np.full(m, np.inf)
                np.minimum.at(low, p, costs)
                floor = np.where(constraints.filled, low, -np.inf)
            # restart from min cost + total, above the root, where the
            # cheapest cell is active
            step[stuck] = floor[stuck] + constraints.totals[stuck]
        if floor is not None:
            # a positive total puts the root above the patch's min cost; a
            # step rounded below it would empty the active set again and
            # restart without end when the total is below the cost's ulp
            np.maximum(step, floor, out=step)
        nu, active = step, new
    raise NumericalFailure(f"water levels did not settle within {constraints.passes} Newton passes")


def dual_update(dual: np.ndarray, f: np.ndarray, relaxed: np.ndarray) -> np.ndarray:
    """Scaled ascent step on the gap between the copies: dual + relaxed - f."""
    return dual + (relaxed - f)


def _check_constraints(vc: VolumeConstraints, g: np.ndarray) -> float:
    """Worst patch-sum violation of g relative to the scale; raises past the tolerance."""
    sums = np.bincount(vc.cell_patch, weights=g, minlength=vc.totals.size)
    gap = float(np.abs(sums - vc.observed).max(initial=0.0))
    viol = gap / vc.scale if vc.scale else (np.inf if gap else 0.0)
    # written so that a NaN cell or sum fails both tests
    if (g.size and not g.min() >= -1e-12) or not viol <= _CONSTRAINT_TOL:
        raise NumericalFailure(
            f"volume projection violated its constraints (violation {viol:.3e}, "
            f"min {g.min():.3e})"
        )
    return viol


def css_recover(
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
    lam, rho = cfg.lam, cfg.rho
    # the f-step minimizes (rho/2)||t - f||^2 + lam roughness, the fit at
    # smoothing weight 2 lam / rho
    smoothing = 2.0 * lam / rho
    if not 0.0 < smoothing < math.inf:
        raise ConfigError(f"2 lam / rho is {smoothing} at lam {lam}, rho {rho}; "
                          "it must be positive and finite")
    domain = partition.domain
    if covariates is not None:
        _check_same_domain(domain, covariates.domain, "covariates")
    # the constraint set first, so that infeasible volumes fail before any
    # mesh is assembled or any system factored
    constraints = volume_constraints(partition, volumes)
    fem = mesh_for(domain, fem)

    g = patched_estimate(partition, volumes).values
    f = g.copy()
    dual = np.zeros(domain.n)  # scaled: the dual variable over rho
    level = np.full(partition.m, np.inf)  # a cold start

    # fixed for the run: the solver's factorization and the stopping threshold
    try:
        solver = SsrSolver(fem, smoothing)
    except NumericalFailure as exc:  # name the lam and rho the user set, not their weight
        raise NumericalFailure(
            f"css at lam={lam:g}, rho={rho:g} smooths at weight 2 lam / rho: {exc}") from exc
    threshold = cfg.tol * float(np.sqrt(domain.n))
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    objective_hist: list[float] = []
    worst_violation = 0.0
    converged = False

    # for data near the top of the float range the squared norms below
    # overflow; the test after each sweep makes that a NumericalFailure, so
    # numpy's overflow warnings are off in the loop
    with np.errstate(over="ignore", invalid="ignore"):
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
            if not (math.isfinite(primal) and math.isfinite(dual_res) and math.isfinite(objective)):
                raise NumericalFailure(
                    f"css sweep {k}: primal residual {primal:.3e}, dual residual {dual_res:.3e} "
                    f"or objective {objective:.3e} is not finite; the data overflow in floating "
                    f"point (largest volume {constraints.scale:.3e})")

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
    )

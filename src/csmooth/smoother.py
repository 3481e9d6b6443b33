"""Penalized least-squares surface fitting over the cell grid.

Given targets h at (a subset of) cell centers, optional covariates W, and a
smoothing weight lam, the fit solves

    min over (c, beta)   weight * sum_j (h_j - w_j' beta - (Psi c)_j)^2
                         + lam * s * c' J' M_E^-1 J c,

where c are vertex coefficients of a piecewise-linear surface, J is the
interior-edge jump operator of the mesh (see fem), M_E = diag(edge_length)
and s the cell size: the penalty (``FemSystem.roughness_matrix``) is lam
times the integrated squared normal-derivative jump in grid units, free of
the unit of length. The per-length jump density d = M_E^-1 J c is reported
as ``laplacian`` and s d' M_E d as ``roughness``. For fixed beta,
stationarity in c is one sparse symmetric positive definite system:

    (weight * Psi'Psi + lam * s * J' M_E^-1 J) c = weight * Psi'(h - W beta),

which is factorized once and reused. It is positive definite exactly when
the data cells pin down the penalty's null space, the surfaces affine on
each edge-connected piece of the mesh (on a connected mesh: when the data
centers do not all lie on one line); a singular system is rejected.

The system is banded: Psi couples the two ends of a cell's diagonal and the
penalty couples the vertices of two triangles that share an edge, all within
a 3 x 3 block of corners. fem numbers the vertices diagonal by diagonal
(r - c), so coupled vertices lie at most two diagonals apart: only the
upper-left and lower-right corners of one cell, across its split diagonal.
Two neighboring diagonals of a full grid hold at most 2 (short side + 1)
corners, so the half-bandwidth is at most 2 (short side + 1) + 1 whatever
the mask; on a round mask a diagonal holds about 1/sqrt(2) as many corners
as a row (143 on the 100 x 100 disc, against 203 numbered row by row). The
system is therefore factorized by LAPACK's band Cholesky (pbtrf, George &
Liu 1981, ch. 4) on its upper band, which the Cholesky factor fills but
never leaves, and solved by two band
back-substitutions, all covariate columns in one call: LAPACK's pbtrs,
fetched once per factorization and called directly, with its info flag and
the finiteness of its result checked on every call. The pivots of
the factorization are the squares of the factor's diagonal; a pivot that is
not positive stops the factorization and counts as ratio 0.

A solver is built from values alone. Every system lives on the stored
pattern of ``FemSystem.roughness_matrix``, which holds each cell's four
Psi'Psi positions. The mesh keeps, built once and read-only, where those
positions lie in it and where each entry of the upper band lands in
LAPACK's layout (``fem.SystemPattern``). A build counts the data cells'
Psi'Psi terms with one bincount (all cells and a subset alike), adds
lam R in one scaled add, and fills the band and the stacked matrix below by
index before the factorization; no sparse product, sum or conversion runs.

Write S for the linear map from data-cell targets to fitted surface values
at the data cells. The coefficients are the partial-spline estimate (Green
& Silverman 1994, section 4.3): beta solves the q x q system

    W'(W - S W) beta = W'(h - S h),

and the surface is the fit to h - W beta. The penalty vanishes exactly on
affine surfaces, so those are reproduced for every lam and S leaves them
unchanged. A covariate combination that is affine at the data cells (a
constant column always is) therefore lies in the null space of that
system; beta is its minimum-norm solution, which gives such combinations
coefficient 0 and leaves their effect to the surface. By linearity the fit
to h - W beta is c_h - c_W beta, where c_W solves the system for each
column of W; c_W, its right-hand sides and its fitted surfaces Psi c_W
depend on W alone and are cached per covariate matrix, so a repeated solve
costs one back-substitution for c_h and the products with h and c. Psi, J
and the system matrix are stacked into one sparse matrix, so that one
product with c gives the fitted surface, the edge jumps and the system's
image for the residual check, each row summed as its own product sums it.
``weight`` scales the data term so callers embedding this solve in a larger
objective can pass their own multiplier instead of re-deriving lam.
scipy.linalg loads when the first system is factored, not when this module
is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CovariateMatrix, GridDomain, SpatialField
from .errors import CollinearCovariates, NumericalFailure, ShapeMismatch
from .fem import FemSystem

_RESIDUAL_TOL = 1e-8
# eigenvalues of W'(W - S W) below this fraction of the largest eigenvalue
# of W'W count as zero: those directions are affine at the data cells. The
# scale is W'W, not the system itself, so an all-affine W (a system that is
# zero up to rounding) still gets beta = 0.
_RANK_RCOND = 1e-10
# a factorization whose smallest pivot is below this fraction of its
# largest is singular: a null direction leaves a pivot at rounding level
# (below 3e-15 of the largest on a 6 x 6 grid) or stops the band
# Cholesky (ratio 0). That level grows with the grid: on 20 x 20, three data
# cells in one column leave ratios up to 3.5e-11 at lam 1e3 and pass.
# The ratios hang on rounding, so they move with the vertex numbering;
# measured with the diagonal numbering of fem.triangulate. Well-posed fits
# stay above it, though not always far: the ratio falls about in step with
# lam / weight or weight / lam, to 5e-9 at 1e8 on a 6 x 6 grid with every
# cell as data. With three non-collinear data cells there at 1e8 it falls
# to 7e-13 to 1.9e-12, and 4 of 1,702 random subsets (6 seeds of 300 draws)
# are rejected, against 5 under a row-by-row numbering; at 1e3 it stays
# above 7e-8. On a 100 x 100 grid with 20 to 200 data cells at
# lam = weight = 1 it stays above 1e-4.
_PIVOT_RATIO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SsrModel:
    """A fitted surface: coefficients, edge Laplacian, and fitted cell values."""

    fem: FemSystem
    lam: float
    coeffs: np.ndarray      # vertex coefficients c
    laplacian: np.ndarray   # edge density d = M_E^-1 J c
    beta: np.ndarray        # covariate coefficients (empty without covariates);
                            # minimum-norm, so 0 on combinations affine at the data
    fitted: np.ndarray      # Psi c + W beta at every active cell
    roughness: float        # cell_size * d' M_E d, in grid units
    residual: float         # relative residual of the linear solve


class SsrSolver:
    """Pre-factorized penalized least-squares solve for one (lam, weight, subset).

    ``subset`` restricts the data term to those active-cell indices; the
    fitted surface is still evaluated everywhere. Reuse one instance when
    solving many right-hand sides with identical settings.
    """

    def __init__(
        self,
        fem: FemSystem,
        lam: float,
        weight: float = 1.0,
        subset: np.ndarray | None = None,
    ) -> None:
        import scipy.linalg
        import scipy.sparse as sp

        if not (np.isfinite(lam) and lam > 0):
            raise ShapeMismatch(f"smoothing weight lam must be positive, got {lam}")
        if not (np.isfinite(weight) and weight > 0):
            raise ShapeMismatch(f"data weight must be positive, got {weight}")
        self.fem = fem
        self.lam = float(lam)
        self.weight = float(weight)
        pattern = fem.system_pattern
        if subset is None:
            self.subset = None
            entries = pattern.cell_entries
        else:
            idx = np.asarray(subset, dtype=np.int64).ravel()
            if idx.size == 0 or np.unique(idx).size != idx.size:
                raise ShapeMismatch("data subset must be nonempty and distinct")
            if idx.min() < 0 or idx.max() >= fem.tri.domain.n:
                raise ShapeMismatch("data subset index out of range")
            self.subset = idx
            entries = pattern.cell_entries[idx]
        self._n_data = entries.shape[0]
        psi, jump, r = fem.basis_eval, fem.edge_jump, fem.roughness_matrix
        n_v = fem.n_vertices
        # Psi_d': data cell k holds 1/2 at its two corners, so row v lists
        # the data cells with a corner at v, in ascending order
        corners = psi.indices.reshape(-1, 2)
        corners = (corners if subset is None else corners[idx]).ravel()
        self._psi_data_t = sp.csr_matrix(
            (np.full(corners.size, 0.5), np.argsort(corners, kind="stable") // 2,
             np.concatenate([[0], np.cumsum(np.bincount(corners, minlength=n_v))])),
            shape=(n_v, self._n_data),
        )
        # weight * Psi_d'Psi_d + lam * R on R's pattern: each data cell adds
        # 1/4 to each of its four Psi'Psi entries
        system = np.bincount(entries.ravel(), minlength=r.nnz) * 0.25
        system *= self.weight
        system += self.lam * r.data
        # Psi, J and the system stacked: one product with the coefficients
        # gives the fitted surface, the edge jumps and the system's image,
        # row for row as the three products would
        self._products = sp.csr_matrix(
            (np.concatenate([psi.data, jump.data, system]),
             np.concatenate([psi.indices, jump.indices, r.indices]),
             np.concatenate([psi.indptr, jump.indptr[1:] + psi.nnz,
                             r.indptr[1:] + (psi.nnz + jump.nnz)])),
            shape=(psi.shape[0] + jump.shape[0] + n_v, n_v),
        )
        n, n_e = fem.tri.domain.n, fem.n_edges
        self._fit_rows = slice(0, n)
        self._jump_rows = slice(n, n + n_e)
        self._system_rows = slice(n + n_e, None)
        self._covariate_cache: tuple[CovariateMatrix, tuple] | None = None
        # the upper band in LAPACK's layout, filled by index (see
        # fem.SystemPattern); Fortran order, so the factor overwrites it in place
        u = pattern.bandwidth
        band = np.zeros((u + 1) * n_v)
        band[pattern.band_index] = system[pattern.upper]
        band = band.reshape((u + 1, n_v), order="F")
        try:
            self._chol = scipy.linalg.cholesky_banded(band, overwrite_ab=True,
                                                      check_finite=False)
        except np.linalg.LinAlgError:  # a pivot that is not positive
            ratio = 0.0
        else:
            pivots = self._chol[u] ** 2
            ratio = pivots.min() / pivots.max()
        if not ratio > _PIVOT_RATIO_TOL:
            raise NumericalFailure(
                f"smoothing system is singular (pivot ratio {ratio:.1e}); the data "
                "cells do not pin down the affine null space of the penalty"
            )
        self._pbtrs = scipy.linalg.get_lapack_funcs("pbtrs", (self._chol,))

    def _rhs(self, target: np.ndarray) -> np.ndarray:
        return self.weight * (self._psi_data_t @ target)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # rhs is one vector or a matrix of columns, each from a data-cell target
        c, info = self._pbtrs(self._chol, rhs, lower=0)
        if info != 0:
            raise NumericalFailure(f"band back-substitution failed (pbtrs info {info})")
        if not np.isfinite(c).all():
            raise NumericalFailure("smoothing solve produced non-finite coefficients")
        return c

    def _covariate_system(self, covariates: CovariateMatrix) -> tuple[np.ndarray, ...]:
        # (W at the data cells, right-hand sides of its columns, fitted
        # surfaces Psi c_W of their solutions c_W, those solutions, and the
        # pseudo-inverse of W'(W - S W)); everything here depends on the
        # covariates alone, so it is cached per covariate matrix and repeated
        # solves pay for the column solves once
        cached = self._covariate_cache
        if cached is not None and cached[0] is covariates:
            return cached[1]
        import scipy.linalg

        if not covariates.domain.same_grid(self.fem.tri.domain):
            raise ShapeMismatch("covariates live on a different domain")
        w_full = covariates.values
        w_data = w_full if self.subset is None else w_full[self.subset]
        gram = w_data.T @ w_data
        try:
            scipy.linalg.cho_factor(gram)
        except np.linalg.LinAlgError as exc:
            raise CollinearCovariates("covariate columns are linearly dependent") from exc
        rhs_w = self._rhs(w_data)
        c_w = self._solve(rhs_w)
        fit_w = self.fem.basis_eval @ c_w
        fit_w_data = fit_w if self.subset is None else fit_w[self.subset]
        a = w_data.T @ (w_data - fit_w_data)
        # a is symmetric up to rounding; pinvh reads its lower triangle
        a_pinv = scipy.linalg.pinvh(a, atol=_RANK_RCOND * np.linalg.norm(gram, 2), rtol=0.0)
        system = (w_data, rhs_w, fit_w, c_w, a_pinv)
        self._covariate_cache = (covariates, system)
        return system

    def solve(self, h: np.ndarray, covariates: CovariateMatrix | None = None) -> SsrModel:
        h = np.asarray(h, dtype=float).ravel()
        n_data = self._n_data
        if h.size != n_data:
            raise ShapeMismatch(f"{h.size} targets for {n_data} data cells")
        if not np.isfinite(h).all():
            raise ShapeMismatch("targets must be finite")

        rhs = self._rhs(h)
        c = self._solve(rhs)
        if covariates is None:
            beta = np.zeros(0)
            products = self._products @ c
            fitted = products[self._fit_rows]
        else:
            # partial-spline coefficients: minimum-norm solution of
            # W'(W - S W) beta = W'(h - S h); by linearity of the solve
            # the fit to h - W beta is c_h - c_W beta, with right-hand side
            # rhs_h - rhs_W beta and surface Psi c_h - Psi c_W beta
            w_data, rhs_w, fit_w, c_w, a_pinv = self._covariate_system(covariates)
            fitted = self.fem.basis_eval @ c
            fit_data = fitted if self.subset is None else fitted[self.subset]
            beta = a_pinv @ (w_data.T @ (h - fit_data))
            c = c - c_w @ beta
            rhs = rhs - rhs_w @ beta
            fitted = fitted - fit_w @ beta + covariates.values @ beta
            products = self._products @ c

        # sqrt(x @ x) is exactly what np.linalg.norm computes for a real vector
        r = products[self._system_rows] - rhs
        residual = math.sqrt(r @ r) / max(math.sqrt(rhs @ rhs), 1e-30)
        if residual > _RESIDUAL_TOL:
            raise NumericalFailure(
                f"smoothing solve residual {residual:.3e} exceeds {_RESIDUAL_TOL}"
            )

        d = products[self._jump_rows] / self.fem.edge_length
        roughness = self.fem.tri.domain.cell_size * float(d @ (self.fem.edge_length * d))
        return SsrModel(
            fem=self.fem,
            lam=self.lam,
            coeffs=c,
            laplacian=d,
            beta=beta,
            fitted=fitted,
            roughness=roughness,
            residual=residual,
        )


def ssr_fit(
    fem: FemSystem,
    h: np.ndarray,
    lam: float,
    covariates: CovariateMatrix | None = None,
) -> SsrModel:
    """Fit the penalized surface to targets at every active cell."""
    return SsrSolver(fem, lam).solve(h, covariates)


def ssr_eval(model: SsrModel, domain: GridDomain) -> SpatialField:
    """Fitted values of a model as a field over its own domain."""
    if not model.fem.tri.domain.same_grid(domain):
        raise ShapeMismatch("model was fitted on a different domain")
    return SpatialField(domain, model.fitted)

"""Penalized least-squares surface fitting over the cell grid.

Given targets h at (a subset of) cell centers, optional covariates W, and a
smoothing weight lam, the fit solves

    min over (c, beta)   sum_j (h_j - w_j' beta - (Psi c)_j)^2
                         + lam * c' J' M_E^-1 J c,

where c are vertex coefficients of a piecewise-linear surface, J is the
interior-edge jump operator of the mesh (see fem) and M_E =
diag(edge_length): the penalty (``FemSystem.roughness_matrix``) is lam
times the integrated squared normal-derivative jump. The per-length jump
density d = M_E^-1 J c is reported as ``laplacian`` and d' M_E d as
``roughness``. For fixed beta, stationarity in c is one sparse symmetric
positive definite system:

    (Psi'Psi + lam * J' M_E^-1 J) c = Psi'(h - W beta),

which is factorized once and reused. It is positive definite exactly when
the data cells pin down the penalty's null space, the surfaces affine on
each edge-connected piece of the mesh (on a connected mesh: when the data
centers do not all lie on one line). A build refuses a factorization whose
smallest pivot is at most ``_PIVOT_RATIO_TOL`` of its largest. That catches a
singular system only where its null direction leaves a pivot below that
ratio, and the rounding level of such a pivot grows with the grid: on a
20 x 20 grid, 55 of 720 placements of three data cells in one column pass
at lam 1 and 1e3, and their fits to targets 1, 2, 3 span up to 59.6.
Deciding solvability from the cells' geometry is ROADMAP item 3.

The system is banded: Psi couples the two ends of a cell's diagonal and the
penalty couples the vertices of two triangles that share an edge, all within
a 3 x 3 block of corners. fem numbers the vertices diagonal by diagonal
(r - c), so coupled vertices lie at most two diagonals apart: only the
upper-left and lower-right corners of one cell, across its split diagonal.
Two neighboring diagonals of a full grid hold at most 2 (short side + 1)
corners, so the half-bandwidth is at most 2 (short side + 1) + 1 whatever
the mask; on a round mask a diagonal holds about 1/sqrt(2) as many corners
as a row (143 on the 100 x 100 disc, against 203 numbered row by row). The
system is therefore factorized in place by LAPACK's band Cholesky, pbtrf
(George & Liu 1981, ch. 4), on its upper band, which the Cholesky factor
fills but never leaves, and solved by two band back-substitutions, all
covariate columns in one call, by LAPACK's pbtrs. Both routines are fetched
together, once per factorization, and called directly. The pivots of the
factorization are the squares of the factor's diagonal; pbtrf's info > 0, a
pivot that is not positive, which stops the factorization, reads as ratio 0.
pbtrs's info flag and the finiteness of its result are checked on every
call.

A solver is built from values alone, and Psi from the mesh alone: Psi_d'
is the transpose of Psi's data-cell rows. Every system lives on the stored
pattern of ``FemSystem.roughness_matrix``, which holds each cell's Psi'Psi
positions. The mesh keeps, built once and read-only, where those positions
lie in it, the Psi'Psi term a data cell adds at each, and where each entry
of the upper band lands in LAPACK's layout (``fem.SystemPattern``). A build
counts the data cells' Psi'Psi positions with one bincount, scales the
counts by that term, adds lam R in one scaled add, and fills the band and
the stacked matrix below by index before the factorization; no sparse
product, sum or conversion runs.

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
column of W. As W'(S v) = (Psi_d'W)'c_v, the beta system is read off the
right-hand sides: W'W - (Psi_d'W)'c_W, with the Gram matrix W'W of the
collinearity check, and W'h - (Psi_d'W)'c_h. W at the data cells, Psi_d'W,
c_W and the pseudo-inverse are cached per covariate matrix. Psi, J and the
system matrix are stacked into one sparse matrix, so that one product with
c (with covariates, c_h - c_W beta) gives the fitted surface less W beta,
the edge jumps and the system's image for the residual check, each row
summed as its own product sums it.
scipy.linalg loads when the first system is factored, not when this module
is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CovariateMatrix
from .errors import CollinearCovariates, ConfigError, NumericalFailure, ShapeMismatch
from .fem import FemSystem

_RESIDUAL_TOL = 1e-8
# the residual check and the roughness divide by max|h| above this: the
# entries of Psi_d'h are at most max|h|, the edge jumps of its order, and
# their squares overflow from about 1e154
_RESCALE_ABOVE = 1e100
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
# lam or 1 / lam, to 5e-9 at 1e8 on a 6 x 6 grid with every
# cell as data. With three non-collinear data cells there at 1e8 it falls
# to 7e-13 to 1.9e-12, and 4 of 1,702 random subsets (6 seeds of 300 draws)
# are rejected, against 5 under a row-by-row numbering; at 1e3 it stays
# above 7e-8. On a 100 x 100 grid with 20 to 200 data cells at
# lam = 1 it stays above 1e-4.
_PIVOT_RATIO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SsrModel:
    """A fitted surface: coefficients, edge Laplacian, and fitted cell values."""

    coeffs: np.ndarray      # vertex coefficients c
    laplacian: np.ndarray   # edge density d = M_E^-1 J c
    beta: np.ndarray        # covariate coefficients (empty without covariates);
                            # minimum-norm, so 0 on combinations affine at the data
    fitted: np.ndarray      # Psi c + W beta at every active cell
    roughness: float        # d' M_E d


class SsrSolver:
    """Pre-factorized penalized least-squares solve for one (lam, subset).

    ``subset`` restricts the data term to those active-cell indices; the
    fitted surface is still evaluated everywhere. Reuse one instance when
    solving many right-hand sides with identical settings.
    """

    def __init__(
        self,
        fem: FemSystem,
        lam: float,
        subset: np.ndarray | None = None,
    ) -> None:
        import scipy.linalg
        import scipy.sparse as sp

        if not (np.isfinite(lam) and lam > 0):
            raise ConfigError(f"smoothing weight lam must be positive, got {lam}")
        self.fem = fem
        pattern = fem.system_pattern
        n = fem.tri.domain.n
        idx = np.arange(n) if subset is None else np.asarray(subset).ravel()
        if idx.size and idx.dtype.kind not in "iu":
            raise ShapeMismatch(f"data subset indices must be integers, got dtype {idx.dtype}")
        if idx.size == 0 or (np.diff(np.sort(idx)) == 0).any():
            raise ShapeMismatch("data subset must be nonempty and distinct")
        if idx.min() < 0 or idx.max() >= n:
            raise ShapeMismatch("data subset index out of range")
        self.subset = idx
        psi, jump, r = fem.basis_eval, fem.edge_jump, fem.roughness_matrix
        n_v = fem.n_vertices
        self._psi_data_t = psi[idx].T
        # Psi_d'Psi_d + lam * R on R's pattern: each data cell adds the
        # mesh's Psi'Psi term at each of its Psi'Psi positions
        counts = np.bincount(pattern.cell_entries[idx].ravel(), minlength=r.nnz)
        system = counts * pattern.cell_term
        with np.errstate(over="ignore"):
            system += lam * r.data
        if not np.isfinite(system).all():
            raise ConfigError(f"smoothing weight lam={lam} overflows the smoothing system")
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
        n_e = fem.n_edges
        self._fit_rows = slice(0, n)
        self._jump_rows = slice(n, n + n_e)
        self._system_rows = slice(n + n_e, None)
        self._covariate_cache: tuple[CovariateMatrix, tuple] | None = None
        # the upper band in LAPACK's layout, filled by index (see
        # fem.SystemPattern); Fortran order, so the factor overwrites it in place
        u = pattern.bandwidth
        try:
            band = np.zeros((u + 1) * n_v)
        except MemoryError as exc:
            # the band grows as n^1.5 with the cells (ROADMAP item 14)
            raise NumericalFailure(
                f"the smoothing system's band of {(u + 1) * n_v * 8 / 2**20:.0f} MiB "
                f"({u + 1} x {n_v}) does not fit in memory"
            ) from exc
        band[pattern.band_index] = system[pattern.upper]
        pbtrf, self._pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
        self._chol, info = pbtrf(band.reshape((u + 1, n_v), order="F"), lower=0, overwrite_ab=1)
        if info > 0:  # a pivot that is not positive stopped the factorization
            ratio = 0.0
        else:
            pivots = self._chol[u] ** 2
            ratio = pivots.min() / pivots.max()
        if not ratio > _PIVOT_RATIO_TOL:
            raise NumericalFailure(
                f"smoothing system is singular (pivot ratio {ratio:.1e}) at lam={lam:g}: "
                "the data cells do not pin down the affine null space of the penalty, "
                "or lam is so far from 1 that the ratio is lost to its scale"
            )

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # rhs is one vector or a matrix of columns, each from a data-cell target
        c, info = self._pbtrs(self._chol, rhs, lower=0)
        if info != 0:
            raise NumericalFailure(f"band back-substitution failed (pbtrs info {info})")
        if not np.isfinite(c).all():
            raise NumericalFailure("smoothing solve produced non-finite coefficients")
        return c

    def _covariate_system(self, covariates: CovariateMatrix) -> tuple[np.ndarray, ...]:
        # W at the data cells, Psi_d'W, its solutions c_W and the pseudo-inverse
        # of W'(W - S W) depend on the covariates alone: cached per covariate
        # matrix, so repeated solves pay for the column solves once
        cached = self._covariate_cache
        if cached is not None and cached[0] is covariates:
            return cached[1]
        import scipy.linalg

        if not covariates.domain.same_grid(self.fem.tri.domain):
            raise ShapeMismatch("covariates live on a different domain")
        w_data = covariates.values[self.subset]
        gram = w_data.T @ w_data
        try:
            scipy.linalg.cho_factor(gram)
        except np.linalg.LinAlgError as exc:
            raise CollinearCovariates("covariate columns are linearly dependent") from exc
        rhs_w = self._psi_data_t @ w_data
        c_w = self._solve(rhs_w)
        # a is symmetric up to rounding; pinvh reads its lower triangle
        a = gram - rhs_w.T @ c_w
        a_pinv = scipy.linalg.pinvh(a, atol=_RANK_RCOND * np.linalg.norm(gram, 2), rtol=0.0)
        system = (w_data, rhs_w, c_w, a_pinv)
        self._covariate_cache = (covariates, system)
        return system

    def solve(self, h: np.ndarray, covariates: CovariateMatrix | None = None) -> SsrModel:
        h = np.asarray(h, dtype=float).ravel()
        n_data = self.subset.size
        if h.size != n_data:
            raise ShapeMismatch(f"{h.size} targets for {n_data} data cells")
        h_max = np.abs(h).max()
        if not math.isfinite(h_max):
            raise ShapeMismatch("targets must be finite")

        rhs = self._psi_data_t @ h
        c = self._solve(rhs)
        beta = np.zeros(0)
        if covariates is not None:
            # partial-spline beta, the minimum-norm solution of W'(W - S W) beta = W'(h - S h)
            # with W'(S h) = (Psi_d'W)'c_h; the fit to h - W beta follows by linearity
            w_data, rhs_w, c_w, a_pinv = self._covariate_system(covariates)
            beta = a_pinv @ (w_data.T @ h - rhs_w.T @ c)
            c = c - c_w @ beta
            rhs = rhs - rhs_w @ beta
        products = self._products @ c
        fitted = products[self._fit_rows]
        if covariates is not None:
            fitted = fitted + covariates.values @ beta

        # sqrt(x @ x) is exactly what np.linalg.norm computes for a real vector
        r = products[self._system_rows] - rhs
        d = products[self._jump_rows] / self.fem.edge_length
        jumps, scale = d, 1.0
        if h_max > _RESCALE_ABOVE:
            # square over max|h|; the roughness is scaled back by Python
            # float products, which overflow to inf without a warning
            scale = float(h_max)
            r, rhs, jumps = r / scale, rhs / scale, d / scale
        residual = math.sqrt(float(r @ r)) / max(math.sqrt(float(rhs @ rhs)), 1e-30)
        if not residual <= _RESIDUAL_TOL:
            raise NumericalFailure(
                f"smoothing solve residual {residual:.3e} exceeds {_RESIDUAL_TOL}"
            )

        roughness = float(jumps @ (self.fem.edge_length * jumps)) * scale * scale
        return SsrModel(
            coeffs=c,
            laplacian=d,
            beta=beta,
            fitted=fitted,
            roughness=roughness,
        )


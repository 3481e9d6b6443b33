"""Structured triangulation of a masked grid and finite-element assembly.

Each active cell, the unit square of the domain's grid, is split into two
right triangles along the same diagonal (lower-left to upper-right);
vertices are the cell corners shared between neighbors, corner (r, c) at
(x, y) = (c, r). The mesh is one row of vertex ids per active cell, its
lower-left, lower-right, upper-left and upper-right corners
(``Triangulation.corners``): ``assemble`` builds every matrix from them.
Which corners Psi reads, and with what weight, is stated once here
(``_PSI_CORNERS``, ``_PSI_WEIGHT``); ``assemble`` builds Psi from it and
``FemSystem.system_pattern`` places and weighs each cell's Psi'Psi terms
from it, so the smoother takes both from the mesh. Vertices are numbered
diagonal by diagonal, in ascending r - c of the corner (r, c), and by row
within a diagonal. A cell's split diagonal then lies on one diagonal and its
other two corners on the two neighboring ones, so two triangles that share
an edge have all their vertices within two diagonals of corners. That keeps
the smoother's system in a band of half-width at most 2 (short side + 1)
+ 1; on a round mask, whose diagonals hold about 1/sqrt(2) as many corners
as its rows, the band is about 1/sqrt(2) as wide as numbering row by row
would make it. On this mesh we assemble, for linear barycentric elements:

  * the evaluation matrix Psi with one row per active cell giving the
    surface at its center: the center is the midpoint of the split
    diagonal, so each row holds exactly 1/2 at the cell's lower-left and
    upper-right corners and nothing else,
  * the roughness operator: for each interior edge e shared by two
    triangles, row e of J is |e| times the jump of the surface's normal
    derivative across e, and edge_length holds |e|. All triangles are one
    unit right triangle, so J has three fixed stencils (see ``assemble``):
    a cell's diagonal, its side shared with the cell to its right, and
    its side shared with the cell above it.

A piecewise-linear surface has no second derivative inside elements; its
curvature is the distribution carried by those edge jumps. The quadratic
form c' J' diag(1/edge_length) J c equals the sum over interior edges of
integral_e (jump of df/dn)^2 ds, the natural squared-curvature energy for
this element: it vanishes exactly on globally affine surfaces (continuous
gradient) and on nothing else when the mesh is connected.

scipy.sparse loads when the first matrix is built, not when this module is
imported.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .domain import GridDomain, _check_same_domain, _frozen
from .errors import ShapeMismatch

if TYPE_CHECKING:
    import scipy.sparse as sp

# Psi reads a cell's surface at its center, the midpoint of its ll-ur
# diagonal: _PSI_WEIGHT at these columns of Triangulation.corners
_PSI_CORNERS, _PSI_WEIGHT = [0, 3], 0.5


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Mesh of a grid domain.

    Row i of ``corners`` holds the vertex ids of active cell i's lower-left,
    lower-right, upper-left and upper-right corners. The cell's two
    triangles are (ll, lr, ur), below its diagonal, and (ll, ur, ul), above
    it, both positively oriented; the package never lists them.
    """

    domain: GridDomain
    vertices: np.ndarray        # (n_v, 2) coordinates
    corners: np.ndarray         # (n, 4) vertex ids (ll, lr, ul, ur) per active cell

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return 2 * self.corners.shape[0]


def triangulate(domain: GridDomain) -> Triangulation:
    nr, nc = domain.n_rows, domain.n_cols
    # the row and column of each cell's ll, lr, ul and ur corner
    rows = domain.cells[:, :1] + np.array([0, 0, 1, 1])
    cols = domain.cells[:, 1:] + np.array([0, 1, 0, 1])
    corner_used = np.zeros((nr + 1, nc + 1), dtype=bool)
    corner_used[rows, cols] = True

    # number the corners diagonal by diagonal (r - c ascending, then by row):
    # only a cell's ul-lr coupling spans two diagonals, which bounds the
    # smoother's band (see the module docstring)
    corner_row, corner_col = np.nonzero(corner_used)
    order = np.lexsort((corner_row, corner_row - corner_col))
    corner_row, corner_col = corner_row[order], corner_col[order]
    vertex_id = np.full((nr + 1, nc + 1), -1, dtype=np.int64)
    vertex_id[corner_row, corner_col] = np.arange(corner_row.size)
    vertices = np.column_stack([corner_col, corner_row]).astype(float)

    return Triangulation(domain=domain, vertices=_frozen(vertices),
                         corners=_frozen(vertex_id[rows, cols]))


@dataclass(frozen=True, eq=False)
class FemSystem:
    """Assembled matrices for one triangulation.

    ``roughness_matrix`` and ``system_pattern``, which every smoothing
    solver on the mesh reads, are built on first read and kept; a penalty
    that lacks a cell's Psi'Psi positions has no pattern (ShapeMismatch).
    """

    tri: Triangulation
    basis_eval: sp.csr_matrix  # (n, n_v) _PSI_WEIGHT at each cell's _PSI_CORNERS
    edge_jump: sp.csr_matrix   # (n_e, n_v) |e| * normal-derivative jump per interior edge
    edge_length: np.ndarray    # (n_e,) length |e| per interior edge

    @property
    def n_vertices(self) -> int:
        return self.tri.n_vertices

    @property
    def n_edges(self) -> int:
        return self.edge_length.size

    @cached_property
    def roughness_matrix(self) -> sp.csr_matrix:
        """The smoother's penalty J' diag(1/edge_length) J (read-only), sorted by row, then column.

        Its stored entries, the smoother's system pattern, are all nonzero on
        the unit grid and hold each cell's Psi'Psi positions. A term of entry
        (i, j) is J_ei J_ej / |e|: +-1 on a side, +-2 sqrt(2) on a diagonal.
        (v, v) sums squares. A pair on a diagonal stencil, as a cell's (ll, ur)
        is, gets +-2 sqrt(2) plus integers (-2 sqrt(2) twice at the ends of a
        shared side); any other pair, a cell's ll and its right or upper
        neighbor's ur, is on one side stencil alone: +-1.
        """
        import scipy.sparse as sp

        w = sp.diags(1.0 / self.edge_length)
        r = (self.edge_jump.T @ w @ self.edge_jump).tocsr()
        r.sort_indices()
        for a in (r.data, r.indices, r.indptr):
            _frozen(a)
        return r

    @cached_property
    def system_pattern(self) -> SystemPattern:
        """Where a smoothing system's entries sit in ``roughness_matrix``'s pattern (read-only)."""
        r = self.roughness_matrix
        n_v = self.n_vertices
        rows = np.repeat(np.arange(n_v, dtype=np.int64), np.diff(r.indptr))
        cols = r.indices.astype(np.int64)
        keys = rows * n_v + cols
        # each cell's Psi'Psi positions: every ordered pair of its Psi corners
        psi = self.tri.corners[:, _PSI_CORNERS]
        cell_keys = (psi[:, :, None] * n_v + psi[:, None, :]).reshape(psi.shape[0], -1)
        cell_entries = np.searchsorted(keys, cell_keys)
        if not (keys.take(cell_entries, mode="clip") == cell_keys).all():
            raise ShapeMismatch("the penalty does not store every cell's Psi'Psi entries")
        offset = cols - rows
        u = int(offset.max())
        upper = np.flatnonzero(offset >= 0)
        band_index = (u - offset[upper]) + cols[upper] * (u + 1)
        return SystemPattern(
            cell_entries=_frozen(cell_entries),
            upper=_frozen(upper),
            band_index=_frozen(band_index),
            bandwidth=u,
            cell_term=_PSI_WEIGHT ** 2,
        )


@dataclass(frozen=True, eq=False)
class SystemPattern:
    """The smoother's system layout on one mesh, fixed whatever lam or data.

    A system Psi_d'Psi_d + lam * R holds one value per stored entry
    of R = ``FemSystem.roughness_matrix``. ``cell_entries[i]`` are the
    positions there of active cell i's Psi'Psi terms, one per ordered pair
    of the corners Psi reads, (ll, ll), (ll, ur), (ur, ll) and (ur, ur); a
    data cell adds ``cell_term`` at each. The entries at positions ``upper``, all
    on or above the diagonal, fill the upper band of half-width
    ``bandwidth`` in LAPACK's layout, entry (i, j) at row bandwidth + i - j
    of column j: flattened in Fortran order, at ``band_index``. The three
    index arrays are numpy's index type, intp, which fancy indexing and
    bincount read without a conversion.
    """

    cell_entries: np.ndarray
    upper: np.ndarray
    band_index: np.ndarray
    bandwidth: int
    cell_term: float


def assemble(tri: Triangulation) -> FemSystem:
    import scipy.sparse as sp

    n, n_v = tri.domain.n, tri.n_vertices
    ll, lr, ul, ur = tri.corners.T
    at = tri.corners[:, _PSI_CORNERS]  # the vertices Psi reads, one row per cell
    psi = sp.csr_matrix((np.full(at.size, _PSI_WEIGHT), at.ravel(),
                         np.arange(0, at.size + 1, at.shape[1])), shape=(n, n_v))

    # the interior edges: each cell A's diagonal, and the side A shares with
    # the cell B to its right or above it, the cell whose ll corner is A's
    # lr or ul. A stencil lists the apex of A's triangle, the edge's two
    # ends, then the apex of B's
    cell_at = np.full(n_v, -1)
    cell_at[ll] = np.arange(n)
    stencils = [np.column_stack([lr, ll, ur, ul])]
    for end in (lr, ul):
        b = cell_at[end]
        a = np.flatnonzero(b >= 0)
        stencils.append(np.column_stack([ll[a], end[a], ur[a], ur[b[a]]]))
    stencil = np.concatenate(stencils)
    # rows in ascending (lower end, higher end); the first n stencils are diagonals
    ends = np.sort(stencil[:, 1:3], axis=1)
    order = np.argsort(ends[:, 0] * n_v + ends[:, 1])
    diagonal = order < n
    # a row is (1, -1, -1, 1) on its stencil, times 2 across a diagonal and
    # -1 across a side; the penalty squares it, so its sign only has to be fixed
    values = np.where(diagonal, 2.0, -1.0)[:, None] * np.array([1.0, -1.0, -1.0, 1.0])
    edge_jump = sp.csr_matrix(
        (values.ravel(), stencil[order].ravel(), np.arange(0, 4 * order.size + 1, 4)),
        shape=(order.size, n_v),
    )
    edge_jump.sort_indices()  # columns ascending in a row
    return FemSystem(
        tri=tri,
        basis_eval=psi,
        edge_jump=edge_jump,
        edge_length=_frozen(np.where(diagonal, np.sqrt(2.0), 1.0)),
    )


def mesh_for(domain: GridDomain, fem: FemSystem | None = None) -> FemSystem:
    """Every run's mesh: ``fem`` if on ``domain``'s grid (else ShapeMismatch), or one built
    by this module's ``triangulate`` and ``assemble``, so wrappers rebound over them see it."""
    if fem is None:
        return assemble(triangulate(domain))
    _check_same_domain(domain, fem.tri.domain, "mesh")
    return fem

"""Structured triangulation of a masked grid and finite-element assembly.

Each active cell, the unit square of the domain's grid, is split into two
right triangles along the same diagonal (lower-left to upper-right);
vertices are the cell corners shared between neighbors, corner (r, c) at
(x, y) = (c, r). Vertices are numbered diagonal by diagonal, in
ascending r - c of the corner (r, c), and by row within a diagonal. A
cell's split diagonal then lies on one diagonal and its other two corners
on the two neighboring ones, so two triangles that share an edge have all
their vertices within two diagonals of corners. That keeps the smoother's
system in a band of half-width at most 2 (short side + 1) + 1; on a round
mask, whose diagonals hold about 1/sqrt(2) as many corners as its rows, the
band is about 1/sqrt(2) as wide as numbering row by row would make it. On
this mesh we assemble, for linear barycentric elements:

  * the evaluation matrix Psi with one row per active cell giving the
    surface at its center: the center is the midpoint of the split
    diagonal, so each row holds exactly 1/2 at the cell's lower-left and
    upper-right corners and nothing else,
  * the roughness operator: for each interior edge e shared by triangles
    T1 < T2, row e of J is |e| times the jump of the surface's normal
    derivative across e, and edge_length holds |e|.

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

from .domain import GridDomain, _frozen
from .errors import DegenerateTriangle

if TYPE_CHECKING:
    import scipy.sparse as sp

# smallest doubled area a triangle may have, relative to its longest edge
# squared; a ratio, so it judges a mesh alike at any scale
_AREA_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Mesh of a grid domain.

    Active cell i owns triangles 2i = (ll, lr, ur), below its diagonal, and
    2i+1 = (ll, ur, ul), above it, named by the cell's corners.
    """

    domain: GridDomain
    vertices: np.ndarray        # (n_v, 2) coordinates
    triangles: np.ndarray       # (n_t, 3) vertex indices, positive orientation

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def triangulate(domain: GridDomain) -> Triangulation:
    nr, nc = domain.n_rows, domain.n_cols
    corner_used = np.zeros((nr + 1, nc + 1), dtype=bool)
    rows, cols = domain.cells[:, 0], domain.cells[:, 1]
    for dr in (0, 1):
        for dc in (0, 1):
            corner_used[rows + dr, cols + dc] = True

    # number the corners diagonal by diagonal (r - c ascending, then by row):
    # only a cell's ul-lr coupling spans two diagonals, which bounds the
    # smoother's band (see the module docstring)
    corner_row, corner_col = np.nonzero(corner_used)
    order = np.lexsort((corner_row, corner_row - corner_col))
    corner_row, corner_col = corner_row[order], corner_col[order]
    vertex_id = np.full((nr + 1, nc + 1), -1, dtype=np.int64)
    vertex_id[corner_row, corner_col] = np.arange(corner_row.size)
    vertices = np.column_stack([corner_col, corner_row]).astype(float)

    ll = vertex_id[rows, cols]
    lr = vertex_id[rows, cols + 1]
    ul = vertex_id[rows + 1, cols]
    ur = vertex_id[rows + 1, cols + 1]
    triangles = np.empty((2 * domain.n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])   # below the diagonal
    triangles[1::2] = np.column_stack([ll, ur, ul])   # above the diagonal
    return Triangulation(
        domain=domain,
        vertices=_frozen(vertices),
        triangles=_frozen(triangles),
    )


@dataclass(frozen=True, eq=False)
class FemSystem:
    """Assembled matrices for one triangulation.

    ``roughness_matrix`` and ``system_pattern``, which every smoothing
    solver on the mesh reads, are built on first read and kept.
    """

    tri: Triangulation
    basis_eval: sp.csr_matrix  # (n, n_v) 1/2 at each cell's ll and ur corner
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
        """The smoother's penalty J' diag(1/edge_length) J (read-only).

        Its stored entries are the smoother's system pattern: those of the
        product, whose sums that cancel to exactly 0 scipy drops, together
        with every cell's four Psi'Psi positions (its ll and ur corners
        paired), stored as 0 where the product dropped them. Sorted by row,
        then column.
        """
        import scipy.sparse as sp

        w = sp.diags(1.0 / self.edge_length)
        r = (self.edge_jump.T @ w @ self.edge_jump).tocsr()
        r.sort_indices()
        n_v = self.n_vertices
        keys = _entry_keys(r)
        # the cells' Psi'Psi positions the product lacks, inserted as 0
        cell = self._cell_keys.ravel()
        missing = np.unique(cell[keys.take(np.searchsorted(keys, cell), mode="clip") != cell])
        at = np.searchsorted(keys, missing)
        keys = np.insert(keys, at, missing)
        indptr = np.zeros(n_v + 1, dtype=r.indptr.dtype)
        np.cumsum(np.bincount(keys // n_v, minlength=n_v), out=indptr[1:])
        r = sp.csr_matrix((np.insert(r.data, at, 0.0), (keys % n_v).astype(r.indices.dtype),
                           indptr), shape=r.shape)
        for a in (r.data, r.indices, r.indptr):
            _frozen(a)
        return r

    @cached_property
    def system_pattern(self) -> SystemPattern:
        """Where a smoothing system's entries sit in ``roughness_matrix``'s pattern (read-only)."""
        r = self.roughness_matrix
        keys = _entry_keys(r)
        cell_entries = np.searchsorted(keys, self._cell_keys)
        cols = r.indices.astype(np.int64)
        offset = cols - keys // self.n_vertices
        # the band is as wide as the widest entry a system can hold nonzero:
        # one of the penalty's nonzeros or of the cells' Psi'Psi terms
        live = r.data != 0
        live[cell_entries] = True
        u = int(offset[live].max())
        upper = np.flatnonzero((offset >= 0) & (offset <= u))
        band_index = (u - offset[upper]) + cols[upper] * (u + 1)
        return SystemPattern(
            cell_entries=_frozen(_narrow(cell_entries, r.nnz)),
            upper=_frozen(_narrow(upper, r.nnz)),
            band_index=_frozen(_narrow(band_index, (u + 1) * self.n_vertices)),
            bandwidth=u,
        )

    @property
    def _cell_keys(self) -> np.ndarray:
        """(n, 4) keys row * n_v + col of each cell's (ll, ll), (ll, ur), (ur, ll), (ur, ur)."""
        ll, ur = self.basis_eval.indices.reshape(-1, 2).T.astype(np.int64)
        n_v = self.n_vertices
        return np.column_stack([ll * n_v + ll, ll * n_v + ur, ur * n_v + ll, ur * n_v + ur])


@dataclass(frozen=True, eq=False)
class SystemPattern:
    """The smoother's system layout on one mesh, fixed whatever lam or data.

    A system Psi_d'Psi_d + lam * R holds one value per stored entry
    of R = ``FemSystem.roughness_matrix``. ``cell_entries[i]`` are the
    positions there of active cell i's four Psi'Psi terms, (ll, ll),
    (ll, ur), (ur, ll) and (ur, ur). The entries at positions ``upper`` fill
    the upper band of half-width ``bandwidth`` in LAPACK's layout, entry
    (i, j) at row bandwidth + i - j of column j: flattened in Fortran order,
    at ``band_index``.
    """

    cell_entries: np.ndarray
    upper: np.ndarray
    band_index: np.ndarray
    bandwidth: int


def _entry_keys(m: sp.csr_matrix) -> np.ndarray:
    """row * n_cols + col of each stored entry of a CSR matrix, in storage order."""
    n_rows, n_cols = m.shape
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(m.indptr))
    return rows * n_cols + m.indices


def _narrow(index: np.ndarray, bound: int) -> np.ndarray:
    """``index`` in the narrowest unsigned dtype holding values below ``bound``."""
    return index.astype(np.min_scalar_type(max(bound - 1, 0)))


def _element_geometry(tri: Triangulation) -> np.ndarray:
    """Basis gradients of every triangle; rejects flat triangles."""
    p = tri.vertices[tri.triangles]               # (n_t, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    longest2 = np.max([(e1 * e1).sum(1), (e2 * e2).sum(1), ((e2 - e1) ** 2).sum(1)], axis=0)
    flat = area2 <= _AREA_TOL * longest2
    if flat.any():
        bad = int(np.argmax(flat))
        raise DegenerateTriangle(f"triangle {bad} has area {area2[bad] / 2.0}")

    # grad psi_i rotates the opposite edge by +90 degrees: with
    # d = p_{i+2} - p_{i+1}, grad psi_i = (-d_y, d_x) / (2 area)
    grads = np.empty((tri.n_triangles, 3, 2))
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= area2[:, None, None]
    return grads


def assemble(tri: Triangulation) -> FemSystem:
    import scipy.sparse as sp

    grads = _element_geometry(tri)

    # cell i's center is the midpoint of the ll-ur diagonal of triangle 2i
    n = tri.domain.n
    t = tri.triangles
    psi = sp.csr_matrix(
        (np.full(2 * n, 0.5), t[0::2, 0::2].ravel(), np.arange(0, 2 * n + 1, 2)),
        shape=(n, tri.n_vertices),
    )

    edge_jump, edge_length = _assemble_edges(tri, grads)
    return FemSystem(
        tri=tri,
        basis_eval=psi,
        edge_jump=edge_jump,
        edge_length=_frozen(edge_length),
    )


def _assemble_edges(tri: Triangulation, grads: np.ndarray):
    """Rows of J: |e| * (grad_T1 - grad_T2) . n_e over interior edges.

    The edge normal is folded into the row unscaled (rotate the edge vector
    by 90 degrees), so each row already carries the |e| weight. Orientation
    follows ascending triangle index; the penalty squares the rows, only
    determinism needs the sign fixed. With the companion edge lengths,
    (J c)_e^2 / |e| = |e| * jump^2 = integral of the squared jump along e.
    """
    import scipy.sparse as sp

    t = tri.triangles
    pair_local = np.array([[0, 1], [1, 2], [2, 0]])
    pairs = np.sort(t[:, pair_local], axis=2).reshape(-1, 2)      # (3 n_t, 2)
    # one int64 key per (a, b) with a < b; keys sort as the pairs do
    n_v = tri.n_vertices
    keys, inverse, counts = np.unique(
        pairs[:, 0] * n_v + pairs[:, 1], return_inverse=True, return_counts=True
    )

    # slot s is local edge s % 3 of triangle s // 3; a stable sort by edge
    # lists an interior edge's two slots side by side, lower triangle first
    slots = np.argsort(inverse, kind="stable")
    t12 = (slots[counts[inverse[slots]] == 2] // 3).reshape(-1, 2)   # (n_e, 2)
    n_e = t12.shape[0]

    interior = keys[counts == 2]
    ends = tri.vertices[np.column_stack([interior // n_v, interior % n_v])]   # (n_e, 2, 2)
    evec = ends[:, 1] - ends[:, 0]
    normal = np.column_stack([evec[:, 1], -evec[:, 0]])              # length |e|
    vals = np.einsum("ekd,ed->ek", grads[t12].reshape(n_e, 6, 2), normal)
    vals[:, 3:] *= -1.0

    edge_jump = sp.coo_matrix(
        (vals.ravel(), (np.repeat(np.arange(n_e), 6), t[t12].ravel())),
        shape=(n_e, n_v),
    ).tocsr()
    return edge_jump, np.hypot(evec[:, 0], evec[:, 1])

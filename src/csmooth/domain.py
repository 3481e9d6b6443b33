"""Masked grid domains, per-cell fields, and covariate tables.

The grid is its own unit: cell (r, c) is the unit square whose lower-left
corner is (x, y) = (c, r), so its center is (c + 0.5, r + 0.5), and a
volume is a sum of cell values.

Every vector defined over a domain uses row-major active-cell order:
cell (r, c) precedes (r', c') iff (r, c) < (r', c') lexicographically.
Inactive cells never appear in any vector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import DegenerateCovariate, DomainEmpty, ShapeMismatch

# Most cells a grid read or generated may span: its mask and values take
# 576 MiB at this size, and a larger grid is far likelier a typo
MAX_GRID_CELLS = 1 << 26


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GridDomain:
    """A rectangular grid with an activity mask.

    ``active`` is a flat boolean mask of length ``n_rows * n_cols`` in
    row-major order. ``cells`` holds each active cell's (row, col) and
    ``centers`` its center (x, y) = (col + 0.5, row + 0.5).
    """

    # the benchmark's volume check multiplies by it; no code here reads it
    cell_area: ClassVar[float] = 1.0

    n_rows: int
    n_cols: int
    active: np.ndarray
    cells: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    _pos_of_flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ShapeMismatch(f"grid shape {self.n_rows}x{self.n_cols} is not positive")
        mask = np.asarray(self.active, dtype=bool).ravel()
        if mask.size != self.n_rows * self.n_cols:
            raise ShapeMismatch(
                f"mask has {mask.size} entries for a {self.n_rows}x{self.n_cols} grid"
            )
        if not mask.any():
            raise DomainEmpty("mask selects no active cell")
        object.__setattr__(self, "active", _frozen(mask))
        flat = np.flatnonzero(mask)
        cells = np.column_stack([flat // self.n_cols, flat % self.n_cols])
        pos = np.full(mask.size, -1, dtype=np.int64)
        pos[flat] = np.arange(flat.size)
        object.__setattr__(self, "cells", _frozen(cells))
        object.__setattr__(self, "centers", _frozen(cells[:, ::-1] + 0.5))
        object.__setattr__(self, "_pos_of_flat", _frozen(pos))

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def index_of(self, row: int, col: int) -> int:
        """Active-cell position of cell (row, col)."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise ShapeMismatch(f"cell ({row}, {col}) is outside the grid")
        pos = self._pos_of_flat[row * self.n_cols + col]
        if pos < 0:
            raise ShapeMismatch(f"cell ({row}, {col}) is inactive")
        return int(pos)

    def same_grid(self, other: "GridDomain") -> bool:
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and bool(np.array_equal(self.active, other.active))
        )


def make_domain(
    n_rows: int,
    n_cols: int,
    mask: np.ndarray | Sequence[bool] | None = None,
) -> GridDomain:
    """Build a GridDomain; ``mask=None`` activates every cell."""
    if mask is None:
        mask = np.ones(n_rows * n_cols, dtype=bool)
    return GridDomain(n_rows, n_cols, np.asarray(mask, dtype=bool))


def _check_same_domain(a: GridDomain, b: GridDomain, what: str) -> None:
    if a is not b and not a.same_grid(b):
        raise ShapeMismatch(f"{what} is defined on a different domain")


@dataclass(frozen=True, eq=False)
class SpatialField:
    """Per-cell values over a domain, in row-major active-cell order."""

    domain: GridDomain
    values: np.ndarray
    nonnegative: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.domain.n:
            raise ShapeMismatch(
                f"field has {v.size} values for {self.domain.n} active cells"
            )
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        if self.nonnegative and v.size and v.min() < 0:
            raise ValueError(f"field marked nonnegative has min {v.min()}")
        object.__setattr__(self, "values", _frozen(v))

    def total(self) -> float:
        """Total volume: the sum of the cell values."""
        return float(self.values.sum())


@dataclass(frozen=True, eq=False)
class CovariateMatrix:
    """Named per-cell covariate columns over a domain.

    Identically zero columns are rejected: they carry no information and
    make the coefficient solve singular.
    """

    domain: GridDomain
    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.values, dtype=float)
        if w.ndim != 2 or w.shape[0] != self.domain.n:
            raise ShapeMismatch(
                f"covariates have shape {w.shape}, expected ({self.domain.n}, q)"
            )
        if w.shape[1] < 1:
            raise ShapeMismatch("covariate matrix needs at least one column")
        if len(self.names) != w.shape[1]:
            raise ShapeMismatch("one name per covariate column is required")
        if len(set(self.names)) != len(self.names):
            raise ShapeMismatch("covariate names must be distinct")
        if not np.isfinite(w).all():
            raise ValueError("covariate values must be finite")
        dead = np.flatnonzero((w == 0).all(axis=0))
        if dead.size:
            raise DegenerateCovariate(
                f"covariate column '{self.names[dead[0]]}' is identically zero"
            )
        object.__setattr__(self, "values", _frozen(w))
        object.__setattr__(self, "names", tuple(self.names))

    def standardized(self) -> "CovariateMatrix":
        """Every column rescaled to unit size, whatever its units.

        A column whose sd exceeds 1e-12 of its largest magnitude gets zero
        mean and unit variance. A (near) constant one, which centering would
        zero out, is divided by its largest magnitude: a constant becomes
        +-1, and a constant 1 stays as it is.
        """
        w = self.values.copy()
        for j in range(w.shape[1]):
            col = w[:, j]
            size, sd = np.abs(col).max(), col.std()
            w[:, j] = (col - col.mean()) / sd if sd > 1e-12 * size else col / size
        return CovariateMatrix(self.domain, w, self.names)

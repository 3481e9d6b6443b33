"""Station placement, nearest-station patches, and volume aggregation.

Each station observes the volume (the sum of the cell values) of the cells
closer to it than to any other station, by Euclidean distance between cell
centers. Stations sit on cell centers, so squared distances are the
integers drow**2 + dcol**2 and a tie is an exact integer equality. A cell
exactly equidistant from several stations goes to the one whose cell comes
first in row-major order, whatever order the stations are listed in, so
every cell belongs to exactly one patch: the patches are disjoint, every
total is measured over one patch, and css enforces it on that same patch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import GridDomain, SpatialField, _check_same_domain, _frozen
from .errors import (
    DegenerateField,
    InfeasibleVolume,
    InsufficientSupport,
    ShapeMismatch,
)

# Cell-station pairs whose distances are held at once: cells are assigned a
# block at a time, so memory grows with the number of cells, not with cells
# times stations.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True, eq=False)
class StationSet:
    """Distinct active cells hosting one station each."""

    domain: GridDomain
    cells: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.cells, dtype=np.int64).ravel()
        if c.size < 1:
            raise ShapeMismatch("at least one station is required")
        if c.size > self.domain.n:
            raise ShapeMismatch("more stations than active cells")
        if c.min() < 0 or c.max() >= self.domain.n:
            raise ShapeMismatch("station cell index out of range")
        if np.unique(c).size != c.size:
            raise ShapeMismatch("station cells must be distinct")
        object.__setattr__(self, "cells", _frozen(c))

    @property
    def m(self) -> int:
        return self.cells.size

    @property
    def positions(self) -> np.ndarray:
        return self.domain.centers[self.cells]


@np.errstate(over="ignore")  # an overflowing total is the typed error below
def sample_stations(f: SpatialField, m: int, seed: int) -> StationSet:
    """Draw m station cells without replacement, Pr(cell) proportional to f.

    Sequential draws with renormalization: after each pick the chosen cell
    is removed and the remaining probabilities rescale. Deterministic for a
    fixed seed (PCG64).

    A drawn cell keeps its slot with weight 0, and the running sum is
    re-accumulated from that slot on, continuing the sum before it. Adding
    +0.0 leaves a sum unchanged, so every running sum of a remaining cell,
    and with it every pick, is the one that deleting the drawn cell would
    give.
    """
    v = f.values
    if v.size and v.min() < 0:
        raise DegenerateField("field has a negative value; station sampling weights "
                              "must be nonnegative")
    total = v.sum()
    if not total > 0:
        raise DegenerateField("field has zero total mass; cannot place stations")
    if not np.isfinite(total):
        raise DegenerateField(f"field total {total} overflows; cannot place stations")
    positive = np.flatnonzero(v > 0)
    if m < 1:
        raise ShapeMismatch("station count must be at least 1")
    if m > positive.size:
        raise InsufficientSupport(
            f"{m} stations requested but only {positive.size} cells have positive mass"
        )
    rng = np.random.default_rng(seed)
    weights = v[positive].astype(float)
    cum = np.cumsum(weights)
    chosen = np.empty(m, dtype=np.int64)
    for k in range(m):
        u = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, u, side="right"))
        if j == weights.size:   # u rounded up to the total: the last cell left
            j = int(np.flatnonzero(weights)[-1])
        chosen[k] = positive[j]
        # drop slot j: re-accumulate cum[j:] from the sum before it, adding
        # the same terms in the same order as a cumsum of the cells left
        weights[j] = cum[j - 1] if j else 0.0
        np.cumsum(weights[j:], out=cum[j:])
        weights[j] = 0.0
    return StationSet(f.domain, np.sort(chosen))


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of cells to station patches.

    A cell is tied between the stations whose integer squared distance
    equals its minimum exactly; ``station_of_cell`` gives it to the one
    whose cell comes first in row-major order, one station per cell, so the
    patches do not depend on the order the stations are listed in.
    ``patch_sizes`` are the integer cell counts of the patches, summing to
    n, and ``has_ties`` records whether any cell was tied.
    """

    stations: StationSet
    patch_sizes: np.ndarray
    station_of_cell: np.ndarray
    has_ties: bool

    @property
    def domain(self) -> GridDomain:
        return self.stations.domain

    @property
    def m(self) -> int:
        return self.stations.m

    @cached_property
    def matrix_binary(self):
        """The patches as an (m, n) 0/1 scipy.sparse matrix, built on first use.

        No code in the package reads it; the benchmark's volume check does,
        and it goes once that check reads ``station_of_cell``.
        """
        import scipy.sparse as sp

        n = self.station_of_cell.size
        return sp.csr_matrix(
            (np.ones(n), (self.station_of_cell, np.arange(n))), shape=(self.m, n)
        )


def build_partition(domain: GridDomain, stations: StationSet) -> Partition:
    _check_same_domain(domain, stations.domain, "station set")
    cells = domain.cells
    # stations ranked by cell, so a tie goes to the first cell, not list slot
    order = np.argsort(stations.cells)
    srow, scol = cells[stations.cells[order]].T
    n, m = domain.n, stations.m
    step = max(1, _BLOCK_PAIRS // m)
    station_of_cell = np.empty(n, dtype=np.int64)
    has_ties = False
    for lo in range(0, n, step):
        r, c = cells[lo:lo + step].T
        d2 = (r[:, None] - srow) ** 2 + (c[:, None] - scol) ** 2
        tied = d2 == d2.min(axis=1, keepdims=True)
        station_of_cell[lo:lo + step] = order[np.argmax(tied, axis=1)]
        # a row holding more than its one nearest station is a tied cell
        has_ties = has_ties or np.count_nonzero(tied) > tied.shape[0]
    return Partition(
        stations=stations,
        patch_sizes=_frozen(np.bincount(station_of_cell, minlength=m)),
        station_of_cell=_frozen(station_of_cell),
        has_ties=bool(has_ties),
    )


@dataclass(frozen=True, eq=False)
class AggregateObservations:
    """One observed volume per station."""

    values: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.values, dtype=float).ravel()
        if not np.isfinite(z).all():
            raise InfeasibleVolume("volumes must be finite")
        if z.size and z.min() < 0:
            raise InfeasibleVolume(f"negative volume {z.min()} observed")
        object.__setattr__(self, "values", _frozen(z))

    @property
    def m(self) -> int:
        return self.values.size


def aggregate(partition: Partition, f: SpatialField) -> AggregateObservations:
    """Per-station volumes: each patch's sum of f."""
    _check_same_domain(partition.domain, f.domain, "field")
    return AggregateObservations(
        np.bincount(partition.station_of_cell, weights=f.values, minlength=partition.m)
    )


def patched_estimate(partition: Partition, z: AggregateObservations) -> SpatialField:
    """Spread each station volume uniformly over its patch.

    Cell j gets z_i / |patch_i| for the patch i holding it, so aggregating
    the result returns z.
    """
    if z.m != partition.m:
        raise ShapeMismatch(f"{z.m} volumes for {partition.m} stations")
    density = z.values / partition.patch_sizes
    return SpatialField(partition.domain, density[partition.station_of_cell],
                        nonnegative=True)

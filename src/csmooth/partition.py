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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import GridDomain, SpatialField, _check_same_domain, _frozen
from .errors import (
    ConfigError,
    DegenerateField,
    InfeasibleVolume,
    InsufficientSupport,
    ShapeMismatch,
)

# Cell-site pairs whose distances ``_nearest_site`` holds at once
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
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
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

    ``station_of_cell`` labels each active cell with its patch, one integer
    in 0..m-1 per cell; a label array of another length, dtype or range is a
    ShapeMismatch and a patch with no cell an InfeasibleVolume, both raised
    when the partition is built. The labels are kept as a read-only int64
    copy, and ``patch_sizes``, the integer cell counts of the patches
    summing to n, is derived from them rather than given, so the two cannot
    disagree. ``has_ties`` records whether any cell was tied (see
    ``build_partition``).
    """

    stations: StationSet
    station_of_cell: np.ndarray
    has_ties: bool
    patch_sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        labels, n, m = np.asarray(self.station_of_cell), self.domain.n, self.m
        if labels.shape != (n,):
            raise ShapeMismatch(f"{labels.size} patch labels in shape {labels.shape} "
                                f"for {n} active cells")
        if labels.dtype.kind not in "iu":
            raise ShapeMismatch(f"patch labels must be integers, got dtype {labels.dtype}")
        if labels.min() < 0 or labels.max() >= m:
            raise ShapeMismatch(f"patch labels must lie in 0..{m - 1}, got "
                                f"{labels.min()}..{labels.max()}")
        labels = labels.astype(np.int64)
        sizes = np.bincount(labels, minlength=m)
        if not sizes.all():
            raise InfeasibleVolume(f"patch {int(np.argmin(sizes))} holds no cell")
        object.__setattr__(self, "station_of_cell", _frozen(labels))
        object.__setattr__(self, "patch_sizes", _frozen(sizes))

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


def _nearest_site(cells: np.ndarray, sites: np.ndarray) -> tuple[np.ndarray, bool]:
    """Index in ``sites`` of each cell's nearest site, and whether any cell was tied.

    Both hold integer (row, col) pairs, so squared distances tie exactly; a
    tied cell goes to the site listed first. Taking ``_BLOCK_PAIRS``
    cell-site pairs at a time keeps memory linear in the cells."""
    srow, scol = sites.T
    step = max(1, _BLOCK_PAIRS // srow.size)
    nearest = np.empty(len(cells), dtype=np.int64)
    has_ties = False
    for lo in range(0, len(cells), step):
        r, c = cells[lo:lo + step].T
        d2 = (r[:, None] - srow) ** 2 + (c[:, None] - scol) ** 2
        tied = d2 == d2.min(axis=1, keepdims=True)
        nearest[lo:lo + step] = np.argmax(tied, axis=1)
        # a row holding more than its one nearest site is a tied cell
        has_ties = has_ties or np.count_nonzero(tied) > tied.shape[0]
    return nearest, bool(has_ties)


def build_partition(domain: GridDomain, stations: StationSet) -> Partition:
    """Nearest-station patches: each cell goes to the station closest to it.

    A cell is tied between the stations whose integer squared distance
    equals its minimum exactly; it goes to the one whose cell comes first in
    row-major order, one station per cell, so the patches do not depend on
    the order the stations are listed in. Every station's own cell is
    nearest to it, so no patch is empty. The labels (``_nearest_site``'s,
    in memory linear in the cells) and the tie flag go to the ``Partition``
    constructor, which checks them and counts the patches.
    """
    _check_same_domain(domain, stations.domain, "station set")
    # stations ranked by cell, so a tie goes to the first cell, not list slot
    order = np.argsort(stations.cells)
    nearest, has_ties = _nearest_site(domain.cells, domain.cells[stations.cells[order]])
    return Partition(stations, order[nearest], has_ties)


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

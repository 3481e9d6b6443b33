"""Output checks. A method run that raises or fails a check counts as failed.

The checks call csmooth through references bound when this module is
imported, before any tracing rebinds the package's names, so their own
work never shows up in a layer's span.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from csmooth.errors import CsmoothError
from csmooth.partition import aggregate, build_partition, sample_stations

# criterion 1's limits: patch sums exact to 1e-9 relative, no negative cell
VOLUME_RTOL = 1e-9
MIN_VALUE = -1e-12

# CsmoothError is the package's typed failure; ValueError is what
# SpatialField and numpy's LinAlgError raise on non-finite or singular data
RUN_ERRORS = (CsmoothError, ValueError)


class Tally:
    """Method runs attempted and failed, plus each scored run's mean relative error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mre: dict[str, list[float]] = defaultdict(list)

    def fail(self, runs: int, why: str) -> None:
        self.failed += runs
        print(f"FAILED ({runs} run{'s' * (runs != 1)}): {why}", flush=True)


def estimate_problems(values: np.ndarray, domain, truth_domain) -> list[str]:
    """Every estimate must be finite and live on the workload's domain."""
    problems = []
    if not domain.same_grid(truth_domain):
        problems.append("estimate is on a different domain")
    if values.shape != (truth_domain.n,) or not np.isfinite(values).all():
        problems.append("estimate is not a finite value per active cell")
    return problems


def volume_problems(values: np.ndarray, partition, volumes) -> list[str]:
    """A css estimate must reproduce every station volume over its binary patch."""
    sums = partition.matrix_binary @ values * partition.domain.cell_area
    scale = max(float(np.abs(volumes.values).max(initial=0.0)), 1.0)
    violation = float(np.abs(sums - volumes.values).max(initial=0.0)) / scale
    problems = []
    if violation > VOLUME_RTOL:
        problems.append(f"patch sums off by {violation:.3e} relative (limit {VOLUME_RTOL})")
    if values.size and values.min() < MIN_VALUE:
        problems.append(f"minimum {values.min():.3e} is below {MIN_VALUE}")
    return problems


def observed(truth, n_stations: int, seed: int):
    """Recompute the partition and volumes a run saw from its truth and station seed."""
    stations = sample_stations(truth, n_stations, seed=seed)
    partition = build_partition(truth.domain, stations)
    return partition, aggregate(partition, truth)


def score(tally: Tally, method: str, mre: float, n_errors: int, excluded: int, n_cells: int) -> list[str]:
    """Record a run's MRE; its errors must cover every active cell and be finite."""
    if n_errors + excluded != n_cells or not np.isfinite(mre):
        return [f"error report covers {n_errors}+{excluded} of {n_cells} cells, mre {mre}"]
    tally.mre[method].append(float(mre))
    return []

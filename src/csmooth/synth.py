"""Seeded synthetic ground-truth fields.

A field is a sum of Gaussian bumps centered at cell centers, an optional
covariate effect W beta, and optional noise clipped at zero. Amplitudes are
nonnegative and the composed field is clipped at zero, so generated truths
are always valid nonnegative densities. All draws flow from one PCG64
generator in a fixed order, making every field bit-reproducible per seed.

Covariate columns (when beta is given): the first column is constant one,
the rest are blocky nearest-anchor patterns with values in (0, 1). Blocky
columns carry jumps a pure smoothness prior cannot express, which is what
makes them informative for the feature-aware recovery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import MAX_GRID_CELLS, CovariateMatrix, SpatialField, make_domain
from .errors import ConfigError
from .partition import _nearest_site


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int
    n_cols: int
    bumps: int = 3
    amp_range: tuple[float, float] = (1.0, 4.0)
    width_range: tuple[float, float] = (2.0, 5.0)
    beta: tuple[float, ...] | None = None
    covariate_blocks: int = 4
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # checked before anything is allocated: a grid past the cap would
        # be refused by every reader of its truth.csv
        cells = self.n_rows * self.n_cols
        if not (self.n_rows >= 1 and self.n_cols >= 1 and cells <= MAX_GRID_CELLS):
            raise ConfigError(f"a grid needs positive sides and at most {MAX_GRID_CELLS} "
                              f"cells, got {self.n_rows}x{self.n_cols}")
        numbers = {"amplitude range": self.amp_range, "width range": self.width_range,
                   "noise": (self.noise,), "beta": self.beta or ()}
        for what, values in numbers.items():
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{what} must be finite, got {', '.join(map(repr, values))}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.bumps < 0:
            raise ConfigError("bump count cannot be negative")
        if self.amp_range[0] < 0 or self.amp_range[1] < self.amp_range[0]:
            raise ConfigError(f"bad amplitude range {self.amp_range}")
        if self.width_range[0] <= 0 or self.width_range[1] < self.width_range[0]:
            raise ConfigError(f"bad width range {self.width_range}")
        if self.noise < 0:
            raise ConfigError("noise level cannot be negative")
        if self.beta is not None and len(self.beta) < 1:
            raise ConfigError("beta needs at least one entry when given")
        if self.covariate_blocks < 1:
            raise ConfigError("need at least one covariate block")
        # each blocky column anchors its blocks at distinct cells
        if self.beta is not None and len(self.beta) > 1 and self.covariate_blocks > cells:
            raise ConfigError(f"{self.covariate_blocks} covariate blocks need as many cells; "
                              f"the {self.n_rows}x{self.n_cols} grid has {cells}")


@np.errstate(over="ignore")  # an overflowing total is the typed error below
def generate_field(spec: SynthSpec) -> tuple[SpatialField, CovariateMatrix | None]:
    """The truth field of ``spec`` and its covariates (None without ``beta``).

    A blocky column gives each cell the level of its nearest anchor, the first
    drawn on a tie, by ``partition._nearest_site`` in memory linear in the cells."""
    domain = make_domain(spec.n_rows, spec.n_cols)
    rng = np.random.default_rng(spec.seed)
    centers = domain.centers
    values = np.zeros(domain.n)

    for _ in range(spec.bumps):
        at = centers[rng.integers(domain.n)]
        amp = rng.uniform(*spec.amp_range)
        width = rng.uniform(*spec.width_range)
        d2 = ((centers - at) ** 2).sum(axis=1)
        values += amp * np.exp(-d2 / (2.0 * width * width))

    covariates = None
    if spec.beta is not None:
        q = len(spec.beta)
        w = np.empty((domain.n, q))
        w[:, 0] = 1.0
        for j in range(1, q):
            anchors = domain.cells[rng.choice(domain.n, size=spec.covariate_blocks, replace=False)]
            levels = rng.uniform(0.05, 1.0, size=spec.covariate_blocks)
            w[:, j] = levels[_nearest_site(domain.cells, anchors)[0]]
        names = tuple(f"x{j}" for j in range(q))
        covariates = CovariateMatrix(domain, w, names)
        values += w @ np.asarray(spec.beta, dtype=float)

    if spec.noise > 0:
        values += np.maximum(0.0, rng.normal(0.0, spec.noise, size=domain.n))

    values = np.maximum(values, 0.0)
    total = values.sum()
    if not np.isfinite(total):
        raise ConfigError(f"generated field total {total} is not finite; "
                          "amplitudes, beta or noise are too large")
    return SpatialField(domain, values, nonnegative=True), covariates

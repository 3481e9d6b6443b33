"""Per-cell relative error reports and their empirical CDFs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SpatialField, _check_same_domain, _frozen
from .errors import ConfigError, NoEvaluableCells


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Relative errors of an estimate against a truth field.

    Cells whose true value falls below the floor are excluded (their
    relative error is undefined) and counted in ``excluded``.
    """

    method: str
    seed: int | None
    errors: np.ndarray       # per evaluable cell, estimate order preserved
    mre: float
    cdf_errors: np.ndarray   # sorted error levels
    cdf_values: np.ndarray   # empirical CDF at each level, ends at 1
    excluded: int


def relative_errors(
    estimate: SpatialField,
    truth: SpatialField,
    floor: float = 1e-9,
    method: str = "",
    seed: int | None = None,
) -> EvalReport:
    _check_same_domain(estimate.domain, truth.domain, "truth field")
    if not (np.isfinite(floor) and floor > 0):
        raise ConfigError(f"floor must be positive and finite, got {floor}")
    keep = truth.values >= floor
    excluded = int((~keep).sum())
    if not keep.any():
        raise NoEvaluableCells(f"every cell is below the truth floor {floor}")
    err = np.abs(estimate.values[keep] - truth.values[keep]) / truth.values[keep]
    order = np.sort(err)
    cdf_values = np.arange(1, order.size + 1) / order.size
    return EvalReport(
        method=method,
        seed=seed,
        errors=_frozen(err),
        mre=float(err.mean()),
        cdf_errors=_frozen(order),
        cdf_values=_frozen(cdf_values),
        excluded=excluded,
    )

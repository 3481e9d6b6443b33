"""CSV and JSON input/output.

All writers emit rows in a deterministic order and format floats with
round-trip repr, so rerunning a seeded pipeline reproduces files byte for
byte. Schemas:

  field         row,col,value            one line per active cell, sorted
  covariates    row,col,<name>...        aligned with the active cells
  stations      station_id,row,col       ids are 0-based positions
  aggregates    station_id,volume
  activity      square_id,timestamp,sms_in,sms_out,call_in,call_out
                (square ids are 1-based, row-major on a 100x100 grid;
                 empty activity cells count as zero)
  features      square_id,<the six feature columns>, superset tolerated
  report        method,seed,mre,excluded
  cdf           method,seed,error,cdf
  diagnostics   iter,primal_residual,dual_residual,objective
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .admm import RecoveryResult
from .domain import CovariateMatrix, GridDomain, SpatialField, make_domain
from .errors import SchemaError, ShapeMismatch
from .metrics import EvalReport
from .partition import AggregateObservations, StationSet

RNG_NAME = "numpy-pcg64"

FEATURE_NAMES = (
    "population",
    "green_area_pct",
    "sport_centers",
    "universities",
    "businesses",
    "bus_stops",
)

CDR_HEADER = ("square_id", "timestamp", "sms_in", "sms_out", "call_in", "call_out")


def _fmt(x: float) -> str:
    return repr(float(x))


def _open_rows(path: str | Path):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return handle


def _parse_float(text: str, path, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise SchemaError(
            f"{path}:{line}: column '{column}' has non-numeric value {text!r}"
        ) from exc


def _parse_int(text: str, path, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SchemaError(
            f"{path}:{line}: column '{column}' has non-integer value {text!r}"
        ) from exc


def _read_rows(
    path: str | Path, header: tuple[str, ...], what: str | None = None, prefix: bool = False
):
    """Yield (line number, fields) for every nonblank data row of a CSV.

    The header must equal ``header`` or, with ``prefix``, start with it and
    name at least one more column; then the extra column names are yielded
    first, before any row. Every row must have as many fields as the header.
    A file with a header and no rows raises unless ``what`` is None.
    """
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        names = () if got is None else tuple(h.strip() for h in got)
        extra = names[len(header):] if names[:len(header)] == header else None
        if extra is None or bool(extra) != prefix:
            expected = ",".join(header) + (",<names...>" if prefix else "")
            raise SchemaError(f"{path}: expected header {expected}, got {got}")
        if prefix:
            yield extra
        width = len(names)
        listed = False
        for i, rec in enumerate(reader, start=2):
            if len(rec) != width:
                if not rec:
                    continue
                raise SchemaError(f"{path}:{i}: expected {width} columns, got {len(rec)}")
            listed = True
            yield i, rec
    if not listed and what is not None:
        raise SchemaError(f"{path}: no {what} listed")


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)


def _station_id(text: str, expected: int, path, line: int) -> None:
    if _parse_int(text, path, line, "station_id") != expected:
        raise SchemaError(f"{path}:{line}: station ids must run 0,1,2,...")


def _active_cell(domain: GridDomain, row: str, col: str, path, line: int) -> int:
    """Active-cell position of the cell named by a row's row and col fields."""
    r = _parse_int(row, path, line, "row")
    c = _parse_int(col, path, line, "col")
    try:
        return domain.index_of(r, c)
    except ShapeMismatch as exc:
        raise SchemaError(f"{path}:{line}: cell ({r}, {c}) is not active") from exc


def _seed_text(seed: int | None) -> int | str:
    return "" if seed is None else seed


# ---------------------------------------------------------------- fields

def write_field_csv(field: SpatialField, path: str | Path) -> None:
    rows = ([r, c, _fmt(v)] for (r, c), v in zip(field.domain.cells, field.values))
    _write_rows(path, ["row", "col", "value"], rows)


def read_field_csv(path: str | Path) -> SpatialField:
    """Read a field CSV; the active mask is exactly the set of rows present."""
    rows: list[tuple[int, int, float]] = []
    for i, rec in _read_rows(path, ("row", "col", "value"), "cells"):
        r = _parse_int(rec[0], path, i, "row")
        c = _parse_int(rec[1], path, i, "col")
        if r < 0 or c < 0:
            raise SchemaError(f"{path}:{i}: negative cell index ({r}, {c})")
        rows.append((r, c, _parse_float(rec[2], path, i, "value")))
    if len({(r, c) for r, c, _ in rows}) != len(rows):
        raise SchemaError(f"{path}: duplicate cell listed")
    n_rows = max(r for r, _, _ in rows) + 1
    n_cols = max(c for _, c, _ in rows) + 1
    mask = np.zeros(n_rows * n_cols, dtype=bool)
    values = np.zeros(n_rows * n_cols)
    for r, c, v in rows:
        mask[r * n_cols + c] = True
        values[r * n_cols + c] = v
    domain = make_domain(n_rows, n_cols, mask)
    return SpatialField(domain, values[mask])


# ------------------------------------------------------------ covariates

def write_covariates_csv(cov: CovariateMatrix, path: str | Path) -> None:
    rows = ([r, c, *map(_fmt, vals)] for (r, c), vals in zip(cov.domain.cells, cov.values))
    _write_rows(path, ["row", "col", *cov.names], rows)


def read_covariates_csv(path: str | Path, domain: GridDomain) -> CovariateMatrix:
    """Read covariates for exactly the active cells of ``domain``."""
    rows = _read_rows(path, ("row", "col"), "covariate rows", prefix=True)
    names = next(rows)
    values = np.zeros((domain.n, len(names)))
    seen = np.zeros(domain.n, dtype=bool)
    for i, rec in rows:
        pos = _active_cell(domain, rec[0], rec[1], path, i)
        if seen[pos]:
            r, c = domain.cells[pos]
            raise SchemaError(f"{path}:{i}: duplicate cell ({r}, {c})")
        seen[pos] = True
        values[pos] = [_parse_float(v, path, i, names[j]) for j, v in enumerate(rec[2:])]
    if not seen.all():
        missing = int((~seen).sum())
        raise SchemaError(f"{path}: {missing} active cells have no covariate row")
    return CovariateMatrix(domain, values, names)


# -------------------------------------------------------------- stations

def write_stations_csv(stations: StationSet, path: str | Path) -> None:
    rows = ([i, *stations.domain.cells[cell]] for i, cell in enumerate(stations.cells))
    _write_rows(path, ["station_id", "row", "col"], rows)


def read_stations_csv(path: str | Path, domain: GridDomain) -> StationSet:
    cells = []
    for i, rec in _read_rows(path, ("station_id", "row", "col"), "stations"):
        _station_id(rec[0], len(cells), path, i)
        cells.append(_active_cell(domain, rec[1], rec[2], path, i))
    return StationSet(domain, np.asarray(cells))


# ------------------------------------------------------------ aggregates

def write_aggregates_csv(volumes: AggregateObservations, path: str | Path) -> None:
    rows = ([i, _fmt(v)] for i, v in enumerate(volumes.values))
    _write_rows(path, ["station_id", "volume"], rows)


def read_aggregates_csv(path: str | Path) -> AggregateObservations:
    vols = []
    for i, rec in _read_rows(path, ("station_id", "volume"), "volumes"):
        _station_id(rec[0], len(vols), path, i)
        vols.append(_parse_float(rec[1], path, i, "volume"))
    return AggregateObservations(np.asarray(vols))


# ---------------------------------------------------------------- reports

def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    rows = ([rep.method, _seed_text(rep.seed), _fmt(rep.mre), rep.excluded] for rep in reports)
    _write_rows(path, ["method", "seed", "mre", "excluded"], rows)


def read_report_csv(path: str | Path) -> list[tuple[str, str, float, int]]:
    """Rows of a report CSV as (method, seed text, mre, excluded)."""
    rows: list[tuple[str, str, float, int]] = []
    for i, rec in _read_rows(path, ("method", "seed", "mre", "excluded"), "report rows"):
        mre = _parse_float(rec[2], path, i, "mre")
        rows.append((rec[0], rec[1], mre, _parse_int(rec[3], path, i, "excluded")))
    return rows


def write_cdf_csv(report: EvalReport, path: str | Path) -> None:
    seed = _seed_text(report.seed)
    rows = ([report.method, seed, _fmt(e), _fmt(p)]
            for e, p in zip(report.cdf_errors, report.cdf_values))
    _write_rows(path, ["method", "seed", "error", "cdf"], rows)


def read_cdf_csv(path: str | Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Return (method, error levels, cdf values) from a cdf CSV."""
    errors, values, method = [], [], ""
    for i, rec in _read_rows(path, ("method", "seed", "error", "cdf"), "cdf samples"):
        method = rec[0]
        errors.append(_parse_float(rec[2], path, i, "error"))
        values.append(_parse_float(rec[3], path, i, "cdf"))
    return method, np.asarray(errors), np.asarray(values)


def write_diagnostics_csv(result: RecoveryResult, path: str | Path) -> None:
    """Per-iteration residuals and objective, one row per sweep."""
    history = zip(result.primal_residuals, result.dual_residuals, result.objectives)
    rows = ([k, *map(_fmt, sweep)] for k, sweep in enumerate(history, start=1))
    _write_rows(path, ["iter", "primal_residual", "dual_residual", "objective"], rows)


# -------------------------------------------------------------- activity

def load_cdr_csv(
    path: str | Path,
    time_range: tuple[float, float] | None = None,
    n_rows: int = 100,
    n_cols: int = 100,
) -> SpatialField:
    """Sum the four activity columns per square over rows inside time_range.

    Square id 1 maps to cell (0, 0) and ids advance row-major. Empty
    activity cells count as zero; squares never mentioned stay zero. The
    returned field covers the full grid.
    """
    acc = np.zeros(n_rows * n_cols)
    for i, rec in _read_rows(path, CDR_HEADER):
        sid = _parse_int(rec[0], path, i, "square_id")
        if not (1 <= sid <= n_rows * n_cols):
            raise SchemaError(f"{path}:{i}: square_id {sid} outside 1..{n_rows * n_cols}")
        ts = _parse_float(rec[1], path, i, "timestamp")
        if time_range is not None and not (time_range[0] <= ts <= time_range[1]):
            continue
        total = 0.0
        for j, col in enumerate(CDR_HEADER[2:], start=2):
            text = rec[j].strip()
            if text:
                total += _parse_float(text, path, i, col)
        acc[sid - 1] += total
    domain = make_domain(n_rows, n_cols)
    return SpatialField(domain, acc)


def load_features_csv(
    path: str | Path,
    domain: GridDomain,
    names: tuple[str, ...] = FEATURE_NAMES,
) -> CovariateMatrix:
    """Read per-square features; squares absent from the file become inactive.

    The returned CovariateMatrix lives on a new domain restricted to the
    squares present (its ``domain`` attribute). The header must contain
    ``square_id`` and every requested feature name; extra columns are
    ignored. A duplicated square id or a malformed value is a SchemaError.
    """
    n_cells = domain.n_rows * domain.n_cols
    present = np.zeros(n_cells, dtype=bool)
    raw = np.zeros((n_cells, len(names)))
    with _open_rows(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: missing header")
        fields = [h.strip() for h in reader.fieldnames]
        needed = ["square_id", *names]
        missing = [h for h in needed if h not in fields]
        if missing:
            raise SchemaError(f"{path}: header lacks columns {missing}")
        for i, rec in enumerate(reader, start=2):
            sid = _parse_int((rec.get("square_id") or "").strip(), path, i, "square_id")
            if not (1 <= sid <= n_cells):
                raise SchemaError(f"{path}:{i}: square_id {sid} outside 1..{n_cells}")
            flat = sid - 1
            if present[flat]:
                raise SchemaError(f"{path}:{i}: duplicate square_id {sid}")
            if not domain.active[flat]:
                raise SchemaError(f"{path}:{i}: square_id {sid} is inactive in the domain")
            present[flat] = True
            for j, name in enumerate(names):
                raw[flat, j] = _parse_float((rec.get(name) or "").strip(), path, i, name)
    if not present.any():
        raise SchemaError(f"{path}: no squares listed")
    restricted = make_domain(
        domain.n_rows, domain.n_cols, present,
        cell_area=domain.cell_area, origin=domain.origin, cell_size=domain.cell_size,
    )
    return CovariateMatrix(restricted, raw[present], tuple(names))


# -------------------------------------------------------------- manifest

def write_manifest(manifest: dict, path: str | Path) -> None:
    with open(path, "w") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")


def read_manifest(path: str | Path) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: manifest must be a JSON object")
    return data


def restrict_field(field: SpatialField, domain: GridDomain) -> SpatialField:
    """Field values of ``field`` on a subdomain of its grid."""
    src = field.domain
    if (src.n_rows, src.n_cols) != (domain.n_rows, domain.n_cols):
        raise ShapeMismatch("subdomain has a different grid shape")
    if (domain.active & ~src.active).any():
        raise ShapeMismatch("subdomain activates cells the field does not cover")
    full = np.zeros(src.n_rows * src.n_cols)
    full[src.active] = field.values
    return SpatialField(domain, full[domain.active], nonnegative=field.nonnegative)

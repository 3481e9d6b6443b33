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
  mesh          id,x,y and id,v1,v2,v3
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
from .fem import Triangulation
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


# ---------------------------------------------------------------- fields

def write_field_csv(field: SpatialField, path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["row", "col", "value"])
        for (r, c), v in zip(field.domain.cells, field.values):
            w.writerow([r, c, _fmt(v)])


def read_field_csv(path: str | Path) -> SpatialField:
    """Read a field CSV; the active mask is exactly the set of rows present."""
    rows: list[tuple[int, int, float]] = []
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["row", "col", "value"]:
            raise SchemaError(f"{path}: expected header row,col,value, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise SchemaError(f"{path}:{i}: expected 3 columns, got {len(rec)}")
            r = _parse_int(rec[0], path, i, "row")
            c = _parse_int(rec[1], path, i, "col")
            if r < 0 or c < 0:
                raise SchemaError(f"{path}:{i}: negative cell index ({r}, {c})")
            rows.append((r, c, _parse_float(rec[2], path, i, "value")))
    if not rows:
        raise SchemaError(f"{path}: no cells listed")
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
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["row", "col", *cov.names])
        for (r, c), vals in zip(cov.domain.cells, cov.values):
            w.writerow([r, c, *map(_fmt, vals)])


def read_covariates_csv(path: str | Path, domain: GridDomain) -> CovariateMatrix:
    """Read covariates for exactly the active cells of ``domain``."""
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 3 or [h.strip() for h in header[:2]] != ["row", "col"]:
            raise SchemaError(f"{path}: expected header row,col,<names...>, got {header}")
        names = tuple(h.strip() for h in header[2:])
        values = np.zeros((domain.n, len(names)))
        seen = np.zeros(domain.n, dtype=bool)
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2 + len(names):
                raise SchemaError(f"{path}:{i}: expected {2 + len(names)} columns")
            r = _parse_int(rec[0], path, i, "row")
            c = _parse_int(rec[1], path, i, "col")
            try:
                pos = domain.index_of(r, c)
            except ShapeMismatch as exc:
                raise SchemaError(f"{path}:{i}: cell ({r}, {c}) is not active") from exc
            if seen[pos]:
                raise SchemaError(f"{path}:{i}: duplicate cell ({r}, {c})")
            seen[pos] = True
            values[pos] = [_parse_float(v, path, i, names[j]) for j, v in enumerate(rec[2:])]
    if not seen.all():
        missing = int((~seen).sum())
        raise SchemaError(f"{path}: {missing} active cells have no covariate row")
    return CovariateMatrix(domain, values, names)


# -------------------------------------------------------------- stations

def write_stations_csv(stations: StationSet, path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["station_id", "row", "col"])
        for i, cell in enumerate(stations.cells):
            r, c = stations.domain.cells[cell]
            w.writerow([i, r, c])


def read_stations_csv(path: str | Path, domain: GridDomain) -> StationSet:
    cells = []
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["station_id", "row", "col"]:
            raise SchemaError(f"{path}: expected header station_id,row,col, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise SchemaError(f"{path}:{i}: expected 3 columns")
            sid = _parse_int(rec[0], path, i, "station_id")
            if sid != len(cells):
                raise SchemaError(f"{path}:{i}: station ids must run 0,1,2,...")
            r = _parse_int(rec[1], path, i, "row")
            c = _parse_int(rec[2], path, i, "col")
            try:
                cells.append(domain.index_of(r, c))
            except ShapeMismatch as exc:
                raise SchemaError(f"{path}:{i}: cell ({r}, {c}) is not active") from exc
    if not cells:
        raise SchemaError(f"{path}: no stations listed")
    return StationSet(domain, np.asarray(cells))


# ------------------------------------------------------------ aggregates

def write_aggregates_csv(volumes: AggregateObservations, path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["station_id", "volume"])
        for i, v in enumerate(volumes.values):
            w.writerow([i, _fmt(v)])


def read_aggregates_csv(path: str | Path) -> AggregateObservations:
    vols = []
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["station_id", "volume"]:
            raise SchemaError(f"{path}: expected header station_id,volume, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2:
                raise SchemaError(f"{path}:{i}: expected 2 columns")
            sid = _parse_int(rec[0], path, i, "station_id")
            if sid != len(vols):
                raise SchemaError(f"{path}:{i}: station ids must run 0,1,2,...")
            vols.append(_parse_float(rec[1], path, i, "volume"))
    if not vols:
        raise SchemaError(f"{path}: no volumes listed")
    return AggregateObservations(np.asarray(vols))


# ---------------------------------------------------------------- reports

def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["method", "seed", "mre", "excluded"])
        for rep in reports:
            seed = "" if rep.seed is None else rep.seed
            w.writerow([rep.method, seed, _fmt(rep.mre), rep.excluded])


def read_report_csv(path: str | Path) -> list[tuple[str, str, float, int]]:
    """Rows of a report CSV as (method, seed text, mre, excluded)."""
    rows: list[tuple[str, str, float, int]] = []
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["method", "seed", "mre", "excluded"]:
            raise SchemaError(f"{path}: expected header method,seed,mre,excluded, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise SchemaError(f"{path}:{i}: expected 4 columns")
            rows.append((
                rec[0],
                rec[1],
                _parse_float(rec[2], path, i, "mre"),
                _parse_int(rec[3], path, i, "excluded"),
            ))
    if not rows:
        raise SchemaError(f"{path}: no report rows listed")
    return rows


def write_cdf_csv(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["method", "seed", "error", "cdf"])
        seed = "" if report.seed is None else report.seed
        for e, p in zip(report.cdf_errors, report.cdf_values):
            w.writerow([report.method, seed, _fmt(e), _fmt(p)])


def read_cdf_csv(path: str | Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Return (method, error levels, cdf values) from a cdf CSV."""
    errors, values, method = [], [], ""
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["method", "seed", "error", "cdf"]:
            raise SchemaError(f"{path}: expected header method,seed,error,cdf, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise SchemaError(f"{path}:{i}: expected 4 columns")
            method = rec[0]
            errors.append(_parse_float(rec[2], path, i, "error"))
            values.append(_parse_float(rec[3], path, i, "cdf"))
    if not errors:
        raise SchemaError(f"{path}: no cdf samples listed")
    return method, np.asarray(errors), np.asarray(values)


def write_diagnostics_csv(result: RecoveryResult, path: str | Path) -> None:
    """Per-iteration residuals and objective, one row per sweep."""
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["iter", "primal_residual", "dual_residual", "objective"])
        for k in range(result.iterations):
            w.writerow([
                k + 1,
                _fmt(result.primal_residuals[k]),
                _fmt(result.dual_residuals[k]),
                _fmt(result.objectives[k]),
            ])


# ------------------------------------------------------------------ mesh

def dump_mesh_csv(tri: Triangulation, vertices_path: str | Path, triangles_path: str | Path) -> None:
    with open(vertices_path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["id", "x", "y"])
        for i, (x, y) in enumerate(tri.vertices):
            w.writerow([i, _fmt(x), _fmt(y)])
    with open(triangles_path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(["id", "v1", "v2", "v3"])
        for i, (a, b, c) in enumerate(tri.triangles):
            w.writerow([i, a, b, c])


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
    with _open_rows(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CDR_HEADER:
            raise SchemaError(f"{path}: expected header {','.join(CDR_HEADER)}, got {header}")
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 6:
                raise SchemaError(f"{path}:{i}: expected 6 columns, got {len(rec)}")
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

"""CSV and JSON input/output.

All writers emit rows in a deterministic order and format floats with
round-trip repr, so rerunning a seeded pipeline reproduces files byte for
byte. A writer formats each column in one pass and joins the text of each
line, quoting a text field by csv.writer's rules; the files are
byte-identical to formatting each row with csv.writer.

Field and cdf CSVs, the files a pipeline reads most, are parsed by numpy's
C reader (``np.loadtxt`` with no quote or comment character and one dtype
field per column). It reads the file as bytes and refuses one that is not
ASCII before decoding any of it; it then decodes the body once and is
given only plain bodies (see ``_plain``). In those it splits rows and
fields as csv.reader does and converts a number with the routine
``float()`` uses, so every value it returns equals the row reader's bit
for bit. What it cannot read the same way it refuses:
``1_0``, a non-ASCII digit, a line of spaces, a row of the wrong width.

Every other file, and every field or cdf body that numpy refuses or whose
parsed values fail a check (a negative index, a non-finite value), is read
one row at a time by csv.reader, in file order. Each row's fields are
checked in column order, so a malformed file raises the message, naming
its line, of its first bad row, and a number only Python reads still reads.

The row reader decodes every CSV with surrogateescape, so a byte that does
not decode reaches csv.reader as a lone surrogate; it decodes each line that
is not ASCII again, strictly: such a byte is a SchemaError naming its line,
met in one pass over the file.

Values of fields, covariates, volumes, features and activity must be
finite; a report or cdf may hold nan and inf. A field's grid spans rows
and columns 0 up to its largest listed indices, and may hold at most
2**26 cells (the paper's grid is 100 x 100). Schemas:

  field         row,col,value            one line per active cell, sorted
  covariates    row,col,<name>...        aligned with the active cells
  stations      station_id,row,col       ids are 0-based positions
  aggregates    station_id,volume
  activity      square_id,timestamp,sms_in,sms_out,call_in,call_out
                (square ids are 1-based, row-major on a 100x100 grid;
                 empty activity cells count as zero)
  features      square_id,<the six feature columns> in any order,
                extra columns ignored
  report        method,seed,mre,excluded
  cdf           method,seed,error,cdf
  diagnostics   iter,primal_residual,dual_residual,objective
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from itertools import count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .admm import RecoveryResult
from .domain import MAX_GRID_CELLS, CovariateMatrix, GridDomain, SpatialField, make_domain
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

# csv.writer's default dialect ends every row with "\r\n"; body lines are
# joined by hand and end the same way
_EOL = csv.excel.lineterminator

# A data row of a field and of a cdf CSV as numpy's reader parses it, one
# field per column, named by the header; an object field keeps its text whole
_FIELD_ROW = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_CDF_ROW = np.dtype([("method", object), ("seed", object), ("error", np.float64),
                     ("cdf", np.float64)])

# Characters numpy's reader would read otherwise than the row reader: a
# quote (it is given no quote character), NUL (csv.reader refuses it before
# Python 3.11) and \x1c-\x1f (numpy's number parser skips them as space;
# int() and float() refuse them)
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'


def _reprs(values) -> Iterator[str]:
    """Round-trip repr of each value as a float: the text of a float column."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _ints(values: np.ndarray) -> Iterator[str]:
    """Decimal text of each entry of an integer array: the text of an index column."""
    return map(str, values.tolist())


def _open_rows(path: str | Path):
    try:
        handle = open(path, newline="", errors="surrogateescape")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return handle


def _parse(kind: type, text: str, path, line: int, column: str) -> int | float:
    """``text`` read as ``kind``, int or float; a SchemaError naming the line otherwise."""
    try:
        return kind(text)
    except ValueError:
        what = "non-integer" if kind is int else "non-numeric"
        raise SchemaError(f"{path}:{line}: column '{column}' has {what} value {text!r}") from None


def _finite(text: str, path, line: int, column: str) -> float:
    """``text`` read as a finite float; a SchemaError naming the line otherwise."""
    value = _parse(float, text, path, line, column)
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line}: column '{column}' has non-finite value {text!r}")
    return value


def _lines(handle, path) -> Iterator[str]:
    """The lines of ``handle``; a SchemaError names the first that does not decode strictly."""
    for number, line in enumerate(handle, 1):
        if not line.isascii():
            try:
                line.encode(handle.encoding, "surrogateescape").decode(handle.encoding)
            except UnicodeDecodeError as bad:
                raise SchemaError(f"{path}:{number}: not {bad.encoding} text "
                                  f"({bad.reason})") from bad
        yield line


def _read_rows(
    path: str | Path,
    header: tuple[str, ...],
    what: str | None = None,
    prefix: bool = False,
    required: tuple[str, ...] = (),
) -> Iterator[tuple[int, tuple[str, ...], list[str]]]:
    """Yield ``(line, names, fields)`` for each nonblank data row of a CSV, in file order.

    The header must name every column in ``required``, in any order, and
    equal ``header`` or, with ``prefix``, start with it and name at least
    one more column; ``names`` holds it. A row is known by the file line it
    ends on, so a quoted field spanning lines shifts no later line number.
    A row of another width than the header, text csv.reader cannot split
    and a byte that does not decode raise where they are met, after every
    row before them is given: lines are decoded with surrogateescape and
    each one that is not ASCII is checked strictly, in one pass over the
    file. A file with a header and no rows raises unless ``what`` is None.
    """
    listed = False
    with _open_rows(path) as handle:
        reader = csv.reader(_lines(handle, path))
        try:
            got = next(reader, None)
            names = () if got is None else tuple(h.strip() for h in got)
            missing = [h for h in required if h not in names]
            if missing:
                raise SchemaError(f"{path}: header lacks columns {missing}")
            if names[:len(header)] != header or (len(names) > len(header)) != prefix:
                expected = ",".join([*header, "<names...>"] if prefix else header)
                raise SchemaError(f"{path}: expected header {expected}, got {got}")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(names):
                    raise SchemaError(f"{path}:{reader.line_num}: expected {len(names)} "
                                      f"columns, got {len(fields)}")
                listed = True
                yield reader.line_num, names, fields
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    if not listed and what is not None:
        raise SchemaError(f"{path}: no {what} listed")


def _plain(body: str) -> bool:
    """Whether numpy's reader splits and converts ``body`` as the row reader does.

    The body must be ASCII and hold no character of _NOT_PLAIN. csv.reader
    refuses a field longer than ``csv.field_size_limit()``, so no line may
    be that long either: every stretch of half the limit must hold a "\n".
    """
    if not body.isascii() or any(c in body for c in _NOT_PLAIN):
        return False
    step = max(csv.field_size_limit() // 2, 1)
    return all(body.find("\n", k, k + step) >= 0 for k in range(0, len(body) - step, step))


def _c_rows(path: str | Path, row: np.dtype) -> np.ndarray | None:
    """The data rows of a CSV parsed by numpy's C reader, or None where it refuses them.

    It refuses a file it cannot open (the row reader names it), a file
    that is not ASCII, before decoding any of it, a first line that is not
    exactly the names of ``row`` as one strict csv record, a body that is
    not ``_plain``, and a body numpy does not parse as rows of ``row``
    without a warning (it warns on one with no rows). The body is decoded
    once, straight from the file's bytes, which are dropped before numpy
    parses it. Every row of a body it takes reads the same through
    ``_read_rows``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if not data.isascii():
        return None
    end = data.find(b"\n") + 1 or len(data)
    try:
        # strict: a quote left open at the line's end is an error, not a
        # header that runs on into the body
        got = next(csv.reader([data[:end].decode("ascii")], strict=True))
    except csv.Error:
        return None
    if tuple(h.strip() for h in got) != row.names:
        return None
    body = str(memoryview(data)[end:], "ascii")
    del data
    if not _plain(body):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.StringIO(body, newline=""), dtype=row, delimiter=",",
                              comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _write_rows(path: str | Path, header: Sequence[str], columns: Sequence[Iterable[str]]) -> None:
    """Write ``header``, then a line per row of ``columns``, each an iterable of field text.

    csv.writer writes the header. A body line joins its fields with commas,
    so every field must already be as csv.writer writes it: number text,
    which never needs quoting, or text through ``_quoted``.
    """
    body = _EOL.join(map(",".join, zip(*columns)))
    with open(path, "w", newline="") as out:
        csv.writer(out).writerow(header)
        if body:
            out.write(body)
            out.write(_EOL)


def _quoted(value) -> str:
    """``value`` as csv.writer writes it as one field among several."""
    line = io.StringIO()
    csv.writer(line).writerow((value, ""))
    return line.getvalue()[:-len("," + _EOL)]


def _station_id(text: str, expected: int, path, line: int) -> None:
    """Check that a row's station id is ``expected``, its position in the file."""
    if _parse(int, text, path, line, "station_id") != expected:
        raise SchemaError(f"{path}:{line}: station ids must run 0,1,2,...")


def _active_cell(domain: GridDomain, row: str, col: str, path, line: int) -> int:
    """Active-cell position of the cell that the text ``row``, ``col`` names."""
    r, c = _parse(int, row, path, line, "row"), _parse(int, col, path, line, "col")
    try:
        return domain.index_of(r, c)
    except ShapeMismatch:
        raise SchemaError(f"{path}:{line}: cell ({r}, {c}) is not active") from None


def _square(text: str, n_cells: int, path, line: int) -> int:
    """Flat grid index of the 1-based square id ``text`` on a grid of ``n_cells``."""
    sid = _parse(int, text, path, line, "square_id")
    if not 1 <= sid <= n_cells:
        raise SchemaError(f"{path}:{line}: square_id {sid} outside 1..{n_cells}")
    return sid - 1


def _seed_text(seed: int | None) -> int | str:
    return "" if seed is None else seed


# ---------------------------------------------------------------- fields

def write_field_csv(field: SpatialField, path: str | Path) -> None:
    _write_rows(path, ["row", "col", "value"],
                [*map(_ints, field.domain.cells.T), _reprs(field.values)])


def _field_cells(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of every cell a field CSV lists, read by the row reader.

    The indices stay Python ints, so that the grid bound names an index
    past int64 as the file gives it.
    """
    rows, cols, values = [], [], []
    for line, _, (r, c, value) in _read_rows(path, _FIELD_ROW.names, "cells"):
        r, c = _parse(int, r, path, line, "row"), _parse(int, c, path, line, "col")
        if r < 0 or c < 0:
            raise SchemaError(f"{path}:{line}: negative cell index ({r}, {c})")
        rows.append(r)
        cols.append(c)
        values.append(_finite(value, path, line, "value"))
    return np.array(rows, dtype=object), np.array(cols, dtype=object), np.array(values)


def read_field_csv(path: str | Path) -> SpatialField:
    """Read a field CSV; the active mask is exactly the set of rows present.

    The row reader reads the file where numpy's reader refuses it or a
    parsed cell has a negative index or a non-finite value.
    """
    rows = _c_rows(path, _FIELD_ROW)
    if rows is not None and ((rows["row"] >= 0) & (rows["col"] >= 0)
                             & np.isfinite(rows["value"])).all():
        r, c, values = rows["row"], rows["col"], rows["value"]
    else:
        r, c, values = _field_cells(path)
    n_rows, n_cols = int(r.max()) + 1, int(c.max()) + 1
    if n_rows * n_cols > MAX_GRID_CELLS:   # Python ints, exact even past int64
        k = int(np.argmax(r)) if n_rows >= n_cols else int(np.argmax(c))
        raise SchemaError(f"{path}: cell ({r[k]}, {c[k]}) makes the grid {n_rows} x "
                          f"{n_cols} cells, more than the {MAX_GRID_CELLS} allowed")
    flat = (r * n_cols + c).astype(np.int64, copy=False)
    mask = np.zeros(n_rows * n_cols, dtype=bool)
    mask[flat] = True
    if np.count_nonzero(mask) != flat.size:   # a cell listed twice sets one flag
        raise SchemaError(f"{path}: duplicate cell listed")
    full = np.zeros(n_rows * n_cols)
    full[flat] = values
    domain = make_domain(n_rows, n_cols, mask)
    return SpatialField(domain, full[mask])


# ------------------------------------------------------------ covariates

def write_covariates_csv(cov: CovariateMatrix, path: str | Path) -> None:
    _write_rows(path, ["row", "col", *cov.names],
                [*map(_ints, cov.domain.cells.T), *map(_reprs, cov.values.T)])


def read_covariates_csv(path: str | Path, domain: GridDomain) -> CovariateMatrix:
    """Read covariates for exactly the active cells of ``domain``."""
    seen = np.zeros(domain.n, dtype=bool)
    cells, rows = [], []
    for line, names, (r, c, *texts) in _read_rows(path, ("row", "col"), "covariate rows",
                                                  prefix=True):
        pos = _active_cell(domain, r, c, path, line)
        if seen[pos]:
            raise SchemaError(f"{path}:{line}: duplicate cell "
                              "({}, {})".format(*domain.cells[pos]))
        seen[pos] = True
        cells.append(pos)
        rows.append([_finite(text, path, line, name) for text, name in zip(texts, names[2:])])
    if not seen.all():
        missing = int((~seen).sum())
        raise SchemaError(f"{path}: {missing} active cells have no covariate row")
    values = np.zeros((domain.n, len(names) - 2))
    values[cells] = rows
    return CovariateMatrix(domain, values, names[2:])


# -------------------------------------------------------------- stations

def write_stations_csv(stations: StationSet, path: str | Path) -> None:
    _write_rows(path, ["station_id", "row", "col"],
                [map(str, count()), *map(_ints, stations.domain.cells[stations.cells].T)])


def read_stations_csv(path: str | Path, domain: GridDomain) -> StationSet:
    cells = []
    for line, _, (sid, r, c) in _read_rows(path, ("station_id", "row", "col"), "stations"):
        _station_id(sid, len(cells), path, line)
        cells.append(_active_cell(domain, r, c, path, line))
    return StationSet(domain, np.array(cells))


# ------------------------------------------------------------ aggregates

def write_aggregates_csv(volumes: AggregateObservations, path: str | Path) -> None:
    _write_rows(path, ["station_id", "volume"], [map(str, count()), _reprs(volumes.values)])


def read_aggregates_csv(path: str | Path) -> AggregateObservations:
    vols = []
    for line, _, (sid, volume) in _read_rows(path, ("station_id", "volume"), "volumes"):
        _station_id(sid, len(vols), path, line)
        vols.append(_finite(volume, path, line, "volume"))
    return AggregateObservations(np.asarray(vols))


# ---------------------------------------------------------------- reports

def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    rows = [(rep.method, _seed_text(rep.seed), repr(float(rep.mre)), rep.excluded)
            for rep in reports]
    _write_rows(path, ["method", "seed", "mre", "excluded"],
                [map(_quoted, column) for column in zip(*rows)])


def read_report_csv(path: str | Path) -> list[tuple[str, str, float, int]]:
    """Rows of a report CSV as (method, seed text, mre, excluded)."""
    return [(method, seed, _parse(float, mre, path, line, "mre"),
             _parse(int, excluded, path, line, "excluded"))
            for line, _, (method, seed, mre, excluded)
            in _read_rows(path, ("method", "seed", "mre", "excluded"), "report rows")]


def write_cdf_csv(report: EvalReport, path: str | Path) -> None:
    _write_rows(path, ["method", "seed", "error", "cdf"],
                [repeat(_quoted(report.method)), repeat(_quoted(_seed_text(report.seed))),
                 _reprs(report.cdf_errors), _reprs(report.cdf_values)])


def read_cdf_csv(path: str | Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Return (method, error levels, cdf values) from a cdf CSV; the method is the last row's.

    The row reader reads the file where numpy's reader refuses it.
    """
    rows = _c_rows(path, _CDF_ROW)
    if rows is not None:
        return rows["method"][-1], rows["error"].copy(), rows["cdf"].copy()
    errors, values = [], []
    for line, _, (method, _, error, cdf) in _read_rows(path, _CDF_ROW.names, "cdf samples"):
        errors.append(_parse(float, error, path, line, "error"))
        values.append(_parse(float, cdf, path, line, "cdf"))
    return method, np.asarray(errors), np.asarray(values)


def write_diagnostics_csv(result: RecoveryResult, path: str | Path) -> None:
    """Per-iteration residuals and objective, one row per sweep."""
    _write_rows(path, ["iter", "primal_residual", "dual_residual", "objective"],
                [map(str, count(1)), _reprs(result.primal_residuals),
                 _reprs(result.dual_residuals), _reprs(result.objectives)])


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
    n_cells = n_rows * n_cols
    acc = np.zeros(n_cells)
    for line, _, (sid, ts, *counts) in _read_rows(path, CDR_HEADER):
        square = _square(sid, n_cells, path, line)
        ts = _parse(float, ts, path, line, "timestamp")
        if time_range is None or time_range[0] <= ts <= time_range[1]:
            # only rows inside the time range are parsed; an empty field reads 0
            total = 0.0
            for text, column in zip(counts, CDR_HEADER[2:]):
                total += _finite(text.strip() or "0", path, line, column)
            acc[square] += total
    domain = make_domain(n_rows, n_cols)
    return SpatialField(domain, acc)


def load_features_csv(path: str | Path, domain: GridDomain) -> CovariateMatrix:
    """Read per-square features; squares absent from the file become inactive.

    The returned CovariateMatrix lives on a new domain restricted to the
    squares present (its ``domain`` attribute). The header must contain
    ``square_id`` and every name in ``FEATURE_NAMES``, in any order; extra
    columns are ignored. A row of the wrong width, a duplicated square id
    or a malformed value is a SchemaError naming its line.
    """
    n_cells = domain.n_rows * domain.n_cols
    present = np.zeros(n_cells, dtype=bool)
    raw = np.zeros((n_cells, len(FEATURE_NAMES)))
    needed = ("square_id", *FEATURE_NAMES)
    for line, header, fields in _read_rows(path, (), "squares", prefix=True, required=needed):
        sid, *texts = (fields[header.index(name)] for name in needed)
        square = _square(sid, n_cells, path, line)
        if present[square]:
            raise SchemaError(f"{path}:{line}: duplicate square_id {square + 1}")
        if not domain.active[square]:
            raise SchemaError(f"{path}:{line}: square_id {square + 1} is inactive in the domain")
        raw[square] = [_finite(text, path, line, name) for text, name in zip(texts, FEATURE_NAMES)]
        present[square] = True
    restricted = make_domain(domain.n_rows, domain.n_cols, present)
    return CovariateMatrix(restricted, raw[present], FEATURE_NAMES)


# -------------------------------------------------------------- manifest

def write_manifest(manifest: dict, path: str | Path) -> None:
    with open(path, "w") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")


def read_manifest(path: str | Path) -> dict:
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
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

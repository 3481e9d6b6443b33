"""CSV and JSON input/output.

All writers emit rows in a deterministic order and format floats with
round-trip repr, so rerunning a seeded pipeline reproduces files byte for
byte. Writers and readers handle a whole column at a time: a writer formats
each column in one pass and joins the text of each line, quoting a text
field by csv.writer's rules; a reader takes a block of rows from
csv.reader at once, converts each text column in one ``int``/``float``
pass and checks indices with numpy. A block holds fewer rows than the
garbage collector's young-generation threshold, so reading a file of any
length starts next to no collection. The files are byte-identical to
formatting each row with csv.writer, and a malformed file raises the
message, naming the line, that reading it row by row would raise first.

Field and cdf CSVs, the files a pipeline reads most, are read in two
stages. numpy's C reader (``np.loadtxt`` with no quote or comment
character and one dtype field per column) parses the body first. It is
given only plain ASCII bodies (see ``_plain``); in those it splits rows
and fields as csv.reader does and converts a number with the routine
``float()`` uses, so every value it returns equals the row reader's bit
for bit. What it cannot read the same way it refuses: ``1_0``, a
non-ASCII digit, a line of spaces, a row of the wrong width. The row
reader alone decides whenever numpy refuses the body or a parsed value
fails a check (a negative index, a non-finite value): it reads the file
anew, so a malformed file raises the message naming its first bad line,
and a number only Python reads still reads.

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
import warnings
from itertools import accumulate, compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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

# Rows a reader holds as text at once: a file is read in blocks of this
# many, so memory does not grow with its length. A block must hold fewer
# row lists than the garbage collector's young-generation threshold
# (gc.get_threshold()[0], 700 by default): a block of more starts young
# collections, and the rows they find alive are promoted until a full
# collection scans every object in the process. Larger blocks read no faster.
_BLOCK_ROWS = 1 << 8

# csv.writer's default dialect ends every row with "\r\n"; body lines are
# joined by hand and end the same way
_EOL = csv.excel.lineterminator

# A data row of a field and of a cdf CSV as numpy's reader parses it, one
# field per column, named by the header; an object field keeps its text whole
_FIELD_ROW = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_CDF_ROW = np.dtype([("method", object), ("seed", object), ("error", np.float64),
                     ("cdf", np.float64)])

# Most cells a field CSV's grid may span: its mask and values take 576 MiB
# at this size, and a larger index is far likelier a typo than a grid
_MAX_GRID_CELLS = 1 << 26

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
        handle = open(path, newline="")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return handle


def _bad_value(kind: type, column: str, text: str) -> str:
    what = "non-integer" if kind is int else "non-numeric"
    return f"column '{column}' has {what} value {text!r}"


def _non_finite(column: str, text: str) -> str:
    return f"column '{column}' has non-finite value {text!r}"


def _int_array(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # an index beyond int64 lies outside any grid; clipped, it still does
        return np.array([min(max(v, -2**63), 2**63 - 1) for v in values], dtype=np.int64)


def _exact_ints(values: list[int]) -> np.ndarray:
    """``values`` as int64, or as the Python ints themselves where one lies beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _Rows:
    """A block of a CSV's data rows, parsed and checked a column at a time.

    Every step looks only at the rows before ``stop``, the row of the
    earliest failure recorded so far, so a failure it records is earlier.
    Readers run their steps in the order a row-by-row reader checks one
    row's fields, so ``check`` raises the error that reader would meet first.
    """

    def __init__(self, path, names: tuple[str, ...], lines: list[int],
                 records: list[list[str]], error: str | None = None):
        self.path = path
        self.names = names
        self.lines = lines          # the file line of each record
        self.columns = list(zip(*records)) or [()] * len(names)
        self.stop = len(records)
        self.error = error          # a failure after the last record, if any

    def fail(self, k: int, message: str) -> None:
        """Record a failure on row ``k``, a row before ``stop``."""
        self.stop = k
        self.error = f"{self.path}:{self.lines[k]}: {message}"

    def first(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Record the first row before ``stop`` where ``bad`` holds."""
        hits = np.flatnonzero(bad[:self.stop])
        if hits.size:
            self.fail(int(hits[0]), message(int(hits[0])))

    def parse(self, j: int, kind: type, texts: Sequence[str] | None = None) -> list:
        """Column ``j``, or ``texts`` in its place, read as ``kind`` on the rows before ``stop``."""
        texts = (self.columns[j] if texts is None else texts)[:self.stop]
        try:
            return list(map(kind, texts))
        except ValueError:
            pass
        values = []
        for text in texts:
            try:
                values.append(kind(text))
            except ValueError:
                self.fail(len(values), _bad_value(kind, self.names[j], text))
                break
        return values

    def parse_finite(self, j: int, texts: Sequence[str] | None = None) -> list[float]:
        """Column ``j``, or ``texts`` in its place, read as float on the rows before
        ``stop``, each finite."""
        texts = self.columns[j] if texts is None else texts
        values = self.parse(j, float, texts)
        self.first(~np.isfinite(values), lambda k: _non_finite(self.names[j], texts[k]))
        return values

    def check(self) -> None:
        if self.error is not None:
            raise SchemaError(self.error)


def _end_lines(records: list[list[str]], start: int) -> list[int]:
    """The file line each record ends on, the first starting after line ``start``.

    A record takes one line plus one per line break inside its quoted
    fields; the file is read with ``newline=""``, so a break is ``\r\n``,
    ``\r`` or ``\n`` and stays in the field as it was written.
    """
    spans = [1 + t.count("\n") + t.count("\r") - t.count("\r\n") for t in map(",".join, records)]
    return list(accumulate(spans, initial=start))[1:]


def _lines(handle) -> Iterator[str]:
    """The lines of an open text file, up to a byte that does not decode.

    The decoder fails on a whole chunk of the file, so the whole lines of
    that chunk before the byte are decoded from the file's bytes and given
    before the decoder's error: a row before the byte is read, and its
    errors met, first.
    """
    given = 0
    try:
        for line in handle:
            given += 1
            yield line
    except UnicodeDecodeError:
        raw = Path(handle.name).read_bytes()
        try:
            raw.decode(handle.encoding)
        except UnicodeDecodeError as whole:
            head = io.StringIO(raw[:whole.start].decode(handle.encoding), newline="")
            lines = head.readlines()[given:]
            # all but the line the byte continues; a byte that starts a line ends the last
            if lines and not lines[-1].endswith(("\n", "\r")):
                lines.pop()
            yield from lines
        raise


def _unreadable(path, handle, reader, exc: csv.Error | UnicodeDecodeError) -> str:
    """The error, naming its line, of a file csv.reader cannot split or ``handle`` cannot decode.

    The decoder fails on a whole chunk of the file, so the line of a byte
    it cannot decode is found in the file's bytes.
    """
    if isinstance(exc, csv.Error):
        return f"{path}:{reader.line_num}: {exc}"
    raw = Path(path).read_bytes()
    try:
        raw.decode(handle.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
        # the lines before the byte, the one it starts or continues included
        head = raw[:exc.start].decode(handle.encoding)
        line = sum(1 for _ in io.StringIO(head + "?", newline=""))
    else:  # the file changed since the decoder failed
        line = reader.line_num + 1
    return f"{path}:{line}: not {exc.encoding} text ({exc.reason})"


def _read_rows(
    path: str | Path,
    header: tuple[str, ...],
    what: str | None = None,
    prefix: bool = False,
    required: tuple[str, ...] = (),
) -> Iterator[_Rows]:
    """Yield the nonblank data rows of a CSV in blocks of at most _BLOCK_ROWS.

    The header must name every column in ``required``, in any order, and
    equal ``header`` or, with ``prefix``, start with it and name at least
    one more column; each block's ``names`` holds it. Every row must have
    as many fields as the header: the first that does not ends the file,
    its error pending in the last block, after the rows before it. A row
    is known by the file line it ends on, so a quoted field spanning lines
    shifts no later line number. A file with a header and no rows raises
    unless ``what`` is None.
    """
    with _open_rows(path) as handle:
        reader = csv.reader(_lines(handle))
        try:
            got = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise SchemaError(_unreadable(path, handle, reader, exc)) from exc
        names = () if got is None else tuple(h.strip() for h in got)
        missing = [h for h in required if h not in names]
        if missing:
            raise SchemaError(f"{path}: header lacks columns {missing}")
        if names[:len(header)] != header or (len(names) > len(header)) != prefix:
            expected = ",".join([*header, "<names...>"] if prefix else header)
            raise SchemaError(f"{path}: expected header {expected}, got {got}")
        width = len(names)
        listed, end = False, reader.line_num
        while True:
            records, failure = [], None
            try:
                records.extend(islice(reader, _BLOCK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                # pending after the rows read before it, as a read one row
                # at a time would meet their errors first
                failure = _unreadable(path, handle, reader, exc)
            start, end = end, reader.line_num
            lines = (range(start + 1, end + 1) if end - start == len(records)
                     else _end_lines(records, start))
            widths = list(map(len, records))
            error = failure
            if widths.count(width) != len(widths):
                # blank rows are skipped; the first row of another width ends the file
                bad = next((k for k, n in enumerate(widths) if n and n != width), len(widths))
                if bad < len(widths):
                    error = f"{path}:{lines[bad]}: expected {width} columns, got {widths[bad]}"
                lines = list(compress(lines, widths[:bad]))
                records = list(compress(records, widths[:bad]))
            if error is not None:
                yield _Rows(path, names, lines, records, error)
                return
            if records:
                listed = True
                yield _Rows(path, names, lines, records)
            if len(widths) < _BLOCK_ROWS:
                break
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

    It refuses a file whose header is not exactly the names of ``row``, a
    body that is not ``_plain``, and a body numpy does not parse as rows of
    ``row`` without a warning (it warns on one with no rows). Every row of a
    body it takes reads the same through ``_read_rows``.
    """
    with _open_rows(path) as handle:
        try:
            got = next(csv.reader(handle), None)
            body = handle.read()
        except (csv.Error, UnicodeDecodeError):
            return None
    if got is None or tuple(h.strip() for h in got) != row.names or not _plain(body):
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


def _station_ids(rows: _Rows, start: int) -> None:
    """Check that the block's station ids run on from ``start``."""
    ids = rows.parse(0, int)
    expected = np.arange(start, start + len(ids))
    rows.first(_int_array(ids) != expected, lambda k: "station ids must run 0,1,2,...")


def _active_cells(rows: _Rows, j: int, domain: GridDomain) -> np.ndarray:
    """Active-cell positions of the cells that columns j (row) and j+1 (col) name."""
    r, c = rows.parse(j, int), rows.parse(j + 1, int)
    n = rows.stop
    pos = domain.positions_of(_int_array(r[:n]), _int_array(c[:n]))
    rows.first(pos < 0, lambda k: f"cell ({r[k]}, {c[k]}) is not active")
    return pos


def _seed_text(seed: int | None) -> int | str:
    return "" if seed is None else seed


# ---------------------------------------------------------------- fields

def write_field_csv(field: SpatialField, path: str | Path) -> None:
    _write_rows(path, ["row", "col", "value"],
                [*map(_ints, field.domain.cells.T), _reprs(field.values)])


def _field_cells(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of every cell a field CSV lists, read by the row reader."""
    blocks = []
    for rows in _read_rows(path, _FIELD_ROW.names, "cells"):
        r, c = rows.parse(0, int), rows.parse(1, int)
        n = rows.stop
        # exact, so that the grid bound names an index past int64 as the file gives it
        rr, cc = _exact_ints(r[:n]), _exact_ints(c[:n])
        rows.first((rr < 0) | (cc < 0), lambda k: f"negative cell index ({r[k]}, {c[k]})")
        values = rows.parse_finite(2)
        rows.check()
        blocks.append((rr, cc, values))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


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
    if n_rows * n_cols > _MAX_GRID_CELLS:   # Python ints, exact even past int64
        k = int(np.argmax(r)) if n_rows >= n_cols else int(np.argmax(c))
        raise SchemaError(f"{path}: cell ({r[k]}, {c[k]}) makes the grid {n_rows} x "
                          f"{n_cols} cells, more than the {_MAX_GRID_CELLS} allowed")
    flat = r * n_cols + c
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
    blocks = []
    for rows in _read_rows(path, ("row", "col"), "covariate rows", prefix=True):
        names = rows.names[2:]
        pos = _active_cells(rows, 0, domain)
        dup = np.ones(pos.size, dtype=bool)
        dup[np.unique(pos, return_index=True)[1]] = False   # all but each cell's first row
        rows.first(dup | seen[pos],
                   lambda k: "duplicate cell ({}, {})".format(*domain.cells[pos[k]]))
        columns = [rows.parse_finite(j) for j in range(2, len(rows.names))]
        rows.check()
        seen[pos] = True
        blocks.append((pos, columns))
    values = np.zeros((domain.n, len(names)))
    for pos, columns in blocks:
        values[pos] = np.array(columns).T
    if not seen.all():
        missing = int((~seen).sum())
        raise SchemaError(f"{path}: {missing} active cells have no covariate row")
    return CovariateMatrix(domain, values, names)


# -------------------------------------------------------------- stations

def write_stations_csv(stations: StationSet, path: str | Path) -> None:
    _write_rows(path, ["station_id", "row", "col"],
                [map(str, count()), *map(_ints, stations.domain.cells[stations.cells].T)])


def read_stations_csv(path: str | Path, domain: GridDomain) -> StationSet:
    cells = []
    for rows in _read_rows(path, ("station_id", "row", "col"), "stations"):
        _station_ids(rows, sum(map(len, cells)))
        pos = _active_cells(rows, 1, domain)
        rows.check()
        cells.append(pos)
    return StationSet(domain, np.concatenate(cells))


# ------------------------------------------------------------ aggregates

def write_aggregates_csv(volumes: AggregateObservations, path: str | Path) -> None:
    _write_rows(path, ["station_id", "volume"], [map(str, count()), _reprs(volumes.values)])


def read_aggregates_csv(path: str | Path) -> AggregateObservations:
    vols = []
    for rows in _read_rows(path, ("station_id", "volume"), "volumes"):
        _station_ids(rows, len(vols))
        values = rows.parse_finite(1)
        rows.check()
        vols += values
    return AggregateObservations(np.asarray(vols))


# ---------------------------------------------------------------- reports

def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    rows = [(rep.method, _seed_text(rep.seed), repr(float(rep.mre)), rep.excluded)
            for rep in reports]
    _write_rows(path, ["method", "seed", "mre", "excluded"],
                [map(_quoted, column) for column in zip(*rows)])


def read_report_csv(path: str | Path) -> list[tuple[str, str, float, int]]:
    """Rows of a report CSV as (method, seed text, mre, excluded)."""
    out: list[tuple[str, str, float, int]] = []
    for rows in _read_rows(path, ("method", "seed", "mre", "excluded"), "report rows"):
        mre, excluded = rows.parse(2, float), rows.parse(3, int)
        rows.check()
        out += zip(rows.columns[0], rows.columns[1], mre, excluded)
    return out


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
    errors, values, method = [], [], ""
    for rows in _read_rows(path, _CDF_ROW.names, "cdf samples"):
        e, p = rows.parse(2, float), rows.parse(3, float)
        rows.check()
        method = rows.columns[0][-1]
        errors += e
        values += p
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
    for rows in _read_rows(path, CDR_HEADER):
        sid = rows.parse(0, int)
        flat = _int_array(sid) - 1
        rows.first((flat < 0) | (flat >= n_cells),
                   lambda k: f"square_id {sid[k]} outside 1..{n_cells}")
        ts = np.asarray(rows.parse(1, float))
        inside = (np.ones(ts.size, dtype=bool) if time_range is None
                  else (time_range[0] <= ts) & (ts <= time_range[1]))
        keep = inside.tolist()
        # only rows inside the time range are parsed; an empty field reads 0,
        # which leaves a row's running total as skipping it would
        columns = [rows.parse_finite(j, [text.strip() or "0" if k else "0"
                                         for text, k in zip(rows.columns[j], keep)])
                   for j in range(2, len(CDR_HEADER))]
        rows.check()
        total = np.zeros(len(keep))
        for values in columns:
            total += values
        # np.add.at adds one row at a time in file order, as the rows are read
        np.add.at(acc, flat[inside], total[inside])
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
    ``square_id`` and every requested feature name, in any order; extra
    columns are ignored. A row of the wrong width, a duplicated square id
    or a malformed value is a SchemaError naming its line.
    """
    n_cells = domain.n_rows * domain.n_cols
    present = np.zeros(n_cells, dtype=bool)
    raw = np.zeros((n_cells, len(names)))
    needed = ("square_id", *names)
    for rows in _read_rows(path, (), "squares", prefix=True, required=needed):
        j_sid, *j_names = map(rows.names.index, needed)
        sid = rows.parse(j_sid, int)
        flat = _int_array(sid) - 1
        rows.first((flat < 0) | (flat >= n_cells),
                   lambda k: f"square_id {sid[k]} outside 1..{n_cells}")
        flat = flat[:rows.stop]
        dup = np.ones(flat.size, dtype=bool)
        dup[np.unique(flat, return_index=True)[1]] = False   # all but each square's first row
        rows.first(dup | present[flat], lambda k: f"duplicate square_id {sid[k]}")
        rows.first(~domain.active[flat],
                   lambda k: f"square_id {sid[k]} is inactive in the domain")
        columns = [rows.parse_finite(j) for j in j_names]
        rows.check()
        present[flat] = True
        raw[flat] = np.array(columns).T
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

"""CSV and JSON round-trips plus schema rejection paths."""
import csv
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmooth import dataio
from csmooth.admm import AdmmConfig, css_recover
from csmooth.dataio import (
    _CDF_ROW,
    _FIELD_ROW,
    CDR_HEADER,
    FEATURE_NAMES,
    load_cdr_csv,
    load_features_csv,
    read_aggregates_csv,
    read_cdf_csv,
    read_covariates_csv,
    read_field_csv,
    read_manifest,
    read_report_csv,
    read_stations_csv,
    restrict_field,
    write_aggregates_csv,
    write_cdf_csv,
    write_covariates_csv,
    write_diagnostics_csv,
    write_field_csv,
    write_manifest,
    write_report_csv,
    write_stations_csv,
)
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.errors import InfeasibleVolume, SchemaError, ShapeMismatch
from csmooth.metrics import relative_errors
from csmooth.partition import (
    AggregateObservations,
    StationSet,
    aggregate,
    build_partition,
)


@pytest.fixture()
def masked_domain():
    mask = np.ones((3, 4), dtype=bool)
    mask[0, 0] = mask[2, 3] = False
    return make_domain(3, 4, mask=mask)


def test_field_roundtrip(tmp_path, masked_domain, rng):
    field = SpatialField(masked_domain, rng.uniform(0.0, 5.0, masked_domain.n))
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    back = read_field_csv(path)
    assert back.domain.same_grid(masked_domain)
    np.testing.assert_array_equal(back.values, field.values)


def test_field_write_is_deterministic(tmp_path, masked_domain, rng):
    field = SpatialField(masked_domain, rng.uniform(0.0, 5.0, masked_domain.n))
    write_field_csv(field, tmp_path / "a.csv")
    write_field_csv(field, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "text,match",
    [
        ("x,y,z\n0,0,1.0\n", "expected header"),
        ("row,col,value\n0,0\n", "expected 3 columns"),
        ("row,col,value\n0,0,abc\n", "non-numeric"),
        ("row,col,value\n0,oops,1.0\n", "non-integer"),
        ("row,col,value\n-1,0,1.0\n", "negative cell index"),
        ("row,col,value\n0,0,1.0\n0,0,2.0\n", "duplicate cell"),
        ("row,col,value\n", "no cells"),
    ],
)
def test_field_schema_errors(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        read_field_csv(path)


@pytest.mark.parametrize("cell", ["0,9223372036854775807", "99999999999999999999,0",
                                  "8192,8192"])
def test_field_grid_is_bounded_before_allocating(tmp_path, cell):
    # the largest grid these cells span would take from 576 MiB to exabytes
    path = tmp_path / "huge.csv"
    path.write_text(f"row,col,value\n0,0,1\n{cell},1\n")
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=rf"huge.csv: cell \(.*\) makes the grid"):
            read_field_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("chunk", [None, 1])
def test_field_grid_bound_names_the_cell_as_the_file_gives_it(tmp_path, chunk):
    # an index past int64 is named by its own digits, not by a clipped value
    path = tmp_path / "huge.csv"
    path.write_text("row,col,value\n0,0,1\n99999999999999999999,0,1\n"
                    "100000000000000000000,1,1\n")
    with decoded_in_chunks(chunk), pytest.raises(
            SchemaError, match=r"huge.csv: cell \(100000000000000000000, 1\) makes "
                               r"the grid 100000000000000000001 x 2 cells"):
        read_field_csv(path)


def test_field_grid_may_reach_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "MAX_GRID_CELLS", 12)
    path = tmp_path / "f.csv"
    path.write_text("row,col,value\n0,0,1\n2,3,1\n")
    assert read_field_csv(path).domain.n_cols == 4
    path.write_text("row,col,value\n0,0,1\n2,4,1\n")
    with pytest.raises(SchemaError, match=r"cell \(2, 4\) makes the grid 3 x 5 cells, "
                                          r"more than the 12 allowed"):
        read_field_csv(path)


def decoded_in_chunks(chunk):
    """Within this context, readers decode their file ``chunk`` bytes at a time.

    None keeps the default of 8 KiB. A small chunk ends one mid-line, between
    the "\\r" and "\\n" of a line break and inside a multibyte character;
    what a reader gives or raises must not change.
    """
    opened = dataio._open_rows

    def open_rows(path):
        handle = opened(path)
        if chunk is not None:
            handle._CHUNK_SIZE = chunk
        return handle

    return mock.patch.object(dataio, "_open_rows", open_rows)


def test_field_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        read_field_csv(tmp_path / "nope.csv")


ONE_CELL = make_domain(1, 1)

# reader, header, one valid row, header-only message (None: reads as zeros)
ROW_READERS = {
    "field": (read_field_csv, "row,col,value", "0,0,1.5", "no cells listed"),
    "covariates": (
        lambda p: read_covariates_csv(p, ONE_CELL), "row,col,x,y", "0,0,1.5,2.5",
        "no covariate rows listed",
    ),
    "stations": (
        lambda p: read_stations_csv(p, ONE_CELL), "station_id,row,col", "0,0,0",
        "no stations listed",
    ),
    "aggregates": (read_aggregates_csv, "station_id,volume", "0,1.5", "no volumes listed"),
    "report": (read_report_csv, "method,seed,mre,excluded", "pe,3,0.5,0", "no report rows listed"),
    "cdf": (read_cdf_csv, "method,seed,error,cdf", "pe,3,0.5,1.0", "no cdf samples listed"),
    "cdr": (
        lambda p: load_cdr_csv(p, n_rows=1, n_cols=1),
        "square_id,timestamp,sms_in,sms_out,call_in,call_out", "1,0,1,2,3,4", None,
    ),
}


@pytest.mark.parametrize("kind", list(ROW_READERS))
def test_readers_share_row_rules(tmp_path, kind):
    read, header, row, empty = ROW_READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"bad,{header.split(',', 1)[1]}\n{row}\n")
    with pytest.raises(SchemaError, match="expected header"):
        read(path)
    width = header.count(",") + 1
    path.write_text(f"{header}\n{row}\n\n{row},9\n")
    with pytest.raises(SchemaError) as info:
        read(path)
    assert str(info.value) == f"{path}:4: expected {width} columns, got {width + 1}"
    # a blank row is skipped: the result reads the same as without it
    path.write_text(f"{header}\n{row}\n")
    plain = repr(read(path))
    path.write_text(f"{header}\n\n{row}\n\n")
    assert repr(read(path)) == plain
    path.write_text(f"{header}\n")
    if empty is None:
        assert not read(path).values.any()
    else:
        with pytest.raises(SchemaError) as info:
            read(path)
        assert str(info.value) == f"{path}: {empty}"


FEATURES = ",".join(FEATURE_NAMES)
MASKED = make_domain(3, 4, mask=np.array([[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0]], dtype=bool))

# reader, file text, the error reading it row by row raises first (after "path:")
FIRST_ERRORS = [
    (read_field_csv, "row,col,value\n0,0,1\n-1,0,2\n0,1,3\n0,2,abc\n",
     "3: negative cell index (-1, 0)"),
    (read_field_csv, "row,col,value\n0,0,1\n0,1,x\n0,y,2\n",
     "3: column 'value' has non-numeric value 'x'"),
    (read_field_csv, "row,col,value\n0,0,1\nq,1,x\n", "3: column 'row' has non-integer value 'q'"),
    (read_field_csv, "row,col,value\n0,0,1\n-1,0,abc\n", "3: negative cell index (-1, 0)"),
    (read_field_csv, "row,col,value\n0,0,abc\n0,1\n", "2: column 'value' has non-numeric value 'abc'"),
    (read_field_csv, "row,col,value\n0,0\n0,1,abc\n", "2: expected 3 columns, got 2"),
    (read_field_csv, "row,col,value\n0,0,1\n0,0,2\n-1,0,1\n", "4: negative cell index (-1, 0)"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,2\n0,0,1,2\n0,2,1,zz\n",
     "3: cell (0, 0) is not active"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,2\n0,2,1,bad\n0,1,3,4\n",
     "3: column 'y' has non-numeric value 'bad'"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,2\n0,2,1,2\n0,1,bad,2\n",
     "4: duplicate cell (0, 1)"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,no\n0,2,no,1\n",
     "2: column 'y' has non-numeric value 'no'"),
    (lambda p: read_stations_csv(p, MASKED), "station_id,row,col\n0,0,1\n1,0,0\n5,0,2\n",
     "3: cell (0, 0) is not active"),
    (lambda p: read_stations_csv(p, MASKED), "station_id,row,col\n0,0,1\n1,0,2\n2,x,1\n3,0,0\n",
     "4: column 'row' has non-integer value 'x'"),
    (lambda p: read_stations_csv(p, MASKED), "station_id,row,col\n0,0,1\n1,0,2\n3,x,1\n",
     "4: station ids must run 0,1,2,..."),
    (lambda p: read_stations_csv(p, MASKED), "station_id,row,col\n0,0,1\n1,99999999999999999999,1\n",
     "3: cell (99999999999999999999, 1) is not active"),
    (read_aggregates_csv, "station_id,volume\n0,1\n1,v\n3,2\n",
     "3: column 'volume' has non-numeric value 'v'"),
    (read_report_csv, "method,seed,mre,excluded\npe,1,0.5,x\ncss,,y,0\n",
     "2: column 'excluded' has non-integer value 'x'"),
    (read_cdf_csv, "method,seed,error,cdf\npe,1,0.1,0.5\npe,1,0.2,c\npe,1,e,0.6\n",
     "3: column 'cdf' has non-numeric value 'c'"),
    # a quoted field spanning lines 2-3: the next row is line 4
    (read_cdf_csv, 'method,seed,error,cdf\n"two\nlines",1,0.1,0.5\npe,1,bad,1.0\n',
     "4: column 'error' has non-numeric value 'bad'"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,1\n\n3,1,1,x,1,1,1\n",
     "4: column 'sport_centers' has non-numeric value 'x'"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,1\n3,1,1,1,1,1\n",
     "3: expected 7 columns, got 6"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,1,9\n3,x,1,1,1,1,1\n",
     "2: expected 7 columns, got 8"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,z\n1,1,1,1,1,1,1\n",
     "2: column 'bus_stops' has non-numeric value 'z'"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,1\n1,1,1,1,1,1,z\n",
     "3: square_id 1 is inactive in the domain"),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n3,1,1,1,1,1,1\n3,x,1,1,1,1,1\n",
     "3: duplicate square_id 3"),
    # a value must be finite where the result checks it: fields, covariates,
    # volumes, features and activity
    (read_field_csv, "row,col,value\n0,0,1\n0,1,nan\n0,2,abc\n",
     "3: column 'value' has non-finite value 'nan'"),
    (read_field_csv, "row,col,value\n0,0,1\n-1,0,inf\n", "3: negative cell index (-1, 0)"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,2\n0,2,1,-inf\n0,1,nan,4\n",
     "3: column 'y' has non-finite value '-inf'"),
    (lambda p: read_covariates_csv(p, MASKED), "row,col,x,y\n0,1,1,2\n0,2,NaN,zz\n",
     "3: column 'x' has non-finite value 'NaN'"),
    (read_aggregates_csv, "station_id,volume\n0,1\n1,inf\n2,v\n",
     "3: column 'volume' has non-finite value 'inf'"),
    (read_aggregates_csv, "station_id,volume\n0,1\n2,nan\n", "3: station ids must run 0,1,2,..."),
    (lambda p: load_features_csv(p, MASKED), f"square_id,{FEATURES}\n2,1,1,1,1,1,1\n3,1,1e999,1,1,1,1\n",
     "3: column 'green_area_pct' has non-finite value '1e999'"),
    (lambda p: load_cdr_csv(p, n_rows=1, n_cols=2), f"{','.join(CDR_HEADER)}\n1,0,1,2,3,4\n2,0,1,inf,3,x\n",
     "3: column 'sms_out' has non-finite value 'inf'"),
    # a blank line and a quoted field spanning lines, each line break kind,
    # before the faulty row
    (read_cdf_csv, 'method,seed,error,cdf\npe,1,0.1,0.5\n\n"two\nlines",1,0.2,0.6\npe,1,bad,1.0\n',
     "6: column 'error' has non-numeric value 'bad'"),
    (read_field_csv, 'row,col,value\r\n0,0,1\r\n\r\n"0\r\n",1,2\r\n0,2,x\r\n',
     "6: column 'value' has non-numeric value 'x'"),
    (read_aggregates_csv, 'station_id,volume\r0,1\r\r1,"2\r\r"\r2,oops\r',
     "7: column 'volume' has non-numeric value 'oops'"),
    (lambda p: read_stations_csv(p, MASKED), 'station_id,row,col\n0,0,1\n\n1,0,"2\n\n"\n2,0\n',
     "7: expected 3 columns, got 2"),
    # rows after a row of the wrong width are never parsed, not even an
    # oversized field the csv module refuses
    (read_field_csv, "row,col,value\n0,0\n0,1," + "9" * (csv.field_size_limit() + 1) + "\n",
     "2: expected 3 columns, got 2"),
]


@pytest.mark.parametrize("chunk", [None, 2, 3])
@pytest.mark.parametrize("case", range(len(FIRST_ERRORS)))
def test_first_error_wins(tmp_path, case, chunk):
    """A reader raises the error of the earliest bad line, however the file is decoded."""
    read, text, error = FIRST_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with decoded_in_chunks(chunk), pytest.raises(SchemaError) as info:
        read(path)
    assert str(info.value) == f"{path}:{error}"


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
def test_blocks_know_each_row_by_its_end_line(tmp_path, rng, chunk):
    """The row reader gives csv.reader's rows, each with the line it ends on,
    however the file is decoded."""
    breaks = ["\n", "\r", "\r\n"]
    lines = ["a,b"]
    for i in range(60):
        kind = rng.integers(4)
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(f"{i},x")
        else:
            inner = "".join(rng.choice(breaks) + "t" for _ in range(int(kind)))
            lines.append(f'"{i}{inner}",y')
    text = "".join(line + rng.choice(breaks) for line in lines)
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    with decoded_in_chunks(chunk):
        got = [(line, fields) for line, _, fields in dataio._read_rows(path, ("a", "b"))]
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        expected = [(reader.line_num, rec) for rec in reader if rec]
    assert got == expected


def test_reading_stays_out_of_the_garbage_collector(tmp_path, rng):
    """A read of a field or a cdf starts at most two young collections and no full one.

    numpy's reader holds no row lists; holding more of them alive than the
    young-generation threshold would start collections and, by promoting
    live rows, full ones.
    """
    domain = make_domain(100, 100)
    field = SpatialField(domain, rng.uniform(size=domain.n))
    write_field_csv(field, tmp_path / "field.csv")
    truth = SpatialField(domain, rng.uniform(1.0, 2.0, domain.n))
    write_cdf_csv(relative_errors(field, truth, method="pe"), tmp_path / "cdf.csv")
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    for read in (lambda: read_field_csv(tmp_path / "field.csv"),
                 lambda: read_cdf_csv(tmp_path / "cdf.csv")):
        gc.collect()
        collections.clear()
        gc.callbacks.append(count)
        try:
            read()
        finally:
            gc.callbacks.remove(count)
        assert collections.count(0) <= 2 and 2 not in collections, collections


def test_readers_keep_python_number_syntax(tmp_path):
    path = tmp_path / "cdf.csv"
    path.write_text("method,seed,error,cdf\npe,1, 2,nan\npe,1,1_0,-inf\n")
    method, errors, cdf = read_cdf_csv(path)
    np.testing.assert_array_equal(errors, [2.0, 10.0])
    assert np.isnan(cdf[0]) and cdf[1] == -np.inf
    path.write_text("method,seed,mre,excluded\npe,1,0.5, 2\ncss,,1e-3,1_0\n")
    assert [row[3] for row in read_report_csv(path)] == [2, 10]


def test_roundtrips_name_a_late_duplicate_by_its_line(tmp_path, masked_domain, rng):
    field = SpatialField(masked_domain, rng.uniform(size=masked_domain.n))
    write_field_csv(field, tmp_path / "field.csv")
    np.testing.assert_array_equal(read_field_csv(tmp_path / "field.csv").values, field.values)
    cov = CovariateMatrix(masked_domain, rng.uniform(size=(masked_domain.n, 2)), ("a", "b"))
    write_covariates_csv(cov, tmp_path / "cov.csv")
    np.testing.assert_array_equal(read_covariates_csv(tmp_path / "cov.csv", masked_domain).values,
                                  cov.values)
    stations = StationSet(masked_domain, np.array([7, 1, 4, 8, 0]))
    write_stations_csv(stations, tmp_path / "stations.csv")
    back = read_stations_csv(tmp_path / "stations.csv", masked_domain)
    np.testing.assert_array_equal(back.cells, stations.cells)
    rows = ["row,col,x"] + [f"{r},{c},1.0" for r, c in masked_domain.cells] + ["0,1,2.0"]
    (tmp_path / "dup.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=f":{masked_domain.n + 2}: duplicate cell \\(0, 1\\)"):
        read_covariates_csv(tmp_path / "dup.csv", masked_domain)


def test_covariates_roundtrip(tmp_path, masked_domain, rng):
    cov = CovariateMatrix(
        masked_domain,
        np.column_stack([np.ones(masked_domain.n), rng.uniform(size=masked_domain.n)]),
        names=("one", "x"),
    )
    path = tmp_path / "cov.csv"
    write_covariates_csv(cov, path)
    back = read_covariates_csv(path, masked_domain)
    assert back.names == ("one", "x")
    np.testing.assert_array_equal(back.values, cov.values)


def test_covariates_schema_errors(tmp_path, masked_domain):
    path = tmp_path / "cov.csv"
    path.write_text("row,col\n")
    with pytest.raises(SchemaError, match="expected header"):
        read_covariates_csv(path, masked_domain)
    path.write_text("row,col,x\n0,0,1.0\n")
    with pytest.raises(SchemaError, match="not active"):
        read_covariates_csv(path, masked_domain)
    path.write_text("row,col,x\n0,1,1.0\n0,1,2.0\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_covariates_csv(path, masked_domain)
    rows = ["row,col,x"] + [f"{r},{c},1.0" for r, c in masked_domain.cells[:-1]]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="no covariate row"):
        read_covariates_csv(path, masked_domain)


def test_stations_roundtrip(tmp_path, masked_domain):
    stations = StationSet(masked_domain, np.array([1, 4, 8]))
    path = tmp_path / "stations.csv"
    write_stations_csv(stations, path)
    back = read_stations_csv(path, masked_domain)
    np.testing.assert_array_equal(back.cells, stations.cells)


def test_stations_schema_errors(tmp_path, masked_domain):
    path = tmp_path / "stations.csv"
    path.write_text("station_id,row,col\n1,0,1\n")
    with pytest.raises(SchemaError, match="must run 0,1,2"):
        read_stations_csv(path, masked_domain)
    path.write_text("station_id,row,col\n0,0,0\n")
    with pytest.raises(SchemaError, match="not active"):
        read_stations_csv(path, masked_domain)
    path.write_text("station_id,row,col\n")
    with pytest.raises(SchemaError, match="no stations"):
        read_stations_csv(path, masked_domain)


def test_aggregates_roundtrip(tmp_path):
    vols = AggregateObservations(np.array([0.0, 2.5, 1e-3]))
    path = tmp_path / "agg.csv"
    write_aggregates_csv(vols, path)
    back = read_aggregates_csv(path)
    np.testing.assert_array_equal(back.values, vols.values)


def test_aggregates_schema_errors(tmp_path):
    path = tmp_path / "agg.csv"
    path.write_text("station_id,volume\n3,1.0\n")
    with pytest.raises(SchemaError, match="must run 0,1,2"):
        read_aggregates_csv(path)
    path.write_text("station_id,volume\n")
    with pytest.raises(SchemaError, match="no volumes"):
        read_aggregates_csv(path)
    path.write_text("station_id,volume\n0,-1.0\n")
    with pytest.raises(InfeasibleVolume):
        read_aggregates_csv(path)


def test_report_and_cdf_roundtrip(tmp_path):
    dom = make_domain(1, 4)
    truth = SpatialField(dom, np.array([2.0, 1.0, 4.0, 8.0]))
    est = SpatialField(dom, np.array([1.0, 1.5, 5.0, 6.0]))
    rep = relative_errors(est, truth, method="pe", seed=3)
    anon = relative_errors(est, truth, method="css")
    write_report_csv([rep, anon], tmp_path / "report.csv")
    rows = read_report_csv(tmp_path / "report.csv")
    assert rows[0][0] == "pe" and rows[0][1] == "3"
    assert rows[1][0] == "css" and rows[1][1] == ""
    assert rows[0][2] == pytest.approx(rep.mre)
    assert rows[0][3] == rep.excluded

    write_cdf_csv(rep, tmp_path / "cdf.csv")
    method, errors, values = read_cdf_csv(tmp_path / "cdf.csv")
    assert method == "pe"
    np.testing.assert_array_equal(errors, rep.cdf_errors)
    np.testing.assert_array_equal(values, rep.cdf_values)


def test_report_schema_errors(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("method,seed\npe,0\n")
    with pytest.raises(SchemaError, match="expected header"):
        read_report_csv(path)
    path.write_text("method,seed,mre,excluded\n")
    with pytest.raises(SchemaError, match="no report rows"):
        read_report_csv(path)
    cdf = tmp_path / "cdf.csv"
    cdf.write_text("method,seed,error,cdf\n")
    with pytest.raises(SchemaError, match="no cdf samples"):
        read_cdf_csv(cdf)


def test_diagnostics_thinning(tmp_path):
    dom = make_domain(4, 4)
    truth = SpatialField(dom, np.linspace(1.0, 2.0, 16), nonnegative=True)
    part = build_partition(dom, StationSet(dom, np.array([2, 9])))
    vols = aggregate(part, truth)
    res = css_recover(part, vols, config=AdmmConfig(max_iter=5, tol=0.0))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(res, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "primal_residual", "dual_residual", "objective"]
    # no thinning: every sweep gets a row
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert float(rows[1][1]) == res.primal_residuals[0]
    assert float(rows[3][2]) == res.dual_residuals[2]
    assert float(rows[5][3]) == res.objectives[4]


def test_load_cdr_sums_and_filters(tmp_path):
    path = tmp_path / "cdr.csv"
    path.write_text(
        "square_id,timestamp,sms_in,sms_out,call_in,call_out\n"
        "1,0,1.0,2.0,,\n"
        "1,10,0.5,,,\n"
        "5,0,,,,4.25\n"
        "12,5,1.0,1.0,1.0,1.0\n"
    )
    field = load_cdr_csv(path, n_rows=3, n_cols=4)
    assert field.domain.n == 12
    # square 1 -> cell (0,0); square 5 -> (1,0); square 12 -> (2,3)
    assert field.values[field.domain.index_of(0, 0)] == 3.5
    assert field.values[field.domain.index_of(1, 0)] == 4.25
    assert field.values[field.domain.index_of(2, 3)] == 4.0
    assert field.values.sum() == pytest.approx(11.75)

    clipped = load_cdr_csv(path, time_range=(0.0, 5.0), n_rows=3, n_cols=4)
    assert clipped.values[clipped.domain.index_of(0, 0)] == 3.0


def test_load_cdr_schema_errors(tmp_path):
    path = tmp_path / "cdr.csv"
    path.write_text("square_id,timestamp\n1,0\n")
    with pytest.raises(SchemaError, match="expected header"):
        load_cdr_csv(path, n_rows=2, n_cols=2)
    path.write_text(
        "square_id,timestamp,sms_in,sms_out,call_in,call_out\n9,0,1,1,1,1\n"
    )
    with pytest.raises(SchemaError, match="outside 1..4"):
        load_cdr_csv(path, n_rows=2, n_cols=2)


def test_load_features_restricts_domain(tmp_path):
    path = tmp_path / "features.csv"
    cols = ",".join(FEATURE_NAMES)
    path.write_text(
        f"square_id,{cols},extra\n"
        "2,10,0.5,1,0,3,2,ignored\n"
        "3,20,0.25,0,1,4,1,ignored\n"
    )
    full = make_domain(2, 2)
    cov = load_features_csv(path, full)
    assert cov.domain.n == 2
    assert [tuple(c) for c in cov.domain.cells] == [(0, 1), (1, 0)]
    assert cov.names == FEATURE_NAMES
    np.testing.assert_array_equal(cov.values[:, 0], [10.0, 20.0])
    # columns may come in any order
    order = [3, 7, 0, 6, 2, 5, 1, 4]
    lines = [f"extra,{cols},square_id", "x,10,0.5,1,0,3,2,2", "y,20,0.25,0,1,4,1,3"]
    path.write_text("".join(",".join(line.split(",")[k] for k in order) + "\n"
                            for line in lines))
    shuffled = load_features_csv(path, full)
    assert shuffled.names == FEATURE_NAMES
    np.testing.assert_array_equal(shuffled.values, cov.values)


def test_load_features_schema_errors(tmp_path):
    path = tmp_path / "features.csv"
    cols = ",".join(FEATURE_NAMES)
    path.write_text("square_id,population\n1,5\n")
    with pytest.raises(SchemaError, match="header lacks columns"):
        load_features_csv(path, make_domain(2, 2))
    path.write_text(f"square_id,{cols}\n1,1,1,1,1,1,1\n1,2,2,2,2,2,2\n")
    with pytest.raises(SchemaError, match="duplicate square_id"):
        load_features_csv(path, make_domain(2, 2))
    path.write_text(f"square_id,{cols}\n7,1,1,1,1,1,1\n")
    with pytest.raises(SchemaError, match="outside"):
        load_features_csv(path, make_domain(2, 2))
    mask = np.array([[True, False], [True, True]])
    path.write_text(f"square_id,{cols}\n2,1,1,1,1,1,1\n")
    with pytest.raises(SchemaError, match="inactive"):
        load_features_csv(path, make_domain(2, 2, mask=mask))


def test_manifest_roundtrip(tmp_path):
    manifest = {"command": "synth", "params": {"seed": 3}, "outputs": ["truth.csv"]}
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest
    path.write_text("[1, 2]\n")
    with pytest.raises(SchemaError, match="JSON object"):
        read_manifest(path)
    path.write_text("{broken\n")
    with pytest.raises(SchemaError, match="cannot read"):
        read_manifest(path)
    with pytest.raises(SchemaError, match="cannot read"):
        read_manifest(tmp_path / "missing.json")


def test_restrict_field(masked_domain):
    full = make_domain(3, 4)
    field = SpatialField(full, np.arange(12, dtype=float), nonnegative=True)
    sub = restrict_field(field, masked_domain)
    assert sub.nonnegative
    expected = [i for i in range(12) if i not in (0, 11)]
    np.testing.assert_array_equal(sub.values, expected)
    with pytest.raises(ShapeMismatch):
        restrict_field(field, make_domain(4, 3))
    smaller = SpatialField(masked_domain, np.ones(masked_domain.n))
    with pytest.raises(ShapeMismatch):
        restrict_field(smaller, full)


# ---------------------------------------------- numpy's reader and the row reader

def outcome(read, path):
    """What a read gives: "read" and its result, every array as bytes, or its error."""
    try:
        result = read(path)
    except Exception as exc:  # the row reader may raise csv.Error, ValueError, ...
        return type(exc).__name__, str(exc)
    if isinstance(result, SpatialField):
        dom = result.domain
        return ("read", dom.n_rows, dom.n_cols, dom.active.tobytes(), result.values.dtype,
                result.values.tobytes())
    method, errors, cdf = result
    return "read", method, errors.dtype, errors.tobytes(), cdf.dtype, cdf.tobytes()


def row_reader_only(read, path):
    """``outcome`` of ``read`` with numpy's reader refusing every file."""
    with mock.patch.object(dataio, "_c_rows", lambda *args: None):
        return outcome(read, path)


VALID_INT = st.integers(0, 3).map(str)
VALID_FLOAT = st.one_of(st.floats(0.0, 1e6).map(repr), st.sampled_from(["1", "2.5", "1e-3", ".5"]))
VALID_TEXT = st.sampled_from(["pe", "css", "", "pe-ssr1", " a b "])
# what only Python reads, what only numpy would read, and what neither reads
ODD_INT = st.sampled_from([" 2", "-1", "1_0", "\u0663", "", "x", "1.0", "99999999999999999999",
                           "9223372036854775807", "\x1c1", "\u01fe1", '"1"'])
ODD_FLOAT = st.one_of(st.floats().map(repr), st.sampled_from(
    [" 2.5", "1_0", "\u0663", "", "x", "1e400", "\x1c1", '"1.5"', "1\x00"]))
ODD_TEXT = st.sampled_from(["\u00e9", '"q"', '"a,b"', '"a\nb"', '"a\r\nb"', 'x"y', "\x00", "\x1c"])

READERS = {
    "field": (read_field_csv, "row,col,value", [VALID_INT, VALID_INT, VALID_FLOAT],
              [ODD_INT, ODD_INT, ODD_FLOAT]),
    "cdf": (read_cdf_csv, "method,seed,error,cdf",
            [VALID_TEXT, VALID_TEXT, VALID_FLOAT, VALID_FLOAT],
            [ODD_TEXT, ODD_TEXT, ODD_FLOAT, ODD_FLOAT]),
}


@st.composite
def csv_texts(draw, header, valid, odd):
    """A CSV of ``header`` and up to 8 rows of valid fields; up to three lines made odd."""
    lines = [[draw(v) for v in valid] for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        k = draw(st.integers(0, len(lines) - 1))
        if len(lines[k]) != len(valid):
            continue
        change = draw(st.sampled_from(["field"] * 4 + ["blank", "spaces", "short", "long"]))
        if change == "field":
            j = draw(st.integers(0, len(lines[k]) - 1))
            lines[k][j] = draw(odd[j])
        elif change == "short":
            lines[k].pop()
        elif change == "long":
            lines[k].append("9")
        else:
            lines.insert(k, [] if change == "blank" else ["  "])
    breaks = st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])
    return header + draw(breaks) + "".join(",".join(fields) + draw(breaks) for fields in lines)


@pytest.mark.parametrize("kind", list(READERS))
@given(data=st.data())
@settings(max_examples=200)
def test_numpy_reader_reads_as_the_row_reader(tmp_path_factory, kind, data):
    """Reading with numpy's reader first gives the row reader's arrays or its error."""
    read, header, valid, odd = READERS[kind]
    text = data.draw(csv_texts(header, valid, odd))
    path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
    path.write_bytes(text.encode())
    assert outcome(read, path) == row_reader_only(read, path)


LIMIT = csv.field_size_limit()
# reader, body after the header, and part of the row reader's error (None: it
# reads the file); numpy's reader would read each body otherwise or not at all
REFUSED = [
    (read_field_csv, "0,0,1\n0,\u01fe1,2\n", "column 'col' has non-integer value"),   # numpy: 4621
    (read_field_csv, "0,0,1\n0,1,\x1c2\n", "column 'value' has non-numeric value"),
    (read_field_csv, "0,0,1_0\n", None),
    (read_field_csv, "0,0,\u0663\n", None),
    (read_field_csv, "0,0,1\n0,1," + "0" * LIMIT + "1\n", "field larger than field limit"),
    (read_cdf_csv, "pe,1,0.5,1\n" + "x" * (LIMIT + 1) + ",1,0.6,1\n", "field larger than field limit"),
    (read_cdf_csv, '"a,b",1,0.5,1\n', None),
    (read_cdf_csv, 'x"y,1,0.5,1\n', None),
    (read_cdf_csv, "p\x00e,1,0.5,1\n", None),
    (read_cdf_csv, "\u00e9,1,0.5,1\n", None),
    (read_field_csv, "", "no cells listed"),
    (read_cdf_csv, "\n\r\n", "no cdf samples listed"),
]


@pytest.mark.parametrize("case", range(len(REFUSED)))
def test_numpy_reader_refuses_what_it_would_read_otherwise(tmp_path, recwarn, case):
    read, body, error = REFUSED[case]
    header = "row,col,value" if read is read_field_csv else "method,seed,error,cdf"
    path = tmp_path / "file.csv"
    path.write_bytes(f"{header}\n{body}".encode())
    row = _FIELD_ROW if read is read_field_csv else _CDF_ROW
    assert dataio._c_rows(path, row) is None
    got = outcome(read, path)
    assert got == row_reader_only(read, path)
    assert got[0] == "read" if error is None else error in got[1], got
    # an empty body makes numpy warn; the warning is a refusal and stays inside
    assert not recwarn.list


def test_numpy_reader_takes_written_files(tmp_path, masked_domain, rng):
    field = SpatialField(masked_domain, rng.uniform(0.0, 5.0, masked_domain.n))
    write_field_csv(field, tmp_path / "field.csv")
    rows = dataio._c_rows(tmp_path / "field.csv", _FIELD_ROW)
    np.testing.assert_array_equal(rows["value"], field.values)
    truth = SpatialField(masked_domain, rng.uniform(1.0, 2.0, masked_domain.n))
    write_cdf_csv(relative_errors(field, truth, method="pe", seed=3), tmp_path / "cdf.csv")
    assert dataio._c_rows(tmp_path / "cdf.csv", _CDF_ROW)["method"][-1] == "pe"


# ------------------------------------------------- activity, against a row loop

def _parse(kind, text, path, line, column):
    try:
        return kind(text)
    except ValueError as exc:
        what = "non-integer" if kind is int else "non-numeric"
        raise SchemaError(f"{path}:{line}: column '{column}' has {what} value {text!r}") from exc


def load_cdr_rows(path, time_range=None, n_rows=100, n_cols=100):
    """load_cdr_csv written as a plain row loop: the reference for its reading."""
    acc = np.zeros(n_rows * n_cols)
    for i, _, rec in dataio._read_rows(path, CDR_HEADER):
        sid = _parse(int, rec[0], path, i, "square_id")
        if not (1 <= sid <= n_rows * n_cols):
            raise SchemaError(f"{path}:{i}: square_id {sid} outside 1..{n_rows * n_cols}")
        ts = _parse(float, rec[1], path, i, "timestamp")
        if time_range is not None and not (time_range[0] <= ts <= time_range[1]):
            continue
        total = 0.0
        for j, col in enumerate(CDR_HEADER[2:], start=2):
            text = rec[j].strip()
            if text:
                value = _parse(float, text, path, i, col)
                if not np.isfinite(value):
                    raise SchemaError(f"{path}:{i}: column '{col}' has non-finite value {text!r}")
                total += value
        acc[sid - 1] += total
    return SpatialField(make_domain(n_rows, n_cols), acc)


CDR_VALID = [st.integers(1, 6).map(str), st.integers(0, 9).map(str)] + [
    st.one_of(st.just(""), st.just(" "), st.floats(-1e3, 1e3).map(repr),
              st.sampled_from(["0.1", "1e-17", "-0.0", "3"]))] * 4
CDR_ODD = [st.sampled_from(["0", "7", "-1", "x", "1_0", " 2 ", "99999999999999999999"]),
           st.sampled_from(["nan", "x", "", "1e400", " 4 "])] + [
    st.sampled_from(["x", "inf", " nan ", "1_0", "\u0663", "\t-inf"])] * 4


@pytest.mark.parametrize("chunk", [None, 2, 3])
@given(data=st.data())
def test_activity_reads_as_row_by_row(tmp_path_factory, chunk, data):
    """Activity sums equal the reference row loop's bit for bit, or raise its error."""
    text = data.draw(csv_texts(",".join(CDR_HEADER), CDR_VALID, CDR_ODD))
    time_range = data.draw(st.sampled_from([None, (2.0, 6.0), (0, 0)]))
    path = tmp_path_factory.mktemp("cdr") / "cdr.csv"
    path.write_bytes(text.encode())
    with decoded_in_chunks(chunk):
        got = outcome(lambda p: load_cdr_csv(p, time_range, 2, 3), path)
    want = outcome(lambda p: load_cdr_rows(p, time_range, 2, 3), path)
    assert got == want


# text csv.reader cannot split or bytes the decoder cannot read, each after
# good rows; the expected error follows the path. A decoder fails on a
# chunk of 8 KiB at once, so the undecodable byte sits past the first chunk.
FILLER = "".join(f"0,{k},1\n" for k in range(3000))
UNREADABLE = [
    (b"row,col,value\n0,0,1\n0,1," + b"9" * (LIMIT + 1) + b"\n",
     "3: field larger than field limit (131072)"),
    # an error on an earlier row wins
    (b"row,col,value\n0,0,x\n0,1," + b"9" * (LIMIT + 1) + b"\n",
     "2: column 'value' has non-numeric value 'x'"),
    (b'row,col,value\n0,0,1\n"0\n\n,1,' + b"9" * (LIMIT + 1) + b'"\n',
     "5: field larger than field limit (131072)"),
    (b"row,col,value\n" + FILLER.encode() + b"1,0,\xff\n",
     "3002: not utf-8 text (invalid start byte)"),
    (b"row,col,value\r\n0,0,1\r\r\n0,1,\xe9\r\n", "4: not utf-8 text (invalid continuation byte)"),
    (b"row,col,va\xfflue\n0,0,1\n", "1: not utf-8 text (invalid start byte)"),
    (b"row,col," + b"v" * (LIMIT + 1) + b"\n0,0,1\n", "1: field larger than field limit (131072)"),
    # a bad value before the undecodable byte wins, in the decoder's first
    # chunk and past it
    (b"row,col,value\n0,0,x\n0,1,\xff\n", "2: column 'value' has non-numeric value 'x'"),
    (b"row,col,value\n" + FILLER.encode() + b"0,0,x\r\n\r\n1,0,\xff\n",
     "3002: column 'value' has non-numeric value 'x'"),
    (b"row,col,value\n0,0,1\n\xff", "3: not utf-8 text (invalid start byte)"),
]


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("case", range(len(UNREADABLE)))
def test_unreadable_text_is_a_schema_error_naming_its_line(tmp_path, case, chunk):
    data, error = UNREADABLE[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with decoded_in_chunks(chunk), pytest.raises(SchemaError) as info:
        read_field_csv(path)
    assert str(info.value) == f"{path}:{error}"


# rows padded with spaces to 1 KiB, so that 8,300 of them make 8 MiB
PAD = " " * 1000
LATE_BYTE = {
    # reader, header, row k, traced peak allowed per byte of the file
    "activity": (load_cdr_csv, ",".join(CDR_HEADER), lambda k: f"1,0,{PAD}1,2,3,4", 0),
    # numpy's reader is offered a field's whole body, but one that is not
    # ASCII is refused before any of it is decoded: the file's bytes, once
    "field": (read_field_csv, "row,col,value", lambda k: f"{k},0,{PAD}1.5", 1.25),
}


@pytest.mark.parametrize("kind", LATE_BYTE)
def test_unreadable_last_line_is_found_in_one_pass(tmp_path, kind):
    # the reader meets the byte as it reaches its line; a second read of
    # the file to find it would hold the file's text several times over
    read, header, row, per_byte = LATE_BYTE[kind]
    path = tmp_path / "late.csv"
    rows = "".join(f"{row(k)}\n" for k in range(8300))
    path.write_bytes(f"{header}\n{rows}".encode() + b"0,1,\xff\n")
    size = path.stat().st_size
    assert size >= 8 * 2**20
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError) as info:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}:8302: not utf-8 text (invalid start byte)"
    assert peak < per_byte * size + 2**20

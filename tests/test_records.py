import re
import sys
from dataclasses import fields

import pytest

from hydrocm.records import (
    RECORD_HEADER,
    RecordRow,
    RunResult,
    read_records,
    write_records,
    write_trace,
)

from conftest import read_trace


def test_record_layout_stated_once():
    names = [f.name for f in fields(RecordRow)]
    assert RECORD_HEADER.split(",") == names
    assert [f.name for f in fields(RunResult)][: len(names)] == names


def test_record_round_trip(tmp_path):
    rows = [
        RecordRow(seed=1, evaluations=2345, elapsed_ms=617.25, best=25.0, success=True),
        RecordRow(seed=2, evaluations=100000, elapsed_ms=9000.5, best=24.639424, success=False),
    ]
    path = tmp_path / "records.csv"
    write_records(path, rows)
    assert read_records(path) == rows


def test_record_header_written(tmp_path):
    path = tmp_path / "records.csv"
    write_records(path, [])
    assert path.read_text().splitlines()[0] == RECORD_HEADER


def test_bad_header_names_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("bogus\n1,2,3,4,1\n")
    with pytest.raises(ValueError, match="line 1"):
        read_records(path)


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORD_HEADER + "\n1,2,3.0,4.0,1\n5,6\n")
    with pytest.raises(ValueError, match="line 3"):
        read_records(path)


def test_non_numeric_row_names_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORD_HEADER + "\n1,x,3.0,4.0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_records(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2,3.0,4.0,7", "success must be 0 or 1, got '7'"),
        ("1,2,3.0,4.0,true", "success must be 0 or 1, got 'true'"),
        ("1,2,nan,4.0,1", "elapsed_ms must be finite, got 'nan'"),
        ("1,2,3.0,-inf,0", "best must be finite, got '-inf'"),
        ("1_0,2,3.0,4.0,1", "seed must be a decimal integer, got '1_0'"),
        ("1, 5 ,3.0,4.0,1", "evaluations must be a decimal integer, got ' 5 '"),
    ],
)
def test_bad_cell_names_line(tmp_path, row, message):
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORD_HEADER}\n1,2,3.0,4.0,1\n{row}\n")
    with pytest.raises(ValueError, match=f"line 3: {message}"):
        read_records(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("-1,2,3.0,4.0,1", "seed must be >= 0, got -1"),
        ("1,-10,5,1.0,1", "evaluations must be >= 1, got -10"),
        ("1,0,3.0,4.0,0", "evaluations must be >= 1, got 0"),
        ("1,2,-0.5,4.0,1", "elapsed_ms must be >= 0.0, got -0.5"),
        pytest.param(f"1,{10**400},3.0,4.0,1", f"evaluations must be at most {sys.maxsize}", id="evaluations-10**400"),
    ],
)
def test_impossible_cell_names_line(tmp_path, row, message):
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORD_HEADER}\n1,2,3.0,4.0,1\n{row}\n")
    with pytest.raises(ValueError, match=f"{path.name}: line 3: {message}"):
        read_records(path)


def test_lowest_valid_cells_accepted(tmp_path):
    # a run that solves at initialization reports elapsed_ms 0.0
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORD_HEADER}\n0,1,0.0,4.0,1\n")
    assert read_records(path) == [RecordRow(seed=0, evaluations=1, elapsed_ms=0.0, best=4.0, success=True)]


def test_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORD_HEADER}\n\n1,2,3.0,4.0,1\n\n1,2,3.0,4.0,7\n")
    with pytest.raises(ValueError, match="line 5: success"):
        read_records(path)


def test_unreadable_file_names_path(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        read_records(tmp_path)


def test_non_utf8_file_names_path(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(b"\xff\xfe" + RECORD_HEADER.encode("utf-16-le"))
    with pytest.raises(ValueError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
        read_records(path)


def test_trace_round_trip(tmp_path):
    trace = [(0.0, 1.5), (10.0, 2.0), (637.1428571428571, 5.0)]
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    assert read_trace(path) == trace


def test_trace_line_format(tmp_path):
    path = tmp_path / "run.trace"
    write_trace(path, [(1.5, 2.25)])
    assert path.read_text() == "1.5,2.25\n"

"""The C-speed CSV reader and writer against their line-by-line references.

``_read_csv`` parses with ``np.loadtxt`` and leaves every body that
``loadtxt`` cannot read exactly to the line-numbered parser.  These tests
pin that the pair reads the same arrays and raises the same messages as a
plain line-by-line reader, and that ``_write_csv`` writes the bytes
``np.savetxt(fmt="%.17g")`` writes.
"""
from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from headalign.errors import RecordingFormatError
from headalign.recording import (
    _AID_HEADER,
    _IMU_HEADER,
    _TRUTH_HEADER,
    _loadtxt,
    _parse_lines,
    _read_csv,
    _split_lines,
    _write_csv,
    write_recording,
)
from headalign.simulate import DEFAULT_SENSORS, scenario_bank, simulate_recording

HEADER = "t,a,b"


def _reference_read(path: str, header: str) -> np.ndarray:
    """Plain line-by-line reader: iterate the file, ``float()`` every field."""
    name = os.path.basename(path)
    ncol = len(header.split(","))
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.rstrip("\r\n") != header:
            raise RecordingFormatError(
                f"{name} line 1: expected header {header!r}, got {first.rstrip()!r}"
            )
        rows = []
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != ncol:
                raise RecordingFormatError(
                    f"{name} line {lineno}: expected {ncol} fields, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise RecordingFormatError(f"{name} line {lineno}: {exc}") from exc
    if not rows:
        raise RecordingFormatError(f"{name}: no data rows")
    data = np.array(rows, dtype=float)
    bad = np.nonzero(np.diff(data[:, 0]) <= 0)[0]
    if bad.size:
        raise RecordingFormatError(f"{name} line {bad[0] + 3}: non-increasing timestamp")
    return data


def _outcome(reader, path: str):
    try:
        return "array", reader(path, HEADER)
    except RecordingFormatError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bank42")
    for cfg in scenario_bank(42, duration=120.0):
        write_recording(simulate_recording(cfg, DEFAULT_SENSORS), str(root / cfg.name))
    return root


@pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4", "S5"])
@pytest.mark.parametrize("name, header", [
    ("imu.csv", _IMU_HEADER), ("aid.csv", _AID_HEADER), ("truth.csv", _TRUTH_HEADER),
])
def test_loadtxt_is_bit_equal_to_line_parser_on_seed42_bank(bank_dir, scenario, name, header):
    text = (bank_dir / scenario / name).read_text()
    lines = _split_lines(text)[1:]
    ncol = len(header.split(","))
    fast = _loadtxt(lines, ncol)
    assert fast is not None  # the C path took the whole file
    slow = _parse_lines(name, lines, ncol)
    assert fast.dtype == slow.dtype == np.float64
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("body", [
    pytest.param("0,1,2\n\n1,1,2\n", id="blank-line-in-middle"),
    pytest.param("0,1,2\n1,1,2\n\n", id="trailing-blank-line"),
    pytest.param("\n", id="only-a-blank-line"),
    pytest.param("0,1,2\r\n1,1,2\r\n", id="crlf"),
    pytest.param("0,1,2\r1,1,2\r", id="cr-only"),
    pytest.param("0,1,2\r\n1,1,2\r2,1,2\n", id="mixed-line-ends"),
    pytest.param("0,1,2\r\r\n1,1,2\n", id="cr-before-crlf"),
    pytest.param(" 0 , 1 ,2 \n1,\t1,2\n", id="spaces-around-fields"),
    pytest.param("0,1,2\x0b\n1,\x0c1,2\n", id="vt-ff-around-fields"),
    pytest.param("0,1\x1c2,3\n", id="file-separator-inside-field"),
    pytest.param("0,1_0,2\n1,1,2\n", id="underscore-digits"),
    pytest.param("0,1,2,\n", id="trailing-comma"),
    pytest.param("0,1\n", id="missing-field"),
    pytest.param("0,1,2\n1,abc,2\n", id="non-numeric"),
    pytest.param("0,1,2\n1,,2\n", id="empty-field"),
    pytest.param('0,"1",2\n', id="quoted-field"),
    pytest.param("0,1,2 # note\n", id="comment-marker"),
    pytest.param("0,nan,-inf\n1,Infinity,1e999\n", id="non-finite-spellings"),
    pytest.param("0,1,2\n0,1,2\n", id="non-increasing-timestamp"),
    pytest.param("0,1,2\n1,1,2", id="no-final-newline"),
    pytest.param("0,1,2\n", id="one-data-row"),
    pytest.param("", id="empty-body"),
])
def test_reader_agrees_with_line_reference_on_edge_bodies(tmp_path, body):
    path = tmp_path / "edge.csv"
    path.write_bytes((HEADER + "\n" + body).encode())
    kind, got = _outcome(_read_csv, str(path))
    ref_kind, ref = _outcome(_reference_read, str(path))
    assert kind == ref_kind, (got, ref)
    if kind == "array":
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref, equal_nan=True)
    else:
        assert got == ref


def test_empty_and_blank_bodies_raise_no_warning(tmp_path):
    path = tmp_path / "edge.csv"
    for body, message in [("", "no data rows"), ("\n\n", "line 2: expected 3 fields, got 1")]:
        path.write_text(HEADER + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RecordingFormatError, match=message):
                _read_csv(str(path), HEADER)


def _random_table(shape) -> np.ndarray:
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)


def _edge_table() -> np.ndarray:
    edge = [-0.0, 5e-324, np.finfo(float).max, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(4)
    return np.vstack([np.array(edge).reshape(2, 3), rng.normal(size=(10, 3)) * 1e3])


@pytest.mark.parametrize("table", [
    pytest.param(_random_table((1, 3)), id="1x3"),
    pytest.param(_random_table((1, 7)), id="1x7"),
    pytest.param(_random_table((5, 4)), id="5x4"),
    pytest.param(_random_table((257, 7)), id="257x7"),
    pytest.param(_edge_table(), id="edge-values"),
])
def test_writer_bytes_equal_savetxt(tmp_path, table):
    header = ",".join(f"c{i}" for i in range(table.shape[1]))
    ours, ref = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    _write_csv(str(ours), header, table)
    np.savetxt(str(ref), table, fmt="%.17g", delimiter=",", header=header, comments="")
    assert ours.read_bytes() == ref.read_bytes()

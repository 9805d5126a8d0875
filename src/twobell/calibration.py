"""The calibration table: CSV ingestion of one device's per-qubit noise
parameters, for ``channels.build_noise_model``.

The header is ``CSV_HEADER``: qubit, T1 and T2 in microseconds, frequency
in GHz, readout and Pauli-X errors, and the CNOT errors as ``;``-separated
``cx<i>_<j>:<error>`` tokens that name the row's qubit.  ``load_calibration``
checks each cell as it reads it and returns one ``CalibrationRecord`` per
qubit.
"""

from __future__ import annotations

import csv
import warnings
from importlib import resources
from typing import NamedTuple

from .circuit import CircuitParseError, read_lines


class CalibrationRecord(NamedTuple):
    """One qubit's row of a calibration table, fields in column order."""

    qubit: int
    t1_us: float
    t2_us: float
    frequency_ghz: float
    readout_error: float
    pauli_x_error: float
    cnot_errors: dict  # neighbor qubit -> error


class CalibrationError(ValueError):
    pass


def packaged_calibration_path():
    return resources.files("twobell.data") / "casablanca_2021-12-01.csv"


def _qubit(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a qubit index >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects NaN
        raise ValueError(f"expected a positive number, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} out of [0, 1]")
    return value


# The parser of each column's cells but cnot_errs'; a bad cell raises ValueError.
_CELL_PARSERS = {"qubit": _qubit, "t1_us": _positive, "t2_us": _positive, "freq_ghz": float,
                 "readout_err": _probability, "x_err": _probability}
CSV_HEADER = [*_CELL_PARSERS, "cnot_errs"]


def _parse_cnot_tokens(raw: str, row_qubit: int, tokens: dict) -> dict:
    """The row's CNOT errors by neighbor; ``tokens[row_qubit, nb]`` gets each token."""
    out = {}
    raw = raw.strip()
    if not raw:
        return out
    for token in raw.split(";"):
        token = token.strip()
        try:
            name, value = token.split(":")
            if not name.startswith("cx"):
                raise ValueError
            i, j = map(int, name[2:].split("_"))
        except ValueError:
            raise CalibrationError(f"unparsable CNOT token {token!r}") from None
        if row_qubit not in (i, j):
            raise CalibrationError(f"CNOT token {token!r} does not involve qubit {row_qubit}")
        nb = j if i == row_qubit else i
        if nb == row_qubit or nb < 0:
            raise CalibrationError(f"CNOT token {token!r} needs a qubit >= 0 other than {row_qubit}")
        if nb in out:
            raise CalibrationError(f"CNOT token {token!r} repeats qubit {nb} on this row")
        out[nb], tokens[row_qubit, nb] = _probability(value), token
    return out


def load_calibration(path) -> list:
    """Read calibration records from CSV (see CSV_HEADER for the format).

    Each cell is checked as it is read; a bad one is reported as
    ``line N, <column>: ...``, a line that is not UTF-8 as ``line N: not
    UTF-8 text``; a second row for a qubit, and a CNOT token that names a
    qubit with no row, are errors.
    CNOT entries are completed symmetrically: cx0_1 under qubit 0 also
    registers under qubit 1, unless qubit 1's row lists the pair itself.
    T2 > 2*T1 is clamped with a warning.
    """
    records, lines, tokens = {}, {}, {}  # by qubit: its record and its row's line; by pair: its token
    try:
        reader = csv.DictReader(read_lines(path))
        header = reader.fieldnames = [f.strip() for f in reader.fieldnames or []]
        if header != CSV_HEADER:
            raise CalibrationError(f"line 1: bad header; expected {','.join(CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if None in row or None in row.values():
                raise CalibrationError(f"line {line}: expected {len(CSV_HEADER)} cells")
            cells = {}
            try:
                for column, parse in _CELL_PARSERS.items():
                    cells[column] = parse(row[column])
                column = "cnot_errs"
                cells[column] = _parse_cnot_tokens(row[column], cells["qubit"], tokens)
            except ValueError as exc:
                raise CalibrationError(f"line {line}, {column}: {exc}") from None
            q, t1, t2 = cells["qubit"], cells["t1_us"], cells["t2_us"]
            if q in lines:
                raise CalibrationError(f"line {line}: qubit {q} repeats line {lines[q]}")
            if t2 > 2 * t1:
                warnings.warn(f"qubit {q}: T2={t2} > 2*T1={2 * t1}, clamping")
                cells["t2_us"] = 2 * t1
            lines[q], records[q] = line, CalibrationRecord(*cells.values())
    except CircuitParseError as exc:  # a line that is not UTF-8
        raise CalibrationError(str(exc)) from None
    if not records:
        raise CalibrationError("no records")

    # Symmetric completion across rows.
    for r in records.values():
        for nb, err in r.cnot_errors.items():
            if nb not in records:
                raise CalibrationError(f"line {lines[r.qubit]}, cnot_errs: CNOT token "
                                       f"{tokens[r.qubit, nb]!r} names qubit {nb}, which has no row")
            records[nb].cnot_errors.setdefault(r.qubit, err)
    return list(records.values())

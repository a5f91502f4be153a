"""Reference CSV reader: the strict reader as it was before numpy's C reader.

It converts every cell in Python (``csv.reader``, ``float``,
``math.isfinite``).  ``varaux.moments.load_csv_rows`` must give the same
array bits, or the same exception class and message, on every input
whose syntax both accept; tests compare the two.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from varaux.errors import InvalidInputError, PopulationFormatError
from varaux.moments import _not_utf8


def load_csv_rows(path, header: str, holds: str) -> np.ndarray:
    """Read a numeric CSV file with header ``header`` as a ``(rows, columns)`` array.

    Parsing is strict: a wrong header, a row with the wrong field
    count, or a non-numeric or non-finite field is a hard error naming
    the line, never skipped, and so is text that is not UTF-8 (a UTF-8
    byte-order mark is allowed).  ``holds`` names what the rows make
    up, for the error when fewer than two of them follow the header.
    """
    names = header.split(",")
    width = len(names)
    # One flat list of floats, not a list of row tuples: a million rows
    # then take about 32 bytes a value until the array is built, not 48.
    cells: list[float] = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None:
                raise PopulationFormatError(f"{path}: empty file, expected header '{header}'")
            if [field.strip() for field in first] != names:
                raise PopulationFormatError(
                    f"{path}: line 1: expected header '{header}', got {','.join(first)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise PopulationFormatError(
                        f"{path}: line {lineno}: expected {width} comma-separated values, got {len(row)}"
                    )
                try:
                    values = tuple(map(float, row))
                except ValueError:
                    raise PopulationFormatError(
                        f"{path}: line {lineno}: non-numeric field in {row!r}"
                    ) from None
                if not all(map(math.isfinite, values)):
                    raise PopulationFormatError(
                        f"{path}: line {lineno}: non-finite value in {row!r}"
                    )
                cells.extend(values)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    rows = len(cells) // width
    if rows < 2:
        raise InvalidInputError(f"{path}: {holds} needs at least two data rows, found {rows}")
    return np.array(cells, dtype=np.float64).reshape(rows, width)

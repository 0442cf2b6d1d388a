"""Deterministic CSV and JSON tables.

Every float is written as its ``%.9g`` text, with LF line endings, so
identical tables give byte-identical files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = ["Grid", "write_table"]


class Grid(NamedTuple):
    """Rows (first[i], second[j], values[i, j]), first index slowest."""

    first: np.ndarray
    second: np.ndarray
    values: np.ndarray


# Most cells of the table in one piece of the writer.  A piece's text, and
# in JSON a few rewritten copies of it, is the most the writer holds
# whatever the size of the table.
_CHUNK_CELLS = 1 << 14


def _body(rows, ncols: int):
    """CSV body of a table as pieces of whole rows, each formatted by one
    ``%.9g`` ``%`` operation and holding at most ``_CHUNK_CELLS`` cells
    (a grid row of the first axis longer than that is a piece of its own).

    ``rows`` is a ``Grid`` or equal-length rows of numbers.  A grid's
    axis values are formatted once each and baked into the row template,
    so each ``%`` formats only its values; its pieces hold whole rows of
    the first axis.
    """
    if isinstance(rows, Grid):
        first, second = (["%.9g" % v for v in
                          np.asarray(axis, dtype=float).tolist()]
                         for axis in (rows.first, rows.second))
        values = np.asarray(rows.values, dtype=float).reshape(
            len(first), len(second))
        # joining ["", tail_0, tail_1, ...] with "a," puts a before each
        # tail: the rows of one first value from one C-level join
        tails = [""] + [b + ",%.9g\n" for b in second]
        step = max(1, _CHUNK_CELLS // (3 * max(1, len(second))))
        for i in range(0, len(first), step):
            template = "".join((a + ",").join(tails)
                               for a in first[i:i + step])
            yield template % tuple(values[i:i + step].ravel().tolist())
    else:
        values = np.asarray(rows, dtype=float).reshape(-1, ncols)
        row = ",".join(["%.9g"] * ncols) + "\n"
        step = max(1, _CHUNK_CELLS // ncols)
        for i in range(0, len(values), step):
            chunk = values[i:i + step]
            yield row * len(chunk) % tuple(chunk.ravel().tolist())


def write_table(path: Path, columns, rows, output_format: str) -> None:
    """Write ``rows`` as CSV or JSON: equal-length rows of numbers, or a
    ``Grid`` of three columns.  The file is written piece by piece, so
    the text of the whole table is never held in memory.

    ``"%.9g" % v`` is the text ``format(float(v), ".9g")`` gives, and JSON
    holds those 9-digit values parsed back to floats: the bytes of
    ``json.dumps({"columns": ..., "rows": ...}, separators=(",", ":"),
    sort_keys=True)`` and a newline.  ``_json_rows`` makes that number
    text from the CSV text without parsing it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as f:
        if output_format == "csv":
            f.write(",".join(columns) + "\n")
            f.writelines(_body(rows, len(columns)))
            return
        header = json.dumps(list(columns), separators=(",", ":"))
        f.write('{"columns":' + header + ',"rows":[')
        sep = ""
        for piece in _body(rows, len(columns)):
            if piece:
                f.write(sep)
                f.write(_json_rows(piece))
                sep = ","
        f.write("]}\n")


# Cells whose %.9g text is not the float repr that json.dumps writes, in
# the rows of a piece as JSON text (each cell follows "[" or "," and precedes
# "," or "]"): integer-looking cells, which repr ends in ".0"; exponents 9
# to 15, which repr writes without one; and exponents of -308 and below,
# where subnormals have fewer digits than 9 ("%.9g" of 5e-324 is
# 4.94065646e-324).  Every other finite cell has at most 9 significant
# digits and a normal exponent, so its repr has the same digits and the
# same notation.  The integer patterns start with a literal, which the
# regex engine scans for quickly; the rare exponents are searched for first.
_INTEGER_CELLS = (re.compile(r",-?\d+(?=[,\]])"),
                  re.compile(r"\[-?\d+(?=[,\]])"))
_EXPONENT = re.compile(r"e(?:\+(?:09|1[0-5])|-3(?:0[89]|[1-9]\d))(?=[,\]])")
_EXPONENT_CELL = re.compile(r"([,\[])([-\d.]+" + _EXPONENT.pattern + ")")


def _json_rows(piece: str) -> str:
    """JSON text of the rows of a CSV body piece, without the outer list
    brackets: the bytes of ``json.dumps`` of the cells parsed as floats,
    made from the text, with a float object only for each rare exponent
    cell."""
    rows = "[" + piece[:-1].replace("\n", "],[") + "]"
    for pattern in _INTEGER_CELLS:
        rows = pattern.sub(r"\g<0>.0", rows)
    if _EXPONENT.search(rows):
        rows = _EXPONENT_CELL.sub(lambda m: m[1] + repr(float(m[2])), rows)
    return rows.replace("nan", "NaN").replace("inf", "Infinity")

"""The writers behind every CSV table, ``.npy`` array and JSON document the
package produces, and the one reader of ``.npy`` arrays.

Each CSV cell is formatted with ``"%.17g"`` (17 significant digits round-trip
every double), a None cell is left blank, and every line ends in CRLF,
the line end of the csv module's default dialect. Reruns of the same
computation therefore write the same bytes. JSON documents are indented
by two spaces with sorted keys, for the same reason. Arrays too long for
text (per-lag samples, density grids, collapse clouds) are written in numpy's
own ``.npy`` format, which stores the doubles as they are.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["read_array", "write_array", "write_json", "write_table"]

# Rows formatted per write; bounds the text held in memory for long tables.
CHUNK_ROWS = 4096


def _format_row(row) -> str:
    return ",".join("" if v is None else "%.17g" % v for v in row) + "\r\n"


def write_table(path, header, rows) -> None:
    """Write a header line, then one CSV line per row.

    ``rows`` is either a 2-d numeric array with one column per header
    name, or a sequence of row sequences whose cells are numbers or None.
    The table is written in chunks of CHUNK_ROWS rows, never built as one
    string.
    """
    if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != len(header)):
        raise ValueError(
            f"rows must be a 2-d array with {len(header)} columns, got shape {rows.shape}"
        )
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(rows), CHUNK_ROWS):
            chunk = rows[start:start + CHUNK_ROWS]
            if isinstance(chunk, np.ndarray):
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            else:
                fh.write("".join(_format_row(row) for row in chunk))


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON, indented by two spaces, keys sorted."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def write_array(path, array) -> None:
    """Write ``array`` as C-ordered float64 in numpy's ``.npy`` format.

    The array round-trips exactly and the same values always give the same
    bytes. The file is written at exactly ``path``: it is passed to
    ``np.save`` open, because given a name ``np.save`` appends ``.npy`` to
    any name that lacks it. Nothing is pickled.
    """
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(array, dtype=np.float64), allow_pickle=False)


def read_array(path) -> np.ndarray:
    """Load one ``.npy`` array without unpickling anything.

    A file that cannot be read, holds pickled objects or is an ``.npz``
    archive raises ValueError naming the file. The caller checks the shape
    and dtype it needs.
    """
    try:
        with open(path, "rb") as fh:
            array = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from exc
    if not isinstance(array, np.ndarray):
        raise ValueError(f"{path}: is an .npz archive, not a .npy array")
    return array

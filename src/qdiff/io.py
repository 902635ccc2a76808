"""The writers behind every CSV table, ``.npy`` array and JSON document the
package produces, and the readers of ``.npy`` arrays and their sidecars.

Each CSV cell is formatted with ``"%.17g"`` (17 significant digits round-trip
every double), a None cell is left blank, and every line ends in CRLF,
the line end of the csv module's default dialect. Reruns of the same
computation therefore write the same bytes. JSON documents are indented
by two spaces with sorted keys, for the same reason. Arrays too long for
text (per-lag samples, density grids, collapse clouds) are written in numpy's
own ``.npy`` format, which stores the doubles as they are. A per-lag array
has a JSON sidecar (its name with the suffix ``.json``) that gives its ``lag``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["json_text", "read_array", "read_sidecar", "write_array", "write_json",
           "write_table"]


def write_table(path, header, rows) -> None:
    """Write a header line, then one CSV line per row.

    ``rows`` is a sequence of row sequences, one cell per header name,
    whose cells are numbers or None.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join("" if v is None else "%.17g" % v for v in row) + "\r\n")


def json_text(obj) -> str:
    """``obj`` as the JSON text every document is written with."""
    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON, indented by two spaces, keys sorted."""
    Path(path).write_text(json_text(obj))


def write_array(path, array, meta: dict | None = None) -> None:
    """Write ``array`` as C-ordered float64 in numpy's ``.npy`` format, and
    ``meta``, when given, as the JSON sidecar ``path.with_suffix(".json")``.

    The array round-trips exactly and the same values always give the same
    bytes. The file is written at exactly ``path``: it is passed to
    ``np.save`` open, because given a name ``np.save`` appends ``.npy`` to
    any name that lacks it. Nothing is pickled.
    """
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(array, dtype=np.float64), allow_pickle=False)
    if meta is not None:
        write_json(Path(path).with_suffix(".json"), meta)


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


def read_sidecar(path) -> dict:
    """The JSON sidecar of the array at ``path``. Its ``lag`` must be a
    positive finite number; else ValueError names the array."""
    sidecar = Path(path).with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
        lag = meta.get("lag") if isinstance(meta, dict) else None
        if isinstance(lag, bool) or not isinstance(lag, (int, float)) or not 0 < lag < math.inf:
            raise ValueError(f"'lag' is {lag!r}, not a positive finite number")
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc} (no lag from sidecar {sidecar.name})") from exc
    return meta

"""Index-series ingestion: CSV loading, detrending, and return ensembles.

A return at lag t is the plain difference I(t0 + t) - I(t0) over active
market time. Pairs that straddle a recorded session gap are never formed,
so overnight jumps do not contaminate the intraday statistics.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from qdiff.io import write_json

__all__ = [
    "IndexSeries",
    "ReturnEnsemble",
    "SchemaError",
    "check_lag_ladder",
    "detrend",
    "gap_report",
    "lag_ladder",
    "load_series",
    "returns_at_lag",
]

# One month of active market time: 30 trading days of 6.5 hours.
MINUTES_PER_TRADING_DAY = 390
DEFAULT_DETREND_WINDOW = 30 * MINUTES_PER_TRADING_DAY


class SchemaError(ValueError):
    """Input file violates the two-column (timestamp, value) schema."""


@dataclass(frozen=True)
class IndexSeries:
    """Index level sampled on strictly increasing timestamps (minutes).

    ``gaps`` lists (index, dt) pairs where the spacing dt between
    timestamps[index] and timestamps[index + 1] exceeds the sampling
    interval; gaps are allowed but recorded so that return construction
    can avoid them.
    """

    timestamps: np.ndarray
    values: np.ndarray
    gaps: tuple = field(default=())

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.shape != ts.shape:
            raise SchemaError("timestamps and values must be 1-d arrays of equal length")
        if ts.size < 2:
            raise SchemaError("need at least two samples")
        if not np.all(np.isfinite(ts)) or not np.all(np.isfinite(vals)):
            raise SchemaError("timestamps and values must be finite")
        if np.any(np.diff(ts) <= 0.0):
            bad = int(np.argmax(np.diff(ts) <= 0.0))
            raise SchemaError(f"timestamps must be strictly increasing (violated at row {bad + 1})")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @cached_property
    def interval(self) -> float:
        """Sampling interval, the median timestamp spacing, computed once per series."""
        return float(np.median(np.diff(self.timestamps)))

    @cached_property
    def _slot_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(offsets, index) for finding a row by its timestamp, built once per series.

        offsets[row] = timestamps[row] - timestamps[0] and index[offset] =
        row, or -1 where no row has that offset; both int32. None, which
        leaves ``returns_at_lag`` to its binary search, unless every
        timestamp is a whole number below 2**53 and the index has at most
        8 entries per row. Epoch minutes of 390-minute sessions take about
        5.4 entries per row; epoch seconds take 60 times as many.
        """
        ts = self.timestamps
        if not (np.abs(ts).max() < 2.0**53 and np.array_equal(ts, np.floor(ts))):
            return None
        span = ts[-1] - ts[0]  # exact whenever it passes the bound below
        if not span < min(8 * ts.size, np.iinfo(np.int32).max):
            return None
        offsets = (ts - ts[0]).astype(np.int32)
        index = np.full(int(span) + 1, -1, dtype=np.int32)
        index[offsets] = np.arange(ts.size, dtype=np.int32)
        return offsets, index

    @property
    def span(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    @classmethod
    def from_values(cls, values, t0: float = 0.0, dt: float = 1.0) -> "IndexSeries":
        """Gapless series on a uniform minute grid (convenience for fixtures)."""
        values = np.asarray(values, dtype=float)
        ts = t0 + dt * np.arange(values.size)
        return cls(timestamps=ts, values=values)


@dataclass(frozen=True)
class ReturnEnsemble:
    """Returns X = I(t0 + lag) - I(t0) collected over admissible origins t0."""

    lag: float
    returns: np.ndarray
    origin_policy: str = "overlapping"

    def __post_init__(self) -> None:
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=float))
        if self.lag <= 0.0:
            raise ValueError(f"lag must be positive, got {self.lag!r}")
        if self.returns.size == 0:
            raise ValueError("return ensemble must be nonempty")
        if self.origin_policy not in ("overlapping", "non-overlapping"):
            raise ValueError(f"unknown origin policy {self.origin_policy!r}")

    def __len__(self) -> int:
        return int(self.returns.size)


def _parse_timestamp(text: str) -> float:
    """Numeric minutes, or ISO-8601 converted to epoch minutes.

    ISO-8601 stamps take the extended forms that ``datetime.fromisoformat``
    reads on Python 3.10, such as ``2020-01-02T09:30:00`` or
    ``2020-01-02 09:30:00+01:00``, plus a trailing ``Z`` for UTC. A stamp
    without an offset is read as UTC, never in the machine's local time, so
    a file gives the same minutes on every machine. The basic forms without
    separators, such as ``20200102T093000``, are out of scope: Python 3.11
    reads them and 3.10 does not.
    """
    try:
        return float(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError as exc:
        raise ValueError(f"cannot parse timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp() / 60.0


def load_series(path, *, delimiter: str = ",") -> IndexSeries:
    """Load an index series from a two-column CSV file.

    Column 0 holds the timestamps and column 1 the values; further columns
    are ignored. The header row is auto-detected: a first row with a field
    that does not parse is a header. Timestamps may be numeric minutes or
    ISO-8601 (UTC unless they carry an offset; see ``_parse_timestamp``);
    values must be finite. Unparseable rows,
    duplicate or non-monotone timestamps raise a SchemaError naming the
    offending file line(s), blank lines counted; a row whose quoted cell
    spans lines is named by its first line.

    A file of at least two rows whose two columns are all finite plain
    numbers, with nothing but empty lines between them, is read by numpy's
    C reader. Every other file (ISO-8601 timestamps, whitespace-only lines,
    ``#`` comments, unparseable or short rows, non-finite values, ``1_000``
    digit groups, fewer than two rows) is read by the ``csv`` row loop,
    which alone parses ISO-8601 timestamps and words every error. Both
    read the same dialect and convert numbers with the same correctly
    rounded routine as ``float()``, so they return the same bits.
    """
    path = Path(path)
    header_lines = _header_lines(path, delimiter)
    table = _read_table(path, delimiter, header_lines)
    if table is None:
        ts, values, lines = _read_rows(path, delimiter, header_lines > 0)
    else:
        ts, values = np.ascontiguousarray(table.T)  # contiguous, as the row loop's arrays are
        lines = None

    diffs = np.diff(ts)
    bad = np.flatnonzero(diffs <= 0.0)[:10]
    if bad.size:
        if lines is None:  # the C reader keeps no line numbers; the row loop does
            lines = _read_rows(path, delimiter, header_lines > 0)[2]
        kind = "duplicated" if np.any(diffs == 0.0) else "non-monotone"
        at = ", ".join(str(lines[i + 1]) for i in bad)
        raise SchemaError(f"{path}: {kind} timestamp at line(s) {at}")

    interval = float(np.median(diffs))
    gap_idx = np.flatnonzero(diffs > interval * (1.0 + 1e-9))
    gaps = tuple((int(i), float(diffs[i])) for i in gap_idx)
    series = IndexSeries(timestamps=ts, values=values, gaps=gaps)
    series.__dict__["interval"] = interval  # seeds the cached_property with the median above
    return series


def _header_lines(path: Path, delimiter: str) -> int:
    """File lines taken by a header row at the top of the file, 0 if none.

    A blank or short first row is never a header. Otherwise it is one when
    a field does not parse. A quoted header field may span lines, hence a
    count and not a flag.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        row = next(reader, [])
    if all(not cell.strip() for cell in row) or len(row) < 2:
        return 0
    try:
        _parse_timestamp(row[0].strip())
        float(row[1].strip())
        return 0
    except ValueError:
        return reader.line_num


def _read_table(path: Path, delimiter: str, header_lines: int) -> np.ndarray | None:
    """(rows, 2) float64 table from numpy's C reader, or None to hand the
    file to the row loop: when a field does not parse as a plain number,
    when fewer than two rows remain, or when a value is not finite.

    ``quotechar='"'`` reads quoted cells as ``csv.reader`` does; without it
    a quoted cell holding a line break would split one row into two.
    numpy is given the path as a ``str``, because only then does it read
    the file in chunks; an open file it iterates line by line. The file is
    passed open when numpy would decompress the name: numpy goes by
    ``os.path.splitext``'s extension, case-sensitively, and decompresses
    ``.bz2``, ``.gz``, ``.xz`` and ``.lzma``, which the row loop reads as
    text.
    """
    if os.path.splitext(path)[1] in (".bz2", ".gz", ".xz", ".lzma"):
        source = open(path, "r", encoding="utf-8")
    else:
        source = contextlib.nullcontext(str(path))
    try:
        with source as fname, warnings.catch_warnings():
            # an empty or header-only file goes to the row loop, which says so
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fname, delimiter=delimiter, skiprows=header_lines, usecols=(0, 1),
                               comments=None, quotechar='"', ndmin=2, dtype=float,
                               encoding="utf-8")
    except ValueError:
        return None
    if len(table) < 2 or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path: Path, delimiter: str, skip_first: bool):
    """The ``csv`` row loop: timestamps, values and the first file line of
    each kept row, or a SchemaError naming the bad lines (first ten)."""
    timestamps: list[float] = []
    values: list[float] = []
    lines: list[int] = []
    bad_lines: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next_line = 1  # a quoted cell may span lines: name each record by its first
        for record_no, row in enumerate(reader, start=1):
            line_no, next_line = next_line, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                bad_lines.append((line_no, f"expected >= 2 columns, got {len(row)}"))
                continue
            if record_no == 1 and skip_first:
                continue
            try:
                ts = _parse_timestamp(row[0].strip())
                val = float(row[1].strip())
            except ValueError as exc:
                bad_lines.append((line_no, str(exc)))
                continue
            if not (math.isfinite(ts) and math.isfinite(val)):
                bad_lines.append((line_no, "non-finite field"))
                continue
            timestamps.append(ts)
            values.append(val)
            lines.append(line_no)
    if bad_lines:
        detail = "; ".join(f"line {n}: {msg}" for n, msg in bad_lines[:10])
        more = "" if len(bad_lines) <= 10 else f" (+{len(bad_lines) - 10} more)"
        raise SchemaError(f"{path}: unparseable rows: {detail}{more}")
    if len(timestamps) < 2:
        raise SchemaError(f"{path}: need at least two data rows")
    return np.asarray(timestamps), np.asarray(values), lines


def gap_report(series: IndexSeries) -> dict:
    """JSON-ready summary of recorded session gaps."""
    return {
        "n_samples": len(series),
        "interval": series.interval,
        "span": series.span,
        "n_gaps": len(series.gaps),
        "gaps": [
            {"index": i, "timestamp": float(series.timestamps[i]), "dt": dt}
            for i, dt in series.gaps
        ],
    }


def write_gap_report(series: IndexSeries, path) -> None:
    write_json(path, gap_report(series))


def returns_at_lag(series: IndexSeries, lag: float, policy: str = "overlapping") -> ReturnEnsemble:
    """Collect returns I(t0 + lag) - I(t0) for every admissible origin.

    An origin is admissible when a sample exists exactly ``lag`` later,
    within 1e-9 sampling intervals, which automatically excludes pairs
    spanning recorded gaps. The non-overlapping policy greedily selects
    origins so consecutive pairs do not share samples.

    Each origin's partner is found in one of two ways. When the series has
    a slot index (whole-number timestamps, see ``IndexSeries._slot_index``)
    and ``lag`` is a whole number, it is ``index[offset + lag]``. Every
    other series takes a binary search of ``timestamp + lag``, the only
    lookup that serves fractional timestamps. The two find the same
    pairs: whole numbers below 2**53 add and subtract exactly, so the
    search target is the partner's timestamp itself, and the tolerance
    1e-9 * interval is below 1 (at most 8 index entries per row keep the
    median spacing at or below 32), so only an exact match passes it.
    """
    interval = series.interval
    if lag < interval * (1.0 - 1e-9):
        raise ValueError(f"lag {lag!r} below the sampling interval {interval!r}")
    if lag > series.span:
        raise ValueError(f"lag {lag!r} exceeds the series span {series.span!r}")
    ts = series.timestamps
    tol = interval * 1e-9
    pairs = _slot_pairs(series, lag)
    i_idx, j_idx = pairs if pairs is not None else _search_pairs(ts, lag, tol)
    if i_idx.size == 0:
        raise ValueError(f"no contiguous in-session pairs at lag {lag!r}")
    if policy == "non-overlapping":
        keep = []
        next_free = -np.inf
        for i, jj in zip(i_idx, j_idx):
            if ts[i] >= next_free - tol:
                keep.append((i, jj))
                next_free = ts[jj]
        i_idx = np.array([k[0] for k in keep])
        j_idx = np.array([k[1] for k in keep])
    rets = series.values[j_idx]
    rets -= series.values[i_idx]
    return ReturnEnsemble(lag=float(lag), returns=rets, origin_policy=policy)


def _slot_pairs(series: IndexSeries, lag: float):
    """(origin rows, partner rows) from the slot index, or None when the
    series has no slot index or ``lag`` is not a whole number."""
    slots = series._slot_index
    if slots is None or not float(lag).is_integer():
        return None
    offsets, index = slots
    lag = int(lag)
    n = int(np.searchsorted(offsets, int(series.span) - lag, side="right"))  # origins with a slot ahead
    partner = index[offsets[:n] + lag]
    i_idx = np.flatnonzero(partner >= 0)
    return i_idx, partner[i_idx]


def _search_pairs(ts: np.ndarray, lag: float, tol: float):
    """(origin rows, partner rows) from a binary search of ``ts + lag``."""
    target = ts + lag
    j = np.searchsorted(ts, target)
    ok = j < ts.size
    jc = np.minimum(j, ts.size - 1)
    ok &= np.abs(ts[jc] - target) <= tol
    i_idx = np.flatnonzero(ok)
    return i_idx, jc[i_idx]


def detrend(series: IndexSeries, window: float = DEFAULT_DETREND_WINDOW) -> IndexSeries:
    """Subtract the mean level within consecutive time blocks of ``window``.

    Blocks are aligned to the first timestamp, so the operation is
    idempotent; each output block has mean zero by construction. Removes
    slow drift before density estimation.
    """
    if window < 2.0 * series.interval:
        raise ValueError(f"window {window!r} must cover at least two sample intervals")
    if window > series.span + series.interval:
        raise ValueError(f"window {window!r} longer than the series span {series.span!r}")
    block = np.floor((series.timestamps - series.timestamps[0]) / window).astype(np.int64)
    # Edge samples landing exactly on span/window boundary stay in last block.
    sums = np.bincount(block, weights=series.values)
    counts = np.bincount(block)
    means = sums / np.maximum(counts, 1)
    out = IndexSeries(
        timestamps=series.timestamps.copy(),
        values=series.values - means[block],
        gaps=series.gaps,
    )
    # same timestamps: carry over what is cached of them
    for name in ("interval", "_slot_index"):
        if name in series.__dict__:
            out.__dict__[name] = series.__dict__[name]
    return out


def check_lag_ladder(min_lag: float, max_lag: float, points_per_decade: int) -> None:
    """Raise ValueError unless ``lag_ladder`` can build a ladder from these."""
    if not (0 < min_lag < max_lag < math.inf):
        raise ValueError(f"need 0 < min_lag < max_lag < inf, got ({min_lag!r}, {max_lag!r})")
    if round(min_lag) < 1:
        raise ValueError(f"min_lag={min_lag!r} rounds to a lag below 1")
    if round(max_lag) > np.iinfo(np.int64).max:
        raise ValueError(f"max_lag={max_lag!r} rounds to a lag beyond int64")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade!r}")


def lag_ladder(min_lag: float, max_lag: float, points_per_decade: int) -> np.ndarray:
    """Logarithmically spaced integer lags including both endpoints."""
    check_lag_ladder(min_lag, max_lag, points_per_decade)
    decades = math.log10(max_lag / min_lag)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    raw = np.geomspace(min_lag, max_lag, n)
    lags = np.unique(np.rint(raw).astype(np.int64))
    lags = lags[lags >= 1]
    if lags[0] != round(min_lag):
        lags = np.insert(lags, 0, round(min_lag))
    if lags[-1] != round(max_lag):
        lags = np.append(lags, round(max_lag))
    return np.unique(lags)

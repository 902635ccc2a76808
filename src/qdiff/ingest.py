"""Index-series ingestion: CSV loading, detrending, and return ensembles.

A return at lag t is the plain difference I(t0 + t) - I(t0) over active
market time. Pairs that straddle a recorded session gap are never formed,
so overnight jumps do not contaminate the intraday statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from qdiff.io import write_json

__all__ = [
    "IndexSeries",
    "ReturnEnsemble",
    "SchemaError",
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

    @property
    def interval(self) -> float:
        """Sampling interval, the median timestamp spacing."""
        return float(np.median(np.diff(self.timestamps)))

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
    """Numeric minutes, or ISO-8601 converted to epoch minutes."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse timestamp {text!r}") from exc
    return stamp.timestamp() / 60.0


def load_series(
    path,
    *,
    delimiter: str = ",",
    has_header: bool | None = None,
    timestamp_column: int = 0,
    value_column: int = 1,
) -> IndexSeries:
    """Load an index series from a two-column CSV file.

    The header row is auto-detected when ``has_header`` is None.
    Timestamps may be numeric minutes or ISO-8601; values must be finite.
    Unparseable rows, duplicate or non-monotone timestamps raise a
    SchemaError naming the offending line number(s).
    """
    path = Path(path)
    needed = max(timestamp_column, value_column) + 1
    timestamps: list[float] = []
    values: list[float] = []
    bad_lines: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < needed:
                bad_lines.append((line_no, f"expected >= {needed} columns, got {len(row)}"))
                continue
            ts_text = row[timestamp_column].strip()
            val_text = row[value_column].strip()
            if line_no == 1 and has_header is not False:
                # Auto-detect: a first row with a non-parsing field is a header.
                try:
                    _parse_timestamp(ts_text)
                    float(val_text)
                except ValueError:
                    if has_header is None or has_header:
                        continue
                if has_header:
                    continue
            try:
                ts = _parse_timestamp(ts_text)
                val = float(val_text)
            except ValueError as exc:
                bad_lines.append((line_no, str(exc)))
                continue
            if not (math.isfinite(ts) and math.isfinite(val)):
                bad_lines.append((line_no, "non-finite field"))
                continue
            timestamps.append(ts)
            values.append(val)
    if bad_lines:
        detail = "; ".join(f"line {n}: {msg}" for n, msg in bad_lines[:10])
        more = "" if len(bad_lines) <= 10 else f" (+{len(bad_lines) - 10} more)"
        raise SchemaError(f"{path}: unparseable rows: {detail}{more}")
    if len(timestamps) < 2:
        raise SchemaError(f"{path}: need at least two data rows")

    ts = np.asarray(timestamps)
    diffs = np.diff(ts)
    if np.any(diffs <= 0.0):
        # Report in file line numbers: data row i is line i+1 with a header.
        offset = 2 if has_header or (has_header is None and _file_has_header(path, delimiter, timestamp_column)) else 1
        bad = np.flatnonzero(diffs <= 0.0)[:10] + offset + 1
        kind = "duplicated" if np.any(diffs == 0.0) else "non-monotone"
        raise SchemaError(f"{path}: {kind} timestamp at line(s) {', '.join(map(str, bad))}")

    interval = float(np.median(diffs))
    gap_idx = np.flatnonzero(diffs > interval * (1.0 + 1e-9))
    gaps = tuple((int(i), float(diffs[i])) for i in gap_idx)
    return IndexSeries(timestamps=ts, values=np.asarray(values), gaps=gaps)


def _file_has_header(path, delimiter, ts_col) -> bool:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        row = next(csv.reader(fh, delimiter=delimiter), None)
    if not row or len(row) <= ts_col:
        return False
    try:
        _parse_timestamp(row[ts_col].strip())
        return False
    except ValueError:
        return True


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
    which automatically excludes pairs spanning recorded gaps. The
    non-overlapping policy greedily selects origins so consecutive pairs
    do not share samples.
    """
    interval = series.interval
    if lag < interval * (1.0 - 1e-9):
        raise ValueError(f"lag {lag!r} below the sampling interval {interval!r}")
    if lag > series.span:
        raise ValueError(f"lag {lag!r} exceeds the series span {series.span!r}")
    ts = series.timestamps
    target = ts + lag
    j = np.searchsorted(ts, target)
    tol = interval * 1e-9
    ok = j < ts.size
    jc = np.minimum(j, ts.size - 1)
    ok &= np.abs(ts[jc] - target) <= tol
    i_idx = np.flatnonzero(ok)
    if i_idx.size == 0:
        raise ValueError(f"no contiguous in-session pairs at lag {lag!r}")
    j_idx = jc[i_idx]
    if policy == "non-overlapping":
        keep = []
        next_free = -np.inf
        for i, jj in zip(i_idx, j_idx):
            if ts[i] >= next_free - tol:
                keep.append((i, jj))
                next_free = ts[jj]
        i_idx = np.array([k[0] for k in keep])
        j_idx = np.array([k[1] for k in keep])
    rets = series.values[j_idx] - series.values[i_idx]
    return ReturnEnsemble(lag=float(lag), returns=rets, origin_policy=policy)


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
    return IndexSeries(
        timestamps=series.timestamps.copy(),
        values=series.values - means[block],
        gaps=series.gaps,
    )


def lag_ladder(min_lag: float, max_lag: float, points_per_decade: int) -> np.ndarray:
    """Logarithmically spaced integer lags including both endpoints."""
    if not (0 < min_lag < max_lag):
        raise ValueError(f"need 0 < min_lag < max_lag, got ({min_lag!r}, {max_lag!r})")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade!r}")
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

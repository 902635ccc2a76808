import contextlib
import math
import re
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff import ingest
from qdiff.ingest import (
    IndexSeries,
    ReturnEnsemble,
    SchemaError,
    detrend,
    gap_report,
    lag_ladder,
    load_series,
    returns_at_lag,
)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSeries:
    def test_three_rows(self, tmp_path):
        s = load_series(write(tmp_path, "0,100\n1,101\n2,103\n"))
        assert len(s) == 3
        assert np.array_equal(s.values, [100.0, 101.0, 103.0])

    def test_header_autodetected(self, tmp_path):
        s = load_series(write(tmp_path, "time,index\n0,100\n1,101\n"))
        assert len(s) == 2

    def test_duplicated_timestamp_names_line(self, tmp_path):
        path = write(tmp_path, "0,100\n1,101\n1,102\n2,103\n")
        with pytest.raises(SchemaError, match="line"):
            load_series(path)
        with pytest.raises(SchemaError, match="duplicated"):
            load_series(path)

    def test_unparseable_row_names_line(self, tmp_path):
        with pytest.raises(SchemaError, match="line 3"):
            load_series(write(tmp_path, "0,100\n1,101\nbad,row\n3,104\n"))

    def test_non_monotone(self, tmp_path):
        with pytest.raises(SchemaError, match="non-monotone"):
            load_series(write(tmp_path, "0,100\n5,101\n3,102\n"))

    def test_custom_delimiter(self, tmp_path):
        s = load_series(write(tmp_path, "0;100\n1;101\n"), delimiter=";")
        assert len(s) == 2

    def test_iso8601_timestamps(self, tmp_path):
        text = "2020-01-02T09:30:00,100\n2020-01-02T09:31:00,101\n2020-01-02T09:32:00,99\n"
        s = load_series(write(tmp_path, text))
        assert s.interval == pytest.approx(1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_series(tmp_path / "nope.csv")

    def test_gaps_recorded(self, tmp_path):
        s = load_series(write(tmp_path, "0,1\n1,2\n2,3\n10,4\n11,5\n"))
        assert len(s.gaps) == 1
        assert s.gaps[0] == (2, 8.0)
        report = gap_report(s)
        assert report["n_gaps"] == 1 and report["gaps"][0]["dt"] == 8.0

    def test_large_synthetic_file(self, tmp_path):
        # a 22-year-scale minute file: row count preserved on load
        n = 2_000_000
        ts = np.arange(n, dtype=np.int64)
        vals = 1000.0 + np.cumsum(np.sin(ts * 0.001))
        lines = "\n".join(f"{t},{v:.4f}" for t, v in zip(ts, vals))
        path = write(tmp_path, lines + "\n", name="big.csv")
        s = load_series(path)
        assert len(s) == n

    def test_duplicate_line_counts_blank_lines(self, tmp_path):
        # the reported line is the file line of the later row, so blank
        # lines before it count
        cases = [("t,v\n\n1,10\n2,11\n\n3,12\n3,13\n", "line(s) 7"),
                 ("1,10\n\n2,11\n2,12\n", "line(s) 4")]
        for i, (text, where) in enumerate(cases):
            with pytest.raises(SchemaError, match=rf"duplicated timestamp at {re.escape(where)}$"):
                load_series(write(tmp_path, text, name=f"dup{i}.csv"))


    def test_lines_after_a_multi_line_cell_are_file_lines(self, tmp_path):
        # the quoted cell spans lines 1-2, so "bad" sits on file line 3
        with pytest.raises(SchemaError, match=r"line 3: cannot parse timestamp 'bad'"):
            load_series(write(tmp_path, '0,100,"a\n1,101,b"\nbad,102\n3,103\n'))

    def test_duplicate_after_a_multi_line_cell_names_its_file_line(self, tmp_path):
        path = write(tmp_path, '0,100,"a\n1,101,b"\n3,103\n3,104\n')
        with pytest.raises(SchemaError, match=r"duplicated timestamp at line\(s\) 4$"):
            load_series(path)

    def test_multi_line_header_is_the_first_record(self, tmp_path):
        path = write(tmp_path, '"min\nute",level\n0,1\nbad,2\n3,4\n')
        with pytest.raises(SchemaError, match=r"unparseable rows: line 4: "):
            load_series(path)
        s = load_series(write(tmp_path, '"min\nute",level\n0,1\n1,2\n', name="ok.csv"))
        assert np.array_equal(s.values, [1.0, 2.0])


class TestIsoTimestamps:
    ROWS = ["2020-01-02T09:30:00", "2020-01-02T09:31:00", "2020-01-02T09:33:00"]

    def load(self, tmp_path, stamps, name):
        text = "".join(f"{t},{100 + i}\n" for i, t in enumerate(stamps))
        s = load_series(write(tmp_path, text, name=name))
        return s.timestamps.view(np.uint64).tolist(), s.values.tolist(), s.gaps

    def test_naive_stamps_do_not_depend_on_the_time_zone(self, tmp_path, monkeypatch):
        got = []
        try:
            for zone in ("UTC", "America/New_York", "Asia/Tokyo"):
                monkeypatch.setenv("TZ", zone)
                time.tzset()
                got.append(self.load(tmp_path, self.ROWS, f"{zone.replace('/', '_')}.csv"))
        finally:
            monkeypatch.undo()
            time.tzset()
        assert got[0] == got[1] == got[2]
        # naive stamps are UTC: 2020-01-02T09:30:00Z is 26299290 epoch minutes
        assert np.array(got[0][0], dtype=np.uint64).view(float)[0] == 26299290.0

    def test_z_offset_and_naive_forms_agree(self, tmp_path):
        naive = self.load(tmp_path, self.ROWS, "naive.csv")
        zulu = self.load(tmp_path, [t + "Z" for t in self.ROWS], "zulu.csv")
        offset = self.load(tmp_path, [t + "+00:00" for t in self.ROWS], "offset.csv")
        assert naive == zulu == offset
        shifted = self.load(tmp_path, [t + "+01:00" for t in self.ROWS], "cet.csv")
        assert shifted[0] != naive[0]


# Each case is written with "," and read with every delimiter below, so a
# case also runs with its commas replaced by ";", a tab or a space.
READER_CASES = {
    "plain": "0,100\n1,101\n2,103\n",
    "header": "t,v\n0,100\n1,101\n",
    "crlf": "t,v\r\n0,100\r\n1,101\r\n",
    "lone_cr": "0,100\r1,101\r2,102\r",
    "blank_lines": "\n0,100\n\n1,101\n\n",
    "whitespace_lines": "0,100\n   \n1,101\n \t \n2,102\n",
    "whitespace_cells": "0,100\n , \n1,101\n",
    "spaces_around_cells": " 0 , 100 \n 1 ,101\n2, 102 \n",
    "unicode_spaces": "0\xa0,100\n1,101\u2003\n2,102\n",
    "quoted": '"0","100"\n"1",101\n',
    "quoted_header": '"t","v"\n0,100\n1,101\n',
    "quoted_delimiter": '0,100,"x,y"\n1,101,"z"\n',
    "quoted_line_break": '0,100,"a\n1,101,b"\n2,102\n3,103\n',
    "quoted_header_line_break": '"t\n9,9",v\n0,100\n1,101\n',
    "extra_columns": "0,100,x\n1,101,y\n2,102,z\n",
    "ragged": "0,100\n1,101,extra,more\n2,102\n",
    "short_row": "0,100\n1\n2,102\n",
    "short_first_row": "0\n1,101\n2,102\n",
    "comment_first": "# comment\n0,100\n1,101\n",
    "comment_mid": "0,100\n#c\n1,101\n",
    "nan": "0,100\n1,nan\n2,102\n",
    "infinity": "0,100\n1,Infinity\n2,-inf\n",
    "overflow": "0,100\n1,1e999\n2,102\n",
    "underscore": "0,1_000\n1,1001\n",
    "bom": "\ufeff0,100\n1,101\n2,102\n",
    "bom_header": "\ufefft,v\n0,100\n1,101\n",
    "empty": "",
    "header_only": "t,v\n",
    "one_row": "0,100\n",
    "header_one_row": "t,v\n0,100\n",
    "duplicate": "t,v\n\n1,10\n2,11\n\n3,12\n3,13\n",
    "non_monotone": "0,100\n5,101\n3,102\n\n4,1\n",
    "iso8601": "2020-01-02T09:30:00,100\n2020-01-02T09:31:00,101\n2020-01-02T09:32:00,99\n",
    "gaps": "0,1\n1,2\n2,3\n10,4\n11,5\n",
    "many_bad_rows": "".join(f"x{i},1\n" for i in range(15)),
    "signed_zero_subnormal": "-0,-0\n1,-0.0\n2,1e-320\n",
    "exponents": "1e2,1E-3\n2e2,.5\n3e2,5.\n",
}
DELIMITERS = [",", ";", "\t", " "]


def outcome(path, **kwargs):
    """load_series as bit patterns and gaps, or the error it raised; a
    warning that reaches the caller fails the comparison."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = load_series(path, **kwargs)
        except Exception as exc:
            return type(exc).__name__, str(exc)
    return s.timestamps.view(np.uint64).tolist(), s.values.view(np.uint64).tolist(), s.gaps


def row_loop_outcome(path, **kwargs):
    """The same call with the C reader handing every file to the row loop."""
    with mock.patch.object(ingest, "_read_table", return_value=None):
        return outcome(path, **kwargs)


class TestCReaderMatchesRowLoop:
    """numpy's C reader returns what the csv row loop returns, bit for bit,
    or hands the file to the row loop, whose result or error is the answer."""

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_edge_case(self, tmp_path, name):
        for i, delimiter in enumerate(DELIMITERS):
            path = tmp_path / f"{name}-{i}.csv"
            path.write_bytes(READER_CASES[name].replace(",", delimiter).encode("utf-8"))
            kwargs = dict(delimiter=delimiter)
            assert outcome(path, **kwargs) == row_loop_outcome(path, **kwargs), kwargs

    # numpy decompresses the last extension when it is one of the first
    # four, case-sensitively; the last two names are text it reads as text
    @pytest.mark.parametrize("name", ["series.csv.gz", "series.csv.bz2", "series.csv.xz",
                                      "series.csv.lzma", "series.csv.GZ", "series.gz.csv"],
                             ids=lambda name: name.removeprefix("series.csv"))
    def test_compressed_suffix_is_read_as_text(self, tmp_path, name):
        path = write(tmp_path, "0,100\n1,101\n2,103\n", name=name)
        assert outcome(path) == row_loop_outcome(path)
        assert len(load_series(path)) == 3

    def test_numeric_file_takes_the_c_reader(self, tmp_path):
        path = write(tmp_path, "minute,level\n0,100.25\n1,99.5\n3,101\n")
        with mock.patch.object(ingest, "_read_rows") as row_loop:
            s = load_series(path)
        row_loop.assert_not_called()
        assert s.gaps == ((1, 2.0),) and np.array_equal(s.values, [100.25, 99.5, 101.0])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from([1, 1, 1, 2, 7, 0, -1]),
                      st.floats(-1e12, 1e12, allow_nan=False),
                      st.integers(0, 2)),
            max_size=40),
        fmt=st.sampled_from([repr, "{:.4f}".format, "{:.6e}".format]),
        header=st.booleans(),
        delimiter=st.sampled_from(DELIMITERS),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_random_numeric_files(self, rows, fmt, header, delimiter, newline):
        # rows are (timestamp step, value, blank lines before the row)
        lines = ["minute" + delimiter + "level"] if header else []
        t = 0
        for step, value, blanks in rows:
            t += step
            lines += [""] * blanks + [f"{t}{delimiter}{fmt(value)}"]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "series.csv"
            path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
            kwargs = dict(delimiter=delimiter)
            assert outcome(path, **kwargs) == row_loop_outcome(path, **kwargs)


class TestReturnsAtLag:
    def test_lag_one(self):
        s = IndexSeries.from_values([100.0, 101.0, 103.0])
        ens = returns_at_lag(s, 1.0)
        assert np.array_equal(ens.returns, [1.0, 2.0])

    def test_lag_two(self):
        s = IndexSeries.from_values([100.0, 101.0, 103.0])
        assert np.array_equal(returns_at_lag(s, 2.0).returns, [3.0])

    def test_constant_series(self):
        s = IndexSeries.from_values(np.full(50, 7.0))
        assert np.all(returns_at_lag(s, 5.0).returns == 0.0)

    def test_overlapping_count_gapless(self):
        n, lag = 200, 7
        s = IndexSeries.from_values(np.arange(n, dtype=float))
        assert len(returns_at_lag(s, float(lag))) == n - lag

    def test_gap_pairs_excluded(self):
        ts = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        vals = np.array([0.0, 1.0, 2.0, 50.0, 51.0, 52.0])
        s = IndexSeries(timestamps=ts, values=vals)
        ens = returns_at_lag(s, 1.0)
        # pairs (2 -> 10) never form; the 50-point jump is absent
        assert np.array_equal(ens.returns, [1.0, 1.0, 1.0, 1.0])
        ens2 = returns_at_lag(s, 2.0)
        assert np.array_equal(ens2.returns, [2.0, 2.0])

    def test_non_overlapping_policy(self):
        s = IndexSeries.from_values(np.arange(10, dtype=float))
        ens = returns_at_lag(s, 3.0, policy="non-overlapping")
        assert len(ens) == 3
        assert np.all(ens.returns == 3.0)

    def test_lag_exceeding_span(self):
        s = IndexSeries.from_values(np.arange(10, dtype=float))
        with pytest.raises(ValueError, match="span"):
            returns_at_lag(s, 100.0)

    def test_lag_below_interval(self):
        s = IndexSeries.from_values(np.arange(10, dtype=float))
        with pytest.raises(ValueError, match="interval"):
            returns_at_lag(s, 0.25)

    def test_drift_removed_exactly_at_aligned_lags(self):
        # Block detrending cancels a pure drift exactly when the lag is a
        # multiple of the window (the residual is periodic with the
        # window); off-aligned lags keep only a small edge bias.
        n, window, mu = 10_000, 100.0, 0.3
        s = IndexSeries.from_values(mu * np.arange(n, dtype=float))
        flat = detrend(s, window=window)
        for lag in (100.0, 300.0, 700.0):
            rets = returns_at_lag(flat, lag).returns
            assert np.max(np.abs(rets)) < 1e-10

    def test_drift_bias_small_at_unaligned_lags(self):
        n, window, mu = 10_000, 100.0, 0.3
        s = IndexSeries.from_values(mu * np.arange(n, dtype=float))
        flat = detrend(s, window=window)
        for lag in (1.0, 7.0, 50.0):
            rets = returns_at_lag(flat, lag).returns
            sigma = np.std(rets) or 1.0
            assert abs(np.mean(rets)) < 0.02 * sigma


def returns_bits(series, lag, policy="overlapping"):
    """returns_at_lag as bit patterns, or the error it raised."""
    try:
        return returns_at_lag(series, lag, policy).returns.view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


@contextlib.contextmanager
def counting_searches():
    """Counts the calls returns_at_lag makes to its binary search."""
    with mock.patch.object(ingest, "_search_pairs", wraps=ingest._search_pairs) as search:
        yield search


POLICIES = ("overlapping", "non-overlapping")


class TestReturnLookups:
    """The slot index and the binary search find the same pairs, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 7]), min_size=1, max_size=40),
        t0=st.integers(-10**9, 10**9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integral_minutes_match_the_search(self, steps, t0, seed):
        # steps of at most 7 keep the index within 8 entries per row
        ts = t0 + np.concatenate([[0], np.cumsum(steps)]).astype(float)
        values = np.random.default_rng(seed).normal(1000.0, 5.0, ts.size)
        whole = IndexSeries(timestamps=ts, values=values)
        half = IndexSeries(timestamps=ts + 0.5, values=values)  # fractional: no slot index
        lags = [float(lag) for lag in range(1, int(whole.span) + 1)]
        with counting_searches() as search:
            got = [returns_bits(whole, lag, policy) for lag in lags for policy in POLICIES]
        assert search.call_count == 0
        with counting_searches() as search:
            want = [returns_bits(half, lag, policy) for lag in lags for policy in POLICIES]
        assert search.call_count == len(POLICIES) * sum(lag >= whole.interval for lag in lags)
        assert got == want

    def test_non_whole_lag_takes_the_search(self):
        values = np.random.default_rng(3).normal(size=50)
        half_minutes = IndexSeries.from_values(values, dt=0.5)
        minutes = IndexSeries.from_values(values)
        assert minutes._slot_index is not None
        with counting_searches() as search:
            assert returns_bits(half_minutes, 1.5) == (values[3:] - values[:-3]).view(np.uint64).tolist()
            assert returns_bits(minutes, 2.5) == "no contiguous in-session pairs at lag 2.5"
        assert search.call_count == 2

    def test_epoch_seconds_take_the_search(self):
        values = np.random.default_rng(4).normal(size=400)
        minutes = 28_000_000 + np.arange(400.0)
        minutes[200:] += 1050  # an overnight gap
        by_minute = IndexSeries(timestamps=minutes, values=values)
        by_second = IndexSeries(timestamps=60.0 * minutes, values=values)  # 60 entries per row
        assert by_second._slot_index is None
        lags = [(lag, policy) for lag in (1, 7, 150, 1100) for policy in POLICIES]
        with counting_searches() as search:
            got = [returns_bits(by_second, 60.0 * lag, policy) for lag, policy in lags]
        assert search.call_count == len(lags)
        assert got == [returns_bits(by_minute, float(lag), policy) for lag, policy in lags]
        assert got[-2] != "no contiguous in-session pairs at lag 66000.0"

    def test_index_bound_is_8_entries_per_row(self):
        def slot_index(last):  # 3 rows, an index of last + 1 entries
            return IndexSeries(timestamps=[0.0, 1.0, last], values=np.zeros(3))._slot_index

        offsets, index = slot_index(23.0)
        assert offsets.tolist() == [0, 1, 23] and index.size == 24
        assert index[[0, 1, 23]].tolist() == [0, 1, 2] and np.all(index[2:23] == -1)
        assert slot_index(24.0) is None

    def test_detrend_and_load_carry_the_cache(self, tmp_path):
        s = load_series(write(tmp_path, "0,1\n1,2\n2,4\n5,3\n6,9\n"))
        assert s.__dict__["interval"] == 1.0
        s._slot_index
        flat = detrend(s, window=3.0)
        assert flat.__dict__["interval"] == 1.0 and flat._slot_index is s._slot_index


class TestDetrend:
    def test_constant_series_zeroed(self):
        s = IndexSeries.from_values(np.full(100, 42.0))
        assert np.allclose(detrend(s, 10.0).values, 0.0, atol=1e-12)

    def test_linear_ramp_full_window(self):
        vals = np.arange(101, dtype=float)
        s = IndexSeries.from_values(vals)
        out = detrend(s, window=101.0)
        assert out.values[0] == pytest.approx(-50.0)
        assert out.values[-1] == pytest.approx(50.0)
        assert abs(np.mean(out.values)) < 1e-12

    def test_blockwise_means_vanish(self):
        n, window = 11700, 390.0
        t = np.arange(n, dtype=float)
        vals = 100 + 0.01 * t + 3.0 * np.sin(2 * np.pi * t / 1170.0)
        s = IndexSeries.from_values(vals)
        out = detrend(s, window)
        block = (t // window).astype(int)
        for b in np.unique(block):
            assert abs(np.mean(out.values[block == b])) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = IndexSeries.from_values(rng.normal(0, 1, 5000).cumsum() + 300)
        once = detrend(s, 250.0)
        twice = detrend(once, 250.0)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_window_validation(self):
        s = IndexSeries.from_values(np.arange(100, dtype=float))
        with pytest.raises(ValueError):
            detrend(s, 1.0)
        with pytest.raises(ValueError):
            detrend(s, 1e6)


class TestLagLadder:
    def test_single_point_per_decade(self):
        assert np.array_equal(lag_ladder(1, 100, 1), [1, 10, 100])

    def test_full_range(self):
        lags = lag_ladder(1, 3000, 4)
        assert lags[0] == 1 and lags[-1] == 3000
        assert 12 <= len(lags) <= 18
        assert np.array_equal(lags, np.unique(lags))

    def test_degenerate_bounds(self):
        with pytest.raises(ValueError):
            lag_ladder(5, 5, 3)
        with pytest.raises(ValueError):
            lag_ladder(0, 10, 3)

    def test_bad_points_per_decade(self):
        with pytest.raises(ValueError):
            lag_ladder(1, 100, 0)

    @pytest.mark.parametrize("min_lag, max_lag", [
        (1.0, math.inf), (1.0, math.nan), (0.5, 10.0), (1e-300, 10.0), (1.0, 1e300),
    ])
    def test_bound_without_a_ladder(self, min_lag, max_lag):
        with pytest.raises(ValueError):
            lag_ladder(min_lag, max_lag, 3)


class TestTypes:
    def test_series_validation(self):
        with pytest.raises(SchemaError):
            IndexSeries(timestamps=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
        with pytest.raises(SchemaError):
            IndexSeries(timestamps=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(SchemaError):
            IndexSeries(timestamps=np.array([0.0, np.nan]), values=np.array([1.0, 2.0]))

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            ReturnEnsemble(lag=0.0, returns=np.array([1.0]))
        with pytest.raises(ValueError):
            ReturnEnsemble(lag=1.0, returns=np.array([]))
        with pytest.raises(ValueError):
            ReturnEnsemble(lag=1.0, returns=np.array([1.0]), origin_policy="weird")

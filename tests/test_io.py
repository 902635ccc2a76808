import csv
import json
import math
import re

import numpy as np
import pytest

from qdiff.io import json_text, read_array, read_sidecar, write_array, write_json, write_table


def reference_table(path, header, rows):
    """The csv.writer loop write_table replaced: the bytes it must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else f"{v:.17g}" for v in row])


def assert_same_bytes(tmp_path, header, rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table(got, header, rows)
    reference_table(want, header, rows.tolist() if isinstance(rows, np.ndarray) else rows)
    assert got.read_bytes() == want.read_bytes()


SPECIAL = [-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, math.nan, math.inf, -math.inf,
           0.1, 1.0 / 3.0, -2.5, 1e16, 123456789012345678.0, 2.0**-1074 * 3]


class TestWriteTable:
    def test_special_values(self, tmp_path):
        rows = np.array(SPECIAL[:14]).reshape(7, 2)
        assert_same_bytes(tmp_path, ["x", "density"], rows)
        text = (tmp_path / "got.csv").read_text()
        assert "-0," in text and "nan" in text and "inf" in text

    def test_none_cells_are_blank(self, tmp_path):
        rows = [(1.0, None, None), (2.5, -0.125, 0.25), (3.0, None, 7.0), (-0.0, math.nan, None)]
        assert_same_bytes(tmp_path, ["t", "x_minus", "x_plus"], rows)
        lines = (tmp_path / "got.csv").read_bytes().split(b"\r\n")
        assert lines[1] == b"1,,"

    def test_crlf_line_ends(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], np.array([[1.0, 2.0]]))
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n1,2\r\n"

    def test_empty_table_is_header_only(self, tmp_path):
        assert_same_bytes(tmp_path, ["t", "x", "d2"], [])

    # sizes around the 4096-row chunks an earlier array path wrote in
    @pytest.mark.parametrize("n_rows", [4095, 4096, 4097, 8199])
    def test_array_across_chunk_boundaries(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
        rows[::97, 1] = np.array(SPECIAL)[np.arange(rows[::97].shape[0]) % len(SPECIAL)]
        assert_same_bytes(tmp_path, ["x_rescaled", "p_rescaled", "lag"], rows)

    def test_rows_across_chunk_boundary(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((4101, 2)).tolist()
        rows = [(float(i), None, None) if i % 3 == 0 else (float(i), a, b)
                for i, (a, b) in enumerate(vals)]
        assert_same_bytes(tmp_path, ["t", "x_minus", "x_plus"], rows)


class TestWriteJson:
    def test_indented_sorted_bytes(self, tmp_path):
        obj = {"b": [1.0, 0.1, -0.0, 1e300], "a": {"z": None, "y": True}, "c": "text"}
        path = tmp_path / "doc.json"
        write_json(path, obj)
        assert path.read_bytes() == json.dumps(obj, indent=2, sort_keys=True).encode()
        assert path.read_text() == json_text(obj)
        assert json.loads(path.read_text()) == obj


class TestArrays:
    def test_round_trip_is_bit_for_bit_at_exactly_the_path(self, tmp_path):
        table = np.array(SPECIAL[:14]).reshape(7, 2)
        path = tmp_path / "table.csv"
        write_array(path, table)
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        back = read_array(path)
        assert back.dtype == np.float64 and back.shape == (7, 2)
        assert np.array_equal(back.view(np.uint64), table.view(np.uint64))

    def test_memory_order_does_not_change_the_bytes(self, tmp_path):
        table = np.arange(12.0).reshape(4, 3)
        write_array(tmp_path / "c.npy", table)
        write_array(tmp_path / "f.npy", np.asfortranarray(table))
        assert (tmp_path / "c.npy").read_bytes() == (tmp_path / "f.npy").read_bytes()

    def test_pickles_are_refused(self, tmp_path):
        path = tmp_path / "objects.npy"
        np.save(path, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not a readable .npy"):
            read_array(path)


class TestSidecars:
    def test_meta_is_written_beside_the_array(self, tmp_path):
        path = tmp_path / "lag_000017.npy"
        write_array(path, np.arange(3.0), {"lag": 17.0, "n": 3})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lag_000017.json", "lag_000017.npy"]
        assert path.with_suffix(".json").read_text() == json_text({"lag": 17.0, "n": 3})
        assert read_sidecar(path) == {"lag": 17.0, "n": 3}

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("{", "Expecting"),
        ("[1.0]", "'lag' is None"),
        ('{"n": 3}', "'lag' is None"),
        ('{"lag": "17"}', "'lag' is '17'"),
        ('{"lag": true}', "'lag' is True"),
        ('{"lag": NaN}', "'lag' is nan"),
        ('{"lag": 0}', "'lag' is 0,"),  # a zero lag rescales by a zero width
    ], ids=["missing", "malformed", "not_an_object", "no_lag", "string_lag", "bool_lag",
            "nan_lag", "zero_lag"])
    def test_refuses_a_sidecar_without_a_numeric_lag(self, tmp_path, text, message):
        path = tmp_path / "pdf_000017.npy"
        write_array(path, np.arange(3.0))
        if text is not None:
            path.with_suffix(".json").write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*"
                           + re.escape(message) + ".*"
                           + re.escape("(no lag from sidecar pdf_000017.json)")):
            read_sidecar(path)

import csv
import json
import math

import numpy as np
import pytest

from qdiff.io import CHUNK_ROWS, write_json, write_table


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
        assert_same_bytes(tmp_path, ["x_rescaled", "p_rescaled", "lag"], np.empty((0, 3)))

    @pytest.mark.parametrize("n_rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                        2 * CHUNK_ROWS + 7])
    def test_array_across_chunk_boundaries(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
        rows[::97, 1] = np.array(SPECIAL)[np.arange(rows[::97].shape[0]) % len(SPECIAL)]
        assert_same_bytes(tmp_path, ["x_rescaled", "p_rescaled", "lag"], rows)

    def test_rows_across_chunk_boundary(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((CHUNK_ROWS + 5, 2)).tolist()
        rows = [(float(i), None, None) if i % 3 == 0 else (float(i), a, b)
                for i, (a, b) in enumerate(vals)]
        assert_same_bytes(tmp_path, ["t", "x_minus", "x_plus"], rows)

    def test_array_width_must_match_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["x", "u"], np.zeros((4, 3)))
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["x", "u"], np.zeros(4))


class TestWriteJson:
    def test_indented_sorted_bytes(self, tmp_path):
        obj = {"b": [1.0, 0.1, -0.0, 1e300], "a": {"z": None, "y": True}, "c": "text"}
        path = tmp_path / "doc.json"
        write_json(path, obj)
        assert path.read_bytes() == json.dumps(obj, indent=2, sort_keys=True).encode()
        assert json.loads(path.read_text()) == obj

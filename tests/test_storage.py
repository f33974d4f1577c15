import codecs
import io
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trdre.storage import (
    CsvParseError,
    _fmt,
    commit,
    csv_text,
    json_text,
    read_numeric_csv,
    write_csv,
    write_text_atomic,
)


def reference_read(path) -> np.ndarray:
    """read_numeric_csv as a line loop over every line, frozen as it was
    before reads parsed in bulk: the reference the bulk parse must match."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(data[: exc.start + 1].splitlines())
        raise CsvParseError(path, line_no, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    rows: list[list[float]] = []
    width = None
    in_prefix = True
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if in_prefix:
            try:
                float(cells[0])
            except ValueError:
                continue
            in_prefix = False
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise CsvParseError(path, line_no, f"non-numeric cell: {exc}") from None
        if not all(math.isfinite(v) for v in row):
            raise CsvParseError(path, line_no, "non-finite cell (nan or inf)")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CsvParseError(path, line_no, f"expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise CsvParseError(path, 1, "no numeric rows found")
    return np.asarray(rows, dtype=float)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        p = tmp_path / "a.txt"
        write_text_atomic(p, "one\n")
        write_text_atomic(p, "two\n")
        assert p.read_text() == "two\n"

    def test_no_tmp_files_left_behind(self, tmp_path):
        p = tmp_path / "sub" / "a.txt"
        write_text_atomic(p, "x\n")
        assert [f.name for f in p.parent.iterdir()] == ["a.txt"]

    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        p = tmp_path / "a.txt"
        old = os.umask(umask)
        try:
            write_text_atomic(p, "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == mode

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("older\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(p, "a lone surrogate \ud800 is not UTF-8\n")
        assert p.read_text() == "older\n"
        assert [f.name for f in tmp_path.iterdir()] == ["a.txt"]

    def test_identical_content_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [[1.25, -3.5], [0.1, 2.0]]
        write_csv(a, rows, header=["u", "v"])
        write_csv(b, rows, header=["u", "v"])
        assert a.read_bytes() == b.read_bytes()


class TestCommit:
    def test_writes_every_file(self, tmp_path):
        commit([(tmp_path / "a.txt", "one\n"), (str(tmp_path / "sub" / "b.txt"), "two\n")])
        assert (tmp_path / "a.txt").read_text() == "one\n"
        assert (tmp_path / "sub" / "b.txt").read_text() == "two\n"
        assert sorted(f.name for f in tmp_path.rglob("*")) == ["a.txt", "b.txt", "sub"]

    def test_failure_while_staging_writes_nothing(self, tmp_path):
        (tmp_path / "a.txt").write_text("older\n")
        (tmp_path / "blocker").write_text("a file, so blocker/b.txt cannot be staged\n")
        with pytest.raises(OSError):
            commit([(tmp_path / "a.txt", "new\n"), (tmp_path / "blocker" / "b.txt", "x\n")])
        assert (tmp_path / "a.txt").read_text() == "older\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.txt", "blocker"]


class TestJson:
    def test_sorted_keys_round_trip(self):
        import json

        text = json_text({"b": 1, "a": [1.5, None]})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1.5, None], "b": 1}


class TestCsvRoundTrip:
    def test_header_and_comment_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [[1.0, 2.0], [3.0, 4.25]], header=["x", "y"], comment="n=2 seed=0")
        lines = p.read_text().splitlines()
        assert lines[0] == "# n=2 seed=0"
        assert lines[1] == "x,y"
        out = read_numeric_csv(p)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.25]])

    def test_floats_round_trip_exactly(self, tmp_path):
        p, q = tmp_path / "f.csv", tmp_path / "g.csv"
        vals = [[1 / 3, 0.1, -1e-17, -0.0], [np.pi, 2**-52, 1e300, 5e-324],
                [1e-5, 1e16, 1.7976931348623157e308, -2.2250738585072014e-308]]
        write_csv(p, vals)
        write_csv(q, np.array(vals))
        assert p.read_bytes() == q.read_bytes()
        assert read_numeric_csv(p).tobytes() == np.array(vals).tobytes()

    def test_float_array_text_is_per_value_fmt(self):
        # A float64 array is rendered by repr over its tolist() rows; a list
        # of its np.float64 rows goes through _fmt value by value.
        X = np.array([[-0.0, 5e-324, 1e-5], [1e16, 1.7976931348623157e308, np.nan],
                      [np.inf, -np.inf, 0.1], [1 / 3, -2.0, 1e-300]])
        per_value = "\n".join(",".join(_fmt(v) for v in row) for row in X) + "\n"
        assert csv_text(X) == per_value
        assert csv_text(X, header=["a", "b", "c"], comment="n=4") == "# n=4\na,b,c\n" + per_value
        assert csv_text(X[:, :0]) == csv_text([[]] * 4)

    def test_integer_cells_written_without_decimal(self, tmp_path):
        p = tmp_path / "i.csv"
        write_csv(p, [[0, 17], [3, 4]], header=["index", "count"])
        body = p.read_text().splitlines()[1:]
        assert body == ["0,17", "3,4"]
        assert np.array_equal(read_numeric_csv(p), [[0.0, 17.0], [3.0, 4.0]])

    def test_matrix_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        M = np.arange(6.0).reshape(2, 3)
        write_csv(p, M, comment="d=3")
        assert np.array_equal(read_numeric_csv(p), M)

    def test_utf8_bom_keeps_first_row(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf1.5,2.0\n3.0,4.0\n5.0,6.0\n")
        assert np.array_equal(read_numeric_csv(p), [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]])
        p.write_bytes(b"\xef\xbb\xbfx,y\n1.5,2.0\n")
        assert np.array_equal(read_numeric_csv(p), [[1.5, 2.0]])


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_numeric_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvParseError) as ei:
            read_numeric_csv(p)
        assert ei.value.line_no == 3
        assert str(p) in str(ei.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"x,y\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(CsvParseError) as ei:
            read_numeric_csv(p)
        assert ei.value.line_no == 3
        assert str(p) in str(ei.value)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvParseError) as ei:
            read_numeric_csv(p)
        assert ei.value.line_no == 2
        assert "expected 2 columns" in str(ei.value)

    def test_all_header_no_data(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# only a comment\nx,y\n")
        with pytest.raises(CsvParseError):
            read_numeric_csv(p)

    @pytest.mark.parametrize(
        "data, line_no",
        [
            (b"\xff\xfex\x00\n\x001\x00\n", 1),  # UTF-16 with its byte-order mark
            (b"\xef\xbb\xbfx\r1\r2\xe9\r", 3),  # UTF-8 BOM, old Mac line ends
            (b"x\r\n1\r\n\r\n2\r\n\xc3", 5),  # truncated sequence at the end
        ],
        ids=["utf16", "cr", "crlf_truncated"],
    )
    def test_undecodable_bytes_name_file_and_line(self, tmp_path, data, line_no):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        with pytest.raises(CsvParseError) as ei:
            read_numeric_csv(p)
        assert ei.value.line_no == line_no
        assert f"{p}:{line_no}: not UTF-8" in str(ei.value)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends_and_line_numbers(self, tmp_path, end):
        p = tmp_path / "ends.csv"
        p.write_bytes(end.join(["x,y", "1,2", "", "3,4", ""]).encode())
        assert np.array_equal(read_numeric_csv(p), [[1.0, 2.0], [3.0, 4.0]])
        p.write_bytes(end.join(["x,y", "1,2", "", "3", ""]).encode())
        with pytest.raises(CsvParseError) as ei:
            read_numeric_csv(p)
        assert ei.value.line_no == 4

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n# c\n\nx\n1.5\n\n2.5\n")
        assert np.array_equal(read_numeric_csv(p), [[1.5], [2.5]])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
_CELL_FORMS = [repr, "{:e}".format, "{:.17E}".format, "{:+.3g}".format, "{:.0f}".format]
# Cells the line loop rejects, or that float() takes and a bulk parse may not
_ODD_CELLS = ["", " ", "nan", "-inf", "Infinity", "1e400", "1_0", "1__0", "x", "#1", "\u0663", "0x1p3",
              "1d5", '"1"', "1\x00", "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "2\x0c3"]
# Whitespace a cell may be padded with; none of it ends a line
_PADS = ["", " ", "\t", "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"]


@st.composite
def csv_files(draw):
    """UTF-8 bytes of a CSV: a float matrix in several number forms, with
    optional BOM, header, comment and blank lines, any of three line ends,
    padded cells and, unless clean, ragged rows and odd cells."""
    clean = draw(st.booleans())
    n, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
    cell = st.builds(lambda v, form, pad: f"{pad}{form(v)}{pad}", values, st.sampled_from(_CELL_FORMS),
                     st.sampled_from(_PADS) if not clean else st.just(""))
    if not clean:
        cell = cell | st.sampled_from(_ODD_CELLS)
    lines = draw(st.lists(st.sampled_from(["x,y", "# a=1 b=2", "", "  ", "\x0c", "index", "a,1"]), max_size=3))
    for _ in range(n):
        k = width if clean else draw(st.sampled_from([width, width, width, width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=max(k, 1), max_size=max(k, 1)))))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "\x0b"])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["", ends[-1]]))
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def _outcome(read, path):
    try:
        X = read(path)
    except CsvParseError as exc:
        return type(exc), str(exc), exc.line_no
    return X.shape, X.strides, X.dtype, X.tobytes()


class TestReadMatchesFrozenReference:
    """The bulk parse and its line loop give the frozen loop's array, bit
    for bit, or its error, with the same message and line number."""

    @given(data=csv_files())
    @example(data=b"x,y\n1.5,2\x0c3\n")  # a form feed inside a line breaks no line
    @example(data=b"1,2\x0b\n3\x0b,4\r\n\x0c\n5,6\r")
    @example(data=b"\xef\xbb\xbf# c\r\nx\r\n1_0,2\r\n3,4\r\n")
    @example(data=b"1,2\n \n3,4\n")  # a whitespace-only line between data lines
    @example(data=b"# only\nx,y\n")
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_array_or_same_error(self, tmp_path, data):
        p = tmp_path / "f.csv"
        p.write_bytes(data)
        assert _outcome(read_numeric_csv, p) == _outcome(reference_read, p)

import os
import stat

import numpy as np
import pytest

from trdre.storage import (
    CsvParseError,
    commit,
    json_text,
    read_numeric_csv,
    write_csv,
    write_text_atomic,
)


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
        p = tmp_path / "f.csv"
        vals = [[1 / 3, 0.1, -1e-17], [np.pi, 2**-52, 1e300]]
        write_csv(p, vals)
        assert np.array_equal(read_numeric_csv(p), np.array(vals))

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

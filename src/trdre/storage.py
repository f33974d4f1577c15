"""File I/O: numeric CSV with an optional header, deterministic JSON.

Dialect: comma separated, '.' decimal, UTF-8 with or without a leading
byte-order mark (files are written without one), finite numeric cells
only. Leading lines whose first token is not a number (column headers,
'#' comment lines carrying the resolved config) are skipped on read.
A read parses the numeric lines in one bulk call; a line loop, which
gives the same bits for every file that call takes, runs only when it
cannot take the file whole, to name the bad line or to parse what the
bulk call does not (digit underscores, non-ASCII digits, lines of
whitespace alone).
A table is written as repr over the cells of np.asarray(rows).tolist():
floats in the shortest round-tripping form, integers without a decimal
point (a table that mixes the two is all float). csv_text and json_text
render a file's text; commit writes a command's files all or none, each
created once as a temp file beside its target and renamed once onto it.
Identical content yields byte-identical files.
"""

from __future__ import annotations

import codecs
import json
import math
import os
from pathlib import Path

import numpy as np


class CsvParseError(ValueError):
    """A CSV cell failed to parse; carries path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def commit(files) -> None:
    """Write every file of `files` ((path, text) pairs) or none of them:
    reject a target that is a directory or the same file as another,
    create a temp file of a random name beside each target exclusively
    (so it gets open()'s mode, 0666 minus the umask, and a file or symlink
    already at that name is refused, not written through), rename them in
    once all are written, and remove them on a failure. A failed rename
    leaves the targets renamed before it new."""
    paths = [Path(p) for p, _ in files]
    seen = set()
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        real = path.resolve()
        if real in seen:
            raise ValueError(f"two outputs name the same file: {real}")
        seen.add(real)
    temps = []
    try:
        for path, (_, text) in zip(paths, files):
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append(temp)
                fh.write(text)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write one file through commit."""
    commit([(path, text)])


def json_text(obj) -> str:
    """obj as JSON text with sorted keys."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def csv_text(rows, header: list[str] | None = None, comment: str | None = None) -> str:
    """Numeric rows as CSV text; `comment` becomes a single leading '# ...' line."""
    lines = []
    if comment is not None:
        lines.append("# " + comment)
    if header is not None:
        lines.append(",".join(header))
    # tolist gives Python floats or ints, whose reprs are the cells
    lines.extend(",".join(map(repr, row)) for row in np.asarray(rows).tolist())
    return "\n".join(lines) + "\n"


def write_csv(path, rows, header: list[str] | None = None, comment: str | None = None) -> None:
    """Write csv_text(rows, header, comment) to path atomically."""
    write_text_atomic(path, csv_text(rows, header, comment))


def read_numeric_csv(path) -> np.ndarray:
    """Read a numeric CSV into a 2-D array, skipping leading header lines.

    Raises FileNotFoundError for a missing path and CsvParseError (with a
    1-based line number) for bytes that are not UTF-8, malformed or
    non-finite cells and ragged rows.
    """
    path = Path(path)
    # A leading BOM would otherwise make the first cell non-numeric and the
    # first data row be skipped as a header.
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at \n, \r and \r\n, as the lines below do.
        line_no = len(data[: exc.start + 1].splitlines())
        raise CsvParseError(path, line_no, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    # Universal newlines: \r\n and \r end a line as \n does, and nothing else
    # does (str.splitlines would also break at \f, \v, \x1c, ...).
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    start = 0
    while start < len(lines) and not _is_number(lines[start].split(",", 1)[0]):
        start += 1  # blank, header or comment line
    if start == len(lines):
        raise CsvParseError(path, 1, "no numeric rows found")
    # loadtxt parses a subset of what float() takes (ASCII, no underscores),
    # to the same bits; anything else, a non-finite cell included, is left
    # to the line loop.
    try:
        X = np.loadtxt(lines[start:], dtype=float, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if np.isfinite(X).all():
            return X
    return _parse_lines(path, lines, start)


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())  # float() strips less whitespace than str.strip()
    except ValueError:
        return False
    return True


def _parse_lines(path: Path, lines: list[str], start: int) -> np.ndarray:
    """lines[start:] as a 2-D array, one line at a time; lines[start] is
    the first data line, so a row or an error comes of it."""
    rows: list[list[float]] = []
    width = None
    for line_no, line in enumerate(lines[start:], start=start + 1):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
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
    return np.asarray(rows, dtype=float)

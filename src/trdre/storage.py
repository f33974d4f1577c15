"""File I/O: numeric CSV with an optional header, deterministic JSON.

Dialect: comma separated, '.' decimal, UTF-8 with or without a leading
byte-order mark (files are written without one), finite numeric cells
only. Leading lines whose first token is not a number (column headers,
'#' comment lines carrying the resolved config) are skipped on read.
Floats are written with repr, the shortest round-tripping form; integer
cells are written without a decimal point. csv_text and json_text render
a file's text; commit writes a command's files all or none, each through
a temp-file-plus-rename. Identical content yields byte-identical files.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np


class CsvParseError(ValueError):
    """A CSV cell failed to parse; carries path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file and a rename. mkstemp creates the file with mode
    0600, so it gets the mode open() would give, 0666 minus the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)  # os.umask is the only portable way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def commit(files) -> None:
    """Write every file of `files` ((path, text) pairs) or none of them:
    reject a target that is a directory or the same file as another, stage
    each text beside its target, rename the stages in once all are
    written, and remove the stages on a failure."""
    paths = [Path(p) for p, _ in files]
    seen = set()
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        real = path.resolve()
        if real in seen:
            raise ValueError(f"two outputs name the same file: {real}")
        seen.add(real)
    stages = [path.with_name(f".{path.name}.{i}.stage") for i, path in enumerate(paths)]
    try:
        for stage, (_, text) in zip(stages, files):
            write_text_atomic(stage, text)
        for stage, path in zip(stages, paths):
            os.replace(stage, path)
    finally:
        for stage in stages:
            if os.path.exists(stage):
                os.unlink(stage)


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
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
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
        # bytes.splitlines breaks at \n, \r and \r\n, as the line loop does.
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
                continue  # header or comment line
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

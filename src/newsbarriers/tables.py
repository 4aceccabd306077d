"""The file codec: the only code that opens, decodes, parses or writes a file.

Inputs are UTF-8, with or without a byte-order mark. Every CSV has one dialect:
header names and cells stripped, each name once, rows with no text skipped,
every other row as wide as the header; a row number is a line number. Every
file is written to ``.<name>.tmp`` and renamed over its name, so a reader sees
the old file or the new one, never part of one.
"""

import csv
import io
import itertools
import math
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, DataError, MalformedRow, NonFiniteValue


def format_float(value) -> str:
    """Text that reads back as the same float: integral values below 1e16 without ``.0``, else ``repr``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def parse_float(raw, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise NonFiniteValue(row, column, raw) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, raw)
    return value


@contextmanager
def open_text(path):
    """A text handle on ``path``. A path that cannot be opened is a ConfigError
    (``not found``); bytes that are not UTF-8 are a DataError."""
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError:
        raise ConfigError("not found") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(str(exc)) from None


def read_file(path) -> str:
    with open_text(path) as fh:
        return fh.read()


def _rows(reader, width: int):
    for row in reader:
        cells = [cell.strip() for cell in row]
        if any(cells):
            if len(cells) != width:
                raise MalformedRow(reader.line_num, f"expected {width} fields, got {len(cells)}")
            yield reader.line_num, cells


@contextmanager
def read_table(path):
    """``(header, rows)`` of the CSV at ``path``: the header names as a tuple (empty for an
    empty file) and an iterator of ``(row number, cells)``. The caller checks the names."""
    with open_text(path) as fh:
        reader = csv.reader(fh, skipinitialspace=True)
        try:
            header = tuple(name.strip() for name in next(reader, ()))
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise MalformedRow(1, f"column {name!r} named twice")
            yield header, _rows(reader, len(header))
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None


@contextmanager
def atomic_writer(path):
    """A text handle on ``.<name>.tmp`` beside ``path``, renamed over ``path`` when the block
    ends. On failure the temp file is removed; text that cannot be encoded as UTF-8 (an
    argument holding bytes that are not) is a ConfigError."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except UnicodeEncodeError as exc:
        raise ConfigError(str(exc)) from None
    finally:
        tmp.unlink(missing_ok=True)  # gone already once renamed


def write_file(path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def write_table(path, header, rows) -> None:
    """Write ``header`` then each of ``rows`` as a CSV row, one row at a time."""
    with atomic_writer(path) as fh:
        csv.writer(fh).writerows(itertools.chain([header], rows))


def csv_text(header, rows) -> str:
    """The text ``write_table`` writes for the same rows."""
    buf = io.StringIO()
    csv.writer(buf).writerows(itertools.chain([header], rows))
    return buf.getvalue()

"""Batteries of p-values: the :class:`TestBattery` type and its CSV reader.

Battery files are CSV with the exact header ``id,p`` and one hypothesis per
row. A text with no ``"`` whose every line after the header holds one
comma, a shape that one byte pass over those lines checks, is split at
line breaks and commas; any other text is read by the csv module, which
is imported only then, and a quoted cell may then span lines. Every check
of an entry lives in :class:`TestBattery`; the reader names the file line
of the entry at fault.

A battery of at most :data:`SMALL_ROWS` rows holds its p-values as a list
of floats, and :mod:`alphagate.decisions` and ``decide`` judge and render
it in plain Python; a larger one holds a float64 array. So this module
imports numpy only for a larger battery, or on the first access of a small
one's ``p``, and never the scenario types of :mod:`alphagate.families` or
the JSON reader of :mod:`alphagate.fileio`: ``decide`` loads only what it
runs.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .errors import FileFormatError, InvalidBattery
from .validators import Record, is_bool

if TYPE_CHECKING:
    import numpy as np

#: A battery of at most this many rows is checked, judged and rendered in
#: plain Python, and a larger one with numpy; both routes give the same
#: bits. With numpy already loaded, an in-process ``decide`` costs the same
#: on both at this size (2-vCPU Xeon, three runs of 201 alternating rounds
#: of the four modes, plain Python over numpy: TSV 0.92-0.97 at 192 rows,
#: 0.99-1.01 at 224, 1.02-1.04 at 256; pretty 0.98-1.01, 1.00 and
#: 1.01-1.02), so no in-process caller loses, and a cold ``decide`` on a
#: smaller battery never pays numpy's import.
SMALL_ROWS = 224

#: A tab or any character ``str.splitlines`` breaks at: none may sit in an id,
#: so every id is one cell of a TSV row
_ID_BREAKS = re.compile("[\t\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
#: every byte but ',' and '\n', which the quote-free reader's shape check deletes
_NOT_SHAPE = bytes(sorted(set(range(256)) - set(b",\n")))


class TestBattery(Record):
    """An ordered set of (hypothesis id, p-value) pairs awaiting judgment.

    A battery is held as two columns: ``ids``, a tuple of non-empty, distinct
    strings free of tabs and line breaks, and ``p``, a read-only float64
    array of p-values in [0, 1]. ``TestBattery(entries)`` takes (id, p)
    pairs, each a tuple or list, and :meth:`from_columns` the two columns;
    p may be given as numbers or numeric strings, but not as bools, and a
    p-value of -0 is stored as 0. ``entries`` is built from the columns on
    each access. A battery of at most :data:`SMALL_ROWS` rows builds ``p``
    on its first access, which may import numpy.
    """

    def __init__(self, entries: Iterable[tuple[str, object]] = ()) -> None:
        entries = tuple(entries)
        for index, entry in enumerate(entries):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise InvalidBattery(f"entry must be an (id, p-value) pair, got {entry!r}", index)
        self._fill(tuple(hid for hid, _ in entries), [raw for _, raw in entries])

    @classmethod
    def from_columns(cls, ids: Sequence[str], raw_p: Sequence[object]) -> TestBattery:
        battery = cls.__new__(cls)
        battery._fill(tuple(ids), raw_p)
        return battery

    def _fill(self, ids: tuple, raw_p: Sequence[object]) -> None:
        # the one place a battery is checked: parse_battery_text relies on it
        # and names the file line of the entry at fault
        if len(ids) != len(raw_p):
            raise InvalidBattery(f"{len(ids)} hypothesis ids but {len(raw_p)} p-values")
        p = _checked_columns(ids, raw_p)
        if p is None:  # some check failed: name the first entry at fault
            _raise_first_fault(ids, raw_p)
        self._set(ids=ids, _column=p)  # the p column as built: a list up to SMALL_ROWS rows, else ``p`` itself

    __repr__ = object.__repr__

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return TestBattery.from_columns, (self.ids, self.pvalues)

    def __len__(self) -> int:
        return len(self.ids)

    def _key(self) -> tuple:
        return self.ids, self.pvalues

    @cached_property
    def p(self) -> np.ndarray:  # a small battery builds its array on first access
        return as_array(self._column, "float64")

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.ids, as_list(self._column)))

    @property
    def pvalues(self) -> tuple[float, ...]:
        return tuple(as_list(self._column))


def as_list(column) -> list:
    """A column as a list of Python values: a small battery's columns are
    lists already, and a larger one's arrays are converted."""
    return column if isinstance(column, list) else column.tolist()


def as_array(column, dtype: str):
    """A column as an array: a list becomes a new read-only array of
    ``dtype``, and an array is returned as it is."""
    if not isinstance(column, list):
        return column
    import numpy as np  # only an array needs it, so a small battery never loads it

    array = np.array(column, dtype)
    array.flags.writeable = False
    return array


def _checked_columns(ids: tuple, raw_p: Sequence[object]):
    """The p column, with -0.0 stored as 0.0, if every check passes on the
    whole columns at once, else None: a list of floats for at most
    :data:`SMALL_ROWS` rows, else a read-only float64 array."""
    small = len(raw_p) <= SMALL_ROWS
    try:
        unique = set(ids)
        breaks = _ID_BREAKS.search("".join(ids))  # TypeError for an id that is no str
        if small:
            p = [float(raw) + 0.0 for raw in raw_p]  # -0.0 lies in [0, 1] but would print as negative
        else:
            import numpy as np

            p = np.fromiter(map(float, raw_p), np.float64, len(raw_p))
            p += 0.0
    except (TypeError, ValueError, OverflowError):
        return None
    if len(unique) != len(ids) or "" in unique or breaks:
        return None
    if small:
        in_range = all(0.0 <= x <= 1.0 for x in p)  # false for nan
        edges = [i for i, x in enumerate(p) if x == 0.0 or x == 1.0]
    else:
        in_range = not len(p) or (0.0 <= p.min() and p.max() <= 1.0)
        edges = np.flatnonzero((p == 0.0) | (p == 1.0)).tolist()
    # float() takes a bool as 0.0 or 1.0, so only those entries can be one
    if not in_range or any(is_bool(raw_p[i]) for i in edges):
        return None
    if not small:
        p.flags.writeable = False
    return p


def _raise_first_fault(ids: tuple, raw_p: Sequence[object]) -> NoReturn:
    """Raise InvalidBattery naming the first entry at fault, for columns that
    :func:`_checked_columns` refused: it checks the same rules with the same
    ``float`` and set semantics, so some entry fails here."""
    seen: set[str] = set()
    for index, (hid, raw) in enumerate(zip(ids, raw_p)):
        if not isinstance(hid, str) or not hid:
            raise InvalidBattery(f"hypothesis id must be a non-empty string, got {hid!r}", index)
        if _ID_BREAKS.search(hid):
            raise InvalidBattery(f"hypothesis id {hid!r} holds a tab or a line break", index)
        if hid in seen:
            raise InvalidBattery(f"duplicate hypothesis id {hid!r}", index)
        seen.add(hid)
        try:
            if is_bool(raw):  # a bool is no real, though float() takes it
                raise TypeError
            p = float(raw)
        except (TypeError, ValueError, OverflowError):
            raise InvalidBattery(f"p-value for {hid!r} is not a number: {raw!r}", index) from None
        if not 0.0 <= p <= 1.0:
            raise InvalidBattery(f"p-value for {hid!r} must lie in [0, 1], got {p}", index)


def _read_text(path: Path) -> str:
    """The file's UTF-8 text without a leading byte order mark, which Excel
    and Notepad write. The mark is dropped after decoding, so the offset of
    a bad byte still counts it."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: byte offset {exc.start}: {exc.reason}") from None


def _battery(ids: Sequence[str], raw_p: Sequence[str], lines: Sequence[int], source: str) -> TestBattery:
    """TestBattery checks the (id, p) pairs; ``lines[i]`` is the line of entry i."""
    try:
        return TestBattery.from_columns(ids, raw_p)
    except InvalidBattery as exc:
        raise FileFormatError(f"{source}:{lines[exc.index]}: {exc}") from None


def _check_header(cells: list[str], source: str) -> None:
    header = [cell.strip() for cell in cells]
    if header != ["id", "p"]:
        raise FileFormatError(f"{source}:1: battery header must be exactly 'id,p', got {','.join(header)!r}")


def _battery_from_rows(rows: Iterator[tuple[int, list[str]]], source: str) -> TestBattery:
    """The battery of ``rows``, each record's first line number and cells,
    header first."""
    first = next(rows, None)
    if first is None:
        raise FileFormatError(f"{source}:1: battery file is empty; expected header 'id,p'")
    _check_header(first[1], source)
    ids: list[str] = []
    raw_p: list[str] = []
    lines: list[int] = []
    error: FileFormatError | None = None
    try:
        for lineno, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                error = FileFormatError(f"{source}:{lineno}: expected two cells 'id,p', got {len(row)}")
                break
            ids.append(row[0].strip())
            raw_p.append(row[1])
            lines.append(lineno)
    except FileFormatError as exc:  # a record the csv module cannot read
        error = exc
    if error is None and not ids:
        raise FileFormatError(f"{source}: battery file holds no test rows")
    battery = _battery(ids, raw_p, lines, source)  # a bad row above the error is reported first
    if error is not None:
        raise error
    return battery


def _csv_rows(text: str, source: str) -> Iterator[tuple[int, list[str]]]:
    """Records read by the csv module. Each physical line keeps a line end,
    so a quoted cell that spans lines keeps its line break, and a record is
    numbered by its first line."""
    import csv  # only a text the quote-free split cannot take needs it

    reader = csv.reader(line + "\n" for line in text.splitlines())
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise FileFormatError(f"{source}:{start}: not valid CSV: {exc}") from None


def parse_battery_text(text: str, source: str = "<battery>") -> TestBattery:
    lines = text.splitlines()
    body = "\n".join(lines[1:]) if '"' not in text else ""
    # one byte pass checks that every line after the header holds one comma:
    # UTF-8 writes ',' and '\n' only for those characters, so the bytes left
    # after deleting all others must be one ',' per line, '\n' between lines
    shape = b",\n" * (len(lines) - 2) + b","
    if body and body.encode("utf-8", "surrogatepass").translate(None, _NOT_SHAPE) == shape:
        _check_header(lines[0].split(","), source)
        del lines  # freeing the lines before the columns are built lowers decide's peak memory
        body = body.replace("\n", ",")
        cells = body.split(",")  # whole columns at once: no object per row
        del body
        return _battery(list(map(str.strip, cells[0::2])), cells[1::2], range(2, len(cells) // 2 + 2), source)
    return _battery_from_rows(_csv_rows(text, source), source)


def load_battery_file(path: str | Path) -> TestBattery:
    path = Path(path)
    return parse_battery_text(_read_text(path), source=str(path))

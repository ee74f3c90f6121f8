"""File I/O shared by every format: one opener, atomic writes, one tab-separated reader.

Every input and artifact opens through ``open_file``. Inside ``recording()``
it digests the bytes as they go through and, on close, records the SHA-256
under the path as given; ``cli.main`` writes each command's sidecars from
that record. Outside one it is a plain ``open``, so nothing is hashed.

Every text input is UTF-8 (``open_text``; a file that is not is a
DataError naming its path). In tab-separated files blank lines are
skipped and a malformed line is a DataError naming ``path:line``. A
tab-separated file is read whole and split into columns, so that a
vocabulary-sized file is checked and parsed a column at a time.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import io
import itertools
import operator
import os
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import DataError

# while a command is recorded: the (read, written) dicts, {path: sha256 hex digest} each
_RECORDING = contextvars.ContextVar("mlbl_recording", default=None)


@contextlib.contextmanager
def recording():
    """Record every file the body opens through ``open_file``; yields
    ``(read, written)``. A file opened twice keeps its last digest."""
    token = _RECORDING.set(({}, {}))
    try:
        yield _RECORDING.get()
    finally:
        _RECORDING.reset(token)


class _HashingFile(io.FileIO):
    """A raw file that digests the bytes read or written through it and, on
    close, stores the hex digest in ``record`` under ``key``."""

    def __init__(self, path: str | Path, mode: str, key: str, record: dict[str, str]):
        super().__init__(path, mode)
        self._sha, self._key, self._record = hashlib.sha256(), key, record

    def readinto(self, buffer) -> int | None:
        n = super().readinto(buffer)
        self._sha.update(memoryview(buffer).cast("B")[:n or 0])
        return n

    def readall(self) -> bytes:   # BufferedReader.read() calls it; FileIO's skips readinto
        data = super().readall()
        self._sha.update(data)
        return data

    def write(self, buffer) -> int | None:
        n = super().write(buffer)
        self._sha.update(memoryview(buffer).cast("B")[:n or 0])
        return n

    def close(self) -> None:
        if not self.closed:
            self._record[self._key] = self._sha.hexdigest()
        super().close()


def open_file(path: str | Path, mode: str = "r", key: str | Path | None = None):
    """``open(path, mode)``, text in UTF-8; inside ``recording()`` a hashing
    file, recorded under ``key`` (default ``path``) as read or written."""
    record = _RECORDING.get()
    if record is None:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    reading = "r" in mode
    raw = _HashingFile(path, mode, str(path if key is None else key),
                       record[0] if reading else record[1])
    buffered = (io.BufferedReader if reading else io.BufferedWriter)(raw, 1 << 20)
    return buffered if "b" in mode else io.TextIOWrapper(buffered, encoding="utf-8")


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open ``<path>.tmp`` in the target's directory; move it over ``path`` on success.

    If the body raises, the temporary file is removed, ``path`` is left
    untouched and the exception propagates. Text mode writes UTF-8. A
    recording lists the file under ``path``.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open_file(tmp, mode, key=path) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def open_text(path: str | Path):
    """Open a UTF-8 text input for reading. A byte sequence that is not
    UTF-8, met wherever the body reads, is a DataError naming ``path``."""
    with open_file(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x}: "
                            f"{exc.reason})") from exc


class Table(NamedTuple):
    """The data lines of a tab-separated file, read whole, as columns.

    ``columns[j][i]`` is field j of row i, which is line ``linenos[i]``.
    The rows stop before the first line with another field count; that
    line's fault is ``fault``. A reader checks the rows before it and
    raises the first fault in file order with ``check``, so a whole-file
    reader names the same line as one reading line by line.
    """
    path: str | Path
    linenos: Sequence[int]
    columns: list[list[str]]
    comments: list[tuple[int, str]]    # (lineno, line) of each '#' line, if asked for
    fault: tuple[int, str] | None      # (lineno, message) of the wrong field count

    def parse(self, parse, column: int, what: str) -> tuple[list, tuple[int, str] | None]:
        """``parse`` of each field of a column; see ``parse_column``."""
        return parse_column(parse, self.columns[column], self.linenos, what)

    def fault_at(self, row: int | None, message: Callable[[int], str]):
        """``(lineno, message(row))`` for a bad row, or None if ``row`` is None."""
        return None if row is None else (self.linenos[row], message(row))

    def check(self, *faults: tuple[int, str] | None) -> None:
        """Raise the earliest of ``faults`` and the table's own as
        ``DataError("path:line: message")``.

        Each fault is ``(lineno, message)`` or None. On one line the fault
        listed first wins, so list them in the order a line's checks run.
        """
        found = [f for f in (*faults, self.fault) if f is not None]
        if found:
            lineno, message = min(found, key=lambda f: f[0])
            raise DataError(f"{self.path}:{lineno}: {message}")


def read_table(path: str | Path, fmt: str, comments: bool = False) -> Table:
    """Read a tab-separated file whole into a ``Table``; blank lines are skipped.

    ``fmt`` names the fields, e.g. ``"id<TAB>factor"``; a line with another
    field count is the fault ``expected <fmt>``. With ``comments``, a line
    starting with ``#`` goes to ``comments`` whole, unchecked; otherwise a
    leading ``#`` is data like any other character.
    """
    num_fields = fmt.count("<TAB>") + 1
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()   # after the last newline
    linenos: Sequence[int] = range(1, len(lines) + 1)
    if "" in lines:
        linenos = list(itertools.compress(linenos, lines))
        lines = list(filter(None, lines))
    notes: list[tuple[int, str]] = []
    if comments:
        hashed = list(map(str.startswith, lines, itertools.repeat("#")))
        if True in hashed:
            notes = list(zip(itertools.compress(linenos, hashed),
                             itertools.compress(lines, hashed)))
            kept = list(map(operator.not_, hashed))
            linenos = list(itertools.compress(linenos, kept))
            lines = list(itertools.compress(lines, kept))
    tabs = list(map(str.count, lines, itertools.repeat("\t")))
    fault = None
    if tabs.count(num_fields - 1) != len(tabs):
        bad = next(i for i, n in enumerate(tabs) if n != num_fields - 1)
        fault = (linenos[bad], f"expected {fmt}")
        linenos, lines = linenos[:bad], lines[:bad]
    # every line has num_fields fields, so field j of row i is flat[i * num_fields + j]
    flat = "\t".join(lines).split("\t") if lines else []
    columns = [flat[j::num_fields] for j in range(num_fields)]
    return Table(path, linenos, columns, notes, fault)


def parse_column(parse, texts: Sequence[str], linenos: Sequence[int],
                 what: str) -> tuple[list, tuple[int, str] | None]:
    """``parse`` of each text up to the first malformed one, and that text's
    fault ``(lineno, "bad <what> <text>")``, or None if every text parses.

    ``parse`` is ``int`` or ``float``, so a field takes the syntax they accept.
    """
    try:
        return list(map(parse, texts)), None
    except ValueError:
        values = []
        for text, lineno in zip(texts, linenos):
            try:
                values.append(parse(text))
            except ValueError:
                return values, (lineno, f"bad {what} {text!r}")
        raise


def split_all(texts: Sequence[str], sep: str) -> tuple[list[str], list[int]]:
    """The parts of every text split at ``sep``, all in one list, and where
    each text's parts begin: text i's are ``parts[starts[i]:starts[i + 1]]``."""
    parts = sep.join(texts).split(sep) if texts else []
    starts = list(itertools.accumulate(map(str.count, texts, itertools.repeat(sep)),
                                       lambda start, n: start + n + 1, initial=0))
    return parts, starts


def find(items: Sequence, value) -> int | None:
    """Index of the first item equal to ``value``, or None."""
    try:
        return items.index(value)
    except ValueError:
        return None


def first_mismatch(items: Sequence, expected: Sequence) -> int | None:
    """Index of the first item that differs from ``expected`` at its position,
    or None; an item past the end of ``expected`` differs."""
    n = min(len(items), len(expected))
    if list(items[:n]) == list(expected[:n]):
        return n if len(items) > n else None
    return next(i for i, (a, b) in enumerate(zip(items, expected)) if a != b)


def first_repeat(items: Sequence) -> int | None:
    """Index of the first item equal to an earlier one, or None."""
    if len(set(items)) == len(items):
        return None
    seen = set()
    for i, item in enumerate(items):
        if item in seen:
            return i
        seen.add(item)

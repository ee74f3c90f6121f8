"""Text file I/O shared by every format: atomic writes, one tab-separated reader.

Every text input is UTF-8 with tab-separated fields; blank lines are
skipped and a malformed line is a DataError naming ``path:line``.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator

from .errors import DataError


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open ``<path>.tmp`` in the target's directory; move it over ``path`` on success.

    If the body raises, the temporary file is removed, ``path`` is left
    untouched and the exception propagates. Text mode writes UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tsv(path: str | Path, fmt: str,
             comments: bool = False) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for every non-blank line of a tab-separated file.

    ``fmt`` names the fields, e.g. ``"id<TAB>factor"``; a line with another
    field count raises ``DataError("path:line: expected <fmt>")``. With
    ``comments``, a line starting with ``#`` is yielded whole as one field,
    unchecked; otherwise a leading ``#`` is data like any other character.
    """
    num_fields = fmt.count("<TAB>") + 1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if comments and line.startswith("#"):
                yield lineno, [line]
                continue
            fields = line.split("\t")
            if len(fields) != num_fields:
                raise DataError(f"{path}:{lineno}: expected {fmt}")
            yield lineno, fields


def parse_field(parse, text: str, path: str | Path, lineno: int, what: str):
    """``parse(text)``; a malformed value is a DataError naming path:line."""
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad {what} {text!r}") from exc

"""Atomic file writes: an error mid-write leaves the previous file as it was."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


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

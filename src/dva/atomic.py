"""Whole-file artifact writes: a file is either complete or absent."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path):
    """A binary handle on a temp file beside ``path``. A clean exit moves the
    file onto ``path`` in one ``os.replace``; an error removes it, leaving
    ``path`` as it was. The temp name ends in ``.tmp``, so no ``*.csv`` or
    ``*.npz`` pattern matches it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

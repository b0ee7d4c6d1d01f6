"""Whole-file artifact writes, the package's only file writer: a file is
either complete or absent."""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "write_csv", "write_json"]


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


def write_json(path, payload) -> None:
    """Two-space-indented JSON with sorted keys and a final newline."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def write_csv(path, header, rows) -> None:
    """A header and rows in ``csv.writer``'s dialect: ``\\r\\n`` line ends,
    quotes only where a field needs them."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    with atomic_open(path) as fh:
        fh.write(text.getvalue().encode())

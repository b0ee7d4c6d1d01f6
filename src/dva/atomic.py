"""Whole-file artifact writes and input reads, the package's only file I/O:
a written file is complete or absent, and a fault in an input names it as
``<kind> <path>: ...``, adding ``line N:`` for a fault at a byte or row."""

from __future__ import annotations

import csv
import io
import json
import os
import tokenize
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError

__all__ = ["atomic_open", "write_csv", "write_json", "read_utf8", "read_npz"]


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


def _read(path, kind: str, error: type = DataError) -> bytes:
    """The bytes of an input; missing or unreadable, it is an ``error``:
    ``DataError``, or ``ConfigError`` for a configuration input."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise error(f"{kind} {path}: cannot read: {err.strerror}") from None


def read_utf8(path, kind: str, error: type = DataError) -> str:
    """The UTF-8 text of an input, line ends made ``\\n``; a byte that is not
    UTF-8 is an ``error`` naming its line (for ``DataError``, a ``ParseError``)."""
    raw = _read(path, kind, error)
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        if error is DataError:
            raise ParseError(f"{kind} {path}", line, "not UTF-8 text") from None
        raise error(f"{kind} {path}: line {line}: not UTF-8 text") from None


def read_npz(path, kind: str) -> dict[str, np.ndarray]:
    """The arrays of a .npz archive, pickles refused. Corrupt bytes also
    reach np.load's parsers: a .npy header that never closes raises
    ``tokenize.TokenError``, a dtype string numpy cannot parse
    ``SyntaxError``, a header key that is not a string ``TypeError``, and a
    member marked encrypted zipfile's ``RuntimeError``."""
    raw = _read(path, kind)
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as f:
            return {name: f[name] for name in f.files}
    except (
        EOFError, NotImplementedError, OSError, RuntimeError, SyntaxError, TypeError,
        ValueError, tokenize.TokenError, zipfile.BadZipFile,
    ) as err:
        raise DataError(
            f"{kind} {path}: not a readable .npz archive ({type(err).__name__})"
        ) from None

"""The package's files: inputs are read here, and every output is written
through :func:`replacing`, so it appears only when its writer finishes.

Replay workloads, the one JSON-lines input, are read through :func:`rows`,
CSV reports through :func:`lines`.  :func:`rows` yields each non-blank line
as a JSON object together with ``where``, the ``"<path>: line N"`` that
starts every error message about that line.  The converters turn one field of a
row into the value a reader needs, or raise
:class:`~edgesched.errors.ParseError` ``"<where>: <field>: <reason>"`` when
the field is missing or has the wrong type or range.  Numeric fields take
JSON numbers only: no strings, no booleans, and no fraction in an integer.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Iterator

import numpy as np

from .errors import ParseError

_INT_MAX = 2**63 - 1  # int64's maximum, so every integer read fits a numpy int64
_NUMBER = (int, float)  # json.loads's number types; a bool is not one


@contextlib.contextmanager
def replacing(path):
    """Yield a text handle whose contents replace ``path`` when the block
    completes; on any exception, an interrupt included, ``path`` keeps its
    bytes.  It writes ``<realpath(path)>.<pid>.part``, so a symlink stays
    one.  No ``path`` yields ``None``; a non-regular ``path`` raises OSError."""
    if not path:
        yield None
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{path}: not a regular file")
    part = f"{target}.{os.getpid()}.part"
    fh = open(part, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(part, target)
    except BaseException:
        os.remove(part)
        raise


def lines(path) -> Iterator[tuple[str, str]]:
    """``(where, line)`` for each non-blank line of a text file."""
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield f"{path}: line {lineno}", line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a text file: {exc}") from exc


def rows(path) -> Iterator[tuple[str, dict]]:
    """``(where, row)`` for each non-blank line; every row is a JSON object."""
    for where, line in lines(path):
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise ParseError(f"{where}: expected a JSON object")
        yield where, row


def _field(where: str, row: dict, key: str, convert, valid, expected: str):
    if key not in row:
        raise ParseError(f"{where}: {key}: missing")
    try:
        value = convert(row[key])
        ok = valid(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParseError(f"{where}: {key}: expected {expected}")
    return value


def _real(value) -> float:
    if type(value) not in _NUMBER:
        raise TypeError
    return float(value)


def _whole(value) -> int:
    if not _real(value).is_integer():
        raise ValueError
    return int(value)


def _reals(value) -> np.ndarray:
    if type(value) is not list or any(type(x) not in _NUMBER for x in value):
        raise TypeError
    return np.asarray(value, dtype=float)


def integer(where: str, row: dict, key: str, low: int = 0) -> int:
    """Field ``key``, a number without a fraction, as an int in ``[low, 2**63)``."""
    return _field(
        where, row, key, _whole, lambda v: low <= v <= _INT_MAX,
        f"an integer in [{low}, 2**63)",
    )


def number(where: str, row: dict, key: str) -> float:
    """Field ``key``, a number, as a finite float."""
    return _field(where, row, key, _real, math.isfinite, "a finite number")


def vector(where: str, row: dict, key: str) -> np.ndarray:
    """Field ``key``, a list of numbers, as a 1-d float64 array of finite values."""
    return _field(
        where, row, key, _reals, lambda a: bool(np.isfinite(a).all()),
        "a flat list of finite numbers",
    )


def text(where: str, row: dict, key: str) -> str:
    """Field ``key``, which must be a string."""
    return _field(
        where, row, key, lambda v: v, lambda v: isinstance(v, str), "a string"
    )

"""Exception hierarchy shared across the package, the file readers that
name a missing or irregular file and turn undecodable bytes into one of its
errors, and the reading of a JSON number."""
from __future__ import annotations

import math
import os
import stat
from pathlib import Path


class PmcPowerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PmcPowerError):
    """A trace, manifest, or model file could not be parsed."""


class AggregationError(PmcPowerError):
    """Counter and power traces could not be combined into a run record."""


class IsolationError(PmcPowerError):
    """Target power could not be isolated from the total measurement."""


class DegenerateSeriesError(PmcPowerError):
    """A statistic was requested on a zero-variance or too-short series."""


class FeatureError(PmcPowerError):
    """A feature spec is invalid or cannot be evaluated on the given data."""


class ClusteringError(PmcPowerError):
    """Clustering input violated its preconditions."""


class ModelFileError(PmcPowerError):
    """A model file is corrupted or has an unsupported schema version."""


class ConfigError(PmcPowerError):
    """A run configuration value is missing or out of range."""


def decode_utf8(data: bytes, error: type[PmcPowerError], label: str) -> str:
    """``data`` as UTF-8 text, its line ends read as text mode reads them
    ("\\r\\n" and a lone "\\r" become "\\n"); bytes that do not decode raise
    ``error`` naming ``label`` (the file) and the offset of the first one."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{label}: not UTF-8 text at byte offset {exc.start} "
                    f"({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _opened(path, what: str) -> tuple[int, int]:
    """A descriptor of the ``what`` file at ``path``, opened to read, and
    its size. A path that names no regular file raises an OSError naming
    ``what``: IsADirectoryError for a directory, FileNotFoundError
    otherwise."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # so a FIFO cannot block
    except (FileNotFoundError, NotADirectoryError, ValueError):
        raise FileNotFoundError(f"{what} not found: {path}") from None
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(f"{what} is a directory: {path}")
        if not stat.S_ISREG(info.st_mode):
            raise FileNotFoundError(f"{what} is not a regular file: {path}")
    except BaseException:
        os.close(fd)
        raise
    return fd, info.st_size


def read_into(path, what: str, buffer: bytearray, start: int = 0, head: bytearray | None = None
              ) -> tuple[bytearray, int]:
    """The bytes of the ``what`` file at ``path``, in one open and one read:
    the first ``len(head)`` into ``head`` when given, the rest into
    ``buffer`` from ``start``, or into a larger bytearray, holding a copy of
    ``buffer``'s first ``start`` bytes, when ``buffer`` cannot hold them and
    a byte more: that bytearray and the number of bytes read, ``head``'s
    included. Neither ``buffer`` nor ``head`` is resized. A read that does
    not fill the buffer ends at the end of the file. A path that names no
    regular file raises as ``_opened`` words it."""
    fd, size = _opened(path, what)
    skip = 0 if head is None else len(head)
    try:
        if len(buffer) - start <= max(size - skip, 0):
            grown = bytearray((start + size) * 5 // 4 + 1)
            grown[:start] = memoryview(buffer)[:start]
            buffer = grown
        rest = memoryview(buffer)[start:]
        read = os.readv(fd, [rest] if head is None else [head, rest])
        while read == skip + len(buffer) - start:  # the file grew as it was read
            buffer = buffer + bytes(len(buffer))
            read += os.readv(fd, [memoryview(buffer)[start + read - skip:]])
    finally:
        os.close(fd)
    return buffer, read


def read_bytes(path, what: str) -> bytes:
    """The bytes of the ``what`` file at ``path``: ``read_into`` a fresh
    bytearray, copied once."""
    buffer, size = read_into(path, what, bytearray())
    return bytes(memoryview(buffer)[:size])


def read_utf8(path: Path, what: str, error: type[PmcPowerError]) -> str:
    """The text of the ``what`` file at ``path``: ``read_bytes`` decoded by
    ``decode_utf8``, an error labelled ``<what> <path>``."""
    return decode_utf8(read_bytes(path, what), error, f"{what} {path}")


def json_float(value) -> float:
    """The JSON number ``value`` as a float, NaN for any other JSON value
    (``true`` and ``"1.5"`` too), so that a check for a finite number
    rejects it. An int too large for a float raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    return float(value)

"""Exception hierarchy shared across the package, and the text-file reader
that turns undecodable bytes into one of its errors."""
from __future__ import annotations

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


def read_utf8(path: Path, error: type[PmcPowerError], label: str) -> str:
    """The text of the file at ``path``, decoded by ``decode_utf8``."""
    return decode_utf8(path.read_bytes(), error, label)

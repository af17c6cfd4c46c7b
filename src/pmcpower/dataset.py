"""Trace parsing, per-run aggregation, power isolation, and dataset assembly.

Counter traces arrive as CSV dumps of cumulative event deltas; power traces
as timestamped current readings. A benchmark run is collapsed into a single
feature vector of average event rates over the window where both traces
overlap, matching the steady, repetitive workloads the models are trained on.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import stat
import warnings
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AggregationError,
    ConfigError,
    IsolationError,
    ParseError,
    PmcPowerError,
    decode_utf8,
    read_utf8,
)

WORKLOAD_TYPES = ("Rendering", "NeuralNetwork", "Compute", "Other")


class ClampWarning(UserWarning):
    """Isolated current fell below zero and was clamped to 0 mA."""


def _check_samples(ts: np.ndarray, values: np.ndarray, lines, what: str) -> None:
    """Reject the first sample row holding a non-finite value, then the
    first whose timestamp does not exceed the one before, then the first
    with a negative ``what`` among ``values`` (one row per sample). A row is
    named by its file line when ``lines`` gives them, else by its index."""

    def first(bad: np.ndarray) -> str:
        i = int(np.flatnonzero(bad)[0])
        return f"sample {i}" if lines is None else f"line {lines[i]}"

    finite = np.isfinite(ts) & np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"{first(~finite)}: non-finite value")
    step_back = np.diff(ts) <= 0
    if step_back.any():
        raise ParseError(f"non-monotone timestamp at {first(np.append(False, step_back))}")
    negative = (values < 0).any(axis=1)
    if negative.any():
        raise ParseError(f"{first(negative)}: negative {what}")


@dataclass(frozen=True)
class CounterTrace:
    """Per-dump counter deltas: counts[i] accumulated over (ts[i-1], ts[i]]."""

    counter_names: tuple[str, ...]
    timestamps_ms: np.ndarray
    counts: np.ndarray
    lines: InitVar[list[int] | None] = None  # not stored: each sample's file line

    def __post_init__(self, lines):
        ts = np.asarray(self.timestamps_ms, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "timestamps_ms", ts)
        object.__setattr__(self, "counts", counts)
        if ts.ndim != 1 or counts.shape != (ts.size, len(self.counter_names)):
            raise ParseError("counter trace shape mismatch")
        if ts.size < 1:
            raise ParseError("no samples")
        _check_samples(ts, counts, lines, "count")


@dataclass(frozen=True)
class PowerTrace:
    """Timestamped current readings, optional constant supply voltage."""

    timestamps_ms: np.ndarray
    current_ma: np.ndarray
    voltage_v: float | None = None
    lines: InitVar[list[int] | None] = None  # not stored: each sample's file line

    def __post_init__(self, lines):
        ts = np.asarray(self.timestamps_ms, dtype=float)
        cur = np.asarray(self.current_ma, dtype=float)
        object.__setattr__(self, "timestamps_ms", ts)
        object.__setattr__(self, "current_ma", cur)
        if ts.ndim != 1 or cur.shape != ts.shape or ts.size < 1:
            raise ParseError("power trace shape mismatch")
        _check_samples(ts, cur[:, None], lines, "current")
        if self.voltage_v is not None and not math.isfinite(self.voltage_v):
            raise ParseError("non-finite voltage_v")


@dataclass(frozen=True)
class RunMeta:
    benchmark_name: str
    workload_type: str
    frequency_hz: float
    utilization: float | None = None

    def __post_init__(self):
        if self.workload_type not in WORKLOAD_TYPES:
            raise ConfigError(
                f"unknown workload type {self.workload_type!r}; "
                f"expected one of {WORKLOAD_TYPES}"
            )
        if not self.frequency_hz > 0:
            raise ConfigError("frequency must be > 0")
        if self.utilization is not None and not 0.0 <= self.utilization <= 1.0:
            raise ConfigError("utilization must lie in [0, 1]")


def _check_counter_names(names, error: type[Exception], where: str, duplicate: str) -> None:
    """Counter names must be non-empty, unique, and must survive the canonical
    feature syntax (``prod:a*b``, ``ratio:a/b``) unchanged. A fault raises
    ``error``, its message led by ``where``; ``duplicate`` words a repeat."""
    seen = set()
    for name in names:
        if not name:
            raise error(f"{where}empty counter name")
        for reserved in "*/":
            if reserved in name:
                raise error(f"{where}counter name {name!r} contains {reserved!r}")
        if name in seen:
            raise error(f"{where}{duplicate} {name!r}")
        seen.add(name)


@functools.lru_cache(maxsize=64)
def _check_header_names(names: tuple[str, ...]) -> None:
    """The counter-name check of a trace header, remembered per header: the
    counter files of a campaign repeat one header. A header that fails is
    not remembered and raises again each time."""
    _check_counter_names(names, ParseError, "line 1: ", "duplicate counter column")


def _frozen(values) -> np.ndarray:
    """A read-only float array of ``values``; a writable array is copied
    first, so no caller can change a dataset through its own reference."""
    array = np.asarray(values, dtype=float)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Dataset:
    """One row per benchmark run: average event rates (one column per
    counter), the run's metadata, and its measured (total) and isolated
    (target) current in mA. The target equals the total until isolation."""

    counter_names: tuple[str, ...]
    rates: np.ndarray
    meta: tuple[RunMeta, ...]
    total_current: np.ndarray
    target_current: np.ndarray | None = None
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        names = tuple(self.counter_names)
        _check_counter_names(names, ConfigError, "", "duplicate counter name")
        index = {name: j for j, name in enumerate(names)}
        rates = _frozen(self.rates)
        meta = tuple(self.meta)
        total = _frozen(self.total_current)
        target = total if self.target_current is None else _frozen(self.target_current)
        if rates.shape != (len(meta), len(names)):
            raise ConfigError(
                f"rates have shape {rates.shape}; expected "
                f"({len(meta)} runs, {len(names)} counters)"
            )
        if total.shape != (len(meta),) or target.shape != (len(meta),):
            raise ConfigError("one total and one target current per run required")
        for name, value in (("counter_names", names), ("rates", rates), ("meta", meta),
                            ("total_current", total), ("target_current", target),
                            ("_index", index)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.meta)

    def column(self, counter: str) -> np.ndarray:
        """The counter's rate in every run; KeyError for an unknown counter."""
        return self.rates[:, self._index[counter]]

    def take(self, rows) -> Dataset:
        """The runs at the positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(
            self.counter_names,
            self.rates[rows],
            tuple(self.meta[i] for i in rows),
            self.total_current[rows],
            self.target_current[rows],
        )


def _parse_rows(text: str, expected_first: str) -> tuple[list[str], list[int], np.ndarray]:
    """The header, the line number of every sample row, and the rows as a
    float table; ragged, malformed and non-finite rows are named by line.

    A quote after the header is a fault of its line, found when the reader
    reaches that line: sample values are numbers, and a quoted field could
    span lines and shift the number of every later row.
    """
    in_header = True

    def physical_lines():
        for lineno, line in enumerate(io.StringIO(text), start=1):
            if not in_header and '"' in line:
                raise ParseError(f"line {lineno}: quote in sample row")
            yield line

    reader = csv.reader(physical_lines())
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        in_header = False
        header = [h.strip() for h in header]
        if not header or header[0] != expected_first:
            raise ParseError(f"line 1: expected '{expected_first}' as first column")
        linenos, rows = [], []
        # Free of quotes, each later record is one line.
        for lineno, row in enumerate(reader, start=reader.line_num + 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != len(header):
                raise ParseError(
                    f"line {lineno}: column mismatch "
                    f"(expected {len(header)} values, got {len(row)})"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed row {row!r}") from None
            linenos.append(lineno)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError("no samples")
    table = np.array(rows)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"line {linenos[i]}: non-finite value in column {header[j]!r}")
    return header, linenos, table


# The bytes a sample row may hold for numpy's reader to take it. Within them
# numpy and float() read every number alike; outside them they can part ways
# (numpy strips \x1c-\x1f around a number, which float() rejects), so any
# other byte sends the text to the line parser.
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"


@functools.lru_cache(maxsize=64)
def _split_header(head: str, limit: int) -> tuple[str, ...] | None:
    """The stripped fields of a header line as the csv reader splits it
    under the field size ``limit``, remembered per line: the trace files of
    a campaign repeat a few headers. None when the reader rejects the line."""
    try:
        return tuple(h.strip() for h in next(csv.reader([head])))
    except csv.Error:
        return None


def _fast_rows(text: str, expected_first: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """The header and sample table as ``_parse_rows`` would return them,
    read by numpy's C reader; None wherever that read could differ or fails.

    numpy reads an overflow such as ``1e400`` as inf where the line parser
    rejects it; the trace's own checks reject the inf in turn. The csv
    reader rejects a field longer than its field size limit, which numpy
    reads, and a bare carriage return, which numpy rejects only as not
    supported yet.
    """
    head, _, body = text.partition("\n")
    if '"' in head or not body.isascii() or not body.strip():
        return None
    if body.encode("ascii").translate(None, _FAST_BYTES):
        return None
    if "\r" in body and body.count("\r") != body.count("\r\n"):
        return None
    lines = body.split("\n")
    limit = csv.field_size_limit()
    if len(body) > limit and max(map(len, lines)) > limit:
        return None
    header = _split_header(head, limit)
    if header is None or len(header) < 2 or header[0] != expected_first:
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(header):
        return None
    return header, table


def _parse(text: str, build):
    """``build(header, table, linenos)`` on the fast read of ``text``, with
    ``linenos`` None. When the fast read declines or ``build`` raises, the
    text is read again line by line, so every ParseError names its line."""
    fast = _fast_rows(text, "ts_ms")
    if fast is not None:
        try:
            return build(*fast, None)
        except ParseError:
            pass
    header, linenos, table = _parse_rows(text, "ts_ms")
    return build(header, table, linenos)


def _counter_trace(header: list[str], table: np.ndarray, linenos) -> CounterTrace:
    if len(header) < 2:
        raise ParseError("line 1: counter trace needs at least one counter column")
    names = tuple(header[1:])
    _check_header_names(names)
    # Contiguous copies: BLAS may sum a strided operand of aggregate_run's
    # products in another order, and the rates would change in the last bit.
    return CounterTrace(names, table[:, 0].copy(), table[:, 1:].copy(), linenos)


def _voltage_constant(power: np.ndarray) -> bool:
    """Whether every power table of a block (runs x samples x columns)
    lacks a voltage column or holds one within 1e-6 (relative, at least
    1e-6 V) of its first value."""
    if power.shape[2] < 3:
        return True
    volts, first = power[:, :, 2], power[:, :1, 2]
    return not (np.abs(volts - first) > 1e-6 * np.maximum(1.0, np.abs(first))).any()


def _power_trace(header: list[str], table: np.ndarray, linenos) -> PowerTrace:
    if len(header) not in (2, 3) or header[1] != "current_ma":
        raise ParseError("line 1: expected header ts_ms,current_ma[,voltage_v]")
    if len(header) == 3 and header[2] != "voltage_v":
        raise ParseError("line 1: third column must be voltage_v")
    volts = float(table[0, 2]) if len(header) == 3 else None
    trace = PowerTrace(table[:, 0].copy(), table[:, 1].copy(), volts, linenos)
    # Checked once the samples pass: a sample fault is reported first.
    if not _voltage_constant(table[None]):
        raise ParseError("voltage column is not constant")
    return trace


def parse_counter_trace(text: str) -> CounterTrace:
    """Parse counter-trace CSV: header ``ts_ms,<c1>,<c2>,...``, delta counts per row."""
    return _parse(text, _counter_trace)


def parse_power_trace(text: str) -> PowerTrace:
    """Parse power-trace CSV: header ``ts_ms,current_ma[,voltage_v]``."""
    return _parse(text, _power_trace)


def aggregate_run(counters: CounterTrace, power: PowerTrace) -> tuple[np.ndarray, float]:
    """Collapse one run's traces into its average event rates (one per
    counter, in trace order) and its mean current: ``aggregate_block`` on
    a block of one run.

    Rates are total counts inside the overlap window divided by its duration;
    counter intervals that straddle a window edge contribute pro-rata
    (uniform accrual within an interval). Current is the time-weighted mean
    of a left-continuous step function through the power samples, since the
    power sampler and the counter dumper tick at different periods. The
    first counter row only opens the window; its counts have no interval.
    """
    rates, current = aggregate_block(counters.timestamps_ms[None], counters.counts[None],
                                     power.timestamps_ms[None], power.current_ma[None])
    return rates[0], float(current[0])


def aggregate_block(counter_ts: np.ndarray, counts: np.ndarray, power_ts: np.ndarray,
                    current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``aggregate_run`` of several runs at once: each argument stacks one
    array per run along its first axis (counts as runs x samples x
    counters). Returns the rates (runs x counters) and the mean currents.

    Each run's rates are the BLAS gemv of its window fractions with its
    counts, and its current the BLAS ddot of its current with its segment
    lengths, so a run gets the same bits in any block, provided each run's
    counts and current are contiguous. The first run whose traces do not
    overlap by a second raises.
    """
    c0, c1, p0, p1 = counter_ts[:, 0], counter_ts[:, -1], power_ts[:, 0], power_ts[:, -1]
    w0, w1 = np.maximum(c0, p0), np.minimum(c1, p1)
    span = w1 - w0
    short = np.flatnonzero((w1 <= w0) | (span < 1000.0))
    if short.size:
        run = short[0]
        if w1[run] <= w0[run]:
            raise AggregationError("no temporal overlap")
        raise AggregationError(f"overlap shorter than 1 second ({span[run] / 1000.0:.3f} s)")
    w0, w1 = w0[:, None], w1[:, None]

    # Counter intervals: (ts[i-1], ts[i]] carrying counts[i].
    starts = counter_ts[:, :-1]
    ends = counter_ts[:, 1:]
    frac = (np.minimum(ends, w1) - np.maximum(starts, w0)) / (ends - starts)
    frac = np.clip(frac, 0.0, 1.0)
    totals = np.matmul(frac[:, None, :], counts[:, 1:, :])[:, 0]
    rates = totals / (span / 1000.0)[:, None]

    # Current step segments: sample j holds on [ts[j], ts[j+1]), last to w1.
    seg_ends = np.concatenate([power_ts[:, 1:], w1], axis=1)
    dur = np.maximum(0.0, np.minimum(seg_ends, w1) - np.maximum(power_ts, w0))
    return rates, np.vecdot(current, dur) / span


def isolate_dataset(
    ds: Dataset,
    base_current: float,
    aux_current: np.ndarray | None = None,
) -> tuple[Dataset, int]:
    """Subtract the base current and, when given, each run's predicted
    auxiliary-component current from the measured total; returns the
    isolated dataset and the number of runs clamped.

    Measurement noise near the base level can push the difference below
    zero; such runs are clamped at 0 mA with a ClampWarning rather than
    rejected.
    """
    if base_current < 0:
        raise IsolationError("base current must be >= 0")
    target = ds.total_current - base_current
    if aux_current is not None:
        aux_current = np.asarray(aux_current, dtype=float)
        if aux_current.shape != target.shape:
            raise IsolationError("aux current must hold one value per run")
        target = target - aux_current
    clamped = target < 0.0
    n_clamped = int(clamped.sum())
    if n_clamped:
        warnings.warn(
            f"{n_clamped} of {len(ds)} isolated currents clamped to 0 mA",
            ClampWarning,
            stacklevel=2,
        )
    return replace(ds, target_current=np.where(clamped, 0.0, target)), n_clamped


def split_dataset(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-and-split; train receives ceil(n * train_fraction) runs."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train fraction must lie strictly between 0 and 1")
    n = len(ds)
    if n < 3:
        raise ConfigError("need at least 3 records to split")
    # The epsilon guards against 300 * (2/3) landing a hair above 200.
    n_train = math.ceil(n * train_fraction - 1e-9)
    if not 0 < n_train < n:
        raise ConfigError(
            f"train_fraction {train_fraction!r} splits {n} runs into {n_train} for training "
            f"and {n - n_train} for test; each side needs at least one run"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


@dataclass(frozen=True)
class ManifestRun:
    counter_file: str
    power_file: str
    meta: RunMeta
    aux_counter_file: str | None = None


def _manifest_run(entry, index: int) -> ManifestRun:
    """One manifest run entry, checked field by field."""
    where = f"manifest run {index}"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected an object, got {type(entry).__name__}")

    def get(key, kind, required=True):
        if entry.get(key) is None and not required:
            return None
        if key not in entry:
            raise ParseError(f"{where}: missing field {key!r}")
        value = entry[key]
        if kind is float:
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                value = math.nan
        if not isinstance(value, kind) or (kind is float and not math.isfinite(value)):
            expected = "a finite number" if kind is float else "a string"
            raise ParseError(f"{where}: field {key!r} must be {expected}, got {entry[key]!r}")
        return value

    benchmark = get("benchmark", str)
    try:
        meta = RunMeta(benchmark, get("workload_type", str), get("frequency_hz", float),
                       get("utilization", float, required=False))
    except ConfigError as exc:
        raise ParseError(f"{where} ({benchmark!r}): {exc}") from None
    return ManifestRun(get("counter_file", str), get("power_file", str), meta,
                       get("aux_counter_file", str, required=False))


def _read_text(path: str, what: str) -> str:
    """The text of the ``what`` file at ``path``, in one open, one read and
    one decode. A path that names no regular file raises an OSError naming
    ``what``; undecodable bytes raise a ParseError naming the file."""
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
        data = os.read(fd, info.st_size)
        while chunk := os.read(fd, 1 << 16):
            data += chunk
    finally:
        os.close(fd)
    return decode_utf8(data, ParseError, path)


def _read_trace(parse, path: Path, what: str):
    """Parse the trace file at ``path``; a ParseError names the file."""
    text = _read_text(str(path), what)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _aggregate(trace: CounterTrace, power: PowerTrace, where: str) -> tuple[np.ndarray, float]:
    try:
        return aggregate_run(trace, power)
    except AggregationError as exc:
        raise AggregationError(f"{where}: {exc}") from None


# The counter tables of one block of runs hold at most this many cells
# (0.5 MB of float64) unless one run holds more, so the memory ingest takes
# does not grow with the campaign.
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class _FastRun:
    """A manifest run whose trace files the fast read took: each file's
    header and table (samples x columns, timestamps first), the samples not
    yet checked."""

    index: int
    meta: RunMeta
    counters: tuple[tuple[str, ...], np.ndarray]
    power: tuple[tuple[str, ...], np.ndarray]
    aux: tuple[tuple[str, ...], np.ndarray] | None

    def key(self) -> tuple:
        """Runs of equal keys stack into one block."""
        traces = (self.counters, self.power) + ((self.aux,) if self.aux else ())
        return tuple((header, table.shape) for header, table in traces)

    def cells(self) -> int:
        return sum(table.size for _, table in filter(None, (self.counters, self.aux)))


_POWER_HEADERS = (("ts_ms", "current_ma"), ("ts_ms", "current_ma", "voltage_v"))


def _samples_pass(tables: np.ndarray, values: np.ndarray) -> bool:
    """Whether every trace of a block (runs x samples x columns) passes
    ``_check_samples``: all finite, timestamps increasing, no negative
    among ``values``."""
    return bool(np.isfinite(tables).all() and (np.diff(tables[:, :, 0]) > 0).all()
                and not (values < 0).any())


def _block_rates(counters: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``aggregate_block`` of stacked counter and power tables."""
    return aggregate_block(counters[:, :, 0], np.ascontiguousarray(counters[:, :, 1:]),
                           power[:, :, 0], np.ascontiguousarray(power[:, :, 1]))


class _Campaign:
    """The rows of a manifest's runs, gathered in manifest order, and the
    counter columns its first run set."""

    def __init__(self, runs: list, base_dir: Path):
        self.runs = runs
        self.base_dir = base_dir
        self.metas: list[RunMeta] = []
        self.rates: list[np.ndarray] = []
        self.currents: list[np.ndarray] = []
        self.aux_rates: list[np.ndarray] = []
        self.aux_currents: list[np.ndarray] = []
        self.counter_names = self.aux_names = None

    def add_run(self, i: int) -> None:
        """Read, check and aggregate run ``i`` alone. Each fault raises as
        soon as it is met, so the first fault of the run is the one named."""
        run = _manifest_run(self.runs[i], i)
        where = f"manifest run {i} ({run.meta.benchmark_name!r})"
        base_dir = self.base_dir
        trace = _read_trace(parse_counter_trace, base_dir / run.counter_file, "counter trace")
        power = _read_trace(parse_power_trace, base_dir / run.power_file, "power trace")
        if self.counter_names is None:
            self.counter_names = trace.counter_names
        elif trace.counter_names != self.counter_names:
            raise ParseError(f"{where}: counter columns differ from the first run")
        row, current = _aggregate(trace, power, where)
        self.metas.append(run.meta)
        self.rates.append(row[None])
        self.currents.append(np.array([current]))
        # Run 0 decides whether the runs list aux traces: aux_names is set then.
        if i and (run.aux_counter_file is None) != (self.aux_names is None):
            raise ParseError(
                f"{where}: lists {'an' if run.aux_counter_file else 'no'} "
                "aux_counter_file, unlike the first run"
            )
        if run.aux_counter_file is None:
            return
        aux_trace = _read_trace(
            parse_counter_trace, base_dir / run.aux_counter_file, "aux counter trace"
        )
        if self.aux_names is None:
            self.aux_names = aux_trace.counter_names
        elif aux_trace.counter_names != self.aux_names:
            raise ParseError(f"{where}: aux counter columns differ from the first run")
        aux_row, aux_current = _aggregate(aux_trace, power, where)
        self.aux_rates.append(aux_row[None])
        self.aux_currents.append(np.array([aux_current]))

    def fast_read(self, i: int) -> _FastRun | None:
        """Run ``i`` with its files read, each in one pass, by the fast
        read; None when its entry or a file cannot be read, the fast read
        declines a file, or a header would raise."""
        base = str(self.base_dir)

        def read(name: str) -> tuple[tuple[str, ...], np.ndarray] | None:
            return _fast_rows(_read_text(os.path.join(base, name), "trace"), "ts_ms")

        try:
            run = _manifest_run(self.runs[i], i)
            counters, power = read(run.counter_file), read(run.power_file)
            aux = None if run.aux_counter_file is None else read(run.aux_counter_file)
            if counters is None or power is None or (aux is None) != (run.aux_counter_file is None):
                return None
            for header, _ in filter(None, (counters, aux)):
                _check_header_names(header[1:])
        except (PmcPowerError, OSError):
            return None
        if power[0] not in _POWER_HEADERS:
            return None
        return _FastRun(i, run.meta, counters, power, aux)

    def add_block(self, block: list[_FastRun]) -> None:
        """Check and aggregate a block of runs that share a key at once.
        When a check fails or a run's aggregation would raise, the block's
        runs are read again by ``add_run``, so the first fault in manifest
        order raises as it words it."""
        rows = self._block_rows(block)
        if rows is None:
            for run in block:
                self.add_run(run.index)
            return
        first = block[0]
        self.counter_names = first.counters[0][1:]
        self.aux_names = None if first.aux is None else first.aux[0][1:]
        self.metas.extend(run.meta for run in block)
        (rates, currents), aux = rows
        self.rates.append(rates)
        self.currents.append(currents)
        if aux is not None:
            self.aux_rates.append(aux[0])
            self.aux_currents.append(aux[1])

    def _block_rows(self, block: list[_FastRun]):
        """The block's rows and aux rows, as ``add_run`` would give them run
        by run; None wherever ``add_run`` would raise for one of its runs."""
        first = block[0]
        aux_names = None if first.aux is None else first.aux[0][1:]
        if self.metas and (first.counters[0][1:] != self.counter_names
                           or aux_names != self.aux_names):
            return None
        counters = np.stack([run.counters[1] for run in block])
        power = np.stack([run.power[1] for run in block])
        aux = None if first.aux is None else np.stack([run.aux[1] for run in block])
        if not (_samples_pass(counters, counters[:, :, 1:]) and _samples_pass(power, power[:, :, 1])
                and _voltage_constant(power)
                and (aux is None or _samples_pass(aux, aux[:, :, 1:]))):
            return None
        try:
            return _block_rates(counters, power), None if aux is None else _block_rates(aux, power)
        except AggregationError:
            return None

    def datasets(self) -> tuple[Dataset, Dataset | None]:
        metas = tuple(self.metas)
        ds = Dataset(self.counter_names, np.concatenate(self.rates), metas,
                     np.concatenate(self.currents))
        if self.aux_names is None:
            return ds, None
        return ds, Dataset(self.aux_names, np.concatenate(self.aux_rates), metas,
                           np.concatenate(self.aux_currents))


def load_manifest(path) -> tuple[Dataset, Dataset | None]:
    """Build a dataset from a JSON run manifest.

    Returns the dataset plus, when the runs list an ``aux_counter_file``
    (all of them or none), a second dataset of the same runs holding the
    auxiliary component's counter rates, for subtracting that component's
    predicted current during isolation.

    Consecutive runs whose traces share their headers and shapes are read
    into a block of at most BLOCK_CELLS counter cells, whose samples are
    checked and whose runs are aggregated at once. A run the fast read
    cannot take, and every run of a block that fails, is read again alone,
    so a fault raises as the first one in manifest order, in the words of
    the one-run path.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"manifest not found: {path}")
    try:
        doc = json.loads(read_utf8(path, ParseError, f"manifest {path}"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path}: {exc}") from None
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ParseError(f"manifest {path}: expected a non-empty 'runs' list")

    campaign = _Campaign(runs, path.parent)
    block: list[_FastRun] = []
    cells = 0
    for i in range(len(runs)):
        run = campaign.fast_read(i)
        if block and (run is None or run.key() != block[0].key()
                      or cells + run.cells() > BLOCK_CELLS):
            campaign.add_block(block)
            block, cells = [], 0
        if run is None:
            campaign.add_run(i)
        else:
            block.append(run)
            cells += run.cells()
    if block:
        campaign.add_block(block)
    return campaign.datasets()

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
import warnings
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import AggregationError, ConfigError, IsolationError, ParseError, read_utf8

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


def _fast_rows(text: str, expected_first: str) -> tuple[list[str], np.ndarray] | None:
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
    try:
        header = [h.strip() for h in next(csv.reader([head]))]
    except csv.Error:
        return None
    if len(header) < 2 or header[0] != expected_first:
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


def _power_trace(header: list[str], table: np.ndarray, linenos) -> PowerTrace:
    if len(header) not in (2, 3) or header[1] != "current_ma":
        raise ParseError("line 1: expected header ts_ms,current_ma[,voltage_v]")
    if len(header) == 3 and header[2] != "voltage_v":
        raise ParseError("line 1: third column must be voltage_v")
    volts = table[:, 2] if len(header) == 3 else None
    trace = PowerTrace(table[:, 0].copy(), table[:, 1].copy(),
                       None if volts is None else float(volts[0]), linenos)
    # Checked once the samples pass: a sample fault is reported first.
    if volts is not None and np.any(np.abs(volts - volts[0]) > 1e-6 * max(1.0, abs(volts[0]))):
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
    counter, in trace order) and its mean current.

    Rates are total counts inside the overlap window divided by its duration;
    counter intervals that straddle a window edge contribute pro-rata
    (uniform accrual within an interval). Current is the time-weighted mean
    of a left-continuous step function through the power samples, since the
    power sampler and the counter dumper tick at different periods. The
    first counter row only opens the window; its counts have no interval.
    """
    c_ts = counters.timestamps_ms
    p_ts = power.timestamps_ms
    w0 = max(c_ts[0], p_ts[0])
    w1 = min(c_ts[-1], p_ts[-1])
    if w1 <= w0:
        raise AggregationError("no temporal overlap")
    if w1 - w0 < 1000.0:
        raise AggregationError(
            f"overlap shorter than 1 second ({(w1 - w0) / 1000.0:.3f} s)"
        )
    duration_s = (w1 - w0) / 1000.0

    # Counter intervals: (c_ts[i-1], c_ts[i]] carrying counts[i].
    starts = c_ts[:-1]
    ends = c_ts[1:]
    frac = (np.minimum(ends, w1) - np.maximum(starts, w0)) / (ends - starts)
    frac = np.clip(frac, 0.0, 1.0)
    totals = frac @ counters.counts[1:]
    rates = totals / duration_s

    # Current step segments: sample j holds on [p_ts[j], p_ts[j+1]), last to w1.
    seg_ends = np.append(p_ts[1:], w1)
    dur = np.maximum(0.0, np.minimum(seg_ends, w1) - np.maximum(p_ts, w0))
    return rates, float(np.dot(power.current_ma, dur) / (w1 - w0))


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
    perm = np.random.default_rng(seed).permutation(n)
    # The epsilon guards against 300 * (2/3) landing a hair above 200.
    n_train = math.ceil(n * train_fraction - 1e-9)
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


def _read_trace(parse, path: Path, what: str):
    """Parse the trace file at ``path``; a ParseError names the file."""
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    text = read_utf8(path, ParseError, str(path))
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _aggregate(trace: CounterTrace, power: PowerTrace, where: str) -> tuple[np.ndarray, float]:
    try:
        return aggregate_run(trace, power)
    except AggregationError as exc:
        raise AggregationError(f"{where}: {exc}") from None


def load_manifest(path) -> tuple[Dataset, Dataset | None]:
    """Build a dataset from a JSON run manifest.

    Returns the dataset plus, when the runs list an ``aux_counter_file``
    (all of them or none), a second dataset of the same runs holding the
    auxiliary component's counter rates, for subtracting that component's
    predicted current during isolation.
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

    base_dir = path.parent
    metas, rates, currents = [], [], []
    aux_rates, aux_currents = [], []
    counter_names = aux_names = None
    for i, entry in enumerate(runs):
        run = _manifest_run(entry, i)
        where = f"manifest run {i} ({run.meta.benchmark_name!r})"
        trace = _read_trace(parse_counter_trace, base_dir / run.counter_file, "counter trace")
        power = _read_trace(parse_power_trace, base_dir / run.power_file, "power trace")
        if counter_names is None:
            counter_names = trace.counter_names
        elif trace.counter_names != counter_names:
            raise ParseError(f"{where}: counter columns differ from the first run")
        row, current = _aggregate(trace, power, where)
        metas.append(run.meta)
        rates.append(row)
        currents.append(current)
        # Run 0 decides whether the runs list aux traces: aux_names is set then.
        if i and (run.aux_counter_file is None) != (aux_names is None):
            raise ParseError(
                f"{where}: lists {'an' if run.aux_counter_file else 'no'} "
                "aux_counter_file, unlike the first run"
            )
        if run.aux_counter_file is None:
            continue
        aux_trace = _read_trace(
            parse_counter_trace, base_dir / run.aux_counter_file, "aux counter trace"
        )
        if aux_names is None:
            aux_names = aux_trace.counter_names
        elif aux_trace.counter_names != aux_names:
            raise ParseError(f"{where}: aux counter columns differ from the first run")
        aux_row, aux_current = _aggregate(aux_trace, power, where)
        aux_rates.append(aux_row)
        aux_currents.append(aux_current)
    ds = Dataset(counter_names, np.array(rates), tuple(metas), np.array(currents))
    if aux_names is None:
        return ds, None
    return ds, Dataset(aux_names, np.array(aux_rates), tuple(metas), np.array(aux_currents))

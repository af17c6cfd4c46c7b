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
import sys
import warnings
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AggregationError,
    ConfigError,
    IsolationError,
    ParseError,
    PmcPowerError,
    decode_utf8,
    json_float,
    read_bytes,
    read_into,
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
            raise ConfigError(f"unknown workload type {self.workload_type!r}; "
                              f"expected one of {WORKLOAD_TYPES}")
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
            raise ConfigError(f"rates have shape {rates.shape}; expected "
                              f"({len(meta)} runs, {len(names)} counters)")
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
        return Dataset(self.counter_names, self.rates[rows], tuple(self.meta[i] for i in rows),
                       self.total_current[rows], self.target_current[rows])


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
                raise ParseError(f"line {lineno}: column mismatch "
                                 f"(expected {len(header)} values, got {len(row)})")
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


class _Scratch(dict):
    """Arrays by name that the blocks of one kind of trace of one
    ``load_manifest`` call reuse, so that no block allocates an array the
    size of its text or cells afresh (a fresh allocation costs a page fault
    a page). A call gives the first ``size`` items of one, grown, with a
    quarter to spare, when too small."""

    def __call__(self, name: str, size: int, dtype) -> np.ndarray:
        array = self.get(name)
        if array is None or array.size < size:
            array = self[name] = np.empty(size + size // 4, dtype)
        return array[:size]


# np.flatnonzero, bytes.translate and np.fromstring allocate their results.
# Called on about this many items at a time, each result stays small, so
# the heap reuses it, and is copied into an array of a _Scratch.
_CHUNK = 1 << 15


def _positions(mask: np.ndarray, scratch: _Scratch, name: str) -> np.ndarray:
    """``np.flatnonzero(mask)`` in the first items of ``scratch``'s array
    ``name``, found in chunks of ``mask`` that hold about _CHUNK of them on
    average when the array holds as many as ``mask`` has (chunks of _CHUNK
    the first time). A chunk that overflows the array grows it to the
    count the positions found so far extrapolate to, a quarter to spare."""
    out = scratch.get(name)
    if out is None:
        out, step = np.empty(0, np.intp), _CHUNK
    else:
        step = min(max(_CHUNK, mask.size * _CHUNK // max(out.size, 1)), 8 * _CHUNK)
    count = 0
    for lo in range(0, mask.size, step):
        found = np.flatnonzero(mask[lo:lo + step])
        if count + found.size > out.size:
            seen = min(lo + step, mask.size)
            scratch(name, (count + found.size) * mask.size // seen, np.intp)[:count] = out[:count]
            out = scratch[name]
        np.add(found, lo, out=out[count:count + found.size])
        count += found.size
        del found  # before the next chunk's is made
    return out[:count]


def _translate(values: np.ndarray, table: bytes) -> None:
    """Translate the bytes ``values`` by ``table`` in place."""
    for lo in range(0, values.size, _CHUNK):
        piece = values[lo:lo + _CHUNK].tobytes().translate(table)
        values[lo:lo + _CHUNK] = np.frombuffer(piece, dtype=np.uint8)
        del piece


# The proof reads a body by its marks, the bytes that are not digits, of
# kinds 0 a point, 1 an exponent mark, 2 a plus, 3 a minus, 4 a minus that
# starts a line (told apart by the proof), 5 a comma, 6 a newline, 7 other.
_MARK_KINDS = bytes(next((kind for kind, marks in enumerate(
    (b".", b"eE", b"+", b"-", b"", b",", b"\n")) if byte in marks), 7) for byte in range(256))


# The fewest and the most digits that may lie between a mark of kind a and
# the next, of kind b, as translate tables from 8 * a + b; other steps may
# not be taken (1 to 0).
_DIGIT_RUNS = {8 * a + b: runs for befores, afters, runs in (
    ((4, 5, 6), (0, 1, 5, 6), (1, 69)),  # a cell's whole digits
    ((6,), (4,), (0, 0)),  # the minus a line starts with
    ((0,), (1, 5, 6), (0, 69)),  # the digits after a point
    ((1,), (2, 3), (0, 0)),  # an exponent's sign
    ((1, 2), (5, 6), (1, 2)),  # an exponent's digits
    ((3,), (5, 6), (1, 3)),  # a negative exponent's digits
) for a in befores for b in afters}
_FEWEST_DIGITS, _MOST_DIGITS = (bytes(_DIGIT_RUNS.get(step, (1, 0))[end] for step in range(256))
                                for end in (0, 1))


@functools.lru_cache(maxsize=16)
def _line_kinds(width: int) -> np.ndarray:
    """The kinds of the marks that end the cells of a line of ``width``."""
    return np.array([5] * (width - 1) + [6], dtype=np.uint8)


def _ended(body) -> np.ndarray:
    """The bytes of ``body`` (any buffer) as an array, ended by a newline."""
    raw = np.frombuffer(body, dtype=np.uint8)
    return raw if raw.size and raw[-1] == ord("\n") else np.append(raw, np.uint8(ord("\n")))


def _proof(body, width: int, scratch: _Scratch | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Where the cells of ``body`` (any buffer) lie, when every line holds
    ``width`` cells, each a number that ``float()`` reads, finite, and not
    negative unless it is the line's first; else
    None. That is the positions of the bytes that are not digits (marks),
    their kinds, the marks that end a cell and those of lines' minus signs:
    the bounds and fraction lengths of any cells follow from them.
    Every array it works in or returns is one of ``scratch``'s.

    A proved cell is a minus, if it is the line's first, or none, then one
    to 69 digits, then at most a point and up to 69 digits, then at most an
    exponent mark, a sign and one or two digits, or a minus and three:
    below 1e70 * 1e99, so no cell overflows. The proof is stricter than the
    line parser (no leading point or plus, no space or blank line, and three
    exponent digits only after a minus); a body it declines is read in
    full. One pass over the bytes finds the marks; the rest reads the marks.
    """
    scratch = _Scratch() if scratch is None else scratch
    raw = _ended(body)
    apart = np.subtract(raw, ord("0"), out=scratch("apart", raw.size, np.uint8))
    marks = _positions(np.greater(apart, 9, out=apart.view(np.bool_)), scratch, "marks")
    n = marks.size
    kinds = raw.take(marks, out=scratch("kinds", n, np.uint8), mode="clip")
    _translate(kinds, _MARK_KINDS)
    # The kind of the mark before each, a newline before the first.
    before = scratch("before", n, np.uint8)
    before[0], before[1:] = 6, kinds[:-1]
    flag = scratch("flag", n, np.bool_)
    signs = marks[:0]  # the marks of the minus signs lines start with
    if np.equal(kinds, 3, out=flag).any():
        np.logical_and(flag, np.equal(before, 6, out=scratch("flag2", n, np.bool_)), out=flag)
        np.copyto(kinds, 4, where=flag)
        before[1:] = kinds[:-1]
        signs = _positions(flag, scratch, "signs")
    digits = scratch("digits", n, np.intp)  # before each mark, at most 70 counted
    digits[0] = marks[0]
    np.subtract(marks[1:], marks[:-1], out=digits[1:])
    digits[1:] -= 1
    counted = np.minimum(digits, 70, out=scratch("counted", n, np.uint8), casting="unsafe")
    steps = np.add(np.multiply(before, 8, out=before), kinds, out=before)
    for lo in range(0, n, _CHUNK):
        step, got = steps[lo:lo + _CHUNK].tobytes(), counted[lo:lo + _CHUNK]
        if ((got < np.frombuffer(step.translate(_FEWEST_DIGITS), dtype=np.uint8)).any()
                or (got > np.frombuffer(step.translate(_MOST_DIGITS), dtype=np.uint8)).any()):
            return None
    # The separators: no other kind is left.
    at = _positions(np.greater_equal(kinds, 5, out=flag), scratch, "at")
    if at.size % width:
        return None
    ends = kinds.take(at, out=scratch("ends", at.size, np.uint8), mode="clip").reshape(-1, width)
    if np.not_equal(ends, _line_kinds(width), out=flag[:at.size].reshape(ends.shape)).any():
        return None
    return marks, kinds, at, signs


# The kernel's quotients are exact enough only with an IEEE long double of a
# 64-bit significand or wider, each operation rounded once: x87's extended
# format (x86-64 Linux, 64 bits) or binary128 (aarch64 Linux, 113). The
# double-double of older POWER systems (106 bits) rounds twice. The kernel
# reads a quotient's low significand bits from its first eight bytes, which
# hold them only on a little-endian machine.
_NMANT = np.finfo(np.longdouble).nmant
_WIDE_LONG_DOUBLE = _NMANT in (63, 112) and sys.byteorder == "little"
# The low significand bits of a long double that a double drops, and their
# value at a midpoint between two doubles (see _decimal_table).
_LOW_BITS, _MIDWAY_BITS = (np.uint64((1 << (_NMANT - 52)) - 1), np.uint64(1 << (_NMANT - 53))
                           ) if _WIDE_LONG_DOUBLE else (None, None)
# 10**k for k = 0..27 as long doubles, each exact: 10**k = 2**k * 5**k and
# 5**27 < 2**64.
_TENS = np.cumprod(np.concatenate([[1], np.full(27, 10)]).astype(np.longdouble))
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def _integers(text: np.ndarray, ends: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The cells of the bytes ``text``, each ended by the comma or newline
    at ``ends``, read as integers with their points and minus signs
    dropped, into ``out``."""
    step = max(1, ends.size * _CHUNK // text.size)
    lo = 0
    for first in range(0, ends.size, step):
        last = min(first + step, ends.size)
        hi = int(ends[last - 1]) + 1
        digits = text[lo:hi].tobytes().translate(_NEWLINE_TO_COMMA, b".-")
        out[first:last] = np.fromstring(digits, dtype=np.uint64, count=last - first, sep=",")
        lo = hi
        del digits
    return out


def _wanted_cells(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                  scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of the cells of ``raw`` that start at ``starts`` and end
    at the separators at ``stops``, end to end, each ended by a comma, and
    the positions of those commas. The gather's positions: one after the
    last, or, at a cell's first, its start."""
    bounds = np.subtract(stops, starts, out=scratch("bounds", stops.size, np.intp))
    bounds += 1
    np.cumsum(bounds, out=bounds)
    at = scratch("index", int(bounds[-1]), np.intp)
    at.fill(1)
    at[0] = starts[0]
    at[bounds[:-1]] = starts[1:] - stops[:-1]
    gathered = raw.take(np.cumsum(at, out=at), out=scratch("cells", at.size, np.uint8),
                        mode="clip")
    bounds -= 1
    gathered[bounds] = ord(",")
    return gathered, bounds


def _decimal_table(body, width: int, columns: tuple[int, ...] | None = None,
                   scratch: _Scratch | None = None) -> np.ndarray | None:
    """The cells of ``body`` (any buffer) as a table of ``width`` columns
    (of ``columns``, 0 first, when given: the others are proved, not
    converted), each the double nearest its decimal, as ``float()`` gives
    it; None when the body is not one this kernel takes. The table, the
    proof and every array of one value per cell are ``scratch``'s arrays.

    It takes a body ``_proof`` accepts whose cells read hold no exponent
    mark, each of at most 19 significant digits and 27 after the point. A
    cell, its sign aside, is then D / 10**k, with D < 10**19 and 10**k
    exact long doubles, so their quotient q is rounded once. Rounding q to a
    double gives the cell's correct rounding unless q lies exactly midway
    between two doubles (Clinger 1990): such a midpoint is a long double,
    which the rounding of the true quotient could reach but not cross.
    Those cells, rare, are read by ``float()``. Every q lies between 1e-27
    and 1e19, or is 0, so q and the doubles about it are normal numbers. A
    double keeps the leading 53 bits of a significand; the long double
    holds 1 + ``_NMANT`` bits (64 for x87's format, whose leading bit is
    stored, 113 for binary128, whose 112 bits are stored below a hidden
    one). So q is a midpoint exactly when its low ``_NMANT`` - 52 bits are
    a one followed by zeros, 1 << (``_NMANT`` - 53): the bits of the double
    below it, then the half of its last place. At a power of two this is
    the midpoint below it, whose spacing is that of the binade under it.
    Those low bits lie in the quotient's first eight bytes, little-endian.
    The minus a line may start with is set on its first cell last.
    """
    scratch = _Scratch() if scratch is None else scratch
    raw = _ended(body)
    cells = _proof(raw, width, scratch) if _WIDE_LONG_DOUBLE else None
    if cells is None:
        return None
    marks, kinds, at, signs = cells
    if columns is None:
        read, seps = None, at  # the mark that ends each cell read
    else:
        lines = at.size // width
        read = scratch("read", lines * len(columns), np.intp)
        np.add(np.arange(0, at.size, width)[:, None], columns,
               out=read.reshape(lines, len(columns)))
        seps = at.take(read, out=scratch("seps", read.size, np.intp), mode="clip")
    n = seps.size
    stops = marks.take(seps, out=scratch("stops", n, np.intp), mode="clip")
    # The mark before each separator: a point, or one that marks no fraction
    # (before a first cell without one, the body's last newline, wrapped).
    prior = np.subtract(seps, 1, out=scratch("prior", n, np.intp))
    last = kinds.take(prior, mode="wrap", out=scratch("last", n, np.uint8))
    fraction = marks.take(prior, mode="wrap", out=scratch("fraction", n, np.intp))
    np.subtract(stops, fraction, out=fraction)
    fraction -= 1
    flag = scratch("flag", n, np.bool_)
    np.copyto(fraction, 0, where=np.not_equal(last, 0, out=flag))
    last -= 1  # an exponent's (1 to 3): more than the kernel takes
    np.copyto(fraction, 99, where=np.less(last, 3, out=flag))
    if fraction.max() > 27:
        return None
    if read is None:
        text, ends = raw, stops
    else:  # a cell starts after the separator before it
        np.subtract(read, 1, out=prior)
        cut = at.take(prior, mode="wrap", out=scratch("cut", n, np.intp))
        starts = marks.take(cut, out=prior, mode="clip")
        starts += 1
        starts[0] = 0
        text, ends = _wanted_cells(raw, starts, stops, scratch)
    whole = _integers(text, ends, scratch("whole", n, np.uint64))
    # np.fromstring saturates a D of 2**64 or more to 2**64 - 1, without a word.
    if whole.max() >= 10**19:
        return None
    quotient = _TENS.take(fraction, out=scratch("quotient", n, np.longdouble), mode="clip")
    np.divide(whole, quotient, out=quotient)
    table = scratch("table", n, float)
    np.copyto(table, quotient, casting="same_kind")
    # The midpoints, from the low bits of the quotients, into whole's array.
    low = np.ndarray((n,), np.uint64, quotient, 0, (quotient.itemsize,))
    np.bitwise_and(low, _LOW_BITS, out=whole)
    midway = np.equal(whole, _MIDWAY_BITS, out=flag)
    for i in np.flatnonzero(midway).tolist() if midway.any() else ():
        k = i if read is None else int(read[i])
        table[i] = float(raw[marks[at[k - 1]] + 1 if k else 0:stops[i]].tobytes())
    signed = np.searchsorted(at, signs)  # lines' first cells
    if read is not None:
        signed = signed // width * len(columns)
    table[signed] = np.copysign(table[signed], -1.0)
    return table.reshape(-1, width if columns is None else len(columns))


@functools.lru_cache(maxsize=64)
def _split_header(head: str, limit: int) -> tuple[str, ...] | None:
    """The stripped fields of a header line as the csv reader splits it
    under the field size ``limit``, remembered per line: the trace files of
    a campaign repeat a few headers. None when the reader rejects the line."""
    try:
        return tuple(h.strip() for h in next(csv.reader([head])))
    except csv.Error:
        return None


def _kept(names: tuple[str, ...], wanted: frozenset[str] | None) -> list[int]:
    """The positions in ``names`` of the counters in ``wanted`` (all when None)."""
    return [j for j, name in enumerate(names) if wanted is None or name in wanted]


@functools.lru_cache(maxsize=64)
def _wanted_columns(header: tuple[str, ...], wanted: frozenset[str]) -> tuple[int, ...] | None:
    """The timestamp column and the columns of ``header`` that name a
    counter in ``wanted``; None when that is every column."""
    columns = (0, *(j + 1 for j in _kept(header[1:], wanted)))
    return None if len(columns) == len(header) else columns


# A trace file the fast read took: its header and the size of its body,
# which its kind's block holds, not yet converted, ended by a newline.
_Trace = tuple[tuple[str, ...], int]


class _Text:
    """The bodies of one kind of trace (of which the counters in ``wanted``
    are read, all when None) of the block being read, end to end in one
    bytearray reused from block to block: the bodies of the block's runs,
    up to ``used``, then those of the run being read. Each file is read
    once, its header line into ``head`` and the rest onto the block's end:
    ``head`` is as long as the last header taken, so a file that repeats
    that header lands with its body in place. A header byte-equal to one
    already taken is not decoded, split or checked again; a file read with
    another is moved into place. Power traces (``power``) must have one of
    the power headers, counter traces a counter-name check that passes."""

    def __init__(self, wanted: frozenset[str] | None, power: bool = False):
        self.wanted, self.power = wanted, power
        self.block, self.used, self.end = bytearray(1 << 16), 0, 0  # end: the read run's bodies
        self.head = bytearray()
        self.last: tuple[bytes, tuple[str, ...]] | None = None  # the line and its header
        self.taken: dict[bytes, tuple[str, ...]] = {}
        self.scratch = _Scratch()

    def read(self, path: str) -> _Trace | None:
        """The trace of the file at ``path``, its body placed after the
        block's, its line ends read and its header decoded as
        ``decode_utf8`` reads them, when the fast read may take it: a body,
        a header the csv reader splits, of two or more fields led by
        ``ts_ms``, that passes its kind's check, and no line longer than
        the csv field size limit (a byte the proof does not take sends the
        run to the line parser later); else None.
        A header that fails the counter-name check raises its ParseError."""
        head, start = self.head, self.used
        self.block, size = read_into(path, "trace", self.block, start, head)
        if size > len(head) and self.last is not None and head == self.last[0]:
            header = self.last[1]
            end = start + size - len(head)
        else:
            taken = self._take_header(path, size)
            if taken is None:
                return None
            header, end = taken
        data = self.block
        if data.find(b"\r", start, end) >= 0:
            text = data[start:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            end = start + len(text)
            data[start:end] = text
        if data[end - 1] != ord("\n"):
            data[end] = ord("\n")
            end += 1
        limit = csv.field_size_limit()
        line = start
        # line is a line's start, the ones before no longer than the limit.
        while end - line > limit:
            line = data.rfind(b"\n", line, line + limit + 1) + 1
            if not line:
                return None
        self.end = end
        return header, end - start

    def _take_header(self, path: str, size: int) -> tuple[tuple[str, ...], int] | None:
        """For a file of ``size`` bytes just read whose header line ``head``
        did not match: its header and the index its body ends at, the body,
        its line ends read, moved to the block's end; None when the fast
        read declines the file."""
        data, start, k = self.block, self.used, len(self.head)
        read = bytes(self.head[:size]) + data[start:start + max(size - k, 0)]
        text = read.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in read else read
        cut = text.find(b"\n") + 1
        if not cut or cut == len(text):
            return None  # no body
        line = text[:cut]
        header = self.taken.get(line)
        if header is None:
            head = decode_utf8(line[:-1], ParseError, path)
            header = None if '"' in head else _split_header(head, csv.field_size_limit())
            if header is None or len(header) < 2 or header[0] != "ts_ms":
                return None
            if self.power and header not in _POWER_HEADERS:
                return None
            if not self.power:
                _check_header_names(header[1:])
        if read.startswith(line):  # a line with no carriage return is taken by its bytes
            self.taken[line] = header
            self.last, self.head = (line, header), bytearray(cut)
        end = start + len(text) - cut
        if end >= len(data):
            self.block = data = data[:start] + bytearray(end + end // 4 + 1 - start)
        data[start:end] = memoryview(text)[cut:]
        return header, end

    def take(self, trace: _Trace) -> None:
        """Add the body of ``trace``, the last file read, to the block."""
        self.used += trace[1]

    def restart(self) -> None:
        """Empty the block, moving the bodies read after it to its start."""
        size = self.end - self.used
        if size:
            view = memoryview(self.block)
            view[:size] = view[self.used:self.end]
        self.used, self.end = 0, size

    def stacked(self, traces: list[_Trace]) -> tuple[np.ndarray, np.ndarray] | None:
        """The tables of the block's ``traces``, of one header, end to end
        (samples x columns), holding the counters in ``wanted``, and the
        row after each trace's last: ``_decimal_table`` of the block's
        text, in ``scratch``'s arrays; None when the kernel declines it.

        The rows come from the proof's separators, the first items of the
        scratch arrays ``at`` and ``marks``: the marks up to the end of a
        body, then the separators among them, give the lines up to it."""
        header = traces[0][0]
        width = len(header)
        columns = None if self.wanted is None else _wanted_columns(header, self.wanted)
        table = _decimal_table(memoryview(self.block)[:self.used], width, columns, self.scratch)
        if table is None:
            return None
        at = self.scratch["at"][:len(table) * width]
        marks = self.scratch["marks"][:at[-1] + 1]
        ends = np.searchsorted(marks, np.cumsum([size for _, size in traces]))
        return table, np.searchsorted(at, ends) // width


def _voltage_constant(power: np.ndarray, samples: np.ndarray) -> bool:
    """Whether every power table of a block (their tables end to end,
    samples x columns, each of ``samples`` samples) lacks a voltage column
    or holds one within 1e-6 (relative, at least 1e-6 V) of its first
    value."""
    if power.shape[1] < 3:
        return True
    volts = power[:, 2]
    first = np.repeat(volts[np.cumsum(samples) - samples], samples)
    return not (np.abs(volts - first) > 1e-6 * np.maximum(1.0, np.abs(first))).any()


def parse_counter_trace(text: str) -> CounterTrace:
    """Parse counter-trace CSV: header ``ts_ms,<c1>,<c2>,...``, delta counts
    per row. The csv line parser reads it, so a fault names its line."""
    header, linenos, table = _parse_rows(text, "ts_ms")
    if len(header) < 2:
        raise ParseError("line 1: counter trace needs at least one counter column")
    names = tuple(header[1:])
    _check_header_names(names)
    return CounterTrace(names, table[:, 0], table[:, 1:], linenos)


def parse_power_trace(text: str) -> PowerTrace:
    """Parse power-trace CSV: header ``ts_ms,current_ma[,voltage_v]``. The
    csv line parser reads it, so a fault names its line."""
    header, linenos, table = _parse_rows(text, "ts_ms")
    if len(header) not in (2, 3) or header[1] != "current_ma":
        raise ParseError("line 1: expected header ts_ms,current_ma[,voltage_v]")
    if len(header) == 3 and header[2] != "voltage_v":
        raise ParseError("line 1: third column must be voltage_v")
    volts = float(table[0, 2]) if len(header) == 3 else None
    trace = PowerTrace(table[:, 0].copy(), table[:, 1].copy(), volts, linenos)
    # Checked once the samples pass: a sample fault is reported first.
    if not _voltage_constant(table, np.array([len(table)])):
        raise ParseError("voltage column is not constant")
    return trace


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

    A rate is the BLAS ddot of the run's window fractions with a
    contiguous copy of its counter's counts, and the current the ddot of
    its current with its segment lengths. So a rate has the same bits in
    any block and whichever other counters the table holds, and so has
    the current, provided each run's current is contiguous. The first run
    whose traces do not overlap by a second raises.
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
    columns = np.ascontiguousarray(counts[:, 1:, :].transpose(0, 2, 1))
    rates = np.vecdot(frac[:, None, :], columns) / (span / 1000.0)[:, None]

    # Current step segments: sample j holds on [ts[j], ts[j+1]), last to w1.
    seg_ends = np.concatenate([power_ts[:, 1:], w1], axis=1)
    dur = np.maximum(0.0, np.minimum(seg_ends, w1) - np.maximum(power_ts, w0))
    return rates, np.vecdot(current, dur) / span


def isolate_dataset(ds: Dataset, base_current: float, aux_current: np.ndarray | None = None
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
        warnings.warn(f"{n_clamped} of {len(ds)} isolated currents clamped to 0 mA",
                      ClampWarning, stacklevel=2)
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
        raise ConfigError(f"train_fraction {train_fraction!r} splits {n} runs into {n_train} "
                          f"for training and {n - n_train} for test; each side needs at least "
                          "one run")
    perm = np.random.default_rng(seed).permutation(n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


@dataclass(frozen=True)
class ManifestRun:
    counter_file: str
    power_file: str
    meta: RunMeta
    aux_counter_file: str | None = None


def _run_where(manifest: Path, index: int, benchmark: str | None = None) -> str:
    """How an error names manifest run ``index``: the manifest's path, as
    a trace fault names its file, the index and, once read, the benchmark."""
    where = f"{manifest}: manifest run {index}"
    return where if benchmark is None else f"{where} ({benchmark!r})"


def _entry_fault(entry: dict, key: str, expected: str, manifest: Path, index: int) -> ParseError:
    """The error for field ``key`` of manifest run ``index``, missing or not
    ``expected``."""
    where = _run_where(manifest, index)
    if key not in entry:
        return ParseError(f"{where}: missing field {key!r}")
    return ParseError(f"{where}: field {key!r} must be {expected}, got {entry[key]!r}")


def _json_number(value) -> float:
    """``json_float`` of ``value``, NaN for an int too large for a float."""
    try:
        return json_float(value)
    except OverflowError:
        return math.nan


def _manifest_run(entry, manifest: Path, index: int) -> ManifestRun:
    """Run ``index`` of ``manifest``, its entry checked field by field; the
    first fault raises, worded."""
    if not isinstance(entry, dict):
        raise ParseError(f"{_run_where(manifest, index)}: expected an object, "
                         f"got {type(entry).__name__}")
    get = entry.get
    benchmark = get("benchmark")
    if not isinstance(benchmark, str):
        raise _entry_fault(entry, "benchmark", "a string", manifest, index)
    workload = get("workload_type")
    if not isinstance(workload, str):
        raise _entry_fault(entry, "workload_type", "a string", manifest, index)
    frequency = _json_number(get("frequency_hz"))
    if not math.isfinite(frequency):
        raise _entry_fault(entry, "frequency_hz", "a finite number", manifest, index)
    utilization = get("utilization")
    if utilization is not None:
        utilization = _json_number(utilization)
        if not math.isfinite(utilization):
            raise _entry_fault(entry, "utilization", "a finite number", manifest, index)
    try:
        meta = RunMeta(benchmark, workload, frequency, utilization)
    except ConfigError as exc:
        raise ParseError(f"{_run_where(manifest, index, benchmark)}: {exc}") from None
    counters, power = get("counter_file"), get("power_file")
    if not isinstance(counters, str):
        raise _entry_fault(entry, "counter_file", "a string", manifest, index)
    if not isinstance(power, str):
        raise _entry_fault(entry, "power_file", "a string", manifest, index)
    aux = get("aux_counter_file")
    if aux is not None and not isinstance(aux, str):
        raise _entry_fault(entry, "aux_counter_file", "a string", manifest, index)
    return ManifestRun(counters, power, meta, aux)


def _read_trace(parse, path: Path, what: str):
    """Parse the trace file at ``path``; a ParseError names the file."""
    text = decode_utf8(read_bytes(str(path), what), ParseError, str(path))
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# The trace bodies of one block of runs hold at most this much text, unless
# one run holds more, so the memory ingest takes does not grow with the
# campaign. Each kind of trace keeps its text and the kernel's arrays from
# block to block (see _Scratch): a byte of text, 21 bytes a mark (a byte
# that is not a digit) and about 70 a cell, each array with a quarter to
# spare. The worst case is a body of one-digit cells, a mark and a cell
# every two bytes: about 60 bytes of memory a byte of text, so a full read
# peaks at about 65 x BLOCK_BYTES (32 MiB) besides its manifest and
# datasets. A read of some counters gathers the cells it reads, at up to
# 50 bytes more a cell read: up to about 95 x BLOCK_BYTES when it reads all
# counters but one. A block whose traces differ in length copies the tables
# of each group of runs of one length, 8 bytes a cell, a group at a time.
# Train-deep's cells, 17 bytes each, take about 10 bytes a byte of text.
BLOCK_BYTES = 1 << 19


class _FastRun(NamedTuple):
    """A manifest run whose trace files the fast read took, the samples not
    yet checked: its power trace and its counter traces by kind (its
    counter trace, then its aux trace, None without one); its key, the
    headers of its traces (consecutive runs of equal keys, of any lengths,
    join one block); and the bytes of its bodies."""

    index: int
    meta: RunMeta
    power: _Trace
    traces: tuple[_Trace, _Trace | None]
    key: tuple
    size: int

    def names(self) -> list[tuple[str, ...] | None]:
        """The counter names of its counter traces, by kind."""
        return [None if trace is None else trace[0][1:] for trace in self.traces]


_POWER_HEADERS = (("ts_ms", "current_ma"), ("ts_ms", "current_ma", "voltage_v"))


def _samples_pass(table: np.ndarray, values: np.ndarray, ends: np.ndarray) -> bool:
    """Whether every trace of a block (their tables end to end, samples x
    columns, ``ends`` the row after each trace's last) passes
    ``_check_samples``: all finite, timestamps increasing within each
    trace, no negative among ``values``."""
    steps = np.diff(table[:, 0]) > 0
    steps[ends[:-1] - 1] = True  # from one trace's last sample to the next's first
    return bool(np.isfinite(table).all() and steps.all() and not (values < 0).any())


def _runs(table: np.ndarray, starts: np.ndarray, samples: int) -> np.ndarray:
    """The traces of ``samples`` samples each that start at the rows
    ``starts`` of ``table`` (a block's tables end to end), stacked (runs x
    samples x columns): ``table`` reshaped when they are all of its rows."""
    if len(starts) * samples == len(table):
        return table.reshape(len(starts), samples, table.shape[1])
    rows = np.add.outer(starts, np.arange(samples)).ravel()
    return table[rows].reshape(len(starts), samples, table.shape[1])


def _block_rates(counters: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``aggregate_block`` of stacked counter and power tables."""
    return aggregate_block(counters[:, :, 0], counters[:, :, 1:],
                           power[:, :, 0], np.ascontiguousarray(power[:, :, 1]))


class _Campaign:
    """The rows of a manifest's runs, gathered in manifest order, for each
    kind of counter trace (0 the runs' counter traces, 1 their aux
    traces): their rates, their currents, and the counter columns the
    first run set, None for aux traces the runs do not list. Rows of kind
    k hold the rates of the counters in ``wanted[k]``, all when None."""

    def __init__(self, runs: list, manifest: Path,
                 wanted: tuple[frozenset[str] | None, frozenset[str] | None]):
        self.runs = runs
        self.manifest, self.base_dir = manifest, manifest.parent
        self.base = os.fspath(self.base_dir)  # the fast read joins trace names onto it
        self.wanted = wanted
        self.metas: list[RunMeta] = []
        self.rates: tuple[list[np.ndarray], ...] = ([], [])
        self.currents: tuple[list[np.ndarray], ...] = ([], [])
        self.names: list[tuple[str, ...] | None] = [None, None]
        self.power_text = _Text(None, power=True)
        self.texts = tuple(_Text(kept) for kept in wanted)

    def _add_row(self, kind: int, trace: CounterTrace, power: PowerTrace, where: str) -> None:
        """Check the counter columns of a run's ``kind`` of trace against
        the first run's, then aggregate it with ``power`` into a row."""
        if self.names[kind] is None:
            self.names[kind] = trace.counter_names
        elif trace.counter_names != self.names[kind]:
            raise ParseError(f"{where}: {('', 'aux ')[kind]}counter columns differ from the "
                             "first run")
        try:
            row, current = aggregate_run(trace, power)
        except AggregationError as exc:
            raise AggregationError(f"{where}: {exc}") from None
        self.rates[kind].append(row[None, _kept(self.names[kind], self.wanted[kind])])
        self.currents[kind].append(np.array([current]))

    def add_run(self, i: int) -> None:
        """Read, check and aggregate run ``i`` alone. Each fault raises as
        soon as it is met, so the first fault of the run is the one named."""
        run = _manifest_run(self.runs[i], self.manifest, i)
        where = _run_where(self.manifest, i, run.meta.benchmark_name)
        base_dir = self.base_dir
        trace = _read_trace(parse_counter_trace, base_dir / run.counter_file, "counter trace")
        power = _read_trace(parse_power_trace, base_dir / run.power_file, "power trace")
        self._add_row(0, trace, power, where)
        # Run 0 decides whether the runs list aux traces: names[1] is set then.
        if i and (run.aux_counter_file is None) != (self.names[1] is None):
            raise ParseError(f"{where}: lists {'an' if run.aux_counter_file else 'no'} "
                             "aux_counter_file, unlike the first run")
        if run.aux_counter_file is not None:
            aux_trace = _read_trace(parse_counter_trace, base_dir / run.aux_counter_file,
                                    "aux counter trace")
            self._add_row(1, aux_trace, power, where)
        self.metas.append(run.meta)

    def fast_read(self, i: int) -> _FastRun | None:
        """Run ``i`` with its files read, each in one pass, by the fast
        read, their bodies placed after the block's but not added to it;
        None when its entry or a file cannot be read, the fast read declines
        a file, or a header would raise."""
        base, aux = self.base, None
        try:
            run = _manifest_run(self.runs[i], self.manifest, i)
            counters = self.texts[0].read(os.path.join(base, run.counter_file))
            power = self.power_text.read(os.path.join(base, run.power_file))
            if run.aux_counter_file is not None:
                aux = self.texts[1].read(os.path.join(base, run.aux_counter_file))
                if aux is None:
                    return None
        except (PmcPowerError, OSError):
            return None
        if counters is None or power is None:
            return None
        key = (power[0], counters[0], aux and aux[0])
        return _FastRun(i, run.meta, power, (counters, aux), key,
                        power[1] + counters[1] + (aux[1] if aux else 0))

    def take(self, run: _FastRun) -> None:
        """Add the bodies of ``run``, the last run read, to the block."""
        for text, trace in zip((self.power_text, *self.texts), (run.power, *run.traces)):
            if trace is not None:
                text.take(trace)

    def add_block(self, block: list[_FastRun]) -> None:
        """Convert, check and aggregate a block of runs that share a key at
        once, then start the next block with the bodies read after it. When
        a file does not convert, a check fails or a run's aggregation would
        raise, the block's runs are read again by ``add_run``, so the first
        fault in manifest order raises as it words it."""
        rows = self._block_rows(block)
        for text in (self.power_text, *self.texts):
            text.restart()
        if rows is None:
            for run in block:
                self.add_run(run.index)
            return
        self.names = block[0].names()
        self.metas.extend(run.meta for run in block)
        for kind, (rates, currents) in enumerate(rows):
            self.rates[kind].append(rates)
            self.currents[kind].append(currents)

    def _block_rows(self, block: list[_FastRun]) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The block's rates and currents of each kind of counter trace its
        runs list, as ``add_run`` would give them run by run; None wherever
        ``add_run`` would raise for one of its runs, or the kernel declines
        a kind of trace. The runs whose traces have equal lengths are
        aggregated together, which keeps each row's bits (see
        ``aggregate_block``), and their rows put back in block order."""
        first = block[0]
        if self.metas and first.names() != self.names:
            return None
        read = [text.stacked([run.traces[kind] for run in block])
                for kind, text in enumerate(self.texts) if first.traces[kind] is not None]
        read.append(self.power_text.stacked([run.power for run in block]))
        if any(stacked is None for stacked in read):
            return None
        tables, ends = zip(*read)  # the counter tables by kind, then the power
        ends = np.array(ends).T  # runs x tables: the row after each trace's last
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1]
        samples = ends - starts
        power = tables[-1]
        if not (all(_samples_pass(table, table[:, 1:], ends[:, k])
                    for k, table in enumerate(tables[:-1]))
                and _samples_pass(power, power[:, 1], ends[:, -1])
                and _voltage_constant(power, samples[:, -1])):
            return None
        shapes: dict[tuple[int, ...], list[int]] = {}
        for i, shape in enumerate(samples.tolist()):
            shapes.setdefault(tuple(shape), []).append(i)
        rows = [(np.empty((len(block), table.shape[1] - 1)), np.empty(len(block)))
                for table in tables[:-1]]
        try:
            for shape, index in shapes.items():
                runs = [_runs(table, starts[index, k], n)
                        for k, (table, n) in enumerate(zip(tables, shape))]
                for (rates, currents), counters in zip(rows, runs[:-1]):
                    rates[index], currents[index] = _block_rates(counters, runs[-1])
        except AggregationError:
            return None
        return rows

    def datasets(self) -> tuple[Dataset, Dataset | None]:
        """The dataset of each kind of counter trace, None for no aux traces."""
        metas = tuple(self.metas)
        return tuple(
            None if names is None else
            Dataset(tuple(names[j] for j in _kept(names, wanted)), np.concatenate(rates), metas,
                    np.concatenate(currents))
            for names, wanted, rates, currents in zip(self.names, self.wanted, self.rates,
                                                      self.currents))


def _check_runs_distinct(manifest: Path, runs: list) -> None:
    """Reject two runs that list one counter trace (compared as
    ``os.path.normpath`` spells it): the copies could sit on both sides of
    a train/test split. Entries without a string ``counter_file`` are left
    to the entry check."""
    first: dict[str, int] = {}
    for i, entry in enumerate(runs):
        name = entry.get("counter_file") if isinstance(entry, dict) else None
        if isinstance(name, str):
            j = first.setdefault(os.path.normpath(name), i)
            if j != i:
                raise ParseError(f"{_run_where(manifest, i)}: lists counter_file {name!r}, "
                                 f"as manifest run {j} does")


def load_manifest(path, counters=None, aux_counters=None) -> tuple[Dataset, Dataset | None]:
    """Build a dataset from a JSON run manifest.

    Returns the dataset plus, when the runs list an ``aux_counter_file``
    (all of them or none), a second dataset of the same runs holding the
    auxiliary component's counter rates, for subtracting that component's
    predicted current during isolation. Two runs may not list one counter
    trace. An error about a run names the manifest and the run's index.

    ``counters`` (``aux_counters`` for the aux traces), when given, names
    the only counters the caller reads: each dataset then holds those its
    traces name, in trace order, with the bits a full read gives them. The
    other cells are proved well-formed, finite and not negative from their
    bytes, not converted; a block they do not prove is read in full by the
    worded reader.

    Ingest has two readers. The fast one reads blocks: consecutive runs
    whose traces share their headers, of any lengths, of at most
    BLOCK_BYTES of trace text. Each trace file is read once, its body
    straight onto the end of its kind's block (``_Text``), and a header it
    repeats is taken by its bytes. Each kind of trace of a block is proved
    and converted in one structural pass over its bodies
    (``_decimal_table``), in arrays reused from block to block, and the
    proof gives each trace's sample count; its samples are checked at once,
    and its runs of equal trace lengths aggregated together. An aux trace
    takes the counter trace's path.
    The worded one, the csv line parser of ``parse_counter_trace`` and
    ``parse_power_trace``, reads a run the fast read cannot take and every
    run of a block that fails or that the kernel declines, alone, so a
    fault raises as the first one in manifest order, naming its file and
    line. Where the long double is too narrow for the kernel (see
    ``_WIDE_LONG_DOUBLE``), the worded reader reads every run, and each
    trace file is read once.
    """
    path = Path(path)
    try:
        doc = json.loads(read_utf8(path, "manifest", ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path}: {exc}") from None
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ParseError(f"manifest {path}: expected a non-empty 'runs' list")

    _check_runs_distinct(path, runs)
    campaign = _Campaign(runs, path, tuple(
        None if names is None else frozenset(names) for names in (counters, aux_counters)))
    block: list[_FastRun] = []
    text = 0
    for i in range(len(runs)):
        run = campaign.fast_read(i) if _WIDE_LONG_DOUBLE else None
        if block and (run is None or run.key != block[0].key or text + run.size > BLOCK_BYTES):
            campaign.add_block(block)
            block, text = [], 0
        if run is None:
            campaign.add_run(i)
        else:
            campaign.take(run)
            block.append(run)
            text += run.size
    if block:
        campaign.add_block(block)
    return campaign.datasets()

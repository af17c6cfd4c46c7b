import contextlib
import csv
import decimal
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmcpower import dataset, errors
from pmcpower.dataset import (
    ClampWarning,
    CounterTrace,
    Dataset,
    PowerTrace,
    RunMeta,
    _check_header_names,
    aggregate_block,
    aggregate_run,
    isolate_dataset,
    load_manifest,
    parse_counter_trace,
    parse_power_trace,
    split_dataset,
)
from pmcpower.errors import (
    AggregationError,
    ConfigError,
    IsolationError,
    ParseError,
    PmcPowerError,
)
from pmcpower.features import base
from pmcpower.model import PowerModel, predict_dataset
from pmcpower.synth import generate, three_factor_config, write_dataset_files

from conftest import make_dataset
from oracles import (
    aggregate_run_reference,
    load_manifest_reference,
    parse_counter_trace_reference,
    parse_power_trace_reference,
)

class TestParseCounterTrace:
    def test_minimal_well_formed(self):
        trace = parse_counter_trace("ts_ms,c1,c2\n0,0,0\n1000,8,1\n")
        assert trace.counter_names == ("c1", "c2")
        assert trace.timestamps_ms.tolist() == [0.0, 1000.0]
        assert trace.counts.tolist() == [[0.0, 0.0], [8.0, 1.0]]

    def test_non_monotone_timestamp_names_line(self):
        with pytest.raises(ParseError, match="non-monotone timestamp at line 3"):
            parse_counter_trace("ts_ms,c1\n1000,5\n500,5\n")

    def test_column_mismatch(self):
        with pytest.raises(ParseError, match="column mismatch"):
            parse_counter_trace("ts_ms,c1,c2\n0,1\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_counter_trace("ts_ms,c1\n0,1\n1000,oops\n")

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="negative count"):
            parse_counter_trace("ts_ms,c1\n0,1\n1000,-2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_counter_trace("time,c1\n0,1\n")

    def test_empty_body(self):
        with pytest.raises(ParseError, match="no samples"):
            parse_counter_trace("ts_ms,c1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_count_names_line_and_column(self, value):
        with pytest.raises(ParseError, match="line 4: non-finite value in column 'c2'"):
            parse_counter_trace(f"ts_ms,c1,c2\n0,0,0\n1000,1,1\n2000,1,{value}\n")

    def test_non_finite_timestamp_names_line(self):
        with pytest.raises(ParseError, match="line 3: non-finite value in column 'ts_ms'"):
            parse_counter_trace("ts_ms,c1\n0,1\nnan,1\n")

    def test_duplicate_counter_column(self):
        with pytest.raises(ParseError, match="line 1: duplicate counter column 'c1'"):
            parse_counter_trace("ts_ms,c1,c2,c1\n0,0,0,0\n1000,1,1,1\n")

    @pytest.mark.parametrize("name", ["x/y", "a*b"])
    def test_name_outside_feature_syntax(self, name):
        # ratio:x/y/z would load back as x / (y/z); prod:a*b*c cannot load.
        with pytest.raises(ParseError, match=re.escape(f"line 1: counter name '{name}' contains")):
            parse_counter_trace(f"ts_ms,{name},z\n0,0,0\n1000,1,1\n")

    def test_empty_counter_name(self):
        with pytest.raises(ParseError, match="line 1: empty counter name"):
            parse_counter_trace("ts_ms,c1,\n0,0,0\n1000,1,1\n")


class TestParsePowerTrace:
    def test_basic(self):
        trace = parse_power_trace("ts_ms,current_ma\n0,100\n1000,150\n")
        assert trace.current_ma.tolist() == [100.0, 150.0]
        assert trace.voltage_v is None

    def test_voltage_column(self):
        trace = parse_power_trace("ts_ms,current_ma,voltage_v\n0,100,3.86\n1000,150,3.86\n")
        assert trace.voltage_v == pytest.approx(3.86)

    def test_inconsistent_voltage(self):
        with pytest.raises(ParseError, match="voltage"):
            parse_power_trace("ts_ms,current_ma,voltage_v\n0,100,3.86\n1000,150,4.2\n")

    def test_negative_current(self):
        with pytest.raises(ParseError, match="negative current"):
            parse_power_trace("ts_ms,current_ma\n0,-5\n1000,10\n")

    def test_non_finite_current_names_line(self):
        with pytest.raises(ParseError, match="line 3: non-finite value in column 'current_ma'"):
            parse_power_trace("ts_ms,current_ma\n0,5\n1000,nan\n")



class TestConstructedTrace:
    """The trace constructors are the one check of a trace's samples; a
    trace built in code names the faulty sample by its index."""

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: PowerTrace([0.0, 1000.0], [1.0, np.inf]),
                     "sample 1: non-finite value", id="non-finite-current"),
        pytest.param(lambda: CounterTrace(("c1",), [0.0, 1000.0], [[0.0], [np.nan]]),
                     "sample 1: non-finite value", id="non-finite-count"),
        pytest.param(lambda: CounterTrace(("c1",), [0.0, 1000.0, 1000.0], [[0.0], [1.0], [2.0]]),
                     "non-monotone timestamp at sample 2", id="repeated-timestamp"),
        pytest.param(lambda: PowerTrace([0.0, -1.0], [1.0, 1.0]),
                     "non-monotone timestamp at sample 1", id="timestamp-steps-back"),
        pytest.param(lambda: CounterTrace(("c1", "c2"), [0.0, 1000.0], [[0.0, 1.0], [1.0, -1.0]]),
                     "sample 1: negative count", id="negative-count"),
        pytest.param(lambda: PowerTrace([0.0, 1000.0], [-1.0, 1.0]),
                     "sample 0: negative current", id="negative-current"),
        pytest.param(lambda: PowerTrace([0.0, 1000.0], [1.0, 1.0], math.inf),
                     "non-finite voltage_v", id="non-finite-voltage"),
        pytest.param(lambda: CounterTrace(("c1",), [], np.empty((0, 1))),
                     "no samples", id="no-counter-samples"),
        pytest.param(lambda: PowerTrace([], []),
                     "power trace shape mismatch", id="no-power-samples"),
        pytest.param(lambda: CounterTrace(("c1", "c2"), [0.0, 1000.0], [[0.0], [1.0]]),
                     "counter trace shape mismatch", id="counter-shape"),
        pytest.param(lambda: PowerTrace([0.0, 1000.0], [1.0]),
                     "power trace shape mismatch", id="power-shape"),
    ])
    def test_rejects(self, build, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            build()

    def test_lines_name_the_file_line(self):
        with pytest.raises(ParseError, match="^line 7: negative count$"):
            CounterTrace(("c1",), [0.0, 1000.0], [[0.0], [-1.0]], lines=[4, 7])
        with pytest.raises(ParseError, match="^non-monotone timestamp at line 9$"):
            PowerTrace([0.0, 0.0], [1.0, 1.0], lines=[2, 9])

    def test_lines_are_not_stored(self):
        trace = PowerTrace([0.0, 1000.0], [1.0, 2.0], 3.3, lines=[2, 3])
        assert "lines" not in vars(trace)
        assert [f.name for f in fields(trace)] == ["timestamps_ms", "current_ma", "voltage_v"]


class TestQuotesInSampleRows:
    """Sample values are numbers: a quote after the header is a fault of
    the physical line that holds it."""

    @pytest.mark.parametrize("text, message", [
        # The quoted field spans lines 2-3; the malformed row is on line 4.
        ('ts_ms,c1\n0,"1\n"\n1000,x\n', "line 2: quote in sample row"),
        ('ts_ms,c1\n0,1\n1000,"5"\n', "line 3: quote in sample row"),
        ('ts_ms,c1\r\n0,1\r\n\r\n2000,\'5\'"\r\n', "line 4: quote in sample row"),
        # A fault the line reader meets first is reported first.
        ('ts_ms,c1\n0,x\n1000,"5"\n', "line 2: malformed row ['0', 'x']"),
        ('ts_ms,c1,c2\n0,1\n1000,"5",1\n', "line 2: column mismatch (expected 3 values, got 2)"),
        ('time,c1\n0,"1"\n', "line 1: expected 'ts_ms' as first column"),
        # Once past a quoted header, rows are named by their physical line.
        ('ts_ms,"c\n1"\n0,x\n', "line 3: malformed row ['0', 'x']"),
    ])
    def test_counter_trace(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_counter_trace(text)

    def test_power_trace(self):
        with pytest.raises(ParseError, match="^line 2: quote in sample row$"):
            parse_power_trace('ts_ms,current_ma\n"0",1\n1000,2\n')

    def test_quoted_header_still_read(self):
        trace = parse_counter_trace('"ts_ms","c1"\n0,1\n1000,2\n')
        assert trace.counter_names == ("c1",)


class TestHeaderCheckCache:
    def test_good_header_checked_once(self):
        text = "ts_ms,cached_a,cached_b\n0,0,0\n1000,1,1\n"
        parse_counter_trace(text)
        hits = _check_header_names.cache_info().hits
        parse_counter_trace(text)
        assert _check_header_names.cache_info().hits == hits + 1

    def test_bad_header_raises_every_time(self):
        text = "ts_ms,bad*name\n0,0\n1000,1\n"
        for _ in range(3):
            with pytest.raises(ParseError, match=r"^line 1: counter name 'bad\*name' contains '\*'$"):
                parse_counter_trace(text)


class TestCsvErrors:
    @pytest.mark.parametrize("text, line", [("ts_ms,a\r0,1\r1000,2\r", 1),
                                            ("ts_ms,a\n0,1\r1000,2\n", 2)])
    def test_bare_carriage_return_is_a_parse_error(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: new-line character seen"):
            parse_counter_trace(text)


# Cells of a generated trace: mostly numbers the two parsers read alike, and
# every byte and token on which numpy's reader and float() part ways.
PADDING = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
ODD_CELLS = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "4.9e-324", "-0", "+1", "1.",
        ".5", "1E3", "1_0", "\u0661\u0662", "\uff13", "\x1c5", "5\x1f", "\x1d1\x1e",
        "\x0b7", "7\x0c", " 3 ", "\t4", "", '"5"', "'5'", "1e", "--1", "0x10", "1 2",
        "1,2", "-5", "\r", "5\r6", "\x85", "\u2028",
    ]),
    st.text("0123456789+-.eE_ ,\t\r\x0b\x0c\x1c\x1d\x1e\x1f\"'\u0661naif", max_size=5),
    st.floats().map(repr),
    st.tuples(PADDING, st.integers(0, 99).map(str), PADDING).map("".join),
)
BLANK_LINES = st.sampled_from(["", " ", "\t", "\r", " \r", "\x0b", "\x1c", "\x0c"])


def _rarely(draw, odds):
    return draw(st.integers(0, odds - 1)) == 0


@st.composite
def trace_texts(draw, kind):
    """A trace of ``kind`` as CSV text: a header, then rows of increasing
    timestamps and non-negative values, with now and then a cell, a line or
    a line end swapped for an odd one."""
    if kind == "counter":
        header = ["ts_ms", *("c1", "c2", "c3")[:draw(st.integers(1, 3))]]
        if _rarely(draw, 6):
            header[-1] = draw(st.sampled_from(["c1", " c3 ", '"c4"', "c*5", "", "c\x1c"]))
    else:
        header = draw(st.sampled_from([["ts_ms", "current_ma"],
                                       ["ts_ms", "current_ma", "voltage_v"]]))
        if _rarely(draw, 8):
            header = draw(st.sampled_from([["ts_ms", "voltage_v"], ["ts", "current_ma"],
                                           ["ts_ms"], ['"ts_ms"', "current_ma"]]))
    volts = draw(st.sampled_from(["3.3", "1e400", " 3.3", "3.30000001"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 6))):
        row = [str(1000 * i + (draw(st.sampled_from([-1500, 1500])) if _rarely(draw, 8) else 0))]
        row += [str(draw(st.integers(0, 99))) for _ in header[1:]]
        if kind == "power" and len(header) == 3:
            row[2] = volts
        if _rarely(draw, 6):
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        if _rarely(draw, 16):
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
        if _rarely(draw, 8):
            lines.append(draw(BLANK_LINES))
    ends = [draw(st.sampled_from([newline, "\r"])) if _rarely(draw, 12) else newline
            for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _quote_line(text):
    """The physical line of the first quote after a one-line header, or None."""
    _, _, body = text.partition("\n")
    if '"' not in body:
        return None
    return 2 + body[:body.index('"')].count("\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, csv.Error) as exc:
        return exc


def _bits(trace):
    if isinstance(trace, CounterTrace):
        counts = trace.counts
        return trace.counter_names, trace.timestamps_ms.tobytes(), counts.shape, counts.tobytes()
    voltage = None if trace.voltage_v is None else np.float64(trace.voltage_v).tobytes()
    return trace.timestamps_ms.tobytes(), trace.current_ma.tobytes(), voltage


class TestFastParseMatchesReference:
    """The numpy fast read gives the line parser's traces bit for bit, or
    its error; a csv.Error of the line parser is now a ParseError naming
    the line."""

    def assert_same(self, parse, reference, text):
        got, expected = _outcome(parse, text), _outcome(reference, text)
        quote = _quote_line(text)
        if quote is not None:
            # The reference reads a quoted field; the parser rejects a quote
            # in a sample row unless a fault on an earlier line, worded as
            # the reference words it, comes first.
            if type(got) is ParseError and str(got) == f"line {quote}: quote in sample row":
                return
            named = re.search(r"line (\d+)", str(got))
            assert named and int(named.group(1)) < quote, got
        if isinstance(expected, csv.Error):
            assert isinstance(got, ParseError)
            assert re.fullmatch(r"line \d+: " + re.escape(str(expected)), str(got))
        elif isinstance(expected, ParseError):
            assert type(got) is ParseError and str(got) == str(expected)
        else:
            assert not isinstance(got, Exception), got
            assert _bits(got) == _bits(expected)

    @settings(max_examples=400, deadline=None)
    @given(text=trace_texts("counter"))
    def test_counter_traces(self, text):
        self.assert_same(parse_counter_trace, parse_counter_trace_reference, text)

    @settings(max_examples=400, deadline=None)
    @given(text=trace_texts("power"))
    def test_power_traces(self, text):
        self.assert_same(parse_power_trace, parse_power_trace_reference, text)

    @pytest.mark.parametrize("text", [
        "ts_ms,c1\n0,1\n1000,2\n",
        "ts_ms,c1\r\n0,1\r\n\r\n1000,2\r\n",
        "ts_ms,c1\n0,\x1c1\n1000,2\n",
        "ts_ms,c1\n0,1e400\n1000,2\n",
        "ts_ms,c1\n0,1_0\n1000,2\n",
        "ts_ms,c1\n0,\u0661\n1000,2\n",
        '"ts_ms",c1\n0,1\n1000,2\n',
        "ts_ms,c1\n0,1\n \t\n1000,2\n",
        "ts_ms,c1\n",
        "ts_ms,c1\n\n\n",
        "ts_ms,c1\n0,1\r1000,2\n",
    ])
    def test_known_gaps(self, text):
        self.assert_same(parse_counter_trace, parse_counter_trace_reference, text)

    @pytest.mark.parametrize("width", [csv.field_size_limit(), csv.field_size_limit() + 1])
    def test_field_at_the_csv_size_limit(self, width):
        text = "ts_ms,c1\n0," + "0" * (width - 1) + "1\n1000,2\n"
        self.assert_same(parse_counter_trace, parse_counter_trace_reference, text)

    def test_infinite_first_voltage(self):
        text = "ts_ms,current_ma,voltage_v\n0,1,1e400\n1000,2,1e400\n"
        with pytest.raises(ParseError, match="line 2: non-finite value in column 'voltage_v'"):
            parse_power_trace(text)


class TestDataset:
    def test_rates_are_a_read_only_copy(self):
        rates = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = Dataset(("a", "b"), rates, [RunMeta("r0", "Other", 1.0)] * 2, [5.0, 6.0])
        rates[0, 0] = 99.0
        assert ds.column("a").tolist() == [1.0, 3.0]
        with pytest.raises(ValueError):
            ds.rates[0, 0] = 7.0
        assert ds.target_current.tolist() == ds.total_current.tolist() == [5.0, 6.0]

    def test_column_of_unknown_counter(self):
        ds = make_dataset({"a": [1.0, 2.0]}, [1.0, 2.0])
        with pytest.raises(KeyError):
            ds.column("b")

    def test_duplicate_counter_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate counter name 'a'"):
            Dataset(("a", "a"), np.ones((1, 2)), [RunMeta("r", "Other", 1.0)], [1.0])

    @pytest.mark.parametrize("name, message", [
        ("", "empty counter name"),
        ("a*b", "counter name 'a*b' contains '*'"),
        ("x/y", "counter name 'x/y' contains '/'"),
    ])
    def test_name_outside_feature_syntax_rejected(self, name, message):
        # ratio:x/y/w would load back as x / (y/w), so a model would need counter x.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Dataset((name, "w"), np.ones((1, 2)), [RunMeta("r", "Other", 1.0)], [1.0])

    @pytest.mark.parametrize(
        "rates, total, target",
        [(np.ones((2, 3)), [1.0, 2.0], None),  # three columns, two names
         (np.ones((3, 2)), [1.0, 2.0], None),  # three rows, two runs
         (np.ones((2, 2)), [1.0], None),
         (np.ones((2, 2)), [1.0, 2.0], [1.0])],
    )
    def test_shapes_checked(self, rates, total, target):
        meta = [RunMeta(f"r{i}", "Other", 1.0) for i in range(2)]
        with pytest.raises(ConfigError):
            Dataset(("a", "b"), rates, meta, total, target)

    def test_take_keeps_rows_together(self):
        ds = make_dataset({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}, [7.0, 8.0, 9.0])
        part = ds.take([2, 0])
        assert part.rates.tolist() == [[3.0, 6.0], [1.0, 4.0]]
        assert [m.benchmark_name for m in part.meta] == ["run-002", "run-000"]
        assert part.target_current.tolist() == [9.0, 7.0]


def counter_trace(ts, rows, names=("c1",)):
    return CounterTrace(tuple(names), np.array(ts, float), np.array(rows, float))


def power_trace(ts, currents):
    return PowerTrace(np.array(ts, float), np.array(currents, float))


class TestAggregateRun:
    def test_rate_definition(self):
        counters = counter_trace([0, 1000, 2000], [[0], [250], [350]])
        power = power_trace([0, 2000], [150, 150])
        rates, _ = aggregate_run(counters, power)
        assert rates.tolist() == pytest.approx([300.0])  # 600 events over 2 s

    def test_constant_current(self):
        counters = counter_trace([0, 2000], [[0], [10]])
        power = power_trace([0, 1000, 2000], [150, 150, 150])
        _, current = aggregate_run(counters, power)
        assert current == pytest.approx(150.0)

    def test_time_weighted_segments(self):
        # 100 mA for 1 s then 200 mA for 3 s -> 175 mA over 4 s
        counters = counter_trace([0, 4000], [[0], [40]])
        power = power_trace([0, 1000, 4000], [100, 200, 200])
        _, current = aggregate_run(counters, power)
        assert current == pytest.approx(175.0)

    def test_partial_overlap_prorates_counts(self):
        # power covers [1000, 3000]; the 2 s counter interval straddles it
        counters = counter_trace([0, 2000, 4000], [[0], [100], [100]])
        power = power_trace([1000, 3000], [50, 50])
        rates, _ = aggregate_run(counters, power)
        # half of each interval falls inside the window: 100 events over 2 s
        assert rates.tolist() == pytest.approx([50.0])

    def test_no_overlap(self):
        counters = counter_trace([0, 1000], [[0], [10]])
        power = power_trace([5000, 6000], [100, 100])
        with pytest.raises(AggregationError, match="no temporal overlap"):
            aggregate_run(counters, power)

    def test_sub_second_overlap_rejected(self):
        counters = counter_trace([0, 1500], [[0], [10]])
        power = power_trace([900, 2000], [100, 100])
        with pytest.raises(AggregationError, match="overlap"):
            aggregate_run(counters, power)

    def test_split_sample_invariance(self):
        power = power_trace([0, 3000], [77, 77])
        whole, _ = aggregate_run(
            counter_trace([0, 1000, 2000, 3000], [[0], [120], [30], [600]]), power
        )
        # split the (1000, 2000] interval at 1500 ms into 12 + 18 = 30 events
        split = counter_trace(
            [0, 1000, 1500, 2000, 3000], [[0], [120], [12], [18], [600]]
        )
        halves, _ = aggregate_run(split, power)
        assert halves.tolist() == pytest.approx(whole.tolist(), rel=1e-12)


@st.composite
def overlapping_traces(draw):
    """A counter trace of 1-3 counters and a power trace whose timestamps
    overlap it by at least a second."""
    steps = draw(st.lists(st.integers(50, 3000), min_size=2, max_size=8))
    c_ts = np.cumsum([0, *steps]).astype(float)
    n_counters = draw(st.integers(1, 3))
    counts = np.array(draw(st.lists(
        st.lists(st.floats(0, 1e6), min_size=n_counters, max_size=n_counters),
        min_size=c_ts.size, max_size=c_ts.size)))
    p_start = draw(st.integers(-2000, int(c_ts[-1]) - 1000))
    p_steps = draw(st.lists(st.integers(1, 2500), min_size=1, max_size=8))
    p_ts = (p_start + np.cumsum([0, *p_steps])).astype(float)
    assume(min(c_ts[-1], p_ts[-1]) - max(c_ts[0], p_ts[0]) >= 1000.0)
    current = draw(st.lists(st.floats(0, 5000), min_size=p_ts.size, max_size=p_ts.size))
    return (CounterTrace(tuple(f"c{j}" for j in range(n_counters)), c_ts, counts),
            PowerTrace(p_ts, np.array(current)))


class TestAggregateRunProperties:
    @settings(max_examples=200, deadline=None)
    @given(traces=overlapping_traces(), data=st.data())
    def test_rates_keep_under_pro_rata_split(self, traces, data):
        counters, power = traces
        ts, counts = counters.timestamps_ms, counters.counts
        k = data.draw(st.integers(1, ts.size - 1), label="interval")
        f = data.draw(st.floats(0.01, 0.99), label="split fraction")
        cut = ts[k - 1] + f * (ts[k] - ts[k - 1])
        assume(ts[k - 1] < cut < ts[k])
        share = (cut - ts[k - 1]) / (ts[k] - ts[k - 1])
        # Rows k and k + 1 carry the intervals (ts[k-1], cut] and (cut, ts[k]].
        split_counts = np.insert(counts, k, counts[k] * share, axis=0)
        split_counts[k + 1] = counts[k] - split_counts[k]
        split = CounterTrace(counters.counter_names, np.insert(ts, k, cut), split_counts)
        whole, _ = aggregate_run(counters, power)
        halves, _ = aggregate_run(split, power)
        scale = counts.max(initial=0.0) * 1000.0 / (ts[-1] - ts[0])
        np.testing.assert_allclose(halves, whole, rtol=1e-9, atol=1e-9 * scale)

    @settings(max_examples=200, deadline=None)
    @given(traces=overlapping_traces())
    def test_current_is_the_time_weighted_step_mean(self, traces):
        counters, power = traces
        w0 = max(counters.timestamps_ms[0], power.timestamps_ms[0])
        w1 = min(counters.timestamps_ms[-1], power.timestamps_ms[-1])
        p_ts = [float(t) for t in power.timestamps_ms] + [float(w1)]
        pieces = []
        for j, value in enumerate(power.current_ma):
            held = min(p_ts[j + 1], w1) - max(p_ts[j], w0)
            if held > 0:
                pieces.append(float(value) * held)
        _, current = aggregate_run(counters, power)
        assert current == pytest.approx(math.fsum(pieces) / (w1 - w0), rel=1e-12, abs=1e-9)


class TestBlockArithmetic:
    """A block of runs keeps each run's rate and current bits: the stacked
    vecdot runs one ddot per run and counter, whatever the run's place in
    the block and whichever other counters its table holds."""

    @pytest.mark.parametrize("n", [2, 3, 11, 61, 100, 130])
    def test_stacked_products_equal_per_run_products(self, n):
        rng = np.random.default_rng(n)
        for k in (1, 2, 7, 60, 121, 241):
            for runs in (1, 2, 3, 5, 8, 16, 31, 33, 64):
                counts = rng.uniform(0.0, 1e6, (runs, n, k)).round(rng.integers(0, 7))
                frac = rng.uniform(0.0, 1.0, (runs, n - 1))
                frac[:, 0] = 0.37  # a window edge inside the first interval
                current = rng.uniform(50.0, 500.0, (runs, n))
                dur = rng.uniform(0.0, 1000.0, (runs, n))
                columns = np.ascontiguousarray(counts[:, 1:, :].transpose(0, 2, 1))
                stacked = np.vecdot(frac[:, None, :], columns)
                dotted = np.vecdot(current, dur)
                for b in range(runs):
                    # A run alone holds its own copies, as the one-run path does.
                    own = frac[b].copy()
                    per_column = [np.dot(own, counts[b, 1:, j].copy()) for j in range(k)]
                    assert stacked[b].tobytes() == np.array(per_column).tobytes()
                    assert dotted[b] == np.dot(current[b].copy(), dur[b].copy())

    @pytest.mark.parametrize("n", [3, 11, 61, 130])
    def test_ddot_rates_stay_near_the_gemv_rates(self, n):
        # The rates were one gemv of the fractions with the count table; the
        # per-counter ddot sums in another order. Both sum n - 1 terms that
        # are not negative, so each is within (n - 1) eps of the exact sum.
        rng = np.random.default_rng(n)
        c_ts = np.cumsum(rng.uniform(500.0, 1500.0, n))
        p_ts = np.linspace(c_ts[0] + 250.0, c_ts[-1] - 250.0, 7)
        counts = rng.uniform(0.0, 1e6, (n, 121)).round(rng.integers(0, 7))
        rates, _ = aggregate_run(CounterTrace(tuple(f"c{j}" for j in range(121)), c_ts, counts),
                                 PowerTrace(p_ts, np.full(7, 100.0)))
        w0, w1 = p_ts[0], p_ts[-1]
        frac = np.clip((np.minimum(c_ts[1:], w1) - np.maximum(c_ts[:-1], w0))
                       / np.diff(c_ts), 0.0, 1.0)
        gemv = (frac @ counts[1:]) / ((w1 - w0) / 1000.0)
        eps = np.finfo(float).eps
        assert (np.abs(rates - gemv) <= 2 * n * eps * gemv).all()

    def test_aggregate_run_is_a_block_of_one(self):
        rng = np.random.default_rng(7)
        c_ts = np.cumsum(rng.uniform(500, 1500, (4, 9)), axis=1)
        counts = rng.uniform(0, 1e6, (4, 9, 5))
        p_ts = np.cumsum(rng.uniform(100, 900, (4, 30)), axis=1) - 400
        current = rng.uniform(50, 500, (4, 30))
        rates, currents = aggregate_block(c_ts, counts, p_ts, current)
        for b in range(4):
            alone = aggregate_run_reference(
                CounterTrace(tuple("abcde"), c_ts[b].copy(), counts[b].copy()),
                PowerTrace(p_ts[b].copy(), current[b].copy()),
            )
            assert rates[b].tobytes() == alone[0].tobytes()
            assert currents[b] == alone[1]

    @pytest.mark.parametrize("p_ts, problem", [
        ([5000.0, 6000.0], "no temporal overlap"),
        ([900.0, 1800.0], r"overlap shorter than 1 second \(0.900 s\)"),
    ])
    def test_first_failing_run_raises(self, p_ts, problem):
        c_ts = np.array([[0.0, 1000.0, 2000.0]] * 3)
        counts = np.ones((3, 3, 1))
        power_ts = np.array([[0.0, 2000.0], [0.0, 2000.0], p_ts])
        with pytest.raises(AggregationError, match=f"^{problem}$"):
            aggregate_block(c_ts, counts, power_ts, np.ones((3, 2)))


class TestIsolatePower:
    def dataset(self, total=500.0):
        return make_dataset({"c1": [1.0]}, [total])

    def test_base_subtraction(self):
        out, _ = isolate_dataset(self.dataset(500.0), 100.0)
        assert out.target_current.tolist() == pytest.approx([400.0])
        assert out.total_current.tolist() == [500.0]

    def test_aux_model_subtraction(self):
        aux_model = PowerModel((base("cpu_c"),), (1.0,), 50.0)
        aux = make_dataset({"cpu_c": [100.0]}, [500.0])
        out, _ = isolate_dataset(self.dataset(500.0), 100.0, predict_dataset(aux_model, aux))
        assert out.target_current.tolist() == pytest.approx([250.0])

    def test_clamp_to_zero_warns(self):
        with pytest.warns(ClampWarning):
            out, _ = isolate_dataset(self.dataset(90.0), 100.0)
        assert out.target_current.tolist() == [0.0]

    def test_negative_base_rejected(self):
        with pytest.raises(IsolationError):
            isolate_dataset(self.dataset(), -1.0)

    def test_missing_aux_rate_names_counter(self):
        aux_model = PowerModel((base("cpu_c"),), (1.0,), 50.0)
        aux = make_dataset({"other": [1.0]}, [500.0])
        with pytest.raises(Exception, match="cpu_c"):
            predict_dataset(aux_model, aux)

    def test_aux_current_length_checked(self):
        with pytest.raises(IsolationError, match="one value per run"):
            isolate_dataset(self.dataset(), 0.0, np.array([1.0, 2.0]))

    def test_isolate_dataset_counts_clamps(self):
        ds = make_dataset({"c1": [1.0, 2.0, 3.0]}, [500.0, 90.0, 80.0])
        with pytest.warns(ClampWarning):
            out, n_clamped = isolate_dataset(ds, 100.0)
        assert n_clamped == 2
        assert out.target_current.tolist() == [400.0, 0.0, 0.0]
        assert ds.target_current.tolist() == [500.0, 90.0, 80.0]


class TestSplitDataset:
    def dataset(self, n):
        return make_dataset({"c1": np.arange(n) + 1.0}, np.arange(n) + 10.0)

    def test_counts_9_records(self):
        train, test = split_dataset(self.dataset(9), 2 / 3, seed=7)
        assert (len(train), len(test)) == (6, 3)

    def test_counts_300_records(self):
        train, test = split_dataset(self.dataset(300), 2 / 3, seed=7)
        assert (len(train), len(test)) == (200, 100)

    def test_deterministic(self):
        ds = self.dataset(20)
        a = split_dataset(ds, 2 / 3, seed=42)
        b = split_dataset(ds, 2 / 3, seed=42)
        names_a = [m.benchmark_name for m in a[0].meta]
        names_b = [m.benchmark_name for m in b[0].meta]
        assert names_a == names_b

    def test_partition(self):
        ds = self.dataset(17)
        train, test = split_dataset(ds, 0.55, seed=3)
        got = sorted(m.benchmark_name for m in train.meta + test.meta)
        assert got == sorted(m.benchmark_name for m in ds.meta)
        overlap = {m.benchmark_name for m in train.meta} & {
            m.benchmark_name for m in test.meta
        }
        assert not overlap
        # Each run keeps its own rates and currents.
        for part in (train, test):
            for i, meta in enumerate(part.meta):
                j = int(meta.benchmark_name.split("-")[1])
                assert part.rates[i].tolist() == ds.rates[j].tolist()
                assert part.target_current[i] == ds.target_current[j]

    def test_too_few_records(self):
        with pytest.raises(ConfigError):
            split_dataset(self.dataset(2), 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            split_dataset(self.dataset(9), 1.0, seed=0)

    @pytest.mark.parametrize("fraction, n_train", [(0.95, 9), (1e-12, 0)])
    def test_fraction_that_empties_a_side(self, fraction, n_train):
        problem = (f"train_fraction {fraction!r} splits 9 runs into {n_train} for training "
                   f"and {9 - n_train} for test; each side needs at least one run")
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            split_dataset(self.dataset(9), fraction, seed=0)


class TestManifest:
    def write_run(self, tmp_path, i, rate=100.0, current=250.0):
        counter = tmp_path / f"run{i}.counters.csv"
        power = tmp_path / f"run{i}.power.csv"
        counter.write_text(
            "ts_ms,c1,c2\n0,0,0\n"
            + "".join(f"{t * 1000},{rate},{rate * 2}\n" for t in range(1, 6))
        )
        power.write_text(
            "ts_ms,current_ma\n" + "".join(f"{t * 1000},{current}\n" for t in range(6))
        )
        return {
            "counter_file": counter.name,
            "power_file": power.name,
            "benchmark": f"bench-{i}",
            "workload_type": "Compute",
            "frequency_hz": 471e6,
        }

    def test_load(self, tmp_path):
        runs = [self.write_run(tmp_path, i, rate=100.0 + i) for i in range(3)]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        ds, aux = load_manifest(manifest)
        assert aux is None
        assert len(ds) == 3
        assert ds.counter_names == ("c1", "c2")
        assert ds.column("c1")[1] == pytest.approx(101.0)
        assert ds.total_current[0] == pytest.approx(250.0)
        assert ds.target_current[0] == ds.total_current[0]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest not found"):
            load_manifest(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind, problem", [("directory", "is a directory"),
                                               ("fifo", "is not a regular file")])
    def test_trace_path_names_no_regular_file(self, tmp_path, kind, problem):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        odd = tmp_path / "odd"
        odd.mkdir() if kind == "directory" else os.mkfifo(odd)
        runs[1]["counter_file"] = odd.name
        with pytest.raises(OSError, match=f"^counter trace {problem}: {re.escape(str(odd))}$"):
            self.load(tmp_path, runs)

    def test_mismatched_counters(self, tmp_path):
        runs = [self.write_run(tmp_path, 0)]
        other = tmp_path / "odd.counters.csv"
        other.write_text("ts_ms,zz\n0,0\n1000,5\n2000,5\n")
        runs.append(dict(runs[0], counter_file=other.name, benchmark="odd"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        with pytest.raises(ParseError, match="counter columns differ"):
            load_manifest(manifest)

    def test_missing_field(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [{"counter_file": "x.csv"}]}))
        with pytest.raises(ParseError, match="missing field"):
            load_manifest(manifest)

    def test_manifest_not_an_object(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        with pytest.raises(ParseError, match="expected a non-empty 'runs' list"):
            load_manifest(manifest)

    def load(self, tmp_path, runs):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        return load_manifest(manifest)

    @pytest.mark.parametrize(
        "body, problem",
        [("0,0,0\n1000,5,nan\n2000,5,5\n", "line 3: non-finite value in column 'c2'"),
         ("0,0,0\n1000,5,5\n2000,-1,5\n", "line 4: negative count"),
         ("0,0,0\n2000,5,5\n1000,5,5\n", "non-monotone timestamp at line 4")],
    )
    def test_bad_counter_trace_names_file_and_line(self, tmp_path, body, problem):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        bad = tmp_path / runs[1]["counter_file"]
        bad.write_text("ts_ms,c1,c2\n" + body)
        with pytest.raises(ParseError) as info:
            self.load(tmp_path, runs)
        assert str(info.value) == f"{bad}: {problem}"

    def test_non_finite_current_names_file_and_line(self, tmp_path):
        runs = [self.write_run(tmp_path, 0)]
        bad = tmp_path / runs[0]["power_file"]
        bad.write_text("ts_ms,current_ma\n0,100\n1000,nan\n2000,100\n")
        with pytest.raises(ParseError) as info:
            self.load(tmp_path, runs)
        assert str(info.value) == f"{bad}: line 3: non-finite value in column 'current_ma'"

    def test_duplicate_counter_column_names_file(self, tmp_path):
        runs = [self.write_run(tmp_path, 0)]
        bad = tmp_path / runs[0]["counter_file"]
        bad.write_text("ts_ms,c1,c1\n0,0,0\n1000,5,5\n2000,5,5\n")
        with pytest.raises(ParseError) as info:
            self.load(tmp_path, runs)
        assert str(info.value) == f"{bad}: line 1: duplicate counter column 'c1'"

    @pytest.mark.parametrize(
        "entry, problem",
        [(["run0.counters.csv"], "manifest run 1: expected an object, got list"),
         ({"frequency_hz": "fast"}, "manifest run 1: field 'frequency_hz' must be a finite number"),
         ({"frequency_hz": None}, "manifest run 1: field 'frequency_hz' must be a finite number"),
         ({"frequency_hz": True},
          "manifest run 1: field 'frequency_hz' must be a finite number, got True"),
         ({"frequency_hz": "1e8"},
          "manifest run 1: field 'frequency_hz' must be a finite number, got '1e8'"),
         ({"utilization": False},
          "manifest run 1: field 'utilization' must be a finite number, got False"),
         ({"counter_file": 5}, "manifest run 1: field 'counter_file' must be a string"),
         ({"workload_type": "Gaming"}, "manifest run 1 ('bench-1'): unknown workload type")],
    )
    def test_bad_run_entry_names_run(self, tmp_path, entry, problem):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        runs[1] = entry if isinstance(entry, list) else dict(runs[1], **entry)
        problem = f"{tmp_path / 'manifest.json'}: {problem}"
        with pytest.raises(ParseError, match="^" + re.escape(problem)):
            self.load(tmp_path, runs)

    @pytest.mark.parametrize("spelling", ["run1.counters.csv", "./run1.counters.csv",
                                          "odd/../run1.counters.csv"])
    def test_run_listed_twice(self, tmp_path, spelling):
        # Checked before any trace is read: run 0's missing counter trace is
        # not reached, and run 2's non-string counter_file is the entry
        # check's to name.
        runs = [self.write_run(tmp_path, i) for i in range(4)]
        runs[0]["counter_file"] = "missing.csv"
        runs[2]["counter_file"] = 5
        runs.append(dict(runs[3], counter_file=spelling, benchmark="copy"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        problem = (f"{manifest}: manifest run 4: lists counter_file {spelling!r}, as manifest "
                   "run 1 does")
        for load in (load_manifest, load_manifest_reference):
            with pytest.raises(ParseError) as info:
                load(manifest)
            assert str(info.value) == problem

    def test_aggregation_error_names_run(self, tmp_path):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        (tmp_path / runs[1]["power_file"]).write_text("ts_ms,current_ma\n9000,1\n9500,1\n")
        problem = f"{tmp_path / 'manifest.json'}: manifest run 1 ('bench-1'): no temporal"
        with pytest.raises(AggregationError, match="^" + re.escape(problem)):
            self.load(tmp_path, runs)

    def write_aux(self, tmp_path, i, header="cpu_cycles"):
        aux = tmp_path / f"run{i}.aux.csv"
        aux.write_text(f"ts_ms,{header}\n0,0\n" + "".join(f"{t * 1000},40\n" for t in range(1, 6)))
        return aux.name

    def test_aux_columns_must_match_first_run(self, tmp_path):
        runs = [dict(self.write_run(tmp_path, i), aux_counter_file=self.write_aux(tmp_path, i))
                for i in range(2)]
        runs[1]["aux_counter_file"] = self.write_aux(tmp_path, 1, header="gpu_cycles")
        problem = (f"{tmp_path / 'manifest.json'}: manifest run 1 ('bench-1'): aux counter "
                   "columns differ from the first run")
        with pytest.raises(ParseError, match="^" + re.escape(problem)):
            self.load(tmp_path, runs)

    @pytest.mark.parametrize("listed_by, problem", [(0, "lists no"), (1, "lists an")])
    def test_aux_file_listed_by_all_runs_or_none(self, tmp_path, listed_by, problem):
        runs = [self.write_run(tmp_path, i) for i in range(3)]
        runs[listed_by]["aux_counter_file"] = self.write_aux(tmp_path, listed_by)
        problem = (f"{tmp_path / 'manifest.json'}: manifest run 1 ('bench-1'): {problem} "
                   "aux_counter_file, unlike the first run")
        with pytest.raises(ParseError, match="^" + re.escape(problem)):
            self.load(tmp_path, runs)

    def test_aux_counter_files_drive_model_subtraction(self, tmp_path):
        runs = []
        for i in range(2):
            run = self.write_run(tmp_path, i, current=500.0)
            aux = tmp_path / f"run{i}.aux.csv"
            aux.write_text(
                "ts_ms,cpu_cycles\n0,0\n"
                + "".join(f"{t * 1000},{40.0 + 10 * i}\n" for t in range(1, 6))
            )
            runs.append(dict(run, aux_counter_file=aux.name))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        ds, aux = load_manifest(manifest)
        assert aux is not None
        assert aux.column("cpu_cycles")[1] == pytest.approx(50.0)
        # cpu model: 2 mA per cycle/s + 20 mA idle
        cpu_model = PowerModel((base("cpu_cycles"),), (2.0,), 20.0)
        isolated, n_clamped = isolate_dataset(ds, 100.0, predict_dataset(cpu_model, aux))
        assert n_clamped == 0
        # 500 total - 100 base - (2*40 + 20) = 300; second run subtracts 2*50+20
        assert isolated.target_current.tolist() == pytest.approx([300.0, 280.0])


_MISSING = object()
# (field, faulty value, what the error reads after "manifest run 4"), in the
# order the entry check meets them: types, then RunMeta's checks, then paths.
_ENTRY_FAULT_ORDER = (
    ("benchmark", 7, ": field 'benchmark' must be a string, got 7"),
    ("workload_type", None, ": field 'workload_type' must be a string, got None"),
    ("frequency_hz", 10**400, f": field 'frequency_hz' must be a finite number, got {10**400}"),
    ("utilization", "high", ": field 'utilization' must be a finite number, got 'high'"),
    ("workload_type", "compute", " ('b0'): unknown workload type 'compute'"),
    ("frequency_hz", -0.0, " ('b0'): frequency must be > 0"),
    ("utilization", 2, " ('b0'): utilization must lie in [0, 1]"),
    ("counter_file", _MISSING, ": missing field 'counter_file'"),
    ("power_file", ["p.csv"], ": field 'power_file' must be a string, got ['p.csv']"),
    ("aux_counter_file", 5, ": field 'aux_counter_file' must be a string, got 5"),
)


@pytest.mark.parametrize("first", range(len(_ENTRY_FAULT_ORDER)))
def test_entry_names_its_first_fault(first):
    # Every fault from ``first`` on is planted, the earliest last, so that
    # it holds its field; only the earliest is named.
    entry = {"benchmark": "b0", "workload_type": "Compute", "frequency_hz": 1e8,
             "utilization": 0.5, "counter_file": "c.csv", "power_file": "p.csv"}
    for field, value, _ in reversed(_ENTRY_FAULT_ORDER[first:]):
        entry[field] = value
        if value is _MISSING:
            del entry[field]
    with pytest.raises(ParseError) as info:
        dataset._manifest_run(entry, Path("m.json"), 4)
    assert str(info.value).startswith("m.json: manifest run 4" + _ENTRY_FAULT_ORDER[first][2])


COUNTER_FAULTS = ("negative", "step_back", "nan", "overflow", "ragged", "renamed",
                  "reserved", "quoted", "not_utf8", "missing", "one_row")
POWER_FAULTS = ("negative", "step_back", "voltage", "late", "short", "header", "quoted",
                "missing")
ENTRY_FAULTS = ("workload", "no_power_file", "aux_listing", "duplicate")


class Campaign:
    """A campaign as manifest runs and one table of text cells per trace
    file, into which faults are planted before it is written out."""

    def __init__(self, rng, sample_counts, n_counters=2, voltage=True, aux=True,
                 power_first=True):
        """``power_first``: whether each power trace starts before its
        counter trace, at a negative time; else it starts at 0."""
        def value(low, high):
            return repr(round(float(rng.uniform(low, high)), int(rng.integers(0, 9))))

        names = [f"c{j}" for j in range(n_counters)]
        self.voltage = voltage
        self.traces, self.runs, self.broken = [], [], set()
        for i, n in enumerate(sample_counts):
            ts = (np.cumsum(rng.uniform(400.0, 1500.0, n)) - 400.0).tolist()
            lead = rng.uniform(0, 300)
            p_ts = np.linspace(-lead if power_first else 0.0, ts[-1] + rng.uniform(0, 300), n + 2)
            power = [["ts_ms", "current_ma"] + ["voltage_v"] * voltage]
            self.traces.append({
                "counter": [["ts_ms", *names]] + [[repr(t)] + [value(0, 1e6) for _ in names]
                                                  for t in ts],
                "power": power + [[repr(t), value(50, 500)] + ["3.3"] * voltage
                                  for t in p_ts.tolist()],
                "aux": [["ts_ms", "cycles"]] + [[repr(t), value(0, 1e4)] for t in ts],
            })
            entry = {"benchmark": f"b{i}", "workload_type": "Compute", "frequency_hz": 1e8,
                     "counter_file": f"r{i}.counter.csv", "power_file": f"r{i}.power.csv"}
            if aux:
                entry["aux_counter_file"] = f"r{i}.aux.csv"
            self.runs.append(entry)

    def plant(self, i, where, fault, r=1, c=1):
        """Plant ``fault`` in run ``i``'s ``where`` file ("entry" for its
        manifest entry), at sample row ``r`` and column ``c`` where it takes
        a cell."""
        if where == "entry":
            run = self.runs[i]
            if fault == "workload":
                run["workload_type"] = "Gaming"
            elif fault == "no_power_file":
                run.pop("power_file", None)
            elif fault == "duplicate":  # the next run's counter trace, spelled anew
                run["counter_file"] = "./" + self.runs[(i + 1) % len(self.runs)]["counter_file"]
            elif run.pop("aux_counter_file", None) is None:
                run["aux_counter_file"] = run["counter_file"]
            return
        rows = self.traces[i][where]
        r, c = min(r, len(rows) - 1), min(c, len(rows[0]) - 1)
        if fault == "negative":
            rows[r][c] = "-5.0"
        elif fault == "step_back" and len(rows) > 2:
            rows[max(r, 2)][0] = rows[max(r, 2) - 1][0]
        elif fault in ("nan", "overflow"):
            rows[r][c] = "nan" if fault == "nan" else "1e400"
        elif fault == "ragged":
            rows[r].append("1.0")
        elif fault == "renamed":
            rows[0][c] = "zz"
        elif fault == "reserved":
            rows[0][c] = "a*b"
        elif fault == "quoted":
            rows[0] = [f'"{h}"' for h in rows[0]]
        elif fault == "one_row":
            del rows[2:]
        elif fault == "voltage":
            rows[r][-1] = "3.4"
        elif fault in ("late", "short"):
            for row, t in zip(rows[1:], np.linspace(0.0, 800.0, len(rows) - 1).tolist()):
                row[0] = repr(t + (1e6 if fault == "late" else 0.0))
        elif fault == "header":
            rows[0][1] = "current"
        elif fault == "trailing_comma":
            rows[r].append("")
        elif fault == "short_row":
            rows[r] = rows[r][:-1]
        elif fault == "blank_line":
            rows.insert(r, [])
        else:
            self.broken.add((i, where, fault))

    def plant_cell(self, i, where, r, c, text):
        """Write ``text`` into the cell at sample row ``r``, column ``c`` of
        run ``i``'s ``where`` file."""
        row = self.traces[i][where][min(r, len(self.traces[i][where]) - 1)]
        if row:  # not a planted blank line
            row[min(c, len(row) - 1)] = text

    def write(self, directory: Path) -> Path:
        for i, (trace, run) in enumerate(zip(self.traces, self.runs)):
            for where, rows in trace.items():
                if (i, where, "missing") in self.broken:
                    continue
                data = "".join(",".join(row) + "\n" for row in rows).encode()
                if (i, where, "crlf") in self.broken:
                    data = data.replace(b"\n", b"\r\n")
                if (i, where, "not_utf8") in self.broken:
                    data = data[:-3] + b"\xff" + data[-3:]
                (directory / f"r{i}.{where}.csv").write_bytes(data)
        manifest = directory / "manifest.json"
        manifest.write_text(json.dumps({"runs": self.runs}))
        return manifest


@st.composite
def campaigns(draw):
    """A campaign of mixed sample counts, a voltage column or none and aux
    counter traces or none, with up to three faults, each planted in a
    trace, an aux trace or an entry of a run; and a block size in bytes of
    text: a run holds about 300 to 1,000, so blocks hold one run, one or
    two, two or three, about three, or every run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.sampled_from([(6,), (6,), (4, 6), (2, 5, 9)]))
    n_runs = draw(st.integers(1, 13))
    campaign = Campaign(rng, [draw(st.sampled_from(counts)) for _ in range(n_runs)],
                        n_counters=draw(st.integers(1, 3)), voltage=draw(st.booleans()),
                        aux=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["counter", "power", "aux", "entry"]))
        faults = {"counter": COUNTER_FAULTS, "aux": COUNTER_FAULTS,
                  "power": POWER_FAULTS, "entry": ENTRY_FAULTS}[where]
        campaign.plant(draw(st.integers(0, n_runs - 1)), where, draw(st.sampled_from(faults)),
                       draw(st.integers(1, 9)), draw(st.integers(1, 3)))
    return campaign, draw(st.sampled_from([1, 700, 1_400, 2_100, dataset.BLOCK_BYTES]))


def _loaded(load, manifest):
    """The bits of both loaded datasets, or the type and words of the error."""
    try:
        datasets = load(manifest)
    except (PmcPowerError, OSError) as exc:
        return type(exc), str(exc)
    return [None if ds is None else (ds.counter_names, ds.meta, ds.rates.shape, ds.rates.tobytes(),
                                     ds.total_current.tobytes(), ds.target_current.tobytes())
            for ds in datasets]


# Where the long double cannot make the exact kernel's quotients exact, it
# declines every body, and the worded reader reads every run.
needs_exact_kernel = pytest.mark.skipif(not dataset._WIDE_LONG_DOUBLE,
                                        reason="no long double of 64 bits or more")


@contextlib.contextmanager
def _worded_runs():
    """The indices of the runs ``load_manifest`` reads by
    ``_Campaign.add_run``, the worded reader, in the order it reads them:
    none when every run takes the fast read."""
    runs, real = [], dataset._Campaign.add_run

    def counted(self, i):
        runs.append(i)
        return real(self, i)

    with mock.patch.object(dataset._Campaign, "add_run", counted):
        yield runs


def _assert_loads_as_reference(campaign: Campaign, block_bytes: int, expect_ok=False):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = campaign.write(Path(tmp))
        with mock.patch.object(dataset, "BLOCK_BYTES", block_bytes):
            got = _loaded(load_manifest, manifest)
        assert got == _loaded(load_manifest_reference, manifest)
    assert isinstance(got, list) or not expect_ok, got
    return got


class TestLoadManifestMatchesReference:
    """Blocks of runs give the one-run loader's datasets bit for bit, and
    its first error word for word, wherever in a block a fault sits."""

    @settings(max_examples=250, deadline=None)
    @given(campaign=campaigns())
    def test_campaigns(self, campaign):
        _assert_loads_as_reference(*campaign)

    # Seven runs of 6 samples x 3 columns, an 8 x 3 power table and a 6 x 2
    # aux table: about 690 bytes of text, so blocks of 2,100 bytes hold runs
    # 0-2, 3-5 and 6.
    @pytest.mark.parametrize("run", [0, 1, 2, 3, 6])
    @pytest.mark.parametrize("where, fault", [
        *(("counter", f) for f in COUNTER_FAULTS),
        *(("power", f) for f in POWER_FAULTS),
        *(("aux", f) for f in COUNTER_FAULTS if f != "renamed"),
        ("aux", "short"), ("aux", "late"),
        *(("entry", f) for f in ENTRY_FAULTS),
    ])
    def test_planted_fault(self, run, where, fault):
        campaign = Campaign(np.random.default_rng(run), [6] * 7)
        campaign.plant(run, where, fault, r=3)
        _assert_loads_as_reference(campaign, 2_100)

    @pytest.mark.parametrize("block_bytes", [1, 2_100, 300_000])
    def test_mixed_sample_counts(self, block_bytes):
        rng = np.random.default_rng(block_bytes)
        campaign = Campaign(rng, rng.choice([3, 6, 11], 23).tolist(), voltage=False)
        _assert_loads_as_reference(campaign, block_bytes, expect_ok=True)

    def test_wide_blocks(self):
        # 150 runs of 11 x 41 cells, about 6,000 bytes of text: blocks of
        # 64,000 bytes hold 10 or 11 runs.
        campaign = Campaign(np.random.default_rng(0), [11] * 150, n_counters=40, aux=False)
        _assert_loads_as_reference(campaign, 64_000, expect_ok=True)


def _header_cells(campaign: Campaign, i: int, where: str, cells) -> None:
    """Write ``cells`` as the header of run ``i``'s ``where`` file."""
    campaign.traces[i][where][0] = list(cells)


class TestEachFileReadOntoItsBlock:
    """Each trace file is read once onto its block's end, a header it
    repeats taken by its bytes: runs whose headers differ only in bytes,
    line ends, and files the fast read declines or cannot read, anywhere
    after a block's first run, give the one-run loader's datasets bit for
    bit and its first error word for word."""

    @pytest.mark.parametrize("block_bytes", [2_100, dataset.BLOCK_BYTES])
    @pytest.mark.parametrize("spelling", [
        ("ts_ms", " c0", "c1 "),  # spaces the header's split strips
        ('"ts_ms"', '"c0"', "c1"),  # quotes: the line parser reads the run
        ("ts_ms", "c0", "c1", ""),  # a trailing comma: an empty counter name
        ("ts_ms ", "c0", "c1"),
    ])
    def test_headers_that_differ_in_bytes(self, block_bytes, spelling):
        campaign = Campaign(np.random.default_rng(4), [6] * 9)
        for i in (2, 3, 6):
            _header_cells(campaign, i, "counter", spelling)
        _header_cells(campaign, 5, "aux", [" ts_ms", "cycles"])
        _header_cells(campaign, 4, "power", ["ts_ms", "current_ma ", "voltage_v"])
        ok = spelling[-1] != ""
        _assert_loads_as_reference(campaign, block_bytes, expect_ok=ok)

    @pytest.mark.parametrize("run", [1, 3, 8])
    @pytest.mark.parametrize("where", ["counter", "power", "aux"])
    def test_crlf_file_in_a_block(self, run, where):
        campaign = Campaign(np.random.default_rng(run), [6] * 9)
        campaign.plant(run, where, "crlf")
        _assert_loads_as_reference(campaign, dataset.BLOCK_BYTES, expect_ok=True)

    @pytest.mark.parametrize("run", [1, 4, 8])
    @pytest.mark.parametrize("where", ["counter", "power", "aux"])
    @pytest.mark.parametrize("fault", ["quoted", "header_only", "blank_body", "missing",
                                       "directory", "not_utf8_header"])
    def test_declined_or_unreadable_file_after_the_first_run(self, run, where, fault):
        # A run's earlier files are read onto their blocks before a later
        # one is declined: the blocks must not keep them.
        campaign = Campaign(np.random.default_rng(run), [6] * 9)
        rows = campaign.traces[run][where]
        if fault == "header_only":
            del rows[1:]
        elif fault == "blank_body":
            rows[1:] = [[]]
        elif fault == "not_utf8_header":
            rows[0][-1] = "zq9"  # becomes c and a byte UTF-8 does not start with
        elif fault != "directory":
            campaign.plant(run, where, fault)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = campaign.write(Path(tmp))
            path = Path(tmp) / f"r{run}.{where}.csv"
            if fault == "directory":
                path.unlink()
                path.mkdir()
            elif fault == "not_utf8_header":
                path.write_bytes(path.read_bytes().replace(b"zq9", b"c\xff"))
            got = _loaded(load_manifest, manifest)
            assert got == _loaded(load_manifest_reference, manifest)
        assert isinstance(got, list) == (fault == "quoted"), got

    @pytest.mark.parametrize("where, header, words", [
        ("counter", ["ts_ms", "c0", "c0"], "duplicate counter column 'c0'"),
        ("aux", ["ts_ms", "a*b"], "counter name 'a*b' contains '*'"),
    ])
    def test_failing_header_seen_again(self, where, header, words):
        # A header that fails the counter-name check is not taken: each
        # time it is seen, in this load or the next, it is checked again.
        campaign = Campaign(np.random.default_rng(7), [6] * 9)
        for i in (3, 5):
            _header_cells(campaign, i, where, header)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = campaign.write(Path(tmp))
            expected = _loaded(load_manifest_reference, manifest)
            assert expected == (ParseError, f"{Path(tmp) / f'r3.{where}.csv'}: line 1: {words}")
            for _ in range(2):
                assert _loaded(load_manifest, manifest) == expected

    @needs_exact_kernel
    def test_repeated_headers_are_decoded_once(self):
        # Runs alternate two spellings of one counter header: each spelling
        # is decoded once, and the runs still stack into blocks.
        campaign = Campaign(np.random.default_rng(2), [6] * 40)
        for i in range(1, 40, 2):
            _header_cells(campaign, i, "counter", ["ts_ms", "c0 ", "c1"])
        decoded, real = [], dataset.decode_utf8

        def spy(data, *args):
            decoded.append(bytes(data))
            return real(data, *args)

        with mock.patch.object(dataset, "decode_utf8", spy), _worded_runs() as calls:
            _assert_loads_as_reference(campaign, dataset.BLOCK_BYTES, expect_ok=True)
        assert calls == []
        assert sorted(decoded) == sorted({b"ts_ms,c0,c1", b"ts_ms,c0 ,c1",
                                          b"ts_ms,current_ma,voltage_v", b"ts_ms,cycles"})


# Cells the line parser or the trace checks reject, and rows of the wrong
# shape or line ends the proof declines, planted where a subset read does
# not convert them; then cells the full read takes that the proof may decline.
UNREAD_CELL_FAULTS = ("1.2.3", "1e", "1e+5.3", ".", "", "-1", "1e400", "1" * 400, "nan", "inf",
                      "e5", "1e+", "+", "1-2", "1e5+3", "1e5-3", "0x10", "1_0")
UNREAD_ROW_FAULTS = ("trailing_comma", "short_row", "ragged", "crlf", "blank_line")
UNREAD_ODD_CELLS = (".5", "5.", "+5", " 5", "5 ", "-0", "-0.0", "1E5", "1.e5", "1e-300", "1e+99",
                    "9" * 69, "9" * 70 + ".5", "0" * 400, "1e007", "00.00", "\t5")


def _cut(datasets, wanted, aux_wanted):
    """``datasets`` cut to the counters in ``wanted`` and ``aux_wanted``
    (all when None), each kept in its trace order."""
    def cut(ds, names):
        if ds is None or names is None:
            return ds
        keep = [j for j, name in enumerate(ds.counter_names) if name in names]
        return Dataset(tuple(ds.counter_names[j] for j in keep), ds.rates[:, keep], ds.meta,
                       ds.total_current, ds.target_current)

    ds, aux = datasets
    return cut(ds, wanted), cut(aux, aux_wanted)


def _assert_subset_loads_as_full(campaign, block_bytes, wanted, aux_wanted, expect_ok=False):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = campaign.write(Path(tmp))
        with mock.patch.object(dataset, "BLOCK_BYTES", block_bytes):
            got = _loaded(lambda path: load_manifest(path, wanted, aux_wanted), manifest)
        full = _loaded(lambda path: _cut(load_manifest_reference(path), wanted, aux_wanted),
                       manifest)
    assert got == full
    assert isinstance(got, list) or not expect_ok, got
    return got


@st.composite
def subset_campaigns(draw):
    """A campaign as ``campaigns`` draws it, with up to three more cells or
    rows planted from the faults a subset read leaves unconverted, and the
    counters and aux counters to read (a name may be one no trace holds)."""
    campaign, block_bytes = draw(campaigns())
    n_runs = len(campaign.runs)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n_runs - 1))
        where = draw(st.sampled_from(["counter", "aux", "power"]))
        r, c = draw(st.integers(1, 9)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            campaign.plant(i, where, draw(st.sampled_from(UNREAD_ROW_FAULTS)), r, c)
        else:
            campaign.plant_cell(i, where, r, c,
                                draw(st.sampled_from(UNREAD_CELL_FAULTS + UNREAD_ODD_CELLS)))
    names = ["c0", "c1", "c2", "zz"]
    wanted = draw(st.none() | st.frozensets(st.sampled_from(names)))
    aux_wanted = draw(st.none() | st.frozensets(st.sampled_from(["cycles", "zz"])))
    return campaign, block_bytes, wanted, aux_wanted


class TestSubsetReadMatchesFullRead:
    """A load of some counters gives the chosen columns of the one-run full
    read bit for bit, and its first error word for word: a cell left
    unconverted is proved from its bytes or read in full."""

    @settings(max_examples=250, deadline=None)
    @given(case=subset_campaigns())
    def test_campaigns(self, case):
        _assert_subset_loads_as_full(*case)

    # Seven runs of about 690 bytes of text: blocks of 2,100 bytes hold runs
    # 0-2, 3-5 and 6. Only c0 is read, so column 2 (c1) and the aux cycles
    # are never converted.
    @pytest.mark.parametrize("run", [0, 2, 3, 6])
    @pytest.mark.parametrize("where", ["counter", "aux"])
    @pytest.mark.parametrize("text", UNREAD_CELL_FAULTS + UNREAD_ODD_CELLS)
    def test_cell_in_an_unread_column(self, run, where, text):
        campaign = Campaign(np.random.default_rng(run), [6] * 7)
        campaign.plant_cell(run, where, 3, 2, text)
        _assert_subset_loads_as_full(campaign, 2_100, {"c0"}, ())

    @pytest.mark.parametrize("run", [0, 2, 3, 6])
    @pytest.mark.parametrize("where", ["counter", "aux"])
    @pytest.mark.parametrize("fault", UNREAD_ROW_FAULTS)
    def test_row_fault_beside_read_columns(self, run, where, fault):
        campaign = Campaign(np.random.default_rng(run), [6] * 7)
        campaign.plant(run, where, fault, r=3, c=2)
        _assert_subset_loads_as_full(campaign, 2_100, {"c0"}, ())

    @needs_exact_kernel
    def test_clean_campaign_is_proved_not_converted(self):
        # 150 runs of 11 x 41 cells: the counter bodies of each block are
        # proved once, joined, and the kernel converts only the timestamps
        # and c3, c17 of them; no file is read on its own.
        campaign = Campaign(np.random.default_rng(0), [11] * 150, n_counters=40)
        real_proof, real_stacked, proofs, blocks = dataset._proof, dataset._Text.stacked, [], []

        def proof(body, width, *scratch):
            proofs.append((width, len(body)))
            return real_proof(body, width, *scratch)

        def stacked(self, traces):
            if len(traces[0][0]) == 41:
                blocks.append(sum(size for _, size in traces))
            return real_stacked(self, traces)

        with mock.patch.object(dataset, "_proof", proof), \
                mock.patch.object(dataset._Text, "stacked", stacked), _worded_runs() as calls:
            ds, aux = _assert_subset_loads_as_full(campaign, 64_000, {"c3", "c17", "zz"}, (),
                                                   expect_ok=True)
        assert calls == []
        assert [n for width, n in proofs if width == 41] == blocks and len(blocks) > 1
        assert ds[0] == ("c3", "c17") and aux[0] == () and ds[2] == (150, 2)

    @needs_exact_kernel
    def test_negative_timestamps_take_the_kernel(self):
        # Every trace starts before 0: the kernel takes the minus that
        # starts a line of a subset read's counter and aux bodies too.
        campaign = Campaign(np.random.default_rng(6), [6] * 9)
        for trace in campaign.traces:
            for rows in trace.values():
                for row in rows[1:]:
                    row[0] = repr(float(row[0]) - 5000.0)
        with _worded_runs() as calls:
            _assert_subset_loads_as_full(campaign, 2_100, {"c0"}, (), expect_ok=True)
        assert calls == []

    @needs_exact_kernel
    def test_blocks_join_at_most_block_bytes(self):
        # The cells a subset read converts are few; its blocks are bounded
        # by the text they join.
        campaign = Campaign(np.random.default_rng(5), [11] * 60, n_counters=40)
        real, joined = dataset._proof, []

        def spy(body, width, *scratch):
            if width == 41:
                joined.append(len(body))
            return real(body, width, *scratch)

        with mock.patch.object(dataset, "_proof", spy):
            _assert_subset_loads_as_full(campaign, 40_000, {"c3"}, (), expect_ok=True)
        assert len(joined) > 2 and max(joined) <= 40_000

    # One block of seven runs reads c0 and the aux cycles. Into run 1 goes a
    # cell in c0, into run 4 one in c1, which is not read: cells the kernel
    # declines (exponents, 20 digits, 28 after the point, a four-digit
    # exponent the proof declines), cells it takes, and faults.
    @pytest.mark.parametrize("read", ["1e5", "12345678901234567890", "1e-0100", "2.5",
                                      "0." + "0" * 27 + "1"])
    @pytest.mark.parametrize("unread", ["1e5", "1.5E3", "12345678901234567890", "1e-0100",
                                        "0." + "0" * 27 + "1", "7", "-1", "1e400", "nan"])
    def test_declined_cells_in_one_block(self, read, unread):
        campaign = Campaign(np.random.default_rng(9), [6] * 7)
        campaign.plant_cell(1, "counter", 3, 1, read)
        campaign.plant_cell(4, "counter", 2, 2, unread)
        with _worded_runs() as calls:
            got = _assert_subset_loads_as_full(campaign, dataset.BLOCK_BYTES, {"c0"}, {"cycles"})
        if isinstance(got, list) and dataset._WIDE_LONG_DOUBLE:
            # A block goes to the worded reader only when the kernel
            # declines a read cell or the proof an unread one.
            declined = read != "2.5" or unread == "1e-0100"
            assert bool(calls) == declined

    @needs_exact_kernel
    def test_every_counter_wanted_reads_in_full(self):
        # A read of every counter is a full read: the kernel converts every
        # table, and it gives what the worded reader gives run by run.
        campaign = Campaign(np.random.default_rng(1), [6] * 9, n_counters=2, power_first=False)
        with _worded_runs() as calls:
            got = _assert_subset_loads_as_full(campaign, 2_100, {"c0", "c1", "zz"}, {"cycles"},
                                               expect_ok=True)
        assert calls == []
        with mock.patch.object(dataset, "_decimal_table", return_value=None):
            declined = _assert_subset_loads_as_full(campaign, 2_100, {"c0", "c1", "zz"},
                                                    {"cycles"}, expect_ok=True)
        assert got == declined


class TestWithoutAWideLongDouble:
    """Where the long double is too narrow for the kernel, it declines
    every block and the worded reader reads every run: a full and a subset
    read give the one-run loader's datasets bit for bit and its first
    error word for word."""

    @settings(max_examples=100, deadline=None)
    @given(case=subset_campaigns())
    def test_campaigns(self, case):
        campaign, block_bytes, wanted, aux_wanted = case
        for read in (lambda: _assert_loads_as_reference(campaign, block_bytes),
                     lambda: _assert_subset_loads_as_full(campaign, block_bytes, wanted,
                                                          aux_wanted)):
            with mock.patch.object(dataset, "_WIDE_LONG_DOUBLE", False), _worded_runs() as runs:
                got = read()
            # In manifest order, up to the run whose fault raised.
            assert runs == list(range(len(runs)))
            if isinstance(got, list):
                assert len(runs) == len(campaign.runs)

    @pytest.mark.parametrize("wanted, aux_wanted", [(None, None), ({"c0"}, {"cycles"})])
    def test_each_trace_file_is_read_once(self, wanted, aux_wanted):
        # The fast read is skipped: no file is read onto a block that the
        # kernel would then decline, only to be read again by add_run.
        campaign = Campaign(np.random.default_rng(5), [6] * 12)
        reads, real = [], errors.read_into

        def spy(path, what, *args):
            reads.append((os.fspath(path), what))
            return real(path, what, *args)

        with tempfile.TemporaryDirectory() as tmp:
            manifest = campaign.write(Path(tmp))
            with mock.patch.object(dataset, "_WIDE_LONG_DOUBLE", False), \
                    mock.patch.object(errors, "read_into", spy), \
                    mock.patch.object(dataset, "read_into", spy):
                got = _loaded(lambda path: load_manifest(path, wanted, aux_wanted), manifest)
            traces = sorted(os.fspath(Path(tmp) / f"r{i}.{where}.csv")
                            for i in range(12) for where in ("counter", "power", "aux"))
        assert isinstance(got, list)
        assert sorted(path for path, what in reads if what != "manifest") == traces


class TestCleanCampaignTakesTheFastRead:
    """A clean campaign is read in blocks alone: no run is read again by
    ``add_run``, and no trace goes through the line parser."""

    @needs_exact_kernel
    @pytest.mark.parametrize("wanted, aux_wanted, aux", [
        (None, None, False),  # a full read
        ({"c1", "c4"}, (), False),  # a subset read
        (None, None, True),  # a full read of aux traces too
        ({"c0"}, {"cycles"}, True),
    ])
    def test_no_run_reaches_the_line_parser(self, wanted, aux_wanted, aux):
        campaign = Campaign(np.random.default_rng(3), [11] * 60, n_counters=6, aux=aux)
        calls = []

        def counted(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
            manifest = campaign.write(Path(tmp))
            for owner, name in ((dataset._Campaign, "add_run"), (dataset, "parse_counter_trace"),
                                (dataset, "parse_power_trace")):
                stack.enter_context(mock.patch.object(owner, name,
                                                      counted(name, getattr(owner, name))))
            ds, aux_ds = load_manifest(manifest, wanted, aux_wanted)
        assert calls == []
        assert len(ds) == 60 and (aux_ds is not None) == aux


def _drop_trailing_rows(campaign: Campaign, rng) -> None:
    """Drop 0 to 2 trailing sample rows from each trace file of
    ``campaign``, each file's count drawn on its own."""
    for trace in campaign.traces:
        for rows in trace.values():
            drop = int(rng.integers(0, 3))
            if drop:
                del rows[-drop:]


def _body_bytes(campaign: Campaign, i: int) -> int:
    """The bytes of run ``i``'s trace bodies: its files without their headers."""
    return sum(len("".join(",".join(row) + "\n" for row in rows[1:]).encode())
               for where, rows in campaign.traces[i].items()
               if where != "aux" or "aux_counter_file" in campaign.runs[i])


def _blocks_of_synth_campaign(directory: Path, drop_rng=None) -> int:
    """Load a 200-run synth campaign written to ``directory``, 0 to 2
    trailing dumps dropped from each trace file by ``drop_rng`` when given,
    in blocks of at most 20,000 bytes of text: bit for bit as the reference
    loads it, and no run read alone. Returns the number of blocks."""
    ds, truth = generate(three_factor_config(n_runs=200, seed=3))
    manifest = write_dataset_files(ds, directory, truth)
    for run in json.loads(manifest.read_text())["runs"] if drop_rng else ():
        for key in ("counter_file", "power_file"):
            path, drop = directory / run[key], int(drop_rng.integers(0, 3))
            if drop:
                path.write_text("".join(path.read_text().splitlines(keepends=True)[:-drop]))
    blocks, real = [], dataset._Campaign.add_block

    def add_block(self, block):
        blocks.append(len(block))
        return real(self, block)

    with mock.patch.object(dataset._Campaign, "add_block", add_block), \
            mock.patch.object(dataset, "BLOCK_BYTES", 20_000), _worded_runs() as calls:
        got = _loaded(load_manifest, manifest)
    assert got == _loaded(load_manifest_reference, manifest) and isinstance(got, list)
    assert calls == [] and sum(blocks) == 200
    return len(blocks)


class TestBlocksOfAnyLength:
    """Consecutive runs that share their headers join one block whatever
    the lengths of their traces: a campaign whose counter, power and aux
    traces vary in length, each on its own, loads bit for bit as the
    one-run loader reads it, in blocks filled up to BLOCK_BYTES of text,
    and no run is read alone."""

    @needs_exact_kernel
    @pytest.mark.parametrize("aux", [False, True])
    @pytest.mark.parametrize("wanted, aux_wanted", [(None, None), ({"c1", "c4", "zz"}, {"cycles"})])
    def test_traces_of_independent_lengths(self, aux, wanted, aux_wanted):
        rng = np.random.default_rng(11 + aux)
        campaign = Campaign(rng, rng.integers(6, 14, 60).tolist(), n_counters=6, aux=aux)
        _drop_trailing_rows(campaign, rng)
        block_bytes = 7_000
        tables, real = [], dataset._decimal_table

        def decimal_table(body, width, columns=None, scratch=None):
            tables.append(id(scratch))  # one scratch a kind of trace
            return real(body, width, columns, scratch)

        with mock.patch.object(dataset, "_decimal_table", decimal_table), \
                _worded_runs() as calls:
            if wanted is None:
                _assert_loads_as_reference(campaign, block_bytes, expect_ok=True)
            else:
                _assert_subset_loads_as_full(campaign, block_bytes, wanted, aux_wanted,
                                             expect_ok=True)
        assert calls == []
        # Each block but the last holds more than BLOCK_BYTES less the
        # largest run of text, so a kind of trace converts at most this
        # many blocks: one a BLOCK_BYTES of text, and the last.
        runs = [_body_bytes(campaign, i) for i in range(len(campaign.runs))]
        most = 1 + sum(runs) // (block_bytes - max(runs))
        kinds = {scratch: tables.count(scratch) for scratch in tables}
        assert len(kinds) == 2 + aux and max(kinds.values()) <= most

    @needs_exact_kernel
    def test_trailing_dumps_dropped(self, tmp_path):
        # A synth campaign whose traces lose 0 to 2 trailing dumps each
        # takes no more blocks than the campaign as written.
        uniform = _blocks_of_synth_campaign(tmp_path / "uniform")
        ragged = _blocks_of_synth_campaign(tmp_path / "ragged", np.random.default_rng(3))
        assert 1 < ragged <= uniform

    @pytest.mark.parametrize("lengths", [[4, 4], [4, 7], [7, 4, 7, 4], [4, 9, 5, 9, 4, 5]])
    def test_rows_in_block_order(self, lengths):
        # Runs of alternating lengths aggregate by length, and their rows
        # come back in manifest order.
        campaign = Campaign(np.random.default_rng(len(lengths)), lengths, aux=False)
        with _worded_runs() as calls:
            _assert_loads_as_reference(campaign, dataset.BLOCK_BYTES, expect_ok=True)
        assert calls == [] or not dataset._WIDE_LONG_DOUBLE


class TestReusedBuffers:
    """A load reuses its text and kernel arrays from block to block; the
    datasets it returns own their memory."""

    @needs_exact_kernel
    @pytest.mark.parametrize("wanted", [None, {"c1"}])
    def test_datasets_do_not_alias_the_buffers(self, wanted):
        # About 750 bytes of text a run: blocks of two runs.
        campaign = Campaign(np.random.default_rng(8), [6] * 30, n_counters=3)
        buffers = []
        real_scratch, real_stacked = dataset._Scratch.__call__, dataset._Text.stacked

        def scratch(self, name, size, dtype):
            array = real_scratch(self, name, size, dtype)
            buffers.append(array)
            return array

        def stacked(self, traces):
            buffers.extend(np.frombuffer(text, dtype=np.uint8) for text in (self.head, self.block))
            return real_stacked(self, traces)

        with tempfile.TemporaryDirectory() as tmp:
            manifest = campaign.write(Path(tmp))
            with mock.patch.object(dataset, "BLOCK_BYTES", 1_600), \
                    mock.patch.object(dataset._Scratch, "__call__", scratch), \
                    mock.patch.object(dataset._Text, "stacked", stacked):
                first = load_manifest(manifest, wanted, wanted and ())
                bits = [ds.rates.tobytes() for ds in first if ds is not None]
                second = load_manifest(manifest, wanted, wanted and ())
        assert len(buffers) > 20
        assert bits == [ds.rates.tobytes() for ds in second if ds is not None]
        assert bits == [ds.rates.tobytes() for ds in first if ds is not None]
        for ds in filter(None, first):
            for array in (ds.rates, ds.total_current, ds.target_current):
                assert not any(np.shares_memory(array, buffer) for buffer in buffers)


def _dense_campaign(directory: Path, runs: int, rows: int = 200, counters: int = 40) -> Path:
    """A campaign whose counter cells are one digit each, the most cells a
    byte of text can hold: about 16 KB of text a run."""
    rng = np.random.default_rng(runs)
    header = "ts_ms," + ",".join(f"c{j}" for j in range(counters)) + "\n"
    power = "ts_ms,current_ma\n" + "".join(f"{1000 * k},{k % 9 + 1}\n" for k in range(rows))
    entries = []
    for i in range(runs):
        cells = rng.integers(0, 10, (rows, counters)).tolist()
        (directory / f"r{i}.c.csv").write_text(header + "".join(
            f"{1000 * k}," + ",".join(map(str, row)) + "\n" for k, row in enumerate(cells)))
        (directory / f"r{i}.p.csv").write_text(power)
        entries.append({"benchmark": f"b{i}", "workload_type": "Compute", "frequency_hz": 1e8,
                        "counter_file": f"r{i}.c.csv", "power_file": f"r{i}.p.csv"})
    (directory / "manifest.json").write_text(json.dumps({"runs": entries}))
    return directory / "manifest.json"


@pytest.fixture(scope="module")
def dense_campaigns(tmp_path_factory):
    """The manifests of dense campaigns of 50 and of 500 runs."""
    manifests = {}
    for runs in (50, 500):
        directory = tmp_path_factory.mktemp(f"dense{runs}")
        manifests[runs] = _dense_campaign(directory, runs)
    return manifests


class TestIngestMemory:
    """Ingest holds a bounded working set: its blocks reuse their text and
    the kernel's arrays, so its peak does not grow with the campaign."""

    @needs_exact_kernel
    @pytest.mark.parametrize("wanted, bound", [
        (None, 65),  # a full read
        ({f"c{j}" for j in range(39)}, 95),  # all counters but one: the most cells gathered
        ({"c3"}, 65),
    ])
    def test_peak_does_not_grow_with_the_runs(self, dense_campaigns, wanted, bound):
        peaks = {}
        for runs, manifest in dense_campaigns.items():
            tracemalloc.start()
            try:
                ds, _ = load_manifest(manifest, wanted)
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(ds) == runs
            # The worst cases the comment above BLOCK_BYTES states.
            assert peaks[runs] <= bound * dataset.BLOCK_BYTES
        # 50 runs already fill several blocks; 450 more add their manifest
        # entries, metadata and rates, about 1 KB a run, and no block memory.
        assert peaks[500] <= peaks[50] + 450 * 2048

    @needs_exact_kernel
    @pytest.mark.parametrize("wanted", [None, {"c3"}])
    def test_kernel_arrays_come_from_the_scratch(self, dense_campaigns, wanted):
        # Once a kind of trace has converted a block, a later block no
        # larger allocates none of the kernel's arrays afresh: what the
        # kernel allocates is a chunk's np.flatnonzero, bytes.translate or
        # np.fromstring result, never an array of the block's text or cells.
        manifest = dense_campaigns[500]
        names, calls, real_call, real_table = set(), [], dataset._Scratch.__call__, \
            dataset._decimal_table

        def scratch(self, name, size, dtype):
            names.add(name)
            return real_call(self, name, size, dtype)

        def decimal_table(body, width, columns=None, scratch=None):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = real_table(body, width, columns, scratch)
            calls.append((width, len(body), tracemalloc.get_traced_memory()[1] - before))
            return table

        tracemalloc.start()
        try:
            with mock.patch.object(dataset._Scratch, "__call__", scratch), \
                    mock.patch.object(dataset, "_decimal_table", decimal_table):
                load_manifest(manifest, wanted)
        finally:
            tracemalloc.stop()
        counter_blocks = [call for call in calls if call[0] == 41]
        assert len(counter_blocks) > 3
        first_width, first_text, first_rise = counter_blocks[0]
        assert first_rise > 20 * first_text  # the scratch arrays, made once
        for _, text, rise in counter_blocks[1:]:
            assert text <= first_text and rise <= 8 * dataset._CHUNK + 65536
        assert {"apart", "marks", "kinds", "at", "stops", "fraction", "whole", "quotient",
                "table"} <= names


@st.composite
def line_end_traces(draw):
    """A counter trace whose header names hold non-ASCII letters, of
    non-negative cells and increasing timestamps, each line ended by a
    newline, a carriage return and newline, or a bare carriage return."""
    names = draw(st.lists(st.text("a\u00e9\u00fc\u03bc\u4e2d", min_size=1, max_size=3), min_size=1,
                          max_size=3, unique=True))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1e9), min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=5))
    lines = [",".join(["ts_ms", *names])] + [
        ",".join(map(repr, [1000.0 * k, *row])) for k, row in enumerate(rows)]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestLineEnds:
    @settings(max_examples=200, deadline=None)
    @given(text=line_end_traces())
    def test_parse_counter_trace_matches_the_line_parser(self, text):
        try:
            header, _, table = dataset._parse_rows(text, "ts_ms")
        except ParseError as exc:
            with pytest.raises(ParseError, match=re.escape(str(exc))):
                parse_counter_trace(text)
            return
        trace = parse_counter_trace(text)
        assert trace.counter_names == tuple(header[1:])
        assert trace.timestamps_ms.tobytes() == table[:, 0].tobytes()
        assert trace.counts.tobytes() == table[:, 1:].tobytes()


@st.composite
def cell_tables(draw):
    """A table width and a body of rows of numbers written as repr, in which
    up to three cells are swapped for strings over the float grammar's
    bytes or planted faults, or a row loses or gains a cell."""
    width = draw(st.integers(1, 4))
    # repr writes three exponent digits, declined after a plus, from 1e100.
    proved = st.floats(0.0, 1e99)
    number = st.one_of(proved, proved, proved, st.floats(0.0, 1e300)).map(repr)
    rows = draw(st.lists(st.lists(number, min_size=width, max_size=width), min_size=1, max_size=4))
    odd = st.text(alphabet="0123456789.eE+-", max_size=6) | st.sampled_from(
        UNREAD_CELL_FAULTS + UNREAD_ODD_CELLS)
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["cell", "cell", "cell", "drop", "add"]))
        if change == "drop" and len(row) > 1:
            row.pop()
        elif change == "add":
            row.append(draw(number))
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(odd)
    body = "".join(",".join(row) + "\n" for row in rows)
    return width, body if draw(st.booleans()) else body[:-1]


def _proved(body: str, width: int) -> bool:
    return dataset._proof(body.encode(), width) is not None


class TestCellProof:
    """What ``_proof`` accepts, ``float()`` takes: every line holds the
    width's cells, and every cell is a finite number, not negative unless
    it is the line's first; numpy's reader, checked too, reads each to the
    same bit."""

    @settings(max_examples=500, deadline=None)
    @given(case=cell_tables())
    def test_proved_cells_read_alike(self, case):
        width, body = case
        if not _proved(body, width):
            return
        rows = [line.split(",") for line in body.split("\n") if line]
        table = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2)
        assert table.shape == (len(rows), width)
        by_float = np.array([[float(cell) for cell in row] for row in rows])
        assert by_float.tobytes() == table.tobytes()
        assert np.isfinite(table).all() and not (table[:, 1:] < 0).any()

    # repr writes an exponent of "+" and three digits from 1e100, which is
    # declined; below 1e-99 it writes "-" and three digits, down to 5e-324.
    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 5),
           values=st.lists(st.floats(0.0, 1e99) | st.sampled_from([5e-324, 1e-100, 2.5e-308]),
                           min_size=1, max_size=40))
    def test_written_floats_are_proved(self, width, values):
        rows = [values[k:k + width] for k in range(0, len(values) - width + 1, width)]
        rows = rows or [[0.0] * width]
        body = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        assert _proved(body, width)

    @pytest.mark.parametrize("body", ["1,2,3\n4,5\n", "1,2,3\n4,5,6,7\n", "1,2,3\n4,5,x\n",
                                      "1,2,3\n\n4,5,6\n", "1,2,3\r\n4,5,6\r\n",
                                      "1,2,3\n4,5,6,\n", ",2,3\n", "1,2,1e123\n",
                                      "1,2,1e+123\n", "1,2," + "1" * 70 + "\n",
                                      "1,2,1e5-3\n", "1,2,1e-1234\n", "1,2,1e-0100\n",
                                      "1,-2,3\n", "1-2,2,3\n", "-,2,3\n", "--1,2,3\n",
                                      "-.5,2,3\n", "1,2,3\n-\n", "+1,2,3\n"])
    def test_declined(self, body):
        assert not _proved(body, 3)

    @pytest.mark.parametrize("body", ["-1,2,3\n", "1,2,3\n-0.5,2,3", "-0,2,3\n-12345.5e-7,2,3\n",
                                      "-1e-300,2,3\n"])
    def test_signed_first_cell(self, body):
        assert _proved(body, 3)


def _decimal_table(rows):
    """The kernel's table of ``rows`` (lists of cell texts), or None."""
    return dataset._decimal_table("".join(",".join(row) + "\n" for row in rows).encode(),
                                  len(rows[0]))


def _assert_read_as_float(cells, width=1):
    """The kernel takes ``cells`` in rows of ``width`` and reads each as
    ``float()`` does, bit for bit."""
    cells = cells + ["0"] * (-len(cells) % width)
    rows = [cells[k:k + width] for k in range(0, len(cells), width)]
    table = _decimal_table(rows)
    assert table is not None
    assert table.tobytes() == np.array([[float(cell) for cell in row] for row in rows]).tobytes()


@st.composite
def digit_strings(draw):
    """A cell of up to 19 significant digits, leading zeros aside, with 0
    to 27 of its digits after the point (a bare point now and then)."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    after = draw(st.integers(0, 27))
    if after == 0:
        return digits + draw(st.sampled_from(["", "."]))
    digits = digits.rjust(after + draw(st.integers(1, 3)), "0")
    return f"{digits[:-after]}.{digits[-after:]}"


def _near_midpoints(values):
    """For each of ``values``, the exact midpoints between it and the doubles
    next to it, each written to 19 significant digits, with its two
    neighbours there."""
    cells = []
    for value in values:
        for other in (np.nextafter(value, 0), np.nextafter(value, np.inf)):
            midpoint = (Fraction(value) + Fraction(other)) / 2
            with decimal.localcontext(prec=19):
                near = Decimal(midpoint.numerator) / Decimal(midpoint.denominator)
                cells += [format(x, "f") for x in (near.next_minus(), near, near.next_plus())]
    return cells


@needs_exact_kernel
class TestDecimalTable:
    """The exact kernel reads every cell it takes as ``float()`` does, and
    takes only proved bodies free of exponents, with cells of at most 19
    significant digits and 27 after the point."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 4),
           values=st.lists(st.just(0.0) | st.floats(1e-4, 1e16, exclude_max=True),
                           min_size=1, max_size=60))
    def test_written_floats(self, width, values):
        _assert_read_as_float([repr(v) for v in values], width)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(0, 10**19 - 1), min_size=1, max_size=40))
    def test_counts(self, values):
        _assert_read_as_float([str(v) for v in values], 2 if len(values) > 1 else 1)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(digit_strings(), min_size=1, max_size=40))
    def test_digit_strings(self, cells):
        _assert_read_as_float(cells)

    def test_midpoints_reach_float(self):
        # The powers of two add midpoints at a binade's edge: the one just
        # below 2**e lies a quarter of the spacing above 2**e under it.
        values = (10.0 ** np.random.default_rng(7).uniform(-4, 16, 300)).tolist()
        cells = _near_midpoints(values + [2.0 ** e for e in range(-13, 53)])
        _assert_read_as_float(cells, 3)
        # The long double quotient, rounded again to a double, is wrong for
        # some of them: the kernel read those by float().
        whole = np.array([int(cell.replace(".", "")) for cell in cells], dtype=np.uint64)
        after = [len(cell.partition(".")[2]) for cell in cells]
        twice = (whole.astype(np.longdouble) / dataset._TENS[after]).astype(float)
        assert (twice != np.array([float(cell) for cell in cells])).any()

    # Exact midpoints between two doubles; quotients a quarter of the
    # spacing of the doubles below a double that is no power of two, which
    # the kernel once sent to float() as midpoints; and cells off a
    # midpoint whose long double quotients round onto one, so the quotient
    # rounded again to a double is wrong.
    @pytest.mark.parametrize("cell, midpoint", [
        ("9007199254740993", True), ("9007199254740995", True), ("9007199254740991.5", True),
        ("4611686018427388672", False), ("1152921504606847168", False),
        ("9007199254740993.5", False), ("4503599627370496.75", False),
        ("8.000000000000004441", False), ("65536.00000000005093", False),
    ])
    def test_midpoints(self, cell, midpoint):
        value, nearest = Fraction(cell), Fraction(float(cell))
        neighbours = [Fraction(float(np.nextafter(float(cell), to))) for to in (0.0, np.inf)]
        assert any(value == (nearest + other) / 2 for other in neighbours) == midpoint
        _assert_read_as_float([cell, "-" + cell], 1)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 10**19 - 1), st.integers(0, 27)), min_size=1,
                          max_size=40))
    def test_quotients(self, cells):
        # D / 10**k for any D below 10**19 and k up to 27.
        texts = []
        for whole, after in cells:
            digits = str(whole).rjust(after + 1, "0")
            texts.append(f"{digits[:-after]}.{digits[-after:]}" if after else digits)
        _assert_read_as_float(texts, 1)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(st.tuples(st.booleans(), digit_strings()), min_size=1, max_size=40))
    def test_signed_first_cells(self, cells):
        # One cell a line: each may carry a minus, and "-0" stays -0.0.
        _assert_read_as_float(["-" * signed + cell for signed, cell in cells])

    def test_signed_midpoints_reach_float(self):
        values = (10.0 ** np.random.default_rng(8).uniform(-4, 16, 100)).tolist()
        _assert_read_as_float(["-" + cell for cell in _near_midpoints(values)])

    @pytest.mark.parametrize("cell", ["1.", "0", "9999999999999999999", "0.000", "1.5",
                                      "0." + "0" * 26 + "1", "0" * 40 + "7"])
    def test_edge_cells(self, cell):
        _assert_read_as_float([cell, "1"], 2)

    @pytest.mark.parametrize("cell", ["12345678901234567890", "18446744073709551616",
                                      "0." + "0" * 27 + "1", "1e5", "1.5E3", "2e-05", "-1", ".5",
                                      "1,"])
    def test_declined(self, cell):
        assert _decimal_table([["1", cell]]) is None

    def test_declined_without_a_wide_long_double(self):
        with mock.patch.object(dataset, "_WIDE_LONG_DOUBLE", False):
            assert _decimal_table([["1", "2.5"]]) is None

    def test_loads_alike_without_the_kernel(self):
        campaign = Campaign(np.random.default_rng(3), [6] * 20, n_counters=3)
        got = _assert_loads_as_reference(campaign, 200, expect_ok=True)
        with mock.patch.object(dataset, "_WIDE_LONG_DOUBLE", False):
            assert _assert_loads_as_reference(campaign, 200) == got

    @pytest.mark.parametrize("power_first", [False, True])
    def test_clean_full_read_reads_no_run_alone(self, power_first):
        # A power trace may start at a negative time: the kernel takes the
        # minus that starts a line.
        campaign = Campaign(np.random.default_rng(4), [11] * 40, n_counters=20,
                            power_first=power_first)
        with _worded_runs() as calls:
            _assert_loads_as_reference(campaign, 2_000, expect_ok=True)
        assert calls == []


class TestRunMeta:
    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Gaming", 1.0)

    def test_utilization_bounds(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Other", 1.0, utilization=1.5)

import csv
import json
import math
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmcpower import dataset
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
    matmul runs the per-run gemv and vecdot the per-run ddot, whatever the
    run's place in the block."""

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
                stacked = np.matmul(frac[:, None, :], counts[:, 1:, :])[:, 0]
                dotted = np.vecdot(current, dur)
                for b in range(runs):
                    # A run alone holds its own copies, as the one-run path does.
                    own = counts[b].copy()
                    assert stacked[b].tobytes() == (frac[b].copy() @ own[1:]).tobytes()
                    assert dotted[b] == np.dot(current[b].copy(), dur[b].copy())

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
         ({"counter_file": 5}, "manifest run 1: field 'counter_file' must be a string"),
         ({"workload_type": "Gaming"}, "manifest run 1 ('bench-1'): unknown workload type")],
    )
    def test_bad_run_entry_names_run(self, tmp_path, entry, problem):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        runs[1] = entry if isinstance(entry, list) else dict(runs[1], **entry)
        with pytest.raises(ParseError, match="^" + re.escape(problem)):
            self.load(tmp_path, runs)

    def test_aggregation_error_names_run(self, tmp_path):
        runs = [self.write_run(tmp_path, i) for i in range(2)]
        (tmp_path / runs[1]["power_file"]).write_text("ts_ms,current_ma\n9000,1\n9500,1\n")
        with pytest.raises(AggregationError, match=r"^manifest run 1 \('bench-1'\): no temporal"):
            self.load(tmp_path, runs)

    def write_aux(self, tmp_path, i, header="cpu_cycles"):
        aux = tmp_path / f"run{i}.aux.csv"
        aux.write_text(f"ts_ms,{header}\n0,0\n" + "".join(f"{t * 1000},40\n" for t in range(1, 6)))
        return aux.name

    def test_aux_columns_must_match_first_run(self, tmp_path):
        runs = [dict(self.write_run(tmp_path, i), aux_counter_file=self.write_aux(tmp_path, i))
                for i in range(2)]
        runs[1]["aux_counter_file"] = self.write_aux(tmp_path, 1, header="gpu_cycles")
        problem = "manifest run 1 ('bench-1'): aux counter columns differ from the first run"
        with pytest.raises(ParseError, match=re.escape(problem)):
            self.load(tmp_path, runs)

    @pytest.mark.parametrize("listed_by, problem", [(0, "lists no"), (1, "lists an")])
    def test_aux_file_listed_by_all_runs_or_none(self, tmp_path, listed_by, problem):
        runs = [self.write_run(tmp_path, i) for i in range(3)]
        runs[listed_by]["aux_counter_file"] = self.write_aux(tmp_path, listed_by)
        problem = f"manifest run 1 ('bench-1'): {problem} aux_counter_file, unlike the first run"
        with pytest.raises(ParseError, match=re.escape(problem)):
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


COUNTER_FAULTS = ("negative", "step_back", "nan", "overflow", "ragged", "renamed",
                  "reserved", "quoted", "not_utf8", "missing", "one_row")
POWER_FAULTS = ("negative", "step_back", "voltage", "late", "short", "header", "quoted",
                "missing")
ENTRY_FAULTS = ("workload", "no_power_file", "aux_listing")


class Campaign:
    """A campaign as manifest runs and one table of text cells per trace
    file, into which faults are planted before it is written out."""

    def __init__(self, rng, sample_counts, n_counters=2, voltage=True, aux=True):
        def value(low, high):
            return repr(round(float(rng.uniform(low, high)), int(rng.integers(0, 9))))

        names = [f"c{j}" for j in range(n_counters)]
        self.voltage = voltage
        self.traces, self.runs, self.broken = [], [], set()
        for i, n in enumerate(sample_counts):
            ts = (np.cumsum(rng.uniform(400.0, 1500.0, n)) - 400.0).tolist()
            p_ts = np.linspace(-rng.uniform(0, 300), ts[-1] + rng.uniform(0, 300), n + 2)
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
        else:
            self.broken.add((i, where, fault))

    def write(self, directory: Path) -> Path:
        for i, (trace, run) in enumerate(zip(self.traces, self.runs)):
            for where, rows in trace.items():
                if (i, where, "missing") in self.broken:
                    continue
                data = "".join(",".join(row) + "\n" for row in rows).encode()
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
    trace, an aux trace or an entry of a run; and a block size in cells."""
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
    return campaign, draw(st.sampled_from([1, 30, 60, 100, dataset.BLOCK_CELLS]))


def _loaded(load, manifest):
    """The bits of both loaded datasets, or the type and words of the error."""
    try:
        datasets = load(manifest)
    except (PmcPowerError, OSError) as exc:
        return type(exc), str(exc)
    return [None if ds is None else (ds.counter_names, ds.meta, ds.rates.shape, ds.rates.tobytes(),
                                     ds.total_current.tobytes(), ds.target_current.tobytes())
            for ds in datasets]


def _assert_loads_as_reference(campaign: Campaign, cells: int, expect_ok=False):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = campaign.write(Path(tmp))
        with mock.patch.object(dataset, "BLOCK_CELLS", cells):
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

    # Seven runs of 6 samples x 3 columns plus a 6 x 2 aux table: 30 cells,
    # so blocks of 100 cells hold runs 0-2, 3-5 and 6.
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
        _assert_loads_as_reference(campaign, 100)

    @pytest.mark.parametrize("cells", [1, 100, 10_000])
    def test_mixed_sample_counts(self, cells):
        rng = np.random.default_rng(cells)
        campaign = Campaign(rng, rng.choice([3, 6, 11], 23).tolist(), voltage=False)
        _assert_loads_as_reference(campaign, cells, expect_ok=True)

    def test_wide_blocks(self):
        # 150 runs of 11 x 41 cells: blocks of 5,000 cells hold 11 runs.
        campaign = Campaign(np.random.default_rng(0), [11] * 150, n_counters=40, aux=False)
        _assert_loads_as_reference(campaign, 5_000, expect_ok=True)


class TestRunMeta:
    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Gaming", 1.0)

    def test_utilization_bounds(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Other", 1.0, utilization=1.5)

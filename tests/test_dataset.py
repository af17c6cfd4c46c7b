import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmcpower.dataset import (
    ClampWarning,
    CounterTrace,
    Dataset,
    PowerTrace,
    RunMeta,
    aggregate_run,
    isolate_dataset,
    load_manifest,
    parse_counter_trace,
    parse_power_trace,
    split_dataset,
)
from pmcpower.errors import AggregationError, ConfigError, IsolationError, ParseError
from pmcpower.features import base
from pmcpower.model import PowerModel, predict_dataset

from conftest import make_dataset
from oracles import parse_counter_trace_reference, parse_power_trace_reference

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

    def test_constructed_trace_rejects_non_finite(self):
        with pytest.raises(ParseError, match="non-finite"):
            PowerTrace(np.array([0.0, 1000.0]), np.array([1.0, np.inf]))
        with pytest.raises(ParseError, match="non-finite"):
            CounterTrace(("c1",), np.array([0.0, 1000.0]), np.array([[0.0], [np.nan]]))


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


class TestRunMeta:
    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Gaming", 1.0)

    def test_utilization_bounds(self):
        with pytest.raises(ConfigError):
            RunMeta("b", "Other", 1.0, utilization=1.5)

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmcpower import cli
from pmcpower.cli import TRAIN_FRACTION_DEFAULT, compute_energy_mws, main
from pmcpower.dataset import Dataset, split_dataset
from pmcpower.errors import ConfigError
from pmcpower.synth import generate, three_factor_config, write_dataset_files

from conftest import make_dataset


@pytest.fixture
def synth_manifest(tmp_path):
    ds, truth = generate(three_factor_config(n_runs=60, seed=1))
    return write_dataset_files(ds, tmp_path / "data", truth)


def run_config(tmp_path, manifest, **overrides):
    config = {
        "manifest": str(manifest),
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestEnergy:
    def test_unit_identity(self):
        assert compute_energy_mws(1000.0, 1.0, 1000.0) == pytest.approx(1000.0)

    def test_sample_inference_row(self):
        # 242.39 mA at 3.86 V for 14.81 ms
        assert compute_energy_mws(242.39, 3.86, 14.81) == pytest.approx(13.86, rel=0.01)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            compute_energy_mws(0.0, 3.86, 14.81)

    def test_cli_output(self, capsys):
        assert main(["energy", "--current", "1000", "--voltage", "1", "--latency", "1000"]) == 0
        assert "1000.0000 mWs" in capsys.readouterr().out

    def test_cli_usage_error_exit_2(self, capsys):
        assert main(["energy", "--current", "-5", "--voltage", "1", "--latency", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path, synth_manifest, capsys):
        config = run_config(tmp_path, synth_manifest)
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in (
            "model.json",
            "eval.json",
            "selection_trace.txt",
            "dendrogram.json",
            "summary.txt",
            "predictions_train.csv",
            "predictions_test.csv",
        ):
            assert (out / name).is_file(), name
        report = json.loads((out / "eval.json").read_text())
        assert report["test"]["r_squared"] >= 0.999

    def test_no_combined_recorded(self, tmp_path, synth_manifest):
        config = run_config(tmp_path, synth_manifest)
        assert main(["train", "--config", str(config), "--no-combined"]) == 0
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["train_meta"]["config"]["combined"] is False
        assert doc["train_meta"]["run_config"]["combined"] is False

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        config = run_config(tmp_path, tmp_path / "absent.json")
        assert main(["train", "--config", str(config)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, synth_manifest):
        config = run_config(tmp_path, synth_manifest)
        tracked = ("model.json", "eval.json", "summary.txt", "selection_trace.txt")
        assert main(["train", "--config", str(config)]) == 0
        first = {n: (tmp_path / "out" / n).read_bytes() for n in tracked}
        assert main(["train", "--config", str(config)]) == 0
        second = {n: (tmp_path / "out" / n).read_bytes() for n in tracked}
        assert first == second

    def test_model_file_independent_of_paths(self, tmp_path, synth_manifest):
        # One campaign in two directories, each trained into its own output.
        models = []
        for place in ("first", "second/nested"):
            data = tmp_path / place / "data"
            shutil.copytree(synth_manifest.parent, data)
            out = tmp_path / place / "out"
            assert main(["train", "--manifest", str(data / synth_manifest.name),
                         "--output-dir", str(out), "--seed", "0"]) == 0
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]
        run_config = json.loads(models[0])["train_meta"]["run_config"]
        assert "manifest" not in run_config and "output_dir" not in run_config

    def test_unknown_config_key_exit_2(self, tmp_path, synth_manifest, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"manifest": str(synth_manifest), "typo_knob": 1}))
        assert main(["train", "--config", str(path)]) == 2

    def test_cluster_scope_is_an_unknown_key(self, tmp_path, synth_manifest, capsys):
        path = run_config(tmp_path, synth_manifest, cluster_scope="union")
        assert main(["train", "--config", str(path)]) == 2
        assert "unknown key 'cluster_scope'" in capsys.readouterr().err

    def test_config_keys_flat_in_model(self, tmp_path, synth_manifest):
        path = run_config(tmp_path, synth_manifest, top_k=7, epsilon=0.02, base_current_ma=1.0)
        assert main(["train", "--config", str(path), "--patience", "4"]) == 0
        meta = json.loads((tmp_path / "out" / "model.json").read_text())["train_meta"]
        assert meta["config"] == {"alpha": 0.05, "combined": True, "cut_factor": 0.05,
                                  "epsilon": 0.02, "patience": 4, "top_k": 7}
        assert meta["run_config"] == {**meta["config"], "aux_model": None, "base_current_ma": 1.0,
                                      "seed": 0, "train_fraction": 2.0 / 3.0}


def run_cli(*args):
    """``pmcpower <args>`` in a fresh interpreter, as a user runs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "pmcpower.cli", *args],
                          env=env, capture_output=True, text=True)


class TestBadInputExit2:
    def assert_usage_error(self, proc, problem):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert problem in proc.stderr

    @pytest.mark.parametrize(
        "change, problem",
        [(lambda run: dict(run, frequency_hz="fast"),
          "manifest run 1: field 'frequency_hz' must be a finite number, got 'fast'"),
         (lambda run: dict(run, utilization=False),
          "manifest run 1: field 'utilization' must be a finite number, got False"),
         (lambda run: [run["counter_file"]], "manifest run 1: expected an object, got list")],
    )
    def test_bad_manifest_value(self, tmp_path, synth_manifest, change, problem):
        doc = json.loads(synth_manifest.read_text())
        doc["runs"][1] = change(doc["runs"][1])
        synth_manifest.write_text(json.dumps(doc))
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"))
        self.assert_usage_error(proc, f"error: {synth_manifest}: {problem}")

    def test_config_value_of_wrong_type(self, tmp_path, synth_manifest):
        path = run_config(tmp_path, synth_manifest, top_k="many")
        proc = run_cli("train", "--config", str(path))
        self.assert_usage_error(proc, "key 'top_k' has a value of the wrong type: 'many'")

    @pytest.mark.parametrize("kind", ["trace", "manifest", "config", "model"])
    def test_file_not_utf8(self, tmp_path, synth_manifest, kind):
        config = run_config(tmp_path, synth_manifest)
        args = ["train", "--config", str(config)]
        if kind == "model":
            assert main(args) == 0
            args = ["eval", "--model", str(tmp_path / "out" / "model.json"),
                    "--manifest", str(synth_manifest), "--output-dir", str(tmp_path / "eval")]
        run = json.loads(synth_manifest.read_text())["runs"][1]
        bad, label = {
            "trace": (synth_manifest.parent / run["counter_file"], ""),
            "manifest": (synth_manifest, "manifest "),
            "config": (config, "config "),
            "model": (tmp_path / "out" / "model.json", "model file "),
        }[kind]
        data = bad.read_bytes()
        bad.write_bytes(data[:10] + b"\xff" + data[10:])
        proc = run_cli(*args)
        self.assert_usage_error(proc, f"{label}{bad}: not UTF-8 text at byte offset 10 "
                                      "(invalid start byte)")

    @pytest.mark.parametrize(
        "flags, problem",
        [(["--alpha", "nan"], "field 'alpha' must be a finite number, got nan"),
         (["--base-current", "inf"], "field 'base_current_ma' must be a finite number, got inf")],
        ids=["alpha", "base-current"],
    )
    def test_non_finite_flag(self, tmp_path, synth_manifest, flags, problem):
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"), *flags)
        self.assert_usage_error(proc, problem)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, problem",
        [("--alpha", "2", "field 'alpha' must be in (0, 1], got 2.0"),
         ("--alpha", "0", "field 'alpha' must be in (0, 1], got 0.0"),
         ("--top-k", "-1", "field 'top_k' must be >= 0, got -1"),
         ("--patience", "0", "field 'patience' must be >= 1, got 0"),
         ("--epsilon", "0", "field 'epsilon' must be > 0, got 0.0"),
         ("--cut-factor", "-1", "field 'cut_factor' must be >= 0, got -1.0"),
         ("--train-fraction", "1", "field 'train_fraction' must be in (0, 1), got 1.0"),
         ("--base-current", "-1", "field 'base_current_ma' must be >= 0, got -1.0")],
    )
    def test_out_of_range_flag(self, tmp_path, capsys, flag, value, problem):
        # The manifest does not exist: the knob is rejected before it is read.
        assert main(["train", "--manifest", str(tmp_path / "missing.json"),
                     "--output-dir", str(tmp_path / "out"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_value(self, tmp_path, synth_manifest):
        path = run_config(tmp_path, synth_manifest, cut_factor=float("nan"))
        assert '"cut_factor": NaN' in path.read_text()
        proc = run_cli("train", "--config", str(path))
        self.assert_usage_error(
            proc, f"config {path}: field 'cut_factor' must be a finite number, got nan"
        )

    def test_eval_non_finite_coefficient(self, tmp_path, synth_manifest):
        assert main(["train", "--config", str(run_config(tmp_path, synth_manifest))]) == 0
        model = tmp_path / "out" / "model.json"
        doc = json.loads(model.read_text())
        doc["coefficients"][0] = float("nan")
        model.write_text(json.dumps(doc))
        proc = run_cli("eval", "--model", str(model), "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "eval"))
        self.assert_usage_error(
            proc, f"coefficient of {doc['features'][0]!r} must be a finite number, got nan"
        )
        assert not (tmp_path / "eval" / "eval.json").exists()

    @pytest.mark.parametrize("key, value", [("combined", 1), ("patience", True),
                                            ("aux_model", 3), ("alpha", "0.1")])
    def test_config_types_checked(self, tmp_path, synth_manifest, capsys, key, value):
        path = run_config(tmp_path, synth_manifest, **{key: value})
        assert main(["train", "--config", str(path)]) == 2
        assert f"key {key!r} has a value of the wrong type" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, features",
        [("eval", None), ("eval", [1]), ("eval", [{"a": 1}]), ("predict", "base:a")],
        ids=["eval-null", "eval-int", "eval-object", "predict-string"],
    )
    def test_model_features_not_a_list_of_strings(self, tmp_path, synth_manifest,
                                                   command, features):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schema_version": 1, "kind": "linear_power_model",
                                     "features": features, "coefficients": [1.0],
                                     "intercept": 0.0}))
        args = ["--output-dir", str(tmp_path / "eval")] if command == "eval" else \
            ["--out", str(tmp_path / "pred.csv")]
        proc = run_cli(command, "--model", str(model), "--manifest", str(synth_manifest), *args)
        self.assert_usage_error(
            proc, f"'features' must be a list of feature spec strings, got {features!r}"
        )

    def test_negative_seed(self, tmp_path, synth_manifest):
        problem = "field 'seed' must be a non-negative integer, got -1"
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"), "--seed", "-1")
        self.assert_usage_error(proc, problem)
        path = run_config(tmp_path, synth_manifest, seed=-1)
        self.assert_usage_error(run_cli("train", "--config", str(path)), f"config {path}: {problem}")
        proc = run_cli("synth", "--out", str(tmp_path / "synth"), "--seed", "-1")
        self.assert_usage_error(proc, "--seed must be a non-negative integer, got -1")
        assert not (tmp_path / "out").exists() and not (tmp_path / "synth").exists()

    def test_manifest_integer_too_large_for_a_float(self, tmp_path, synth_manifest):
        doc = json.loads(synth_manifest.read_text())
        doc["runs"][1]["frequency_hz"] = 10**400
        synth_manifest.write_text(json.dumps(doc))
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"))
        self.assert_usage_error(
            proc, f"error: {synth_manifest}: manifest run 1: field 'frequency_hz' must be a "
                  f"finite number, got {10**400}"
        )

    def test_run_listed_twice(self, tmp_path, synth_manifest):
        # A copy of run 3 could land in the training and the test split.
        assert main(["train", "--manifest", str(synth_manifest), "--output-dir",
                     str(tmp_path / "trained")]) == 0
        doc = json.loads(synth_manifest.read_text())
        doc["runs"].append(dict(doc["runs"][3]))
        synth_manifest.write_text(json.dumps(doc))
        problem = (f"error: {synth_manifest}: manifest run 60: lists counter_file "
                   f"{doc['runs'][3]['counter_file']!r}, as manifest run 3 does\n")
        for command in (["train"], ["eval", "--model", str(tmp_path / "trained" / "model.json")]):
            proc = run_cli(*command, "--manifest", str(synth_manifest),
                           "--output-dir", str(tmp_path / "out"))
            assert (proc.returncode, proc.stderr) == (2, problem)
            assert not (tmp_path / "out").exists()

    def test_config_integer_too_large_for_a_float(self, tmp_path, synth_manifest):
        path = run_config(tmp_path, synth_manifest, base_current_ma=10**400)
        proc = run_cli("train", "--config", str(path))
        self.assert_usage_error(
            proc, f"config {path}: field 'base_current_ma' must be a finite number, got {10**400}"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, problem", [
        ("--runs", "0", "--runs must be a positive integer, got 0"),
        ("--runs", "-3", "--runs must be a positive integer, got -3"),
        ("--noise", "-1", "--noise must be a finite number >= 0, got -1.0"),
        ("--noise", "nan", "--noise must be a finite number >= 0, got nan"),
    ])
    def test_synth_bad_value_writes_nothing(self, tmp_path, capsys, flag, value, problem):
        assert main(["synth", "--out", str(tmp_path / "synth"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "synth").exists()

    def test_train_fraction_that_leaves_no_test_run(self, tmp_path, synth_manifest, capsys):
        assert main(["train", "--manifest", str(synth_manifest), "--output-dir",
                     str(tmp_path / "out"), "--train-fraction", "0.99"]) == 2
        assert capsys.readouterr().err == (
            "error: train_fraction 0.99 splits 60 runs into 60 for training and 0 for test; "
            "each side needs at least one run\n")
        assert not (tmp_path / "out").exists()

    def test_trace_path_is_a_directory(self, tmp_path, synth_manifest):
        doc = json.loads(synth_manifest.read_text())
        doc["runs"][3]["counter_file"] = "runs"
        synth_manifest.write_text(json.dumps(doc))
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"))
        self.assert_usage_error(proc, f"counter trace is a directory: {synth_manifest.parent / 'runs'}")

    @pytest.mark.parametrize("flag, what", [("--manifest", "manifest"), ("--config", "config"),
                                            ("--model", "model file")])
    def test_path_argument_is_a_directory(self, tmp_path, synth_manifest, flag, what):
        folder = tmp_path / "folder"
        folder.mkdir()
        args = {"--manifest": ["train", "--manifest", str(folder)],
                "--config": ["train", "--config", str(folder)],
                "--model": ["eval", "--model", str(folder), "--manifest", str(synth_manifest)]}
        proc = run_cli(*args[flag], "--output-dir", str(tmp_path / "out"))
        self.assert_usage_error(proc, f"{what} is a directory: {folder}")
        assert not (tmp_path / "out").exists()

    def test_synth_noise_with_util_freq(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "synth"), "--profile", "util-freq",
                     "--noise", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: --noise does not apply to profile 'util-freq', "
            "whose currents follow its law exactly\n")
        assert not (tmp_path / "synth").exists()

    def test_synth_non_finite_rate(self, tmp_path, capsys):
        ds, truth = generate(three_factor_config(n_runs=6, seed=1))
        rates = ds.rates.copy()
        rates[3, ds.counter_names.index("alu_total")] = np.nan
        bad = Dataset(ds.counter_names, rates, ds.meta, ds.target_current)
        with mock.patch("pmcpower.synth.generate", return_value=(bad, truth)):
            assert main(["synth", "--out", str(tmp_path / "synth")]) == 2
        assert capsys.readouterr() == (
            "", "error: run 3 (synth-0003): non-finite rate nan in column 'alu_total'\n")
        assert not (tmp_path / "synth").exists()

    @pytest.mark.parametrize("argv, problem", [
        (["train", "--top-k", "x"], "pmcpower train: argument --top-k: invalid int value: 'x'"),
        (["train", "--alpha", "-inf"], "pmcpower train: argument --alpha: expected one argument"),
        (["eval", "--manifest", "m.json"],
         "pmcpower eval: the following arguments are required: --model"),
        (["synth", "--out", "o", "--profile", "flat"],
         "pmcpower synth: argument --profile: invalid choice: 'flat'"),
        (["train", "--no-such-flag"], "pmcpower: unrecognized arguments: --no-such-flag"),
        (["fit"], "pmcpower: argument command: invalid choice: 'fit'"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, problem):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}") and err.count("\n") == 1

    def test_compare_k_checked_at_entry(self, tmp_path, synth_manifest, capsys):
        assert main(["compare", "--manifest", str(synth_manifest), "--output-dir",
                     str(tmp_path / "out"), "--k", "0"]) == 2
        assert capsys.readouterr().err == "error: --k must be a positive integer, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_energy_overflow(self, capsys):
        assert main(["energy", "--current", "1e308", "--voltage", "1e308", "--latency", "1"]) == 2
        assert capsys.readouterr() == ("", "error: current x voltage x latency overflows a float\n")

    @pytest.mark.parametrize("flag, value", [("--current", "nan"), ("--current", "inf"),
                                             ("--voltage", "inf"), ("--latency", "nan")])
    def test_energy_non_finite(self, flag, value):
        values = {"--current": "242.39", "--voltage": "3.86", "--latency": "14.81", flag: value}
        proc = run_cli("energy", *[part for item in values.items() for part in item])
        self.assert_usage_error(proc, "current, voltage, and latency must all be finite and > 0")
        assert proc.stdout == ""


class TestTraceFaultsNameTheFile:
    """A fault planted in one trace file of a campaign exits 2 with one
    ``error:`` line that names the file, and the line of a sample fault."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("kind", ["counter_file", "power_file"])
    @pytest.mark.parametrize("fault", ["non_finite", "ragged", "bad_header", "missing"])
    def test_error_names_the_file(self, tmp_path, small_campaign, command, kind, fault):
        manifest, model = small_campaign
        data = tmp_path / "data"
        shutil.copytree(manifest.parent, data)
        manifest = data / manifest.name
        path = data / json.loads(manifest.read_text())["runs"][7][kind]
        lines = path.read_text().splitlines(keepends=True)
        if fault == "non_finite":
            cells = lines[3].rstrip("\n").split(",")
            cells[1] = "inf"
            lines[3] = ",".join(cells) + "\n"
        elif fault == "ragged":
            lines[2] = lines[2].rstrip("\n") + ",1.5\n"
        elif fault == "bad_header":
            lines[0] = "time" + lines[0][len("ts_ms"):]
        path.write_text("".join(lines))
        if fault == "missing":
            path.unlink()
        argv = [command, "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")]
        if command == "eval":
            argv[1:1] = ["--model", str(model)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        expected = {
            "non_finite": f"{path}: line 4: non-finite value in column ",
            "ragged": f"{path}: line 3: column mismatch ",
            "bad_header": f"{path}: line 1: expected 'ts_ms' as first column",
            "missing": f"{kind.split('_')[0]} trace not found: {path}",
        }[fault]
        assert lines[0].startswith(f"error: {expected}"), lines


class TestModelFaultsNameTheFile:
    """A fault in a model file's contents exits 2 with one ``error:`` line
    that names the file, as a JSON syntax error does."""

    @pytest.mark.parametrize("fault", ["coefficient_removed", "bad_coefficient", "bad_spec"])
    def test_error_names_the_model_file(self, tmp_path, small_campaign, fault):
        manifest, trained = small_campaign
        doc = json.loads(trained.read_text())
        if fault == "coefficient_removed":
            doc["coefficients"].pop()
            problem = "one coefficient per feature required"
        elif fault == "bad_coefficient":
            doc["coefficients"][0] = "x"
            problem = f"coefficient of {doc['features'][0]!r} must be a finite number, got 'x'"
        else:
            doc["features"][0] = "a**b"
            problem = "malformed feature spec 'a**b'"
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--model", str(model), "--manifest", str(manifest),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert err.getvalue() == f"error: model file {model}: {problem}\n"


class TestTooFewRecords:
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_error_names_the_count_and_the_split(self, tmp_path, command, capsys):
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--runs", "8", "--seed", "5"]) == 0
        capsys.readouterr()
        args = ["--output-dir", str(tmp_path / "out")] if command == "train" else []
        assert main([command, "--manifest", str(data / "manifest.json"), *args]) == 2
        err = capsys.readouterr().err
        assert err == ("error: need at least 10 training records, got 6 (train fraction "
                       "0.666667 of 8 records in the campaign)\n")


class TestConstantCounters:
    def test_train_error_names_the_count(self, tmp_path, capsys):
        runs = np.linspace(100.0, 200.0, 18)
        ds = make_dataset({"a": [3.0] * 18, "b": [0.0] * 18, "c": [7.5] * 18}, runs)
        manifest = write_dataset_files(ds, tmp_path / "data")
        assert main(["train", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: no usable counters: all 3 counters are constant over 12 runs\n")


class TestConstantTarget:
    def test_train_names_the_constant_current(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = make_dataset({"a": rng.uniform(1, 2, 60), "b": rng.uniform(1, 2, 60)}, [100.0] * 60)
        manifest = write_dataset_files(ds, tmp_path / "data")
        proc = run_cli("train", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == ("error: degenerate series (zero variance): the target current "
                               "is constant, 100.0 mA in all 40 training runs\n")
        assert not (tmp_path / "out").exists()

    def test_train_rejects_a_target_constant_up_to_rounding(self, tmp_path):
        # 40 runs of 0.1 mA, one of them (a training run) a unit in the last
        # place above: not bit-for-bit constant, but no model can explain it.
        rng = np.random.default_rng(4)
        y = np.full(40, 0.1)
        train, _ = split_dataset(make_dataset({"a": y}, y), TRAIN_FRACTION_DEFAULT, 0)
        y[int(train.meta[0].benchmark_name.removeprefix("run-"))] = 0.1 + 1e-16
        ds = make_dataset({"a": rng.uniform(1, 2, 40), "b": rng.uniform(1, 2, 40)}, y)
        manifest = write_dataset_files(ds, tmp_path / "data")
        proc = run_cli("train", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == ("error: degenerate series (zero variance): the target current "
                               "is constant up to rounding, 0.1 to 0.1000000000000001 mA in all "
                               f"{len(train)} training runs\n")
        assert not (tmp_path / "out").exists()

    def test_eval_names_the_count_of_zero_currents(self, tmp_path, synth_manifest):
        assert main(["train", "--config", str(run_config(tmp_path, synth_manifest))]) == 0
        ds, _ = generate(three_factor_config(n_runs=60, seed=1))
        zero = write_dataset_files(replace(ds, total_current=np.zeros(60), target_current=None),
                                   tmp_path / "zero")
        proc = run_cli("eval", "--model", str(tmp_path / "out" / "model.json"),
                       "--manifest", str(zero), "--output-dir", str(tmp_path / "eval"))
        assert proc.returncode == 1
        assert proc.stderr == "error: all 60 truth values zero: MAPE undefined\n"
        assert not (tmp_path / "eval").exists()


def _relabelled_campaign(tmp_path, rendering):
    """The 60-run three-factor campaign (noise 0.01, seed 1) with the runs
    ``rendering`` (a boolean mask) made Rendering runs of 10 mA."""
    ds, _ = generate(three_factor_config(n_runs=60, noise_sigma=0.01, seed=1))
    meta = tuple(replace(m, workload_type="Rendering") if r else m
                 for m, r in zip(ds.meta, rendering))
    ds = replace(ds, meta=meta, total_current=np.where(rendering, 10.0, ds.total_current),
                 target_current=None)
    return write_dataset_files(ds, tmp_path / "data")


class TestZeroCurrentWorkload:
    def test_type_is_left_out_of_the_workload_reports(self, tmp_path):
        # Under a 20 mA base current the twelve Rendering runs isolate to
        # 0 mA: that type has no MAPE, the others keep their reports.
        manifest = _relabelled_campaign(tmp_path, np.arange(60) % 5 == 0)
        out = tmp_path / "out"
        proc = run_cli("train", "--manifest", str(manifest), "--output-dir", str(out),
                       "--base-current", "20")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: 12 of 60 isolated currents clamped to 0 mA\n"
        doc = json.loads((out / "eval.json").read_text())
        for side in ("train", "test"):
            assert list(doc[side]["by_workload"]) == ["Other"]
        assert doc["train"]["n_mape_excluded"] + doc["test"]["n_mape_excluded"] == 12

    def test_failed_evaluation_writes_no_output(self, tmp_path):
        # Every test run isolates to 0 mA: the test report raises before
        # the model or any other file is written.
        train, _ = split_dataset(make_dataset({"a": np.arange(60.0)}, np.ones(60)),
                                 TRAIN_FRACTION_DEFAULT, 0)
        trained = {m.benchmark_name for m in train.meta}
        manifest = _relabelled_campaign(
            tmp_path, np.array([f"run-{i:03d}" not in trained for i in range(60)]))
        out = tmp_path / "out"
        proc = run_cli("train", "--manifest", str(manifest), "--output-dir", str(out),
                       "--base-current", "20")
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[1:] == ["error: all 20 truth values zero: MAPE undefined"]
        assert not out.exists()


class TestWarnings:
    def test_base_current_above_every_run(self, tmp_path, synth_manifest):
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"), "--base-current", "1e9")
        assert proc.returncode == 1
        assert proc.stderr == (
            "warning: 60 of 60 isolated currents clamped to 0 mA\n"
            "error: every isolated current is 0 mA: the base current of 1000000000.0 mA "
            "is at least every run's measured current\n")


class TestPredictAndEval:
    def test_predict_then_eval(self, tmp_path, synth_manifest):
        config = run_config(tmp_path, synth_manifest)
        assert main(["train", "--config", str(config)]) == 0
        model = tmp_path / "out" / "model.json"

        pred_file = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model),
                     "--manifest", str(synth_manifest), "--out", str(pred_file)]) == 0
        lines = pred_file.read_text().splitlines()
        assert lines[0].startswith("benchmark,")
        assert len(lines) == 61  # header + 60 runs

        eval_dir = tmp_path / "eval_out"
        assert main(["eval", "--model", str(model), "--manifest", str(synth_manifest),
                     "--output-dir", str(eval_dir)]) == 0
        doc = json.loads((eval_dir / "eval.json").read_text())
        assert doc["eval"]["r_squared"] >= 0.999

    def test_eval_and_predict_read_the_models_counters(self, tmp_path, synth_manifest):
        # Each run's counter trace doubles as its aux trace. The outputs
        # must equal those of a full read, and the read must ask for the
        # model's counters, and for the aux model's in the aux traces.
        doc = json.loads(synth_manifest.read_text())
        for run in doc["runs"]:
            run["aux_counter_file"] = run["counter_file"]
        synth_manifest.write_text(json.dumps(doc))
        assert main(["train", "--config", str(run_config(tmp_path, synth_manifest))]) == 0
        model = tmp_path / "out" / "model.json"
        counters = sorted(json.loads(model.read_text())["train_meta"]["counters_used"])
        aux_model = tmp_path / "aux.json"
        aux_model.write_text(json.dumps({
            "schema_version": 1, "kind": "linear_power_model",
            "features": [f"base:{counters[0]}"], "coefficients": [1e-6], "intercept": 1.0}))
        jobs = {"eval": ["eval", "--model", str(model), "--manifest", str(synth_manifest),
                         "--aux-model", str(aux_model), "--output-dir"],
                "predict": ["predict", "--model", str(model), "--manifest", str(synth_manifest),
                            "--out"]}
        real = cli.load_manifest
        for name, args in jobs.items():
            asked = []

            def subset(path, wanted=None, aux_wanted=None):
                asked.append((sorted(wanted), sorted(aux_wanted)))
                return real(path, wanted, aux_wanted)

            outputs = []
            for load in (subset, lambda path, *_: real(path)):
                out = tmp_path / f"{name}-{len(outputs)}"
                with mock.patch.object(cli, "load_manifest", load):
                    assert main(args + [str(out)]) == 0
                outputs.append(out.read_bytes() if out.is_file() else
                               [(out / f).read_bytes() for f in ("eval.json", "predictions.csv")])
            assert outputs[0] == outputs[1]
            assert asked == [(counters, [counters[0]] if name == "eval" else [])]

    def test_eval_does_not_import_synth_or_hashlib(self, tmp_path, synth_manifest):
        # eval reads a model and a campaign: it never generates data or
        # fingerprints a training set.
        assert main(["train", "--config", str(run_config(tmp_path, synth_manifest))]) == 0
        code = (
            "import sys\n"
            "from pmcpower.cli import main\n"
            f"assert main(['eval', '--model', {str(tmp_path / 'out' / 'model.json')!r}, "
            f"'--manifest', {str(synth_manifest)!r}, "
            f"'--output-dir', {str(tmp_path / 'eval')!r}]) == 0\n"
            "print(sorted({'pmcpower.synth', 'hashlib'} & set(sys.modules)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_model_counter_missing_from_the_traces(self, tmp_path, synth_manifest, command,
                                                   capsys):
        # The model's first feature reads a counter the traces hold, its
        # second one they lack.
        present = (synth_manifest.parent / "runs" / "run-0000.counters.csv").read_text()
        present = present.split("\n", 1)[0].split(",")[1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "schema_version": 1, "kind": "linear_power_model",
            "features": [f"base:{present}", f"prod:{present}*zz_absent"],
            "coefficients": [1.0, 2.0], "intercept": 0.0}))
        args = ["--output-dir", str(tmp_path / "eval")] if command == "eval" else \
            ["--out", str(tmp_path / "pred.csv")]
        assert main([command, "--model", str(model), "--manifest", str(synth_manifest),
                     *args]) == 1
        assert capsys.readouterr().err == "error: missing counter zz_absent\n"
        assert not (tmp_path / "eval").exists() and not (tmp_path / "pred.csv").exists()


class TestCompare:
    def test_compare_table(self, tmp_path, capsys):
        from pmcpower.synth import collinear_config

        ds, truth = generate(collinear_config(n_runs=120, seed=2))
        manifest = write_dataset_files(ds, tmp_path / "data", truth)
        config = run_config(tmp_path, manifest, combined=False)
        assert main(["compare", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "out" / "compare.json").read_text())
        models = doc["models"]
        assert "auto" in models and "all-pmc" in models
        ktop_name = next(k for k in models if k.startswith("k-top"))
        assert models["auto"]["mape_mean"] <= models[ktop_name]["mape_mean"]
        out = capsys.readouterr().out
        assert "auto" in out and "all-pmc" in out

    def test_util_freq_skipped_without_utilization(self, tmp_path, synth_manifest, capsys):
        config = run_config(tmp_path, synth_manifest)
        assert main(["compare", "--config", str(config)]) == 0
        assert "skipping util-freq" in capsys.readouterr().err

    def test_util_freq_included_with_utilization(self, tmp_path):
        from pmcpower.synth import generate_instruction_mix

        ds, _ = generate_instruction_mix(n_runs=90, seed=3)
        manifest = write_dataset_files(ds, tmp_path / "data")
        config = run_config(tmp_path, manifest)
        assert main(["compare", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert "util-freq" in doc["models"]
        assert doc["models"]["util-freq"]["mape_mean"] > doc["models"]["auto"]["mape_mean"]


class TestSynthCommand:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--runs", "12", "--seed", "5"]) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "ground_truth.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 12

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--runs", "8", "--seed", "5"])
        main(["synth", "--out", str(b), "--runs", "8", "--seed", "5"])
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for run in range(8):
            name = f"runs/run-{run:04d}.counters.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_round_trip_into_train(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--runs", "60", "--seed", "6"]) == 0
        config = run_config(tmp_path, out / "manifest.json")
        assert main(["train", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert report["test"]["r_squared"] >= 0.999


# One mutation of a campaign, a model file, a config file or a flag: trace
# cells the exact kernel declines (20 digits, 28 after the point, exponents)
# or no reader takes, line ends and bytes, manifest, model and config fields
# of every JSON type, config files that are no JSON object, and flag values
# out of range, not finite, too large for a float or not numbers at all.
ODD_TRACE_CELLS = ("12345678901234567890", "0." + "0" * 27 + "1", "1e5", "2.5E-3", "1e-300",
                   "1e+300", "1e400", "-1", "+1", "-0", ".5", "1.", "1.5.2", "", "nan", "inf",
                   "1_0", " 7", "é", "３")
LINE_FAULTS = ("crlf", "lone_cr", "blank_line", "not_utf8", "bom")
JSON_VALUES = (True, False, None, "1.5", "x", 1.5, 0, -1, 10**400, [], {}, [1.0], float("nan"))
RUN_FIELDS = ("benchmark", "workload_type", "frequency_hz", "utilization", "counter_file",
              "power_file", "aux_counter_file")
MODEL_FIELDS = ("coefficients", "coefficient", "intercept", "features", "schema_version",
                "train_meta", "kind")
CONFIG_FIELDS = tuple(f.name for f in fields(cli.RunConfig)) + ("typo_knob",)
CONFIG_FILES = (b"", b"[]", b"{", b"null", b"1e400", b'{"manifest": "a", "manifest": 1}',
                b"\xff\xfe{}", '{"seed": 1}'.encode("utf-16"))
FLAG_VALUES = ("0", "-1", "1", "0.5", "7", "1e-300", "1e308", "1e400", "nan", "inf", "-inf",
               "-0", "x", "", "1_0", "0x10", " 3", "99999999999999999999")
# --runs sizes a campaign in memory: no large count.
RUNS_VALUES = ("0", "-1", "1", "2", "7", "1e3", "nan", "x", "")
PIPELINE_FLAGS = ("--alpha", "--cut-factor", "--epsilon", "--patience", "--top-k",
                  "--train-fraction", "--seed", "--base-current")
FLAGS = {"train": PIPELINE_FLAGS, "eval": PIPELINE_FLAGS, "compare": PIPELINE_FLAGS + ("--k",),
         "synth": ("--runs", "--noise", "--seed"),
         "energy": ("--current", "--voltage", "--latency")}
KINDS = {"train": ("cell", "line", "manifest", "config", "flag"),
         "eval": ("cell", "line", "manifest", "model", "config", "flag"),
         "predict": ("cell", "line", "manifest", "model"),
         "compare": ("cell", "line", "manifest", "config", "flag"),
         "synth": ("flag",), "energy": ("flag",)}


@st.composite
def mutations(draw, command):
    kind = draw(st.sampled_from(KINDS[command]))
    run = draw(st.integers(0, 17))
    if kind == "cell":
        return kind, run, (draw(st.sampled_from(["counter_file", "power_file"])),
                           draw(st.integers(1, 12)), draw(st.integers(0, 9)),
                           draw(st.sampled_from(ODD_TRACE_CELLS)))
    if kind == "line":
        return kind, run, (draw(st.sampled_from(["counter_file", "power_file"])),
                           draw(st.sampled_from(LINE_FAULTS)), draw(st.integers(1, 12)))
    if kind == "config":
        if draw(st.booleans()):
            return kind, run, (None, draw(st.sampled_from(CONFIG_FILES)))
        return kind, run, (draw(st.sampled_from(CONFIG_FIELDS)), draw(st.sampled_from(JSON_VALUES)))
    if kind == "flag":
        flag = draw(st.sampled_from(FLAGS[command]))
        return kind, run, (flag, draw(st.sampled_from(RUNS_VALUES if flag == "--runs"
                                                      else FLAG_VALUES)))
    names = RUN_FIELDS if kind == "manifest" else MODEL_FIELDS
    return kind, run, (draw(st.sampled_from(names)), draw(st.sampled_from(JSON_VALUES)))


def _argv(command: str, manifest: Path, model: Path, out: Path, mutation) -> list[str]:
    """The command line of ``command`` on the campaign at ``manifest``, with
    a config file written beside it when the mutation is of a config, and
    the mutated flag last, where it overrides an earlier one."""
    kind, _, change = mutation
    campaign = {"manifest": str(manifest), "output_dir": str(out), "top_k": 20}
    if kind == "config":
        path = out.parent / "config.json"
        key, value = change
        path.write_bytes(value if key is None else json.dumps({**campaign, key: value}).encode())
        data = ["--config", str(path)]
    else:
        data = ["--manifest", str(manifest), "--output-dir", str(out), "--top-k", "20"]
    argv = {"train": ["train", *data],
            "eval": ["eval", "--model", str(model), *data],
            "predict": ["predict", "--model", str(model), "--manifest", str(manifest),
                        "--out", str(out / "predictions.csv")],
            "compare": ["compare", *data],
            "synth": ["synth", "--out", str(out), "--runs", "6", "--seed", "1"],
            "energy": ["energy", "--current", "242.39", "--voltage", "3.86",
                       "--latency", "14.81"]}[command]
    return argv + list(change) if kind == "flag" else argv


def _mutate(manifest: Path, model: Path, mutation) -> None:
    kind, run, change = mutation
    if kind in ("config", "flag"):
        return
    doc = json.loads(manifest.read_text())
    entry = doc["runs"][run]
    if kind == "manifest":
        field, value = change
        entry[field] = value
        manifest.write_text(json.dumps(doc))
    elif kind == "model":
        field, value = change
        model_doc = json.loads(model.read_text())
        if field == "coefficient":
            model_doc["coefficients"][0] = value
        else:
            model_doc[field] = value
        model.write_text(json.dumps(model_doc))
    else:
        path = manifest.parent / entry[change[0]]
        lines = path.read_bytes().split(b"\n")
        if kind == "cell":
            _, row, column, text = change
            cells = lines[min(row, len(lines) - 2)].split(b",")
            cells[min(column, len(cells) - 1)] = text.encode()
            lines[min(row, len(lines) - 2)] = b",".join(cells)
            data = b"\n".join(lines)
        else:
            _, fault, row = change
            row = min(row, len(lines) - 1)
            data = b"\n".join(lines)
            if fault == "crlf":
                data = data.replace(b"\n", b"\r\n")
            elif fault == "lone_cr":
                data = b"\n".join(lines[:row]) + b"\r" + b"\n".join(lines[row:])
            elif fault == "blank_line":
                data = b"\n".join(lines[:row] + [b""] + lines[row:])
            elif fault == "not_utf8":
                data = b"\n".join(lines[:row] + [lines[row] + b"\xff"] + lines[row + 1:])
            else:
                data = b"\xef\xbb\xbf" + data
        path.write_bytes(data)


def _named_paths(manifest: Path, model: Path, mutation) -> list[Path]:
    """The paths of which an error about ``mutation`` must name one: the
    mutated trace or model file, or the manifest and, for a file field,
    the path the mutated value gives; none for a config or flag."""
    kind, run, change = mutation
    if kind in ("config", "flag"):
        return []
    if kind == "model":
        return [model]
    if kind == "manifest":
        field, value = change
        given = [manifest.parent / value] if field.endswith("_file") and isinstance(value, str) \
            else []
        return [manifest, *given]
    return [manifest.parent / json.loads(manifest.read_text())["runs"][run][change[0]]]


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """An 18-run campaign and a model trained on it."""
    root = tmp_path_factory.mktemp("small")
    ds, truth = generate(three_factor_config(n_runs=18, seed=3))
    manifest = write_dataset_files(ds, root / "data", truth)
    assert main(["train", "--manifest", str(manifest), "--output-dir", str(root / "trained"),
                 "--top-k", "20"]) == 0
    return manifest, root / "trained" / "model.json"


@contextlib.contextmanager
def _working_directory(path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


class TestNeverATraceback:
    """Whatever one mutation of a campaign, a model file, a config file or
    a flag does, every command exits 0, 1 or 2, raises nothing, and a
    nonzero exit prints one ``error:`` line. A bad manifest, trace or model
    file (exit 2) is named in that line."""

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mutation(self, small_campaign, data):
        command = data.draw(st.sampled_from(list(KINDS)))
        mutation = data.draw(mutations(command))
        with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp):
            # A relative path a config or flag names stays in ``tmp``.
            tmp = Path(tmp)
            manifest, model = small_campaign
            shutil.copytree(manifest.parent, tmp / "data")
            shutil.copy(model, tmp / "model.json")
            manifest, model = tmp / "data" / manifest.name, tmp / "model.json"
            _mutate(manifest, model, mutation)
            named = _named_paths(manifest, model, mutation)
            argv = _argv(command, manifest, model, tmp / "out", mutation)
            err = io.StringIO()
            # Warnings as a user sees them, each printed by the CLI as one
            # line, not raised as the test suite's filter would raise them.
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("default")
                code = main(argv)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert all(line.startswith(("error: ", "warning: ", "note: ")) for line in lines), lines
        assert sum(line.startswith("error: ") for line in lines) == (code != 0), lines
        if code == 2 and mutation[0] in ("manifest", "cell", "line", "model"):
            error = next(line for line in lines if line.startswith("error: "))
            assert any(str(path) in error for path in named), (error, named)

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pmcpower.cli import compute_energy_mws, main
from pmcpower.errors import ConfigError
from pmcpower.synth import generate, three_factor_config, write_dataset_files


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
         (lambda run: [run["counter_file"]], "manifest run 1: expected an object, got list")],
    )
    def test_bad_manifest_value(self, tmp_path, synth_manifest, change, problem):
        doc = json.loads(synth_manifest.read_text())
        doc["runs"][1] = change(doc["runs"][1])
        synth_manifest.write_text(json.dumps(doc))
        proc = run_cli("train", "--manifest", str(synth_manifest),
                       "--output-dir", str(tmp_path / "out"))
        self.assert_usage_error(proc, problem)

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
            proc, f"manifest run 1: field 'frequency_hz' must be a finite number, got {10**400}"
        )

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

    @pytest.mark.parametrize("flag, value", [("--current", "nan"), ("--current", "inf"),
                                             ("--voltage", "inf"), ("--latency", "nan")])
    def test_energy_non_finite(self, flag, value):
        values = {"--current": "242.39", "--voltage": "3.86", "--latency": "14.81", flag: value}
        proc = run_cli("energy", *[part for item in values.items() for part in item])
        self.assert_usage_error(proc, "current, voltage, and latency must all be finite and > 0")
        assert proc.stdout == ""


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

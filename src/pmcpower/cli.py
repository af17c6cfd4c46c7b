"""Command-line workflows: train, eval, predict, compare, synth, energy.

Every command is deterministic given its config file and seed: reports embed
no timestamps, JSON is written with sorted keys, and floats keep full
round-trip precision. Exit codes: 0 success, 1 pipeline error, 2 usage or
I/O error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, isolate_dataset, load_manifest, split_dataset
from .errors import (
    ConfigError,
    IsolationError,
    ModelFileError,
    ParseError,
    PmcPowerError,
    read_utf8,
)
from .model import (
    MIN_TRAIN_RECORDS,
    PipelineConfig,
    evaluate_by_workload,
    evaluate_model,
    load_model,
    predict_dataset,
    predict_util_freq_dataset,
    run_pipeline,
    save_model,
    train_all_pmc,
    train_k_top,
    train_util_freq,
)
from .numerics import EvalReport, evaluate
from .selection import format_trace

TRAIN_FRACTION_DEFAULT = 2.0 / 3.0


@dataclass(frozen=True)
class RunConfig(PipelineConfig):
    """One training/evaluation job: the pipeline knobs plus the data, split
    and isolation settings. A config file holds these fields as flat keys."""

    manifest: str = ""
    output_dir: str = "out"
    train_fraction: float = TRAIN_FRACTION_DEFAULT
    seed: int = 0
    base_current_ma: float = 0.0
    aux_model: str | None = None

    def _ranges(self) -> list[tuple[str, bool, str]]:
        return super()._ranges() + [
            ("train_fraction", 0.0 < self.train_fraction < 1.0, "in (0, 1)"),
            ("seed", self.seed >= 0, "a non-negative integer"),
            ("base_current_ma", self.base_current_ma >= 0.0, ">= 0"),
        ]

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(**{f.name: getattr(self, f.name) for f in fields(PipelineConfig)})


# The JSON value types a config file may give each annotated field type.
_CONFIG_TYPES = {
    "float": (int, float),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
    "str | None": (str, type(None)),
}


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(read_utf8(path, "config", ConfigError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    types = {f.name: _CONFIG_TYPES[f.type] for f in fields(RunConfig)}
    for key in sorted(doc):
        if key not in types:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        value = doc[key]
        # JSON true/false load as bool, which Python counts as an int.
        if not isinstance(value, types[key]) or (isinstance(value, bool) and bool not in types[key]):
            raise ConfigError(f"config {path}: key {key!r} has a value of the wrong type: {value!r}")
    try:
        return RunConfig(**doc)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {
        f.name: getattr(args, f.name) for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    config = replace(config, **overrides)
    if not config.manifest:
        raise ConfigError("no manifest given (config file key 'manifest' or --manifest)")
    return config


def _load_isolated(config: RunConfig, counters=None) -> tuple[Dataset, int]:
    """The campaign with the base current and the aux model's prediction
    subtracted, and the number of runs clamped. Only ``counters`` are read
    (all when None), and of the aux traces only the aux model's counters."""
    aux_model = load_model(config.aux_model) if config.aux_model else None
    aux_counters = () if aux_model is None else aux_model.counters()
    ds, aux = load_manifest(config.manifest, counters, aux_counters)
    aux_current = None
    if aux_model is not None:
        if aux is None:
            raise ConfigError(
                "aux model given but the manifest lists no aux_counter_file entries"
            )
        aux_current = predict_dataset(aux_model, aux)
    isolated, n_clamped = isolate_dataset(ds, config.base_current_ma, aux_current)
    if n_clamped == len(ds):
        aux_part = " plus the aux model's prediction" if config.aux_model else ""
        raise IsolationError(
            f"every isolated current is 0 mA: the base current of {config.base_current_ma!r} "
            f"mA{aux_part} is at least every run's measured current"
        )
    return isolated, n_clamped


def _report_dict(report: EvalReport, by_workload: dict[str, EvalReport] | None = None) -> dict:
    doc = report.to_dict()
    if by_workload is not None:
        doc["by_workload"] = {k: v.to_dict() for k, v in by_workload.items()}
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _predictions_csv(ds: Dataset, predictions: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["benchmark", "workload_type", "frequency_hz", "target_ma", "predicted_ma"]
    )
    for meta, target, pred in zip(ds.meta, ds.target_current.tolist(), predictions.tolist()):
        writer.writerow(
            [
                meta.benchmark_name,
                meta.workload_type,
                repr(meta.frequency_hz),
                repr(target),
                repr(pred),
            ]
        )
    return buf.getvalue()


def _summary_line(name: str, n_features, report: EvalReport) -> str:
    nf = f"{n_features}" if n_features is not None else "-"
    return (
        f"{name:<14s} {nf:>8s} {report.r_squared:8.4f} "
        f"{report.mae_mean:9.2f} ({report.mae_median:.2f}) "
        f"{report.mape_mean:8.2f} ({report.mape_median:.2f})"
    )


_SUMMARY_HEADER = (
    f"{'model':<14s} {'features':>8s} {'R2':>8s} {'MAE mA':>9s} {'':<8s} "
    f"{'MAPE %':>8s}"
)


def _train_split(ds: Dataset, config: RunConfig) -> tuple[Dataset, Dataset]:
    """The config's split of ``ds``, its train side checked to hold enough
    records for ``run_pipeline``, a shortfall worded with the campaign's
    size and the train fraction."""
    train, test = split_dataset(ds, config.train_fraction, config.seed)
    if len(train) < MIN_TRAIN_RECORDS:
        raise ConfigError(
            f"need at least {MIN_TRAIN_RECORDS} training records, got {len(train)} "
            f"(train fraction {config.train_fraction:g} of {len(ds)} records in the campaign)"
        )
    return train, test


def cmd_train(config: RunConfig) -> int:
    ds, n_clamped = _load_isolated(config)
    train, test = _train_split(ds, config)
    result = run_pipeline(train, config.pipeline())
    model = result.model
    # The manifest and output paths are left out so the model file does not
    # depend on where the campaign lives; dataset_fingerprint names the data.
    run_config = asdict(config)
    del run_config["manifest"], run_config["output_dir"]
    model.train_meta["run_config"] = run_config
    model.train_meta["n_isolation_clamped"] = n_clamped
    model.train_meta["selection_trace_file"] = "selection_trace.txt"

    # The reports come first, so an evaluation that raises writes no file.
    pred_train = predict_dataset(model, train)
    pred_test = predict_dataset(model, test)
    train_report = evaluate(pred_train, train.target_current)
    test_report = evaluate(pred_test, test.target_current)
    reports = {
        "train": _report_dict(train_report, evaluate_by_workload(model, train)),
        "test": _report_dict(test_report, evaluate_by_workload(model, test)),
        "n_negative_predictions": int((pred_test < 0).sum() + (pred_train < 0).sum()),
    }

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    (out / "selection_trace.txt").write_text(format_trace(result.selection))
    (out / "dendrogram.json").write_text(result.dendrogram.to_json())
    _write_json(out / "eval.json", reports)
    (out / "predictions_train.csv").write_text(_predictions_csv(train, pred_train))
    (out / "predictions_test.csv").write_text(_predictions_csv(test, pred_test))

    lines = [
        f"trained on {len(train)} runs, tested on {len(test)} runs",
        f"features: {len(model.features)} of {result.assignment.n_clusters} clusters "
        f"({model.train_meta['pmc_usage_percent']:.2f}% of counters)",
        _SUMMARY_HEADER,
        _summary_line("train", len(model.features), train_report),
        _summary_line("test", len(model.features), test_report),
    ]
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0


def cmd_eval(model_path: str, config: RunConfig) -> int:
    model = load_model(model_path)
    ds, _ = _load_isolated(config, model.counters())
    predictions = predict_dataset(model, ds)
    report = evaluate(predictions, ds.target_current)
    reports = {
        "eval": _report_dict(report, evaluate_by_workload(model, ds)),
        "n_negative_predictions": int((predictions < 0).sum()),
    }
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eval.json", reports)
    (out / "predictions.csv").write_text(_predictions_csv(ds, predictions))
    sys.stdout.write(_SUMMARY_HEADER + "\n")
    sys.stdout.write(_summary_line("eval", len(model.features), report) + "\n")
    return 0


def cmd_predict(model_path: str, manifest: str, out_file: str) -> int:
    model = load_model(model_path)
    ds, _ = load_manifest(manifest, model.counters(), ())
    predictions = predict_dataset(model, ds)
    n_negative = int((predictions < 0).sum())
    Path(out_file).parent.mkdir(parents=True, exist_ok=True)
    Path(out_file).write_text(_predictions_csv(ds, predictions))
    if n_negative:
        sys.stderr.write(f"warning: {n_negative} negative predictions reported as-is\n")
    sys.stdout.write(f"wrote {len(ds)} predictions to {out_file}\n")
    return 0


def cmd_compare(config: RunConfig, k: int | None = None) -> int:
    if k is not None and k < 1:
        raise ConfigError(f"--k must be a positive integer, got {k}")
    ds, _ = _load_isolated(config)
    train, test = _train_split(ds, config)

    rows: list[tuple[str, int | None, EvalReport]] = []
    auto = run_pipeline(train, config.pipeline()).model
    rows.append(("auto", len(auto.features), evaluate_model(auto, test)))

    linear = run_pipeline(train, replace(config.pipeline(), combined=False)).model
    rows.append(("auto-linear", len(linear.features), evaluate_model(linear, test)))

    if all(meta.utilization is not None for meta in ds.meta):
        uf = train_util_freq(train)
        uf_report = evaluate(predict_util_freq_dataset(uf, test), test.target_current)
        rows.append(("util-freq", len(uf.slopes), uf_report))
    else:
        sys.stderr.write("note: runs lack utilization; skipping util-freq baseline\n")

    all_pmc = train_all_pmc(train)
    rows.append(("all-pmc", len(all_pmc.features), evaluate_model(all_pmc, test)))

    # The comparison convention: k-top reads as many counters as the trained
    # model does (features can outnumber counters once pairs are combined).
    k_eff = k if k is not None else len(auto.train_meta["counters_used"])
    ktop = train_k_top(train, k_eff)
    rows.append((f"k-top (k={k_eff})", len(ktop.features), evaluate_model(ktop, test)))

    lines = [_SUMMARY_HEADER]
    lines += [_summary_line(name, nf, report) for name, nf, report in rows]
    table = "\n".join(lines) + "\n"

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "compare.json",
        {
            "test_runs": len(test),
            "train_runs": len(train),
            "models": {
                name: {"n_features": nf, **report.to_dict()}
                for name, nf, report in rows
            },
        },
    )
    (out / "compare.txt").write_text(table)
    sys.stdout.write(table)
    return 0


def cmd_synth(profile: str, out_dir: str, n_runs: int | None, noise: float | None,
              seed: int) -> int:
    from . import synth as synthmod  # here: no other command loads it

    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    if n_runs is not None and n_runs < 1:
        raise ConfigError(f"--runs must be a positive integer, got {n_runs}")
    if noise is not None and not (math.isfinite(noise) and noise >= 0):
        raise ConfigError(f"--noise must be a finite number >= 0, got {noise}")
    if profile == "three-factor":
        cfg = synthmod.three_factor_config(
            n_runs=n_runs or 120, noise_sigma=noise or 0.0, seed=seed
        )
        ds, truth = synthmod.generate(cfg)
    elif profile == "collinear":
        cfg = synthmod.collinear_config(
            n_runs=n_runs or 150, noise_sigma=0.02 if noise is None else noise, seed=seed
        )
        ds, truth = synthmod.generate(cfg)
    elif profile == "instruction-mix":
        ds, truth = synthmod.generate_instruction_mix(
            n_runs=n_runs or 120, seed=seed, noise_sigma=noise or 0.0
        )
    elif profile == "util-freq":
        if noise is not None:
            raise ConfigError("--noise does not apply to profile 'util-freq', "
                              "whose currents follow its law exactly")
        ds = synthmod.generate_util_freq(
            {251e6: 100.0, 351e6: 200.0, 471e6: 300.0}, 50.0,
            n_per_freq=(n_runs or 120) // 3, seed=seed,
        )
        truth = None
    else:
        raise ConfigError(f"unknown synth profile {profile!r}")
    manifest = synthmod.write_dataset_files(ds, out_dir, truth)
    sys.stdout.write(f"wrote {len(ds)} runs to {manifest}\n")
    return 0


def compute_energy_mws(current_ma: float, voltage_v: float, latency_ms: float) -> float:
    """Energy per inference in mWs: current (mA) x voltage (V) x time (s)."""
    if not all(math.isfinite(v) and v > 0 for v in (current_ma, voltage_v, latency_ms)):
        raise ConfigError("current, voltage, and latency must all be finite and > 0")
    energy = current_ma * voltage_v * latency_ms / 1000.0
    if not math.isfinite(energy):
        raise ConfigError("current x voltage x latency overflows a float")
    return energy


def cmd_energy(current_ma: float, voltage_v: float, latency_ms: float) -> int:
    energy = compute_energy_mws(current_ma, voltage_v, latency_ms)
    sys.stdout.write(f"{energy:.4f} mWs\n")
    return 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (overridden by flags)")
    parser.add_argument("--manifest", help="run manifest JSON")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--cut-factor", dest="cut_factor", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--top-k", dest="top_k", type=int)
    combined = parser.add_mutually_exclusive_group()
    combined.add_argument(
        "--combined", dest="combined", action="store_const", const=True, default=None,
        help="enable product/ratio features (default)",
    )
    combined.add_argument(
        "--no-combined", dest="combined", action="store_const", const=False,
        help="base counters only",
    )
    parser.add_argument("--train-fraction", dest="train_fraction", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--base-current", dest="base_current_ma", type=float)
    parser.add_argument("--aux-model", dest="aux_model")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    return _apply_overrides(config, args)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    ``main`` prints them as one ``error:`` line and exits 2, as it does for
    any other bad input. Subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pmcpower",
        description="Synthesize linear power models from performance-counter traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run manifest")
    _add_config_arguments(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model against measurements")
    p_eval.add_argument("--model", required=True)
    _add_config_arguments(p_eval)

    p_pred = sub.add_parser("predict", help="predict current for manifest runs")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--manifest", required=True)
    p_pred.add_argument("--out", default="predictions.csv")

    p_cmp = sub.add_parser("compare", help="train and compare against the baselines")
    _add_config_arguments(p_cmp)
    p_cmp.add_argument("--k", type=int, help="k for the k-top baseline "
                                             "(default: the trained model's feature count)")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument(
        "--profile",
        choices=("three-factor", "collinear", "instruction-mix", "util-freq"),
        default="three-factor",
    )
    p_synth.add_argument("--runs", type=int)
    p_synth.add_argument("--noise", type=float)
    p_synth.add_argument("--seed", type=int, default=0)

    p_energy = sub.add_parser("energy", help="energy per inference in mWs")
    p_energy.add_argument("--current", type=float, required=True, help="mA")
    p_energy.add_argument("--voltage", type=float, required=True, help="V")
    p_energy.add_argument("--latency", type=float, required=True, help="ms")
    return parser


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "train":
        return cmd_train(_config_from_args(args))
    if args.command == "eval":
        return cmd_eval(args.model, _config_from_args(args))
    if args.command == "predict":
        return cmd_predict(args.model, args.manifest, args.out)
    if args.command == "compare":
        return cmd_compare(_config_from_args(args), args.k)
    if args.command == "synth":
        return cmd_synth(args.profile, args.out, args.runs, args.noise, args.seed)
    if args.command == "energy":
        return cmd_energy(args.current, args.voltage, args.latency)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    # A warning prints as one line, like an error, not as Python's source excerpt.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _run(parser, parser.parse_args(argv))
        except (ConfigError, ParseError, ModelFileError, FileNotFoundError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        except PmcPowerError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())

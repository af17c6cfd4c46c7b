"""Golden fixtures: retrain two fixed campaigns and compare with committed outputs.

* ``three_factor``: ``three_factor_config(n_runs=120, noise_sigma=0.03,
  seed=7)`` trained in memory with ``run_pipeline`` and the default config.
* ``wide``: a 4-factor, 24-counter, 150-run campaign of the benchmark's
  design (``perfbench/campaign.py``), written to disk and trained with
  ``pmcpower train --base-current 40``, so parsing, aggregation, isolation
  and the split are covered too.

The selection trace, the selected features and the counters used must match
byte for byte; coefficients and intercept to ``rtol=1e-9``, so the fixtures
hold across BLAS builds. Regenerate them, only for an intended and explained
change of the trained model, with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""
from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pmcpower.cli import main
from pmcpower.model import PipelineConfig, run_pipeline
from pmcpower.selection import format_trace
from pmcpower.synth import generate, three_factor_config, write_dataset_files

GOLDEN = Path(__file__).resolve().parent / "golden"
CAMPAIGNS = ("three_factor", "wide")


def _load_campaign():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "campaign.py"
    spec = importlib.util.spec_from_file_location("perfbench_campaign", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _summary(model_doc: dict) -> dict:
    return {
        "features": model_doc["features"],
        "counters_used": model_doc["train_meta"]["counters_used"],
        "coefficients": model_doc["coefficients"],
        "intercept": model_doc["intercept"],
    }


def train_three_factor(work: Path) -> tuple[str, dict]:
    ds, _ = generate(three_factor_config(n_runs=120, noise_sigma=0.03, seed=7))
    result = run_pipeline(ds, PipelineConfig())
    model = result.model
    doc = {
        "features": [spec.canonical() for spec in model.features],
        "coefficients": list(model.coefficients),
        "intercept": model.intercept,
        "train_meta": model.train_meta,
    }
    return format_trace(result.selection), _summary(doc)


def train_wide(work: Path) -> tuple[str, dict]:
    campaign = _load_campaign()
    ds, truth = generate(campaign.wide_config(campaign.Shape(4, 6, 150, 10), 11))
    manifest = write_dataset_files(ds, work / "data", truth)
    out = work / "out"
    code = main(["train", "--manifest", str(manifest), "--output-dir", str(out),
                 "--base-current", "40", "--seed", "5"])
    assert code == 0
    doc = json.loads((out / "model.json").read_text())
    return (out / "selection_trace.txt").read_text(), _summary(doc)


TRAINERS = {"three_factor": train_three_factor, "wide": train_wide}


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_matches_golden(name, tmp_path, capsys):
    trace, summary = TRAINERS[name](tmp_path)
    want_trace = (GOLDEN / name / "selection_trace.txt").read_text()
    want = json.loads((GOLDEN / name / "model_summary.json").read_text())
    assert trace == want_trace
    assert summary["features"] == want["features"]
    assert summary["counters_used"] == want["counters_used"]
    np.testing.assert_allclose(summary["coefficients"], want["coefficients"], rtol=1e-9)
    np.testing.assert_allclose(summary["intercept"], want["intercept"], rtol=1e-9)


def regenerate() -> None:
    for name in CAMPAIGNS:
        with tempfile.TemporaryDirectory() as work:
            trace, summary = TRAINERS[name](Path(work))
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        (target / "selection_trace.txt").write_text(trace)
        (target / "model_summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )


if __name__ == "__main__":
    regenerate()

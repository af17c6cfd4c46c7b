import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pmcpower.dataset import Dataset, RunMeta
from pmcpower.synth import generate


def make_dataset(columns: dict, target, workload="Other", frequency=1.0, util=None):
    """Assemble a Dataset from raw rate columns and a target-current series."""
    n = len(target)
    meta = [
        RunMeta(f"run-{i:03d}", workload, frequency, util[i] if util is not None else None)
        for i in range(n)
    ]
    rates = np.array([columns[name] for name in columns], dtype=float).reshape(len(columns), n).T
    return Dataset(tuple(columns), rates, meta, np.asarray(target, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _load_campaign():
    """The benchmark's wide campaign design (perfbench/campaign.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "campaign.py"
    spec = importlib.util.spec_from_file_location("perfbench_campaign", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


campaign = _load_campaign()


def wide_dataset(factors, runs, seed):
    """A benchmark-design campaign of ``factors`` x 6 counters and ``runs`` runs."""
    ds, _ = generate(campaign.wide_config(campaign.Shape(factors, 6, runs, 2), seed))
    return ds

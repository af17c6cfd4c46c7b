import numpy as np
import pytest

from pmcpower.dataset import Dataset, RunMeta


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

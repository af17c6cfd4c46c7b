"""End-to-end training pipeline, prediction, model persistence, and baselines.

The main trainer chains the feature, clustering, and selection stages into a
single linear model over a handful of representative features. Baselines for
comparison: the utilization-frequency model (one utilization slope per
frequency level), a regression over every retained counter, and a regression
over the k counters that correlate best with the target.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import features as ft
from .clustering import (
    DEFAULT_CUT_FACTOR,
    ClusterAssignment,
    Dendrogram,
    cut_dendrogram,
    default_cut_threshold,
    ward_cluster,
)
from .dataset import Dataset
from .errors import ConfigError, FeatureError, ModelFileError, json_float, read_utf8
from .features import FeatureMatrix, FeatureSpec
from .numerics import EvalReport, evaluate, ols_fit
from .selection import SelectionResult, select_significant

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline knobs; the defaults are the recommended operating point.

    Every float field must be finite, and an int given for one must fit a
    float; so must those of a subclass such as the CLI's ``RunConfig``,
    which inherits the check. Each knob must then lie in its range (see
    ``_ranges``), so a bad value is named before any data is read.
    """

    alpha: float = 0.05
    cut_factor: float = DEFAULT_CUT_FACTOR
    epsilon: float = 0.01
    patience: int = 5
    top_k: int = 1000
    combined: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and isinstance(value, int):
                try:
                    value = float(value)  # a config file may give a float field an int
                except OverflowError:
                    value = math.inf
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(
                    f"field {f.name!r} must be a finite number, got {getattr(self, f.name)!r}"
                )
        for name, ok, rule in self._ranges():
            if not ok:
                raise ConfigError(f"field {name!r} must be {rule}, got {getattr(self, name)!r}")

    def _ranges(self) -> list[tuple[str, bool, str]]:
        """(field, whether its value is in range, the range in words)."""
        return [
            ("alpha", 0.0 < self.alpha <= 1.0, "in (0, 1]"),
            ("cut_factor", self.cut_factor >= 0.0, ">= 0"),
            ("epsilon", self.epsilon > 0.0, "> 0"),
            ("patience", self.patience >= 1, ">= 1"),
            ("top_k", self.top_k >= 0, ">= 0"),
        ]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PowerModel:
    """Selected features, their regression coefficients (mA per unit), and
    the intercept (mA), plus training provenance."""

    features: tuple[FeatureSpec, ...]
    coefficients: tuple[float, ...]
    intercept: float
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.features) != len(self.coefficients):
            raise ModelFileError("one coefficient per feature required")

    def counters(self) -> frozenset[str]:
        """The counters the model's features read."""
        return frozenset(name for spec in self.features for name in spec.counters())


def predict_dataset(model: PowerModel, ds: Dataset) -> np.ndarray:
    """Predicted current in mA of every run; may be negative (reported as-is).

    The terms are added one feature at a time in model order, so each
    prediction is rounded exactly as ``intercept + c1*f1 + c2*f2 + ...``
    evaluated left to right; a matrix product would sum in another order.
    """
    total = np.full(len(ds), model.intercept)
    for spec, coef in zip(model.features, model.coefficients):
        total = total + coef * ft.feature_column(spec, ds)
    return total


def dataset_fingerprint(ds: Dataset) -> str:
    """Stable content hash used to tie a saved model to its training data:
    sha256 over the counter names and each run's metadata as JSON, then the
    little-endian float64 bytes of the rates, total and target currents.
    The JSON fixes the runs and counters, and so the length of each array."""
    import hashlib  # here: eval and predict never load it

    digest = hashlib.sha256()
    digest.update(json.dumps(list(ds.counter_names)).encode())
    digest.update(json.dumps([
        [meta.benchmark_name, meta.workload_type, meta.frequency_hz, meta.utilization]
        for meta in ds.meta
    ]).encode())
    for values in (ds.rates, ds.total_current, ds.target_current):
        digest.update(values.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class PipelineResult:
    """Everything the training pipeline produced, for auditing and recovery checks."""

    model: PowerModel
    selection: SelectionResult
    matrix: FeatureMatrix
    assignment: ClusterAssignment
    dendrogram: Dendrogram
    dropped_counters: tuple[str, ...]

    def cluster_members(self, cluster_id: int) -> list[FeatureSpec]:
        return [self.matrix.specs[i] for i in self.assignment.members(cluster_id)]


# The fewest training records run_pipeline fits a model to.
MIN_TRAIN_RECORDS = 10


def run_pipeline(train: Dataset, config: PipelineConfig | None = None) -> PipelineResult:
    """Automatic cluster-then-forward feature selection plus final linear fit.

    Stages: drop constant counters, negate significantly anti-correlated
    ones, optionally synthesize pairwise product/ratio features, cluster
    the z-scored columns with Ward linkage, cut at cut_factor times the run
    count, rank clusters by importance, and grow the significant set
    greedily. The model regresses the target on the chosen
    representatives' raw values.
    """
    config = config or PipelineConfig()
    if len(train) < MIN_TRAIN_RECORDS:
        raise ConfigError(f"need at least {MIN_TRAIN_RECORDS} training records, got {len(train)}")
    y = train.target_current

    specs: Sequence[FeatureSpec] = ft.invert_negative(train, config.alpha)
    retained = {spec.a for spec in specs}
    dropped = [name for name in train.counter_names if name not in retained]
    if config.combined:
        specs = ft.generate_combined(train, specs, config.alpha, config.top_k)
    matrix = ft.build_matrix(train, specs)

    dendrogram = ward_cluster(matrix.zscored(), matrix.names())
    threshold = default_cut_threshold(len(train), config.cut_factor)
    assignment = cut_dendrogram(dendrogram, threshold)
    selection = select_significant(
        assignment, matrix, y, epsilon=config.epsilon, patience=config.patience
    )

    steps = selection.accepted_steps
    reps = [step.best_member for step in steps]
    fit = ols_fit(matrix.values[:, [step.column for step in steps]], y)
    used_counters = sorted({name for spec in reps for name in spec.counters()})
    meta = {
        "trainer": "auto",
        "config": config.to_dict(),
        "dataset_fingerprint": dataset_fingerprint(train),
        "n_records": len(train),
        "n_counters_total": len(train.counter_names),
        "n_counters_retained": len(retained),
        "n_candidate_features": len(matrix.specs),
        "n_clusters": assignment.n_clusters,
        "n_significant_clusters": len(selection.significant),
        "counters_used": used_counters,
        "pmc_usage_percent": 100.0 * len(used_counters) / len(train.counter_names),
        "train_r_squared": fit.r_squared,
        "selection": {
            "r2_trajectory": list(selection.r2_trajectory),
            "skipped_clusters": list(selection.skipped),
            "terminated_at": selection.terminated_at,
        },
    }
    model = PowerModel(
        features=tuple(reps),
        coefficients=tuple(float(c) for c in fit.coefficients),
        intercept=float(fit.intercept),
        train_meta=meta,
    )
    return PipelineResult(
        model=model,
        selection=selection,
        matrix=matrix,
        assignment=assignment,
        dendrogram=dendrogram,
        dropped_counters=tuple(dropped),
    )


def _counter_model(train: Dataset, names: Sequence[str], meta: dict) -> PowerModel:
    """A regression of the target over the base features of the counters
    ``names``, its provenance ``meta`` plus the data's fingerprint, run
    count and train R-squared."""
    matrix = ft.build_matrix(train, [ft.base(name) for name in names])
    fit = ols_fit(matrix.values, train.target_current)
    meta = dict(meta, dataset_fingerprint=dataset_fingerprint(train), n_records=len(train),
                train_r_squared=fit.r_squared)
    return PowerModel(tuple(matrix.specs), tuple(float(c) for c in fit.coefficients),
                      float(fit.intercept), meta)


def train_all_pmc(train: Dataset) -> PowerModel:
    """Baseline: one regression over every retained counter."""
    retained, _ = ft.drop_zero_variance(train)
    return _counter_model(train, retained,
                          {"trainer": "all_pmc", "n_counters_retained": len(retained)})


def train_k_top(train: Dataset, k: int) -> PowerModel:
    """Baseline: regression over the k counters that correlate best with
    the target (|Pearson r|, ties broken by name)."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    retained, _ = ft.drop_zero_variance(train)
    if k > len(retained):
        raise ConfigError(f"k={k} exceeds the {len(retained)} retained counters")
    r = dict(zip(retained, np.abs(ft.counter_correlations(train, retained)).tolist()))
    ranked = sorted(retained, key=lambda name: (-r[name], name))
    return _counter_model(train, ranked[:k], {"trainer": "k_top", "k": k})


@dataclass(frozen=True)
class UtilFreqModel:
    """Per-frequency utilization slope with a shared intercept."""

    slopes: dict[float, float]
    intercept: float


def train_util_freq(train: Dataset) -> UtilFreqModel:
    """Fit current = slope[frequency] * utilization + intercept.

    Every record must carry a utilization; each frequency level needs at
    least 2 records so its slope is identified.
    """
    for meta in train.meta:
        if meta.utilization is None:
            raise ConfigError(
                f"run {meta.benchmark_name!r} has no utilization; "
                "the utilization-frequency baseline needs it"
            )
    freqs = sorted({meta.frequency_hz for meta in train.meta})
    counts = {f: sum(meta.frequency_hz == f for meta in train.meta) for f in freqs}
    thin = [f for f, c in counts.items() if c < 2]
    if thin:
        raise ConfigError(f"frequency level {thin[0]} has fewer than 2 records")

    util = np.array([meta.utilization for meta in train.meta])
    freq = np.array([meta.frequency_hz for meta in train.meta])
    y = train.target_current

    X = np.column_stack([util * (freq == f) for f in freqs])
    fit = ols_fit(X, y)
    slopes = {f: float(c) for f, c in zip(freqs, fit.coefficients)}
    return UtilFreqModel(slopes=slopes, intercept=float(fit.intercept))


def predict_util_freq_dataset(model: UtilFreqModel, ds: Dataset) -> np.ndarray:
    predictions = []
    for meta in ds.meta:
        if meta.utilization is None:
            raise ConfigError(f"run {meta.benchmark_name!r} has no utilization")
        f = meta.frequency_hz
        if f not in model.slopes:
            raise ConfigError(f"no utilization slope for frequency {f}")
        predictions.append(model.slopes[f] * meta.utilization + model.intercept)
    return np.array(predictions, dtype=float)


def evaluate_model(model: PowerModel, ds: Dataset) -> EvalReport:
    return evaluate(predict_dataset(model, ds), ds.target_current)


def evaluate_by_workload(model: PowerModel, ds: Dataset) -> dict[str, EvalReport]:
    """Per-workload-type error breakdown. A type whose every target current
    is 0 mA has no MAPE and is left out; its runs still count in the
    ``n_mape_excluded`` of the report over all of ``ds``."""
    reports: dict[str, EvalReport] = {}
    types = [meta.workload_type for meta in ds.meta]
    for wtype in sorted(set(types)):
        subset = ds.take([i for i, t in enumerate(types) if t == wtype])
        if not (subset.target_current > 0.0).any():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # single-workload targets may be constant
            reports[wtype] = evaluate_model(model, subset)
    return reports


def model_to_dict(model: PowerModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "linear_power_model",
        "features": [spec.canonical() for spec in model.features],
        "coefficients": list(model.coefficients),
        "intercept": model.intercept,
        "train_meta": model.train_meta,
    }


def model_from_dict(doc: dict) -> PowerModel:
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION or isinstance(version, bool):  # true == 1
        raise ModelFileError(
            f"unsupported model schema version {version!r} "
            f"(this build reads version {MODEL_SCHEMA_VERSION})"
        )
    try:
        raw_specs = doc["features"]
        raw_coefficients = list(doc["coefficients"])
        coefficients = [json_float(c) for c in raw_coefficients]
        intercept = json_float(doc["intercept"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ModelFileError(f"malformed model document: {exc}") from None
    if not isinstance(raw_specs, list) or not all(isinstance(t, str) for t in raw_specs):
        raise ModelFileError(
            f"'features' must be a list of feature spec strings, got {raw_specs!r}"
        )
    try:
        specs = tuple(ft.parse_feature_spec(text) for text in raw_specs)
    except FeatureError as exc:
        raise ModelFileError(str(exc)) from None
    for spec, coef, raw in zip(specs, coefficients, raw_coefficients):
        if not math.isfinite(coef):
            raise ModelFileError(
                f"coefficient of {spec.canonical()!r} must be a finite number, got {raw!r}"
            )
    if not math.isfinite(intercept):
        raise ModelFileError(f"intercept must be a finite number, got {doc['intercept']!r}")
    train_meta = doc.get("train_meta", {})
    if not isinstance(train_meta, dict):
        raise ModelFileError(f"'train_meta' must be a JSON object, got {train_meta!r}")
    return PowerModel(
        features=specs,
        coefficients=tuple(coefficients),
        intercept=intercept,
        train_meta=train_meta,
    )


def save_model(model: PowerModel, path) -> None:
    """Write the versioned model file; floats keep full round-trip precision."""
    text = json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def load_model(path) -> PowerModel:
    """The model in the file at ``path``; every error about its contents
    names the file."""
    path = Path(path)
    try:
        doc = json.loads(read_utf8(path, "model file", ModelFileError))
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file {path}: {exc}") from None
    try:
        return model_from_dict(doc)
    except ModelFileError as exc:
        raise ModelFileError(f"model file {path}: {exc}") from None

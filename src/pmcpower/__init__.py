"""Automatic synthesis of linear power models from performance-counter traces.

The package turns raw counter and current traces into a compact linear
model: ingest and aggregate runs (dataset), build candidate features
(features), group collinear ones (clustering), grow the significant set
greedily (selection), and fit/evaluate/persist models plus baselines
(model). A seeded generator (synth) provides ground-truth datasets, and
``pmcpower`` on the command line ties the workflows together (cli).
"""

from .clustering import cut_dendrogram, default_cut_threshold, ward_cluster
from .dataset import (
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
from .features import (
    FeatureMatrix,
    FeatureSpec,
    build_matrix,
    drop_zero_variance,
    feature_column,
    generate_combined,
    invert_negative,
    parse_feature_spec,
)
from .model import (
    PipelineConfig,
    PowerModel,
    UtilFreqModel,
    evaluate_model,
    load_model,
    predict_dataset,
    run_pipeline,
    save_model,
    train_all_pmc,
    train_k_top,
    train_util_freq,
)
from .numerics import (
    EvalReport,
    NormStats,
    Regression,
    evaluate,
    ols_fit,
    pearson,
    pearson_p_value,
    zscore,
)
from .selection import SelectionResult, cluster_importance, select_significant
from .synth import SynthConfig, generate, verify_recovery

__version__ = "0.1.0"

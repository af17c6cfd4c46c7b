"""Automatic synthesis of linear power models from performance-counter traces.

The package turns raw counter and current traces into a compact linear
model: ingest and aggregate runs (dataset), build candidate features
(features), group collinear ones (clustering), grow the significant set
greedily (selection), and fit/evaluate/persist models plus baselines
(model). A seeded generator (synth) provides ground-truth datasets, and
``pmcpower`` on the command line ties the workflows together (cli).
"""

import importlib

# Each public name and the module that defines it. A name's module is
# imported when the name is first read (PEP 562), so that a command loads
# only the modules it runs: ``pmcpower eval`` never loads ``synth``.
_EXPORTS = {
    "clustering": ("cut_dendrogram", "default_cut_threshold", "ward_cluster"),
    "dataset": ("CounterTrace", "Dataset", "PowerTrace", "RunMeta", "aggregate_run",
                "isolate_dataset", "load_manifest", "parse_counter_trace", "parse_power_trace",
                "split_dataset"),
    "features": ("FeatureMatrix", "FeatureSpec", "build_matrix", "drop_zero_variance",
                 "feature_column", "generate_combined", "invert_negative", "parse_feature_spec"),
    "model": ("PipelineConfig", "PowerModel", "UtilFreqModel", "evaluate_model", "load_model",
              "predict_dataset", "run_pipeline", "save_model", "train_all_pmc", "train_k_top",
              "train_util_freq"),
    "numerics": ("EvalReport", "Regression", "evaluate", "ols_fit", "pearson",
                 "pearson_p_value"),
    "selection": ("SelectionResult", "cluster_importance", "select_significant"),
    "synth": ("SynthConfig", "generate", "verify_recovery"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS or name == "errors":  # a submodule, as importing them all made it
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

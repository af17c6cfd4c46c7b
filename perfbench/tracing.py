"""The traced run: the CLI job run in-process, with a span around each layer call.

``instrumented`` replaces the module attributes through which the program
calls into its layers (``pmcpower.cli.load_manifest``,
``pmcpower.model.ward_cluster``, ``pmcpower.features.generate_combined``
and so on) with wrappers that record a span (name, start, end, parent, job
id) and then call the original. ``replay`` runs ``pmcpower.cli.main`` once
under them, so the spans time the program's own code path, and restores
the attributes afterwards. Spans are kept in memory and written out when
the run ends.

A wrapper may also name an observer. It is called with the wrapped call's
arguments and result after the replay has finished, so the counts it
derives are not timed inside any span.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmcpower import cli, clustering, dataset, features, model


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    job: int = 0
    _stack: list[int] = field(default_factory=list)
    # (observer, args, result) of the current replay, settled after it.
    _observed: list[tuple] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name: str, observer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observer is not None:
                self._observed.append((observer, args, result))
            return result

        return traced

    def settle(self, counts: dict) -> None:
        """Run the observers of the finished replay into ``counts``."""
        for observer, args, result in self._observed:
            observer(counts, args, result)
        self._observed.clear()

    def of(self, job: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.job == job]

    def total(self, job: int, *names: str) -> float:
        return sum(s.duration for _, s in self.of(job) if s.name in names)

    def children_total(self, job: int, *parents: str) -> float:
        """Time the spans named ``parents`` spend in their direct children."""
        spans = self.of(job)
        ids = {i for i, s in spans if s.name in parents}
        return sum(s.duration for _, s in spans if s.parent in ids)

    def names(self, job: int) -> set[str]:
        return {s.name for _, s in self.of(job)}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans]
        ) + "\n")


def _parsed(counts, args, trace) -> None:
    counts["dataset.files"] += 1
    counts["dataset.rows"] += trace.timestamps_ms.size


def _retained(counts, args, result) -> None:
    n = len(result[0])
    counts["features.counters_retained"] = n
    counts["features.candidates_possible"] = n * (n - 1) // 2 + n * (n - 1)


def _inverted(counts, args, specs) -> None:
    counts["features.counters_inverted"] = sum(s.kind == "inv" for s in specs)


def _combined(counts, args, specs) -> None:
    counts["features.candidates_kept"] = len(specs) - len(args[1])


def _matrix(counts, args, matrix) -> None:
    counts["features.matrix_columns"] = len(matrix.specs)


def _dendrogram(counts, args, dendrogram) -> None:
    counts["clustering.leaves"] = len(dendrogram.leaves)
    counts["clustering.dist_mb"] = len(dendrogram.leaves) ** 2 * 8 / 1e6


def _cut(counts, args, assignment) -> None:
    counts["clustering.clusters"] = assignment.n_clusters


def _selected(counts, args, result) -> None:
    assignment, matrix = args[0], args[1]
    sizes = np.bincount(assignment.cluster_of, minlength=assignment.n_clusters)
    examined = [step.cluster_id for step in result.trace]
    counts["selection.clusters_examined"] = len(examined)
    counts["selection.clusters_accepted"] = len(result.significant)
    # Importance scores every member once; each examined cluster after the
    # seed refits every one of its members against the basis.
    counts["selection.members_scored"] = len(matrix.specs) + int(sizes[examined[1:]].sum())


# (owner, attribute, span name, observer): the names the program calls
# its layers by, so each span times the program's own call.
INSTRUMENTED = (
    (cli, "load_manifest", "dataset.load_manifest", None),
    (dataset, "parse_counter_trace", "dataset.parse_counter_trace", _parsed),
    (dataset, "parse_power_trace", "dataset.parse_power_trace", _parsed),
    (dataset, "aggregate_run", "dataset.aggregate", None),
    (cli, "isolate_dataset", "dataset.isolate", None),
    (cli, "split_dataset", "dataset.split", None),
    (cli, "run_pipeline", "model.run_pipeline", None),
    (features, "drop_zero_variance", "features.drop_zero_variance", _retained),
    (features, "invert_negative", "features.invert_negative", _inverted),
    (features, "generate_combined", "features.generate_combined", _combined),
    (features, "build_matrix", "features.build_matrix", _matrix),
    (model, "ward_cluster", "clustering.ward", _dendrogram),
    (model, "cut_dendrogram", "clustering.cut", _cut),
    (model, "select_significant", "selection.select", _selected),
    (model, "ols_fit", "numerics.final_fit", None),
    (cli, "save_model", "model.save", None),
    (cli, "load_model", "model.load", None),
    (cli, "format_trace", "selection.format_trace", None),
    (clustering.Dendrogram, "to_json", "clustering.to_json", None),
    (cli, "predict_dataset", "model.predict", None),
    (cli, "evaluate", "numerics.evaluate", None),
    (cli, "evaluate_by_workload", "model.evaluate_by_workload", None),
)

ROOT_SPAN = "cli.main"


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in INSTRUMENTED]
    try:
        for (owner, attr, name, observer), (_, _, original) in zip(INSTRUMENTED, saved):
            setattr(owner, attr, tracer.wrap(original, name, observer))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def replay(cli_args: list[str], tracer: Tracer, counts: dict) -> int:
    """Run ``pmcpower <cli_args>`` in-process under the wrappers; returns
    its exit code. The job's stdout summary is discarded."""
    with instrumented(tracer), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span(ROOT_SPAN):
            code = cli.main(cli_args)
    tracer.settle(counts)
    return code


# Per-layer timings: each metric sums the spans named after it. A function
# that another instrumented one calls (drop_zero_variance inside
# invert_negative) counts in both.
SPAN_METRICS = {
    "dataset.aggregate_s": ("dataset.aggregate",),
    "dataset.isolate_s": ("dataset.isolate",),
    "dataset.split_s": ("dataset.split",),
    "features.drop_zero_variance_s": ("features.drop_zero_variance",),
    "features.invert_negative_s": ("features.invert_negative",),
    "features.generate_combined_s": ("features.generate_combined",),
    "features.build_matrix_s": ("features.build_matrix",),
    "clustering.ward_s": ("clustering.ward",),
    "clustering.cut_s": ("clustering.cut",),
    "selection.select_s": ("selection.select",),
    "numerics.final_fit_s": ("numerics.final_fit",),
    "numerics.evaluate_s": ("numerics.evaluate",),
    "model.run_pipeline_s": ("model.run_pipeline",),
    "model.predict_s": ("model.predict", "model.evaluate_by_workload"),
    "model.save_s": ("model.save",),
    "model.load_s": ("model.load",),
}

# Spans that only the training path may record.
PIPELINE_SPANS = (
    "model.run_pipeline", "features.generate_combined", "clustering.ward", "selection.select",
)


def layer_seconds(tr: Tracer, job: int) -> dict[str, float]:
    """Per-layer span totals of one traced job, plus two self times."""
    values = {metric: tr.total(job, *names) for metric, names in SPAN_METRICS.items()}
    # Reading and parsing: load_manifest outside its per-run aggregation.
    values["dataset.parse_s"] = (
        tr.total(job, "dataset.load_manifest") - values["dataset.aggregate_s"]
    )
    # run_pipeline outside its stages: fingerprint, meta, representatives.
    values["model.pipeline_glue_s"] = (
        values["model.run_pipeline_s"] - tr.children_total(job, "model.run_pipeline")
    )
    return values


def root_seconds(tr: Tracer, job: int) -> float:
    return tr.total(job, ROOT_SPAN)


def top_level_seconds(tr: Tracer, job: int) -> float:
    """Time the root span spends inside layer calls (its direct children)."""
    return tr.children_total(job, ROOT_SPAN)

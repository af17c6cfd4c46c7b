"""Seeded synthetic datasets with known latent power laws.

Counters are derived from a handful of latent activity factors through the
same dependency patterns that make real counters collinear: exact scalar
conversions (beats vs. bytes), sums of sibling counters, and noisy copies.
Because the generating law is known, recovery of the factor structure and
of the coefficients can be checked exactly, without hardware.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .dataset import Dataset, RunMeta
from .errors import ConfigError
from .model import PipelineResult


@dataclass(frozen=True)
class Scale:
    """counter = mult * factor (exact conversion collinearity)."""

    mult: float


@dataclass(frozen=True)
class SumOf:
    """counter = sibling_a + sibling_b (derivation collinearity)."""

    a: str
    b: str


@dataclass(frozen=True)
class NoiseCopy:
    """counter = factor * (1 + sigma * N(0,1)), truncated at zero."""

    sigma: float


Relation = Union[Scale, SumOf, NoiseCopy]


@dataclass(frozen=True)
class LatentFactor:
    name: str
    low: float
    high: float


@dataclass(frozen=True)
class SynthConfig:
    n_runs: int
    factors: tuple[LatentFactor, ...]
    coefficients: dict[str, float]  # mA per factor unit
    intercept: float  # mA
    families: dict[str, tuple[tuple[str, Relation], ...]]
    noise_sigma: float = 0.0  # relative Gaussian noise on measured current
    seed: int = 0
    frequency_hz: float = 1.0


@dataclass(frozen=True)
class GroundTruth:
    factor_of_counter: dict[str, str]
    scale_of_counter: dict[str, float | None]  # exact multiplier, None when noisy
    true_coefficients: dict[str, float]
    true_intercept: float


def _validate(cfg: SynthConfig) -> None:
    if cfg.n_runs < 3:
        raise ConfigError("need at least 3 runs")
    if not cfg.factors:
        raise ConfigError("need at least 1 latent factor")
    names = [f.name for f in cfg.factors]
    if len(set(names)) != len(names):
        raise ConfigError("factor names must be unique")
    for f in cfg.factors:
        if not 0 < f.low < f.high:
            raise ConfigError(f"factor {f.name!r} range must satisfy 0 < low < high")
    if set(cfg.coefficients) != set(names):
        raise ConfigError("coefficients must cover exactly the declared factors")
    if any(c < 0 for c in cfg.coefficients.values()):
        raise ConfigError("factor coefficients must be >= 0")
    unknown = set(cfg.families) - set(names)
    if unknown:
        raise ConfigError(f"family for undeclared factor {sorted(unknown)[0]!r}")
    seen: set[str] = set()
    for factor, family in cfg.families.items():
        local: set[str] = set()
        for counter, relation in family:
            if counter in seen:
                raise ConfigError(f"duplicate counter name {counter!r}")
            if isinstance(relation, SumOf) and (
                relation.a not in local or relation.b not in local
            ):
                raise ConfigError(
                    f"inconsistent family references: {counter!r} sums "
                    f"{relation.a!r}+{relation.b!r} before both are defined "
                    f"in factor {factor!r}"
                )
            seen.add(counter)
            local.add(counter)


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Draw factor values per run, derive counters, and synthesize the current.

    Factors are uniform over their configured ranges (bounded and strictly
    positive, like real event rates). Noise, when enabled, perturbs only
    the measured current so the model-error source is isolated. The same
    config (seed included) always yields a byte-identical dataset.
    """
    _validate(cfg)
    rng = np.random.default_rng(cfg.seed)

    factor_values = {
        f.name: rng.uniform(f.low, f.high, cfg.n_runs) for f in cfg.factors
    }

    columns: dict[str, np.ndarray] = {}
    factor_of: dict[str, str] = {}
    scale_of: dict[str, float | None] = {}
    for f in cfg.factors:
        for counter, relation in cfg.families.get(f.name, ()):
            if isinstance(relation, Scale):
                columns[counter] = relation.mult * factor_values[f.name]
                scale_of[counter] = relation.mult
            elif isinstance(relation, SumOf):
                columns[counter] = columns[relation.a] + columns[relation.b]
                sa, sb = scale_of[relation.a], scale_of[relation.b]
                scale_of[counter] = None if sa is None or sb is None else sa + sb
            else:
                noise = relation.sigma * rng.standard_normal(cfg.n_runs)
                columns[counter] = np.maximum(factor_values[f.name] * (1.0 + noise), 0.0)
                scale_of[counter] = None
            factor_of[counter] = f.name

    if not columns:
        raise ConfigError("no counters declared in any family")

    clean = cfg.intercept + sum(
        cfg.coefficients[f.name] * factor_values[f.name] for f in cfg.factors
    )
    if cfg.noise_sigma > 0:
        current = clean * (1.0 + cfg.noise_sigma * rng.standard_normal(cfg.n_runs))
        current = np.maximum(current, 0.0)
    else:
        current = clean

    meta = tuple(RunMeta(f"synth-{i:04d}", "Other", cfg.frequency_hz) for i in range(cfg.n_runs))
    ds = Dataset(tuple(columns), np.column_stack(list(columns.values())), meta, current)
    truth = GroundTruth(
        factor_of_counter=factor_of,
        scale_of_counter=scale_of,
        true_coefficients=dict(cfg.coefficients),
        true_intercept=cfg.intercept,
    )
    return ds, truth


def three_factor_config(
    n_runs: int = 120, noise_sigma: float = 0.0, seed: int = 0
) -> SynthConfig:
    """Recovery profile: 3 factors, 9 counters (base, 8x conversion copy,
    and their sum per factor), so every family is exactly collinear."""
    factors = (
        LatentFactor("alu", 120.0, 900.0),
        LatentFactor("mem", 80.0, 650.0),
        LatentFactor("tex", 50.0, 400.0),
    )
    families = {
        name: (
            (f"{name}_events", Scale(1.0)),
            (f"{name}_beats", Scale(8.0)),
            (f"{name}_total", SumOf(f"{name}_events", f"{name}_beats")),
        )
        for name in ("alu", "mem", "tex")
    }
    return SynthConfig(
        n_runs=n_runs,
        factors=factors,
        coefficients={"alu": 0.5, "mem": 0.3, "tex": 0.2},
        intercept=60.0,
        families=families,
        noise_sigma=noise_sigma,
        seed=seed,
    )


def collinear_config(
    n_runs: int = 150, noise_sigma: float = 0.02, seed: int = 0
) -> SynthConfig:
    """Baseline-ordering profile: the dominant factor has six collinear
    copies, so a top-k correlation pick wastes its budget on one factor."""
    factors = (
        LatentFactor("alu", 200.0, 1000.0),
        LatentFactor("mem", 200.0, 1000.0),
        LatentFactor("tex", 200.0, 1000.0),
    )
    families = {
        "alu": (
            ("alu_events", Scale(1.0)),
            ("alu_x2", Scale(2.0)),
            ("alu_x3", Scale(3.0)),
            ("alu_x4", Scale(4.0)),
            ("alu_x8", Scale(8.0)),
            ("alu_half", Scale(0.5)),
        ),
        "mem": (
            ("mem_events", Scale(1.0)),
            ("mem_beats", Scale(8.0)),
            ("mem_total", SumOf("mem_events", "mem_beats")),
        ),
        "tex": (
            ("tex_events", Scale(1.0)),
            ("tex_x2", Scale(2.0)),
            ("tex_noisy", NoiseCopy(0.01)),
        ),
    }
    return SynthConfig(
        n_runs=n_runs,
        factors=factors,
        coefficients={"alu": 1.2, "mem": 0.5, "tex": 0.3},
        intercept=100.0,
        families=families,
        noise_sigma=noise_sigma,
        seed=seed,
    )


def generate_util_freq(
    slopes: dict[float, float],
    intercept: float,
    n_per_freq: int = 40,
    seed: int = 0,
) -> Dataset:
    """Data following the utilization-frequency law exactly: one utilization
    slope per frequency level, shared intercept, no noise."""
    if n_per_freq < 2:
        raise ConfigError("need at least 2 runs per frequency level")
    rng = np.random.default_rng(seed)
    meta, busy_cycles, current = [], [], []
    for freq in sorted(slopes):
        for u in rng.uniform(0.05, 1.0, n_per_freq).tolist():
            meta.append(RunMeta(f"uf-{len(meta):04d}", "Other", freq, utilization=u))
            busy_cycles.append([u * freq])
            current.append(slopes[freq] * u + intercept)
    return Dataset(("busy_cycles",), busy_cycles, meta, current)


def generate_instruction_mix(
    n_runs: int = 120,
    seed: int = 0,
    noise_sigma: float = 0.0,
    frequency_hz: float = 471e6,
) -> tuple[Dataset, GroundTruth]:
    """Runs whose utilization repeats across very different instruction mixes.

    Utilization takes one of three levels while the split between cheap
    compute operations and expensive memory operations varies freely, so
    any model keyed on utilization alone faces large irreducible error
    while the counters still explain the current exactly.
    """
    if n_runs < 6:
        raise ConfigError("need at least 6 runs")
    rng = np.random.default_rng(seed)
    levels = np.array([0.5, 0.7, 0.9])
    util = levels[rng.integers(0, len(levels), n_runs)]
    mix = rng.uniform(0.1, 0.9, n_runs)  # fraction of activity that is compute

    compute_rate = util * mix * 1e6
    memory_rate = util * (1.0 - mix) * 1e6
    coeff = {"compute": 0.2e-3, "memory": 0.9e-3}
    intercept = 100.0
    current = intercept + coeff["compute"] * compute_rate + coeff["memory"] * memory_rate
    if noise_sigma > 0:
        current = current * (1.0 + noise_sigma * rng.standard_normal(n_runs))
        current = np.maximum(current, 0.0)

    meta = tuple(
        RunMeta(f"mix-{i:04d}", "Other", frequency_hz, utilization=u)
        for i, u in enumerate(util.tolist())
    )
    ds = Dataset(
        ("compute_ops", "memory_ops"), np.column_stack([compute_rate, memory_rate]), meta, current
    )
    truth = GroundTruth(
        factor_of_counter={"compute_ops": "compute", "memory_ops": "memory"},
        scale_of_counter={"compute_ops": 1.0, "memory_ops": 1.0},
        true_coefficients=coeff,
        true_intercept=intercept,
    )
    return ds, truth


@dataclass(frozen=True)
class RecoveryReport:
    """How faithfully a trained pipeline recovered the generating structure."""

    clusters_pure: bool  # every accepted cluster maps to exactly one factor
    factors_distinct: bool  # accepted clusters map to pairwise distinct factors
    factor_of_cluster: dict[int, str | None]
    coefficient_error: float | None  # max relative error; None when not 1:1
    intercept_error: float | None


def verify_recovery(pipeline: PipelineResult, truth: GroundTruth) -> RecoveryReport:
    """Check accepted clusters against the generating factors.

    A cluster is pure when every member references counters of one single
    factor. Coefficient recovery is only meaningful when each accepted
    representative is a plain (or inverted) counter with an exact scale
    relation to its factor; the fitted coefficient is then mapped back
    through that multiplier before comparing.
    """
    factor_of_cluster: dict[int, str | None] = {}
    for cluster_id, _rep in pipeline.selection.significant:
        member_factors: set[str] = set()
        pure = True
        for member in pipeline.cluster_members(cluster_id):
            referenced = {
                truth.factor_of_counter.get(name) for name in member.counters()
            }
            if None in referenced or len(referenced) != 1:
                pure = False
                break
            member_factors.update(referenced)  # type: ignore[arg-type]
        if pure and len(member_factors) == 1:
            factor_of_cluster[cluster_id] = member_factors.pop()
        else:
            factor_of_cluster[cluster_id] = None

    clusters_pure = all(f is not None for f in factor_of_cluster.values())
    mapped = [f for f in factor_of_cluster.values() if f is not None]
    factors_distinct = clusters_pure and len(set(mapped)) == len(mapped)

    coefficient_error: float | None = None
    intercept_error: float | None = None
    model = pipeline.model
    if clusters_pure and factors_distinct:
        errors = []
        for (cluster_id, rep), coef in zip(pipeline.selection.significant, model.coefficients):
            if rep.kind not in ("base", "inv"):
                errors = None
                break
            mult = truth.scale_of_counter.get(rep.a)
            if mult is None:
                errors = None
                break
            if rep.kind == "inv":
                mult = -mult
            true_coef = truth.true_coefficients[factor_of_cluster[cluster_id]]
            errors.append(abs(coef * mult - true_coef) / max(abs(true_coef), 1e-300))
        if errors is not None:
            coefficient_error = max(errors) if errors else None
            intercept_error = abs(model.intercept - truth.true_intercept) / max(
                abs(truth.true_intercept), 1e-300
            )
    return RecoveryReport(
        clusters_pure=clusters_pure,
        factors_distinct=factors_distinct,
        factor_of_cluster=factor_of_cluster,
        coefficient_error=coefficient_error,
        intercept_error=intercept_error,
    )


def _csv_text(header: list[str], rows: list[list[float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_dataset_files(
    ds: Dataset,
    out_dir,
    truth: GroundTruth | None = None,
    duration_s: int = 10,
) -> Path:
    """Emit per-run counter/power CSV traces plus a manifest (and ground-truth
    sidecar), exercising the exact ingestion formats; returns the manifest path.

    Each run becomes a trace of one dump per second whose deltas reproduce
    the run's average rates, and a constant current at the target level.
    """
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    timestamps = [1000.0 * t for t in range(duration_s + 1)]

    manifest_runs = []
    for i, (meta, rates, target) in enumerate(
        zip(ds.meta, ds.rates.tolist(), ds.target_current.tolist())
    ):
        counter_rows = [[timestamps[0]] + [0.0] * len(ds.counter_names)]
        counter_rows += [[ts] + rates for ts in timestamps[1:]]
        power_rows = [[ts, target] for ts in timestamps]

        counter_file = f"runs/run-{i:04d}.counters.csv"
        power_file = f"runs/run-{i:04d}.power.csv"
        (out_dir / counter_file).write_text(
            _csv_text(["ts_ms", *ds.counter_names], counter_rows)
        )
        (out_dir / power_file).write_text(
            _csv_text(["ts_ms", "current_ma"], power_rows)
        )
        entry = {
            "counter_file": counter_file,
            "power_file": power_file,
            "benchmark": meta.benchmark_name,
            "workload_type": meta.workload_type,
            "frequency_hz": meta.frequency_hz,
        }
        if meta.utilization is not None:
            entry["utilization"] = meta.utilization
        manifest_runs.append(entry)

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps({"runs": manifest_runs}, sort_keys=True, indent=2) + "\n"
    )
    if truth is not None:
        (out_dir / "ground_truth.json").write_text(
            json.dumps(
                {
                    "factor_of_counter": truth.factor_of_counter,
                    "scale_of_counter": truth.scale_of_counter,
                    "true_coefficients": truth.true_coefficients,
                    "true_intercept": truth.true_intercept,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    return manifest_path

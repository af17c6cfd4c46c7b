"""Seeded wide synthetic campaigns built from the public ``pmcpower.synth`` types.

The campaign design (factor ranges, which factor draws current, the counter
family of each factor) is fixed by the shape alone; the seed only draws the
runs: factor values, noisy counter copies and the current noise. So two
seeds give two campaigns of one design.

One latent factor draws all dynamic current and the others are idle
activity. With several comparable power factors the pipeline's product
candidates outrank the base counters and the test error of the trained
model swings by half from seed to seed; with one it stays near the
noise floor, so the quality metrics can guard against a change in what the
pipeline selects. Candidate and cluster counts, which set the run time,
do not depend on this choice: ``top_k`` caps them either way.
"""
from __future__ import annotations

from dataclasses import dataclass

from pmcpower.synth import LatentFactor, NoiseCopy, Scale, SumOf, SynthConfig

# The counter family of one latent factor: exact conversions, a derived sum
# and noisy copies, the collinearity patterns the clustering stage exists for.
FAMILY = (
    ("events", Scale(1.0)),
    ("beats", Scale(8.0)),
    ("total", SumOf("events", "beats")),
    ("half", Scale(0.5)),
    ("noisy", NoiseCopy(0.02)),
    ("stall", NoiseCopy(0.10)),
)

INTERCEPT_MA = 150.0
NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class Shape:
    """Campaign size: latent factors, counters per factor, runs, dumps per run."""

    factors: int
    per_family: int
    runs: int
    dumps: int


def wide_config(shape: Shape, seed: int) -> SynthConfig:
    """Synth config of ``shape``; ``seed`` draws the runs, not the design."""
    if not 1 <= shape.per_family <= len(FAMILY):
        raise ValueError(f"per_family must lie in 1..{len(FAMILY)}")
    factors = []
    coefficients = {}
    families = {}
    for k in range(shape.factors):
        name = f"f{k:03d}"
        low = 50.0 + 10.0 * (k % 7)
        factors.append(LatentFactor(name, low, low * (4.0 + k % 5)))
        coefficients[name] = 60.0 / low if k == 0 else 0.0
        families[name] = tuple(
            (
                f"{name}_{suffix}",
                SumOf(f"{name}_{rel.a}", f"{name}_{rel.b}") if isinstance(rel, SumOf) else rel,
            )
            for suffix, rel in FAMILY[: shape.per_family]
        )
    return SynthConfig(
        n_runs=shape.runs,
        factors=tuple(factors),
        coefficients=coefficients,
        intercept=INTERCEPT_MA,
        families=families,
        noise_sigma=NOISE_SIGMA,
        seed=seed,
    )

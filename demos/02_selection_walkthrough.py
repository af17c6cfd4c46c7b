#!/usr/bin/env python3
"""Inside the selection pipeline, one stage at a time.

Shows why each stage exists: constant counters carry nothing, stall-style
counters need inverting, exact conversions between counters produce
clusters of redundant features, and the greedy pass keeps one delegate per
cluster only while it still buys explanatory power.
"""
import numpy as np

from pmcpower.clustering import cut_dendrogram, default_cut_threshold, ward_cluster
from pmcpower.dataset import Dataset, RunMeta
from pmcpower.features import (
    build_matrix,
    drop_zero_variance,
    feature_column,
    generate_combined,
    invert_negative,
)
from pmcpower.numerics import pearson, pearson_p_value
from pmcpower.selection import format_trace, select_significant


def build_campaign(n=80, seed=4):
    """Hand-built dataset with one of each counter pathology."""
    rng = np.random.default_rng(seed)
    compute = rng.uniform(100, 900, n)       # real activity driver
    memory = rng.uniform(50, 500, n)         # second independent driver
    current = 40 + 0.6 * compute + 0.9 * memory + rng.normal(0, 8, n)
    columns = {
        "compute_instr": compute,
        "compute_bytes": compute / 8.0,      # exact conversion: 8 bytes per beat
        "mem_beats": memory,
        "mem_bytes": 8.0 * memory,
        "mem_total": memory + 8.0 * memory,  # derived: sum of the two above
        "stall_cycles": 1500.0 - compute + rng.normal(0, 20, n),  # anti-correlated
        "disabled_counter": np.zeros(n),     # never fires on this device
    }
    meta = [RunMeta(f"bench-{i:03d}", "Compute", 471e6) for i in range(n)]
    return Dataset(tuple(columns), np.column_stack(list(columns.values())), meta, current)


def main():
    ds = build_campaign()
    y = ds.target_current

    print("=== 1. Drop counters that never vary ===")
    retained, dropped = drop_zero_variance(ds)
    print(f"dropped: {dropped}")

    print("\n=== 2. Invert significantly negative counters ===")
    specs = invert_negative(ds, alpha=0.05)
    for spec in specs:
        r = pearson(ds.column(spec.a), y)
        print(f"  {spec.canonical():<22s} raw r={r:+.3f} "
              f"p={pearson_p_value(r, len(ds)):.2e}")

    print("\n=== 3. Score pairwise combinations ===")
    with_combined = generate_combined(ds, specs, alpha=0.05, top_k=5)
    for spec in with_combined[len(specs):]:
        r = pearson(feature_column(spec, ds), y)
        print(f"  kept candidate {spec.canonical():<32s} |r|={abs(r):.3f}")

    print("\n=== 4. Cluster the z-scored feature columns (Ward) ===")
    matrix = build_matrix(ds, specs)
    tree = ward_cluster(matrix.zscored(), matrix.names())
    for merge in tree.merges:
        print(f"  merge at height {merge.height:10.4f} -> size {merge.size}")
    threshold = default_cut_threshold(len(ds))
    cut = cut_dendrogram(tree, threshold)
    print(f"cut at {threshold:.1f}: {cut.n_clusters} clusters")
    for c in range(cut.n_clusters):
        names = [matrix.names()[i] for i in cut.members(c)]
        print(f"  cluster {c}: {names}")

    print("\n=== 5. Greedy significant-cluster selection ===")
    result = select_significant(cut, matrix, y, epsilon=0.01, patience=5)
    print(format_trace(result))
    print("chosen features:", [spec.canonical() for _, spec in result.significant])


if __name__ == "__main__":
    main()

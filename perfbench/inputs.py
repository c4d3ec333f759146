"""Seeded workload inputs and the retrieval reference.

Everything here depends on numpy only, so the reference check can run in a
process that never imports the package under test. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# Mirrors configs/smoke.json. The benchmark keeps its own copy so that the
# work it measures stays fixed when the bundled config changes.
SMOKE_RECIPE = {
    "dataset": {
        "num_classes": 8,
        "samples_per_class": 50,
        "input_dim": 64,
        "class_center_scale": 1.0,
        "within_class_stddev": 0.16,
        "overlap_factor": 0.2,
    },
    "backbone": {"kind": "mlp", "hidden_dims": [128], "embed_dim": 64, "normalize": True},
    "train": {
        "epochs": 30,
        "batch_classes": 4,
        "batch_instances": 3,
        "k_steps": 1,
        "heads": 2,
        "lr_f": 1e-3,
        "lr_g": 1e-3,
        "lr_cv": 1e-3,
        "metric_loss": "np_modified",
        "ablation": "full",
    },
    "eval": {"ks": [1, 2, 4, 8], "holdout_per_class": 10},
}

# The mid batch: 16 classes x 5 instances (B=80) at D=128, full arm.
MID_RECIPE = {
    "dataset": {
        "num_classes": 16,
        "samples_per_class": 40,
        "input_dim": 128,
        "class_center_scale": 1.0,
        "within_class_stddev": 0.16,
        "overlap_factor": 0.2,
    },
    "backbone": {"kind": "mlp", "hidden_dims": [256], "embed_dim": 128, "normalize": True},
    "train": {
        "epochs": 1,
        "batch_classes": 16,
        "batch_instances": 5,
        "k_steps": 1,
        "heads": 2,
        "lr_f": 1e-3,
        "lr_g": 1e-3,
        "lr_cv": 1e-3,
        "metric_loss": "np_modified",
        "ablation": "full",
    },
    "eval": {"ks": [1, 2, 4, 8], "holdout_per_class": 5},
}

RETRIEVAL_KS = [1, 2, 4, 8]
TINY_RETRIEVAL = {"n": 300, "classes": 10, "dim": 16}  # the self-tests' size

# Embedding coordinates are multiples of 2**-QUANT_BITS with |numerator| <=
# 2**QUANT_BITS, so each product is exact and a D=128 dot product stays below
# 2**53 units: every similarity is exact whatever the summation order. A
# blocked or streaming evaluator then sees the same ties as a brute-force one.
QUANT_BITS = 20


def train_recipe(base: dict, seed: int, **dataset_overrides) -> dict:
    """A resolved-config override set for ``hngen.cli.resolve_config``."""
    recipe = {section: dict(values) for section, values in base.items()}
    recipe["dataset"].update(dataset_overrides, seed=int(seed))
    recipe["train"]["seed"] = int(seed)
    return recipe


def retrieval_inputs(
    seed: int,
    n: int = 5000,
    classes: int = 100,
    dim: int = 128,
    noise: float = 2.0,
    duplicate_share: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm, class-clustered, quantized embeddings with exact duplicates.

    Class sizes vary around ``n / classes`` (each class has at least two
    members). ``duplicate_share`` of the rows are exact copies of another
    row of their class, so whole groups of gallery items tie on similarity.
    """
    rng = np.random.default_rng([int(seed), 0x5E7])
    labels = np.concatenate([np.arange(classes).repeat(2), rng.integers(0, classes, n - 2 * classes)])
    rng.shuffle(labels)
    centers = rng.standard_normal((classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    z = centers[labels] + noise * rng.standard_normal((n, dim)) / np.sqrt(dim)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    scale = float(2**QUANT_BITS)
    z = np.round(z * scale) / scale
    for i in rng.choice(n, size=int(duplicate_share * n), replace=False):
        mates = np.flatnonzero(labels == labels[i])
        z[i] = z[rng.choice(mates[mates != i])]
    return z, labels + 1


def reference_report(z: np.ndarray, labels: np.ndarray, ks: list[int], chunk: int = 500) -> dict:
    """Brute-force single-set retrieval metrics, in ``MetricReport.to_dict`` form.

    Each query ranks the whole gallery by a stable sort on (-similarity,
    index) and drops itself. Per-query values are then reduced with the
    arithmetic the metric definitions fix: R-Precision and MAP@R average in
    query order, and each MAP@R term sums precisions in rank order.
    """
    n = z.shape[0]
    same = np.bincount(labels)[labels] - 1  # R per query
    kmax = max(ks)
    width = min(max(kmax, int(same.max())), n - 1)
    hit_at_k = {k: np.empty(n, dtype=bool) for k in ks}
    rprec = np.empty(n)
    ap = np.empty(n)
    for q0 in range(0, n, chunk):
        q1 = min(q0 + chunk, n)
        order = np.argsort(-(z[q0:q1] @ z.T), axis=1, kind="stable")
        keep = order != np.arange(q0, q1)[:, None]
        order = order[keep].reshape(q1 - q0, n - 1)[:, :width]
        hits = labels[order] == labels[q0:q1, None]
        for k in ks:
            hit_at_k[k][q0:q1] = hits[:, :k].any(axis=1)
        r = same[q0:q1]
        csum = hits.cumsum(axis=1)
        ranks = np.arange(1, width + 1)
        rprec[q0:q1] = csum[np.arange(q1 - q0), r - 1] / r
        terms = (csum / ranks) * hits * (ranks[None, :] <= r[:, None])
        ap[q0:q1] = np.cumsum(terms, axis=1)[:, -1] / r
    return {
        "recall_at": {str(k): float(hit_at_k[k].mean()) for k in ks},
        "r_precision": float(rprec.mean()),
        "map_at_r": float(ap.mean()),
        "n_queries": n,
        "n_skipped": 0,
    }

"""Datasets and balanced batch assembly.

Provides a synthetic labeled-feature generator (class centers on a sphere,
Gaussian clouds around them, an overlap knob that contracts centers toward
their centroid), readers/writers for the CSV and binary feature formats,
and the N-classes x m-instances balanced sampler whose group order repeats
across the batch; ``LabeledBatch`` holds that layout rule. Each ``Dataset``
indexes its classes once, for the sampler, the holdout split and the trainer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError, SamplingError

BINARY_MAGIC = b"GCAF"
BINARY_VERSION = 1


@dataclass(frozen=True)
class FeatureSource:
    """A feature file to train on in place of the synthetic recipe; ``path``
    None (or empty) means the recipe. ``load_features`` checks ``format``."""

    path: str | None = None
    format: str = "auto"


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Recipe for a synthetic labeled dataset; a pure function of its seed."""

    num_classes: int = 8
    samples_per_class: int = 50
    input_dim: int = 64
    class_center_scale: float = 1.0
    within_class_stddev: float = 0.2
    overlap_factor: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.samples_per_class < 2:
            raise ConfigurationError(
                "samples_per_class must be >= 2: balanced batches need a "
                "same-class positive per anchor for the anchor-positive distance"
            )
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 0 < self.within_class_stddev < np.inf:
            raise ConfigurationError("within_class_stddev must be finite and > 0")
        if not 0.0 <= self.overlap_factor <= 1.0:
            raise ConfigurationError("overlap_factor must lie in [0, 1]")
        if not 0 < self.class_center_scale < np.inf:
            raise ConfigurationError("class_center_scale must be finite and > 0")


class Dataset:
    """Immutable feature matrix plus integer class labels in {1..C}, and its
    class index from one stable argsort: the sorted ``classes`` and
    ``class_rows[c]``, the rows of ``classes[c]`` in ascending order."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise DataFormatError("features must be a 2-D array")
        if features.shape[0] != labels.shape[0]:
            raise DataFormatError("features and labels disagree on record count")
        if features.shape[0] == 0:
            raise DataFormatError("dataset has no records")
        features.setflags(write=False)
        labels.setflags(write=False)
        self.features = features
        self.labels = labels
        rows = np.argsort(labels, kind="stable")
        rows.setflags(write=False)
        ordered = labels[rows]
        first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        self.classes = ordered[first]
        self.classes.setflags(write=False)
        self.class_rows = tuple(np.split(rows, first[1:]))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices].copy(), self.labels[indices].copy())


@dataclass
class LabeledBatch:
    """B = N*m samples; group g holds one sample of each class, same order.
    The one check of that layout, N >= 2 and m >= 2 included."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    n_instances: int

    def __post_init__(self):
        n, m = self.n_classes, self.n_instances
        if n < 2:
            raise SamplingError("n_classes must be >= 2: each anchor needs a negative")
        if m < 2:
            raise SamplingError("n_instances must be >= 2: each anchor needs a positive")
        if self.features.shape[0] != n * m or self.labels.shape[0] != n * m:
            raise SamplingError("batch size does not equal n_classes * n_instances")
        base = self.labels[:n]
        if np.unique(base).size != n:
            raise SamplingError("first group must contain n_classes distinct classes")
        if np.any(self.labels.reshape(m, n) != base):
            raise SamplingError("class order must repeat identically across groups")

    @property
    def size(self) -> int:
        return self.n_classes * self.n_instances


def make_synthetic(spec: SyntheticDatasetSpec) -> Dataset:
    """Deterministic synthetic dataset from a recipe.

    Centers are uniform on a sphere of radius ``class_center_scale`` and
    then pulled toward their centroid by ``overlap_factor`` (0 keeps them
    put, 1 collapses them); samples are isotropic Gaussian around centers.
    """
    rng = np.random.default_rng(spec.seed)
    raw = rng.standard_normal((spec.num_classes, spec.input_dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    centers = spec.class_center_scale * raw / norms
    centroid = centers.mean(axis=0, keepdims=True)
    centers = centroid + (1.0 - spec.overlap_factor) * (centers - centroid)
    n = spec.num_classes * spec.samples_per_class
    noise = rng.normal(0.0, spec.within_class_stddev, size=(n, spec.input_dim))
    features = np.repeat(centers, spec.samples_per_class, axis=0) + noise
    labels = np.repeat(np.arange(1, spec.num_classes + 1), spec.samples_per_class)
    return Dataset(features, labels)


def sample_balanced(
    dataset: Dataset, n_classes: int, n_instances: int, rng: np.random.Generator
) -> LabeledBatch:
    """Draw an N x m balanced batch with a fresh class order per batch."""
    classes = dataset.classes
    if classes.size < n_classes:
        raise SamplingError(
            f"dataset has {classes.size} classes, need {n_classes}"
        )
    chosen = rng.choice(classes.size, size=n_classes, replace=False)
    chosen = chosen[rng.permutation(n_classes)]
    per_class_idx = []
    for c in chosen:
        pool = dataset.class_rows[c]
        if pool.size < n_instances:
            raise SamplingError(
                f"class {int(classes[c])} has {pool.size} samples, need {n_instances}"
            )
        per_class_idx.append(rng.choice(pool, size=n_instances, replace=False))
    # row s of the (N, m) draws is class slot s; the batch reads it by group
    order = np.concatenate(per_class_idx).reshape(n_classes, n_instances).T.ravel()
    return LabeledBatch(
        features=dataset.features[order],
        labels=dataset.labels[order],
        n_classes=n_classes,
        n_instances=n_instances,
    )


# --- feature file formats ----------------------------------------------------


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            feats = ",".join(repr(float(v)) for v in row)
            fh.write(f"{int(label)},{feats}\n")


def _parse_csv(path) -> Dataset:
    labels: list[int] = []
    rows: list[list[float]] = []
    dim = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if lineno == 1:
                try:
                    float(fields[0])
                except ValueError:
                    continue  # header row, detected by non-numeric first field
            try:
                label = int(fields[0])
                feats = [float(v) for v in fields[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
            if not -(2**63) <= label < 2**63:
                raise DataFormatError(f"{path}: line {lineno}: label {label} is outside int64")
            if not all(map(math.isfinite, feats)):
                raise DataFormatError(f"{path}: line {lineno}: non-finite feature value")
            if dim is None:
                dim = len(feats)
                if dim == 0:
                    raise DataFormatError(f"{path}: line {lineno}: no feature columns")
            elif len(feats) != dim:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {dim} features, got {len(feats)}"
                )
            labels.append(label)
            rows.append(feats)
    if not rows:
        raise DataFormatError(f"{path}: no records")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64))


def save_binary(dataset: Dataset, path) -> None:
    """Binary feature format: magic, version u32, count u64, dim u32, then
    per record a u32 label and dim little-endian float32 values."""
    labels = dataset.labels
    outside = labels[(labels < 0) | (labels >= 2**32)]
    if outside.size:  # refused before the file is opened: a u32 cast would wrap
        raise DataFormatError(f"{path}: label {int(outside[0])} does not fit a u32")
    records = np.empty(len(dataset), [("label", "<u4"), ("features", "<f4", (dataset.dim,))])
    records["label"], records["features"] = labels, dataset.features
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<IQI", BINARY_VERSION, len(dataset), dataset.dim))
        fh.write(records.tobytes())


def _parse_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise DataFormatError(f"{path}: truncated header")
        version, count, dim = struct.unpack("<IQI", header)
        if version != BINARY_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        if count == 0:
            raise DataFormatError(f"{path}: no records")
        if dim == 0:
            raise DataFormatError(f"{path}: no feature columns")
        record = 4 + 4 * dim
        # a corrupt header can claim more than the file holds; never try
        if record * count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataFormatError(f"{path}: truncated records")
        blob = fh.read(record * count)
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(count, record)
    labels = raw[:, :4].copy().view("<u4").reshape(count).astype(np.int64)
    feats = raw[:, 4:].copy().view("<f4").reshape(count, dim).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}: record {bad[0] + 1}: non-finite feature value")
    return Dataset(feats, labels)


def load_features(path, fmt: str = "auto") -> Dataset:
    """Read a feature file; fmt is 'csv', 'binary', or 'auto' (sniff magic)."""
    if fmt not in ("auto", "csv", "binary"):
        raise ConfigurationError(f"unknown feature format {fmt!r}")
    try:
        if fmt == "auto":
            with open(path, "rb") as fh:
                fmt = "binary" if fh.read(4) == BINARY_MAGIC else "csv"
        return _parse_csv(path) if fmt == "csv" else _parse_binary(path)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read feature file: {exc.strerror}") from exc


def save_features(dataset: Dataset, path, fmt: str = "auto") -> str:
    """Write ``dataset`` as 'csv' or 'binary'; 'auto' picks binary for a
    ``.bin`` path. Returns the format written."""
    if fmt == "auto":
        fmt = "binary" if str(path).endswith(".bin") else "csv"
    if fmt == "csv":
        save_csv(dataset, path)
    elif fmt == "binary":
        save_binary(dataset, path)
    else:
        raise ConfigurationError(f"unknown feature format {fmt!r}")
    return fmt


def split_holdout(
    dataset: Dataset, holdout_per_class: int, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Per-class split into (train, holdout) for validation retrieval."""
    train_idx, val_idx = [], []
    for label, pool in zip(dataset.classes, dataset.class_rows):
        if pool.size <= holdout_per_class:
            raise SamplingError(
                f"class {int(label)} has {pool.size} samples; cannot hold out "
                f"{holdout_per_class}"
            )
        perm = rng.permutation(pool)
        val_idx.append(perm[:holdout_per_class])
        train_idx.append(perm[holdout_per_class:])
    return (
        dataset.subset(np.sort(np.concatenate(train_idx))),
        dataset.subset(np.sort(np.concatenate(val_idx))),
    )

"""Feature extractor mapping raw inputs to unit-norm embeddings.

Either a small MLP (hidden ReLU stack plus a linear embedding head) or an
identity pass-through for pre-extracted features. Rows are L2-normalized on
the way out so downstream distance math can treat them as unit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datakit import LabeledBatch
from .errors import ConfigurationError, ShapeError


@dataclass
class BackboneConfig:
    kind: str = "mlp"
    hidden_dims: list[int] = field(default_factory=lambda: [128])
    embed_dim: int = 64
    normalize: bool = True

    def validate(self) -> None:
        if self.kind not in ("mlp", "identity"):
            raise ConfigurationError(f"unknown backbone kind {self.kind!r}")
        if self.embed_dim < 2:
            raise ConfigurationError("embed_dim must be >= 2")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ConfigurationError("mlp backbone needs at least one hidden dim")
        if self.normalize is not True:  # the graph, losses and retrieval need unit rows
            raise ConfigurationError("backbone.normalize must be true")


@dataclass
class EmbeddingBatch:
    """Unit-norm embeddings plus labels, keeping the batch's (N, m) layout."""

    z: ad.Tensor
    labels: np.ndarray
    n_classes: int
    n_instances: int

    @property
    def size(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


class Backbone(ad.Module):
    """``config`` must have passed ``BackboneConfig.validate``."""

    def __init__(self, config: BackboneConfig, input_dim: int, rng: np.random.Generator):
        self.config = config
        self.input_dim = input_dim
        self.layers: list[ad.Linear] = []
        if config.kind == "mlp":
            dims = [input_dim] + list(config.hidden_dims) + [config.embed_dim]
            self.layers = [ad.Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
        elif input_dim != config.embed_dim:
            raise ConfigurationError(
                f"identity backbone needs input_dim == embed_dim "
                f"({input_dim} != {config.embed_dim})"
            )

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        if x.shape[-1] != self.input_dim:
            raise ShapeError(
                f"expected input dim {self.input_dim}, got {x.shape[-1]}"
            )
        h = x
        for layer in self.layers[:-1]:
            h = ad.relu(layer(h))
        if self.layers:
            h = self.layers[-1](h)
        return ad.l2_normalize(h)

    def embed(self, batch: LabeledBatch, mode: str = "train") -> EmbeddingBatch:
        """Embed a batch; eval mode runs untracked (and is deterministic)."""
        if mode not in ("train", "eval"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        x = ad.Tensor(np.asarray(batch.features, dtype=np.float64))
        z = self.forward(x)
        if mode == "eval":
            z = z.detach()
        return EmbeddingBatch(
            z=z,
            labels=np.asarray(batch.labels, dtype=np.int64),
            n_classes=batch.n_classes,
            n_instances=batch.n_instances,
        )

    def embed_array(self, features: np.ndarray) -> np.ndarray:
        """Eval-mode embedding of a raw feature matrix."""
        x = ad.Tensor(np.asarray(features, dtype=np.float64))
        return self.forward(x).data

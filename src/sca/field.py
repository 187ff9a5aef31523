"""Per-token tensor fields in rank-1 factored form.

A token's field is the outer product of its embedding (left factor) with
a kernel-weighted context vector (right factor), kept factored so the
largest singular value is exact and cheap: sigma_max = scale * |left| * |right|.
mean_field, the dense average of the member fields, is the oracle for the mean
that coherence.compute_batch_state builds from the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .embedding import EmbeddingTable
from .kernel import KernelSpec

PROJECTION_MODES = ("clip", "alg1")


@dataclass
class TensorField:
    """Rank-1 field scale * outer(left, right)."""

    left: np.ndarray
    right: np.ndarray
    scale: float = 1.0

    def dense(self) -> np.ndarray:
        return self.scale * np.outer(self.left, self.right)


def context_vector(
    spec: KernelSpec, table: EmbeddingTable, i: int, batch: np.ndarray
) -> np.ndarray:
    """Kernel-weighted empirical mean of the batch embeddings around token i."""
    batch = np.asarray(batch, dtype=np.int64)
    row = kernel.kernel_row(spec, table, i, batch)  # raises on an empty batch
    return (row[:, None] * table.vectors[batch]).sum(axis=0) / batch.size


def dense_mean(stack: np.ndarray) -> np.ndarray:
    """Mean over the first axis, as first element plus mean deviation.

    The shifted form makes the mean of identical matrices equal to that
    matrix bitwise, which downstream exact-zero guarantees rely on.
    """
    base = stack[0]
    return base + (stack - base).mean(axis=0)


def mean_field(fields: list[TensorField]) -> np.ndarray:
    """Dense batch-average of the fields (clipped scales included)."""
    if not fields:
        raise ValueError("mean_field needs at least one field")
    dims = {(f.left.shape[0], f.right.shape[0]) for f in fields}
    if len(dims) != 1:
        raise ValueError(f"fields have mixed dimensions: {sorted(dims)}")
    return dense_mean(np.stack([f.dense() for f in fields]))


def spectral_norm(f: TensorField) -> float:
    """Largest singular value of the dense field, exact for rank-1."""
    return abs(f.scale) * float(np.linalg.norm(f.left)) * float(np.linalg.norm(f.right))


def spectral_scales(sigma, rho: float, mode: str = "clip") -> np.ndarray:
    """Factors that bound fields of spectral norm sigma by rho; the one home of the rule.

    clip: rho / max(sigma, rho), so sigma_max <= rho and fields inside the
    ball keep scale exactly 1. alg1: 1 / max(sigma, rho), which maps an
    out-of-bounds field to norm 1 and shrinks in-bounds fields by rho.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if mode not in PROJECTION_MODES:
        raise ValueError(f"unknown projection mode {mode!r}; expected one of {PROJECTION_MODES}")
    return (rho if mode == "clip" else 1.0) / np.maximum(sigma, rho)


def spectral_project(f: TensorField, rho: float, mode: str = "clip") -> TensorField:
    """Bound the field's norm by rho; a field the rule leaves at scale 1 is returned as is."""
    s = float(spectral_scales(spectral_norm(f), rho, mode))
    return f if s == 1.0 else TensorField(f.left, f.right, f.scale * s)

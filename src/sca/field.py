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
    if batch.size == 0:
        raise ValueError("batch is empty")
    row = np.array([kernel.kernel_eval(spec, table.vectors[i], table.vectors[j]) for j in batch])
    return (row[:, None] * table.vectors[batch]).sum(axis=0) / batch.size


def mean_field(fields: list[TensorField]) -> np.ndarray:
    """Dense batch-average of the fields (clipped scales included).

    Taken as first field plus mean deviation, so identical fields average to
    themselves bitwise.
    """
    if not fields:
        raise ValueError("mean_field needs at least one field")
    dims = {(f.left.shape[0], f.right.shape[0]) for f in fields}
    if len(dims) != 1:
        raise ValueError(f"fields have mixed dimensions: {sorted(dims)}")
    stack = np.stack([f.dense() for f in fields])
    return stack[0] + (stack - stack[0]).mean(axis=0)


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

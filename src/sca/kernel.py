"""Contextual-influence kernels over embedding vectors.

All families are symmetric. kernel_eval (one pair, elementwise) is the oracle;
kernel_block takes a block from one Gram matrix X Y^T and matches it to rounding.
Exact cases: with X is Y the rbf diagonal is 1.0, rows equal to X[0] are at
rbf distance 0, and a zero row has cosine 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable

FAMILIES = ("rbf", "dot", "cosine")

BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (rbf only)."""

    family: str = "rbf"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")


def _require_bandwidth(spec: KernelSpec) -> float:
    if spec.bandwidth is None:
        raise ValueError("rbf kernel requires a bandwidth; resolve one via median_bandwidth")
    return spec.bandwidth


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """K(x, y) for a single vector pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.family == "rbf":
        h = _require_bandwidth(spec)
        diff = x - y
        return float(np.exp(-np.sum(diff * diff) / (2.0 * h * h)))
    if spec.family == "dot":
        return float(np.sum(x * y))
    nx = float(np.sqrt(np.sum(x * x)))
    ny = float(np.sqrt(np.sum(y * y)))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.sum(x * y) / (nx * ny))


def kernel_block(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise kernel values, shape (len(X), len(Y)), from the Gram matrix X Y^T."""
    same = X is Y
    X = np.asarray(X, dtype=float)
    Y = X if same else np.asarray(Y, dtype=float)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    # rows equal to z = X[0] become 0, so their block is exactly constant; one-row X: exact sy
    shift = X.shape[0] > 0 and (same or spec.family == "rbf")
    if shift:
        z = X[0]
        Y = Y - z
        X = Y if same else X - z
    G = X @ Y.T
    if shift and spec.family != "rbf":
        p = X @ z  # x_i . x_j = u_i . u_j + u_i . z + u_j . z + z . z
        G += p[:, None] + p + z @ z
    if spec.family == "dot":
        return G
    sx = G.diagonal() if same else np.einsum("ij,ij->i", X, X)
    sy = sx if same else np.einsum("ij,ij->i", Y, Y)
    if spec.family == "rbf":
        h = _require_bandwidth(spec)
        return np.exp(np.maximum(sx[:, None] + sy - 2.0 * G, 0.0) / (-2.0 * h * h))
    denom = np.sqrt(sx)[:, None] * np.sqrt(sy)
    return np.divide(G, denom, out=np.zeros_like(G), where=denom != 0.0)


def kernel_row(spec: KernelSpec, table: EmbeddingTable, i: int, batch: np.ndarray) -> np.ndarray:
    """K(e_i, e_j) for every j in the batch, in batch order."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("batch is empty")
    return kernel_block(spec, table.vectors[i][None, :], table.vectors[batch])[0]


def median_bandwidth(table: EmbeddingTable, sample_size: int = 2000, seed: int = 0) -> float:
    """Median pairwise embedding distance over a seeded pair sample.

    Covers all distinct pairs when the sample budget allows; otherwise
    samples pairs with replacement. Floored at BANDWIDTH_FLOOR, with a
    warning when the median itself sits below the floor.
    """
    n = len(table)
    if n < 2:
        raise ValueError("need at least two embeddings")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    total_pairs = n * (n - 1) // 2
    if sample_size >= total_pairs:
        iu, ju = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        iu = rng.integers(0, n, size=sample_size)
        ju = rng.integers(0, n - 1, size=sample_size)
        ju = np.where(ju >= iu, ju + 1, ju)
    diff = table.vectors[iu] - table.vectors[ju]
    med = float(np.median(np.sqrt(np.sum(diff * diff, axis=1))))
    if med < BANDWIDTH_FLOOR:
        warnings.warn(
            f"median pairwise distance {med:.3g} below floor; using {BANDWIDTH_FLOOR}",
            RuntimeWarning,
            stacklevel=2,
        )
        return BANDWIDTH_FLOOR
    return med

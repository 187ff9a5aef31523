"""Contextual-influence kernels over embedding vectors.

All families are symmetric. kernel_block gives a batch the kernel-weighted sums
of its contexts. Only rbf builds the (m, m) kernel, so only rbf is O(m^2) in
memory; dot and cosine are O(md + d^2). Exact cases: the rbf diagonal is 1.0,
rows equal to X[0] are at rbf distance 0, and a zero row has cosine 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

FAMILIES = ("rbf", "dot", "cosine")

BANDWIDTH_FLOOR = 1e-6
BANDWIDTH_PAIRS = 2000  # pair sample of median_bandwidth


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (rbf only, where it is required); cli._resolve_kernel
    builds every spec the program uses, from a checked family and bandwidth."""

    family: str
    bandwidth: float | None = None


def kernel_block(spec: KernelSpec, X: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """K a and K 1 over the rows of X, for the batch kernel K(x_i, x_j) and a = X - X[0].

    rbf takes K from the Gram matrix a a^T, so rows equal to X[0] are exactly constant. dot and
    cosine never form K: K = H H^T, H = X or its unit rows, so K a = H (H^T a), and K 1 is
    reduced row by row, so equal rows of X get bit-equal K 1. A zero cosine row stays 0.
    """
    if spec.family == "rbf":
        G = np.dot(a, a.T)
        s = G.diagonal()
        K = np.add.outer(s, s)  # |a_i - a_j|^2, then the kernel, in place on two (m, m) buffers
        G *= 2.0
        K -= G
        np.maximum(K, 0.0, out=K)
        K /= -2.0 * spec.bandwidth * spec.bandwidth
        np.exp(K, out=K)
        return np.dot(K, a), np.add.reduce(K, axis=1)
    H = X
    if spec.family == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
        H = np.divide(X, norms, out=np.zeros_like(X), where=norms != 0.0)
    return np.dot(H, np.dot(H.T, a)), np.add.reduce(H * np.add.reduce(H), axis=1)


def median_bandwidth(table: np.ndarray, seed: int = 0) -> float:
    """Median pairwise embedding distance over a seeded pair sample.

    Covers all distinct pairs when there are at most BANDWIDTH_PAIRS;
    otherwise samples that many pairs with replacement. Floored at BANDWIDTH_FLOOR, with a
    warning when the median itself sits below the floor.
    """
    n = len(table)
    if n < 2:
        raise ValueError("need at least two embeddings")
    total_pairs = n * (n - 1) // 2
    if BANDWIDTH_PAIRS >= total_pairs:
        iu, ju = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        iu = rng.integers(0, n, size=BANDWIDTH_PAIRS)
        ju = rng.integers(0, n - 1, size=BANDWIDTH_PAIRS)
        ju = np.where(ju >= iu, ju + 1, ju)
    diff = table[iu] - table[ju]
    dists = np.sqrt(np.sum(diff * diff, axis=1))
    lo, hi = (len(dists) - 1) // 2, len(dists) // 2  # as np.median, minus its numpy.ma NaN check
    mid = np.partition(dists, [lo, hi])
    med = float((mid[lo] + mid[hi]) / 2)
    if med < BANDWIDTH_FLOOR:
        warnings.warn(
            f"median pairwise distance {med:.3g} below floor; using {BANDWIDTH_FLOOR}",
            RuntimeWarning,
            stacklevel=2,
        )
        return BANDWIDTH_FLOOR
    return med

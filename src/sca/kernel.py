"""Contextual-influence kernels over embedding vectors.

All families are symmetric. kernel_block takes a batch's self-block from one
Gram matrix; the rbf chain after it runs in place on two (m, m) buffers. Exact
cases: the rbf diagonal is 1.0, rows equal to X[0] are at rbf distance 0, and
a zero row has cosine 0.
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


def kernel_block(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """K(x_i, x_j) over the rows of X, shape (m, m), from the Gram matrix U U^T, U = X - X[0].

    Rows equal to X[0] become 0, so their entries are exactly constant. The
    cosine takes its norms from the rows of X, so a zero row and column are exactly 0.
    """
    X = np.asarray(X, dtype=float)
    z = X[0]
    U = X - z
    G = np.dot(U, U.T)
    if spec.family != "rbf":
        p = U @ z  # x_i . x_j = u_i . u_j + u_i . z + u_j . z + z . z
        G += p[:, None] + p + z @ z
    if spec.family == "dot":
        return G
    if spec.family == "rbf":
        s = G.diagonal()
        H = np.add.outer(s, s)  # |u_i - u_j|^2, then the kernel, in place on two (m, m) buffers
        G *= 2.0
        H -= G
        np.maximum(H, 0.0, out=H)
        H /= -2.0 * spec.bandwidth * spec.bandwidth
        return np.exp(H, out=H)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    denom = norms[:, None] * norms
    return np.divide(G, denom, out=np.zeros_like(G), where=denom != 0.0)


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

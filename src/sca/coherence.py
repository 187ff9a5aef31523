"""Coherence loss over batch tensor fields, its closed-form gradient,
finite-difference oracles, and the batch coherence score.

The loss is the summed squared Frobenius distance from each token's field
to the batch mean field. The closed-form gradient treats kernel weights,
context vectors, and the mean field as constants (the update direction
used in training); the full finite-difference gradient that re-derives
everything per perturbation exists as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corpus, field, kernel
from .embedding import EmbeddingTable
from .field import TensorField
from .kernel import KernelSpec

SCORE_GUARD = 1e-12


@dataclass
class BatchState:
    """Everything derived from one batch against an embedding snapshot."""

    token_ids: np.ndarray  # (m,)
    lefts: np.ndarray  # (m, d) embeddings
    rights: np.ndarray  # (m, d) context vectors
    scales: np.ndarray  # (m,) spectral bound factors s_i
    mean: np.ndarray  # (d, d) mean of the bounded fields
    loss: float
    gradients: np.ndarray  # (m, d) detached update directions
    score: float  # coherence score of the bounded fields

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    def fields(self) -> list[TensorField]:
        return [
            TensorField(self.lefts[i], self.rights[i], float(self.scales[i]))
            for i in range(self.size)
        ]


def compute_batch_state(
    spec: KernelSpec, table: EmbeddingTable, token_ids: np.ndarray, rho: float | None = None,
    mode: str = "clip",
) -> BatchState:
    """The one batch pass: kernel rows, contexts, bounded fields, mean, loss, gradients, score.

    Field T_i = e_i c_i^T is bounded to s_i T_i, s_i = field.spectral_scales(|e_i||c_i|, rho,
    mode) (1 when rho is None); the mean M, the loss sum |s_i T_i - M|^2, the detached
    gradient g_i = 2 s_i (s_i T_i - M) c_i and the score all come from that one stack.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D array")
    if ids.min() < 0 or ids.max() >= len(table):
        raise ValueError("token id outside the embedding table")
    m = ids.size
    E = table.vectors[ids]
    K = kernel.kernel_block(spec, E, E)
    C = (K[:, :, None] * E[None, :, :]).sum(axis=1) / m
    sigma = np.linalg.norm(E, axis=1) * np.linalg.norm(C, axis=1)
    scales = np.ones(m) if rho is None else field.spectral_scales(sigma, rho, mode)
    stack = (scales[:, None] * E)[:, :, None] * C[:, None, :]
    M = field.dense_mean(stack)
    score = _frobenius_cosine_mean(stack, M)
    D = stack - M
    loss = float(np.sum(D * D))
    gradients = (2.0 * scales)[:, None] * np.einsum("ijk,ik->ij", D, C)
    return BatchState(
        token_ids=ids,
        lefts=E,
        rights=C,
        scales=scales,
        mean=M,
        loss=loss,
        gradients=gradients,
        score=score,
    )


def sca_loss(fields: list[TensorField], mean: np.ndarray) -> float:
    """Sum of squared Frobenius distances from each field to the mean field."""
    if not fields:
        raise ValueError("sca_loss needs at least one field")
    total = 0.0
    for f in fields:
        diff = f.dense() - mean
        total += float(np.sum(diff * diff))
    return total


def sca_gradient(state: BatchState) -> np.ndarray:
    """Per-token update directions g_i = 2 s_i (s_i T_i - M) c_i.

    Kernel weights, context vectors, and the mean field are held fixed;
    compare fd_gradient_full for the fully coupled derivative.
    """
    return state.gradients


def _central_differences(f, e0: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of the scalar function f at the point e0, step eps."""
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    grad = np.zeros_like(e0)
    for k in range(e0.size):
        plus = e0.copy()
        minus = e0.copy()
        plus[k] += eps
        minus[k] -= eps
        grad[k] = (f(plus) - f(minus)) / (2.0 * eps)
    return grad


def fd_gradient_detached(
    table: EmbeddingTable, i: int, context: np.ndarray, mean: np.ndarray, eps: float = 1e-5,
    scale: float = 1.0,
) -> np.ndarray:
    """Central differences of f(e) = |scale * outer(e, context) - mean|_F^2 at row i."""
    context = np.asarray(context, dtype=float)
    mean = np.asarray(mean, dtype=float)

    def f(e: np.ndarray) -> float:
        diff = scale * np.outer(e, context) - mean
        return float(np.sum(diff * diff))

    return _central_differences(f, np.array(table.vectors[i], dtype=float), eps)


def fd_gradient_full(
    spec: KernelSpec, table: EmbeddingTable, batch: np.ndarray, i: int, eps: float = 1e-5
) -> np.ndarray:
    """Central differences of the full batch loss as a function of row i.

    Kernel rows, context vectors, and the mean field are all recomputed per
    perturbation, so this is the true gradient of the discrete objective.
    """
    batch = np.asarray(batch, dtype=np.int64)
    base = np.array(table.vectors, dtype=float)

    def loss_at(e: np.ndarray) -> float:
        vectors = base.copy()
        vectors[i] = e
        snapshot = EmbeddingTable(vectors=vectors, vocab=table.vocab, seed=table.seed)
        return compute_batch_state(spec, snapshot, batch).loss

    return _central_differences(loss_at, base[i].copy(), eps)


def _frobenius_cosine_mean(stack: np.ndarray, mean: np.ndarray) -> float:
    numer = np.sum(stack * mean, axis=(1, 2))
    norms = np.sqrt(np.sum(stack * stack, axis=(1, 2)))
    mean_norm = float(np.sqrt(np.sum(mean * mean)))
    return float(np.mean(numer / (norms * mean_norm + SCORE_GUARD)))


def coherence_score(fields: list[TensorField], mean: np.ndarray) -> float:
    """Mean Frobenius cosine between each field and the mean field.

    Artifact-defined metric in [-1, 1]; the guard term sends degenerate
    zero fields (or a zero mean) to score 0 instead of dividing by zero.
    """
    if not fields:
        raise ValueError("coherence_score needs at least one field")
    return _frobenius_cosine_mean(np.stack([f.dense() for f in fields]), np.asarray(mean, float))


def evaluate_coherence(
    table: EmbeddingTable,
    documents: list,
    spec: KernelSpec,
    batch_size: int,
    seed: int,
    num_batches: int = 16,
) -> float:
    """Mean coherence score over seeded evaluation batches."""
    pools = corpus.token_pools(documents)
    scores = []
    for step in range(num_batches):
        ids = corpus.sample_from_pools(pools, batch_size, seed, step)
        scores.append(compute_batch_state(spec, table, ids).score)
    return float(np.mean(scores))

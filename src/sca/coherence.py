"""Coherence loss over batch tensor fields, its closed-form gradient, the
spectral bound, finite-difference checks, and the batch coherence score.

A token's field is the rank-1 outer product T_i = e_i c_i^T of its embedding
with its kernel-weighted context vector, so its largest singular value is
|e_i||c_i|. The loss is the summed squared Frobenius distance from each
(spectrally bounded) field to the batch mean field. The closed-form gradient
treats kernel weights, context vectors, and the mean field as constants (the
update direction used in training); the full finite-difference gradient that
re-derives everything per perturbation exists as a diagnostic.
compute_batch_state never forms a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corpus, kernel
from .kernel import KernelSpec

SCORE_GUARD = 1e-12
EVAL_BATCHES = 16  # seeded batches per evaluate_coherence
PROJECTION_MODES = ("clip", "alg1")


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


def compute_batch_state(
    spec: KernelSpec, table: np.ndarray, token_ids: np.ndarray, rho: float | None = None,
    mode: str = "clip",
) -> BatchState:
    """The one batch pass: kernel rows, contexts, bounded fields, mean, loss, gradients, score.

    T_i = e_i c_i^T is bounded to s_i T_i, s_i = spectral_scales(|e_i||c_i|, rho, mode)
    (1 when rho is None). M, the loss sum |s_i T_i - M|^2, the gradients g_i = 2 s_i (s_i T_i - M)
    c_i and the score come from Gram matrices of A = s E and C in O(m^2 + md + d^2) memory, with
    T_i - T_0 in rank-2 form: identical rows give exact zeros, and the loss cancels relative to
    the batch spread, not to |T|^2.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D array")
    if ids.min() < 0 or ids.max() >= len(table):
        raise ValueError("token id outside the embedding table")
    m = ids.size
    E = table[ids]
    K = kernel.kernel_block(spec, E)
    C = (K @ (E - E[0]) + K.sum(axis=1)[:, None] * E[0]) / m  # equal rows of E give equal rows
    # sigma_i = |e_i||c_i| from the two row norms, not sqrt(|e_i|^2 Gamma_ii)
    sigma = np.sqrt((E * E).sum(axis=1)) * np.sqrt((C * C).sum(axis=1))
    scales = np.ones(m) if rho is None else spectral_scales(sigma, rho, mode)
    A = scales[:, None] * E
    A0, C0 = A[0], C[0]
    a, c = A - A0, C - C0
    c_mean = c.sum(axis=0) / m
    Gamma = C @ C.T
    gamma, cC = Gamma.diagonal(), np.einsum("ij,ij->i", c, C)
    # D_i = a_i C_i^T + A_0 c_i^T; their mean is M - T_0
    D_mean = (a.T @ C) / m + A0[:, None] * c_mean
    M = A0[:, None] * C0 + D_mean
    D_sq = np.einsum("ij,ij,i->", a, a, gamma) + 2.0 * (a @ A0) @ cC + (A0 @ A0) * np.vdot(c, c)
    # (T_i - M) C_i = A_0 ((c_i - mean c) . C_i) + Gamma_ii a_i - (Gamma a)_i / m
    g = gamma[:, None] * a - Gamma @ a / m + np.einsum("ij,ij->i", c - c_mean, C)[:, None] * A0
    loss = float(D_sq - m * np.vdot(D_mean, D_mean))
    inner = np.einsum("ij,ij->i", A @ M, C)
    score = float(np.sum(inner / (scales * sigma * np.sqrt(np.vdot(M, M)) + SCORE_GUARD)) / m)
    return BatchState(ids, E, C, scales, M, loss, (2.0 * scales)[:, None] * g, score)


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
    table: np.ndarray, i: int, context: np.ndarray, mean: np.ndarray, eps: float = 1e-5,
    scale: float = 1.0,
) -> np.ndarray:
    """Central differences of f(e) = |scale * outer(e, context) - mean|_F^2 at row i."""
    context = np.asarray(context, dtype=float)
    mean = np.asarray(mean, dtype=float)

    def f(e: np.ndarray) -> float:
        diff = scale * np.outer(e, context) - mean
        return float(np.sum(diff * diff))

    return _central_differences(f, np.array(table[i], dtype=float), eps)


def fd_gradient_full(
    spec: KernelSpec, table: np.ndarray, batch: np.ndarray, i: int, eps: float = 1e-5
) -> np.ndarray:
    """Central differences of the full batch loss as a function of row i.

    Kernel rows, context vectors, and the mean field are all recomputed per
    perturbation, so this is the true gradient of the discrete objective.
    """
    batch = np.asarray(batch, dtype=np.int64)
    base = np.array(table, dtype=float)

    def loss_at(e: np.ndarray) -> float:
        snapshot = base.copy()
        snapshot[i] = e
        return compute_batch_state(spec, snapshot, batch).loss

    return _central_differences(loss_at, base[i].copy(), eps)


def evaluate_coherence(
    table: np.ndarray, documents: list, spec: KernelSpec, batch_size: int, seed: int
) -> float:
    """Mean coherence score over EVAL_BATCHES seeded batches."""
    pools = corpus.token_pools(documents)
    scores = []
    for step in range(EVAL_BATCHES):
        ids = corpus.sample_from_pools(pools, batch_size, seed, step)
        scores.append(compute_batch_state(spec, table, ids).score)
    return float(np.mean(scores))

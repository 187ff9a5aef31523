"""Coherence loss over batch tensor fields, its closed-form gradient, the
spectral bound, and the batch coherence score.

A token's field is the rank-1 outer product T_i = e_i c_i^T of its embedding
with its kernel-weighted context vector, so its largest singular value is
|e_i||c_i|. The loss is the summed squared Frobenius distance from each
(spectrally bounded) field to the batch mean field. The closed-form gradient
treats kernel weights, context vectors, and the mean field as constants: it
is the update direction used in training, not the gradient of the fully
coupled loss. compute_batch_state never forms a field; only an rbf batch is
O(m^2) in memory (its kernel), dot and cosine are O(md + d^2). At toy sizes
its cost is its count of numpy calls: it works in place, skips the scale
arithmetic inside the clip ball, and calls np.dot and ufunc reductions,
cheaper to dispatch than @.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corpus, kernel
from .kernel import KernelSpec

SCORE_GUARD = 1e-12
EVAL_BATCHES = 16  # seeded batches per evaluate_coherence call
PROJECTION_MODES = ("clip", "alg1")


@dataclass
class BatchState:
    """Everything derived from one batch against an embedding snapshot."""

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
    out-of-bounds field to norm 1 and shrinks in-bounds fields by rho. rho is positive and mode
    one of PROJECTION_MODES, as cli.KNOBS checks.
    """
    return (rho if mode == "clip" else 1.0) / np.maximum(sigma, rho)


def compute_batch_state(
    spec: KernelSpec, table: np.ndarray, token_ids: np.ndarray, rho: float | None = None,
    mode: str = "clip",
) -> BatchState:
    """The one batch pass: kernel rows, contexts, bounded fields, mean, loss, gradients, score.

    T_i = e_i c_i^T is bounded to s_i T_i, s_i = spectral_scales(|e_i||c_i|, rho, mode)
    (1 when rho is None, or in clip mode when every field is inside the ball). M, the loss
    sum |s_i T_i - M|^2, the gradients g_i = 2 s_i (s_i T_i - M) c_i and the score come from
    A = s E and C in O(md + d^2) memory past rbf's kernel, with T_i - T_0 in rank-2 form:
    identical rows give exact zeros; the loss cancels relative to the batch spread, not |T|^2.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D array")
    if ids.view(np.uint64).max() >= len(table):  # a negative id reads as one above 2^63
        raise ValueError("token id outside the embedding table")
    m = ids.size
    E, C = EC = np.empty((2, m, table.shape[1]))  # one buffer: one pass takes all row norms
    E[:] = table[ids]
    a = E - E[0]
    Ka, K1 = kernel.kernel_block(spec, E, a)  # C = (K a + K 1 E_0^T) / m, so a collapsed
    np.add(Ka, np.multiply.outer(K1, E[0]), out=C)  # batch, whose a is 0, gets equal rows
    C /= m
    squares = np.add.reduce(EC * EC, axis=2)
    gamma, sigma = squares[1], np.multiply.reduce(np.sqrt(squares))  # |c_i|^2, |e_i||c_i|
    A, scales, field_norms, twice = E, np.ones(m), sigma, 2.0
    # inside the clip ball every scale is exactly 1
    if rho is not None and not (mode == "clip" and sigma.max() <= rho):
        scales = spectral_scales(sigma, rho, mode)
        A, field_norms, twice = scales[:, None] * E, scales * sigma, 2.0 * scales[:, None]
        a = A - A[0]
    A0, C0, c = A[0], C[0], C - C[0]
    # D_i = a_i C_i^T + A_0 c_i^T = T_i - T_0, and D = M - T_0 is their mean
    D = np.dot(a.T, C)
    D += np.multiply.outer(A0, np.add.reduce(c))
    D /= m
    M = D + np.multiply.outer(A0, C0)
    # (T_i - M) C_i = (D_i - D) C_i = |C_i|^2 a_i + (c_i . C_i) A_0 - D C_i
    cC = np.add.reduce(c * C, axis=1)
    g = gamma[:, None] * a
    g += np.multiply.outer(cC, A0)
    # |D_i|^2 = a_i . D_i C_i + (a_i . A_0)(c_i . C_i) + |A_0|^2 |c_i|^2, and g_i is D_i C_i so far
    D_sq = np.vdot(a, g) + np.dot(np.dot(a, A0), cC) + np.dot(A0, A0) * np.vdot(c, c)
    loss = float(D_sq - m * np.vdot(D, D))
    g -= np.dot(C, D.T)
    g *= twice
    # the score averages <A_i C_i^T, M> = A_i . M C_i over |A_i C_i^T| |M| + SCORE_GUARD
    denominators = field_norms * np.sqrt(np.vdot(M, M)) + SCORE_GUARD
    score = float(np.vdot(np.dot(A, M), C / denominators[:, None])) / m
    return BatchState(E, C, scales, M, loss, g, score)


def evaluate_coherence(
    tables: list[np.ndarray], documents: list, spec: KernelSpec, batch: int, seed: int
) -> list[float]:
    """Each table's mean coherence score over the same EVAL_BATCHES seeded batches, drawn once."""
    pools = corpus.token_pools(documents)
    batches = [corpus.sample_from_pools(pools, batch, seed, step)
               for step in range(EVAL_BATCHES)]
    return [float(np.mean([compute_batch_state(spec, table, ids).score for ids in batches]))
            for table in tables]

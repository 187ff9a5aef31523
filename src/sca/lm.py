"""Tied-embedding bigram language model with an optional coherence term.

The model scores the next token as logits(w) = E e_w + b with the same
table E on both sides. Cross-entropy gradients are analytic; joint
training adds lam * (coherence gradient) over the batch's distinct source
tokens. A lam of 0 (or no kernel spec) skips the coherence machinery
entirely, so such a run is plain cross-entropy training.

A training step takes the batch's distinct sources once, for both terms.
ce_batch_gradients builds one exponentiated logit row per distinct source
and folds the softmax's normalization into the small operands, so no
normalized (B, n) matrix is formed; the one-hot targets are one subtraction
per pair, the coherence rows are added onto the distinct sources, and the
update runs in place.

Evaluation is one pass, score_pairs: a pair's nll and top-1 hit depend
on its source only through its row of logits, so one vocabulary-wide row
is built per distinct source, SOURCE_BLOCK sources at a time, and every
pair's target logit and argmax are gathered from it. Perplexity is exp of
a part's mean nll, accuracy the mean of its hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coherence, corpus, trainer
from .kernel import KernelSpec
from .trainer import EpochLog, TrainConfig

SOURCE_BLOCK = 1024  # distinct sources per block of vocabulary-wide logit rows


@dataclass
class BigramModel:
    """The (n, d) embedding table plus the per-token output bias (n,)."""

    table: np.ndarray
    bias: np.ndarray


def make_model(table: np.ndarray) -> BigramModel:
    return BigramModel(table=table, bias=np.zeros(len(table)))


def corpus_pairs(documents: list[corpus.Document]) -> np.ndarray:
    """All within-document adjacent pairs, shape (k, 2)."""
    chunks = [pairs for pairs in map(corpus.adjacent_pairs, documents) if pairs.shape[0]]
    if not chunks:
        raise ValueError("no document long enough to form token pairs")
    return np.concatenate(chunks, axis=0)


def score_pairs(model: BigramModel, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's negative log-likelihood, and whether its target is the top-1 prediction.

    Argmax ties resolve to the smallest id. One row of logits is built per
    distinct source, SOURCE_BLOCK sources at a time; the argmax is read
    before the row is shifted by its max, the target logit after.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    targets = pairs[:, 1]
    nlls, hits = np.empty(pairs.shape[0]), np.empty(pairs.shape[0], dtype=bool)
    unique, inverse = np.unique(pairs[:, 0], return_inverse=True)
    for start in range(0, unique.shape[0], SOURCE_BLOCK):
        block = unique[start:start + SOURCE_BLOCK]
        members = np.flatnonzero((inverse >= start) & (inverse < start + block.shape[0]))
        rows = inverse[members] - start
        Z = model.table[block] @ model.table.T
        Z += model.bias  # built, then shifted, in place: two blocks at most are alive
        hits[members] = np.argmax(Z, axis=1)[rows] == targets[members]
        Z -= Z.max(axis=1)[:, None]
        log_norm = np.log(np.sum(np.exp(Z), axis=1))
        nlls[members] = log_norm[rows] - Z[rows, targets[members]]
    return nlls, hits


def ce_batch_gradients(
    model: BigramModel,
    pairs: np.ndarray,
    distinct: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean cross-entropy loss and its analytic gradients.

    Returns (loss, embedding gradient (n, d), bias gradient (n,)). The
    embedding gradient carries both the output-side term (p - y) e_w and
    the tied input-side term E^T (p - y) on the source rows.

    Each distinct source u gets one row Z_u = exp(logits_u - max), summing
    to t_u. Subtracting t_u / count_u at each of u's pairs' targets (repeats
    accumulate) and scaling by r_u = count_u / (t_u B) gives u's rows of
    (P - Y) / B without a normalized (B, n) matrix. Bias gradient: r Z.
    Output side: Z^T (r E_u). Input side: r (Z E), onto the distinct sources.

    distinct, if given, is np.unique(pairs[:, 0], return_inverse=True).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    B = pairs.shape[0]
    src, tgt = pairs[:, 0], pairs[:, 1]
    if distinct is None:
        distinct = np.unique(src, return_inverse=True)
    sources, inverse = distinct
    counts = np.bincount(inverse)
    E = model.table
    n = E.shape[0]
    W = E[sources]
    # one (r, n) buffer holds the logits, shifted, then their exponentials; it is cut from B
    # rows, so each step asks malloc for the same size and reuses the heap instead of growing
    # and trimming it, which costs page faults
    Z = np.dot(W, E.T, out=np.empty((B, n))[: sources.shape[0]])
    Z += model.bias
    Z -= Z.max(axis=1)[:, None]
    picked = Z[inverse, tgt]
    np.exp(Z, out=Z)
    totals = np.dot(Z, np.ones(n))  # row sums; the matrix-vector product is faster than np.sum
    loss = float(np.mean(np.log(totals)[inverse] - picked))
    # a 2-D index, so an out-of-range target raises instead of reading the next row
    np.subtract.at(Z, (inverse, tgt), (totals / counts)[inverse])
    r = counts / (totals * B)
    bias_grad = np.dot(r, Z)
    W *= r[:, None]
    emb_grad = np.dot(Z.T, W)
    inside = np.dot(Z, E)
    inside *= r[:, None]
    emb_grad[sources] += inside  # the sources are distinct: no accumulating scatter
    return loss, emb_grad, bias_grad


def train_joint(
    model: BigramModel,
    documents: list[corpus.Document],
    spec: KernelSpec | None,
    config: TrainConfig,
    on_batch=None,
    on_epoch=None,
) -> tuple[BigramModel, list[EpochLog]]:
    """Cross-entropy plus lam times the coherence objective.

    The coherence gradient is computed over the batch's distinct source
    tokens and added to their rows; with lam = 0 or no spec the coherence
    code path is skipped, which is the pure cross-entropy baseline.
    """
    use_sca = spec is not None and config.lam != 0.0
    bound = (config.rho, config.spectral_mode)
    work = BigramModel(table=model.table.copy(), bias=model.bias.copy())

    def step(pairs: np.ndarray, lr: float, epoch: int, b: int) -> tuple[float, float]:
        distinct = np.unique(pairs[:, 0], return_inverse=True)
        loss, emb_grad, bias_grad = ce_batch_gradients(work, pairs, distinct)
        score = float("nan")
        if use_sca:
            state = coherence.compute_batch_state(spec, work.table, distinct[0], *bound)
            emb_grad[distinct[0]] += config.lam * state.gradients
            loss += config.lam * state.loss
            score = state.score
        trainer.check_finite(loss, emb_grad, epoch, b)  # a non-finite term carries into the sums
        emb_grad *= lr
        work.table -= emb_grad
        bias_grad *= lr
        work.bias -= bias_grad
        return loss, score

    pools = corpus.bigram_pools(documents)
    logs = trainer.run_epochs((work.table, work.bias), pools, config, step, on_batch, on_epoch)
    return work, logs

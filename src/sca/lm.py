"""Tied-embedding bigram language model with an optional coherence term.

The model scores the next token as logits(w) = E e_w + b with the same
table E on both sides. Cross-entropy gradients are analytic; joint
training adds lam * (coherence gradient) over the batch's distinct source
tokens. A lam of 0 (or no kernel spec) skips the coherence machinery
entirely, so such a run is plain cross-entropy training.

Perplexity and accuracy depend on a pair's source only through its row
of logits, so evaluation builds one vocabulary-wide row per distinct
source, SOURCE_BLOCK sources at a time, and gathers every pair's target
logit and argmax from it.
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


def _source_blocks(model: BigramModel, sources: np.ndarray):
    """Yield (members, rows, logits) per block of at most SOURCE_BLOCK distinct sources.

    logits has one row per source of the block; members are the pairs with
    a source in the block, and rows gives each member's row of logits.
    """
    E = model.table
    unique, inverse = np.unique(sources, return_inverse=True)
    for start in range(0, unique.shape[0], SOURCE_BLOCK):
        block = unique[start:start + SOURCE_BLOCK]
        members = np.flatnonzero((inverse >= start) & (inverse < start + block.shape[0]))
        logits = E[block] @ E.T
        logits += model.bias  # built, then shifted, in place: two blocks at most are alive
        yield members, inverse[members] - start, logits


def _pair_nlls(model: BigramModel, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    nlls = np.empty(sources.shape[0])
    for members, rows, Z in _source_blocks(model, sources):
        Z -= Z.max(axis=1)[:, None]
        log_norm = np.log(np.sum(np.exp(Z), axis=1))
        nlls[members] = log_norm[rows] - Z[rows, targets[members]]
    return nlls


def corpus_pairs(documents: list[corpus.Document]) -> np.ndarray:
    """All within-document adjacent pairs, shape (k, 2)."""
    chunks = [pairs for pairs in map(corpus.adjacent_pairs, documents) if pairs.shape[0]]
    if not chunks:
        raise ValueError("no document long enough to form token pairs")
    return np.concatenate(chunks, axis=0)


def corpus_perplexity(model: BigramModel, documents: list[corpus.Document]) -> float:
    """Perplexity over every within-document adjacent pair."""
    pairs = corpus_pairs(documents)
    return float(np.exp(np.mean(_pair_nlls(model, pairs[:, 0], pairs[:, 1]))))


def classification_accuracy(model: BigramModel, pairs: np.ndarray) -> float:
    """Top-1 next-token accuracy; argmax ties resolve to the smallest id."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        raise ValueError("no pairs to score")
    predicted = np.empty(pairs.shape[0], dtype=np.int64)
    for members, rows, Z in _source_blocks(model, pairs[:, 0]):
        predicted[members] = np.argmax(Z, axis=1)[rows]
    return float(np.mean(predicted == pairs[:, 1]))


def ce_batch_gradients(
    model: BigramModel, pairs: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean cross-entropy loss and its analytic gradients.

    Returns (loss, embedding gradient (n, d), bias gradient (n,)). The
    embedding gradient carries both the output-side term (p - y) e_w and
    the tied input-side term E^T (p - y) scattered onto the source rows.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    B = pairs.shape[0]
    src = pairs[:, 0]
    tgt = pairs[:, 1]
    E = model.table
    W = E[src]
    # one (B, n) buffer holds the logits, their exponentials and then delta,
    # so a step allocates one vocabulary-wide array instead of four
    delta = W @ E.T
    delta += model.bias
    zmax = delta.max(axis=1, keepdims=True)
    target_logits = delta[np.arange(B), tgt]
    delta -= zmax
    np.exp(delta, out=delta)
    totals = delta.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(totals[:, 0]) + zmax[:, 0] - target_logits))
    delta /= totals
    delta[np.arange(B), tgt] -= 1.0
    delta /= B
    bias_grad = delta.sum(axis=0)
    emb_grad = delta.T @ W
    np.add.at(emb_grad, src, delta @ E)
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
        loss, emb_grad, bias_grad = ce_batch_gradients(work, pairs)
        score = float("nan")
        if use_sca:
            sca_ids = np.unique(pairs[:, 0])
            state = coherence.compute_batch_state(spec, work.table, sca_ids, *bound)
            emb_grad[sca_ids] += config.lam * state.gradients
            loss += config.lam * state.loss
            score = state.score
        trainer.check_finite(loss, emb_grad, epoch, b)  # a non-finite term carries into the sums
        work.table -= lr * emb_grad
        work.bias -= lr * bias_grad
        return loss, score

    logs = trainer.run_epochs(work, corpus.bigram_pools(documents), config, step, on_batch, on_epoch)
    return work, logs

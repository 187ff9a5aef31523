"""Tied-embedding bigram language model with an optional coherence term.

The joint model is one (n, d+1) array [E | b]: the table E with the output
bias b as its last column. A source u's logits [e_u, 1] [E | b]^T = E e_u + b
use the same table on both sides, and the bias rides inside the one product.
Cross-entropy gradients are analytic; joint training adds lam * (coherence
gradient) over the batch's distinct source tokens. A lam of 0 skips the
coherence machinery, so such a run is plain cross-entropy.

Each scheduled batch's distinct sources, each pair's index among them and
their pair counts are found once per run, when run_epochs draws the
schedule, and serve both terms of every step. ce_batch_gradients returns
(loss, grad), grad (n, d+1) like the model. It builds one exponentiated
logit row per distinct source and folds the softmax's normalization into the
small operands, so no normalized (B, n) matrix is formed; the one-hot
targets are one subtraction per pair, the coherence rows are added onto the
distinct sources, and the update runs in place.

Evaluation is one pass, score_pairs: a pair's nll and top-1 hit depend on its
source only through its row of logits, so one vocabulary-wide row is built per
distinct source, in blocks of embedding.BLOCK_ELEMENTS entries, and every pair's
target logit and argmax are gathered from it. Both passes shift their rows (in
_logits) only when some row's max leaves [-LOGIT_SPAN, LOGIT_SPAN], since the
shift cancels. Perplexity is exp of a part's mean nll, accuracy its mean hit.
"""

from __future__ import annotations

import numpy as np

from . import coherence, corpus, embedding, trainer
from .kernel import KernelSpec
from .trainer import EpochLog, TrainConfig

# Logit rows stay unshifted while every row's max m lies in [-LOGIT_SPAN,
# LOGIT_SPAN]. A row's largest exponential e^m is then in [1.6e-28, 6.2e27]: its total is at
# least 1.6e-28, far above the smallest normal float (2.2e-308), and a total times B is at most
# n B e^64, far below the largest float (1.8e308) for any n B under 1e280.
LOGIT_SPAN = 64.0


def make_model(table: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """The joint model [E | b], a new (n, d+1) array; a missing bias is zero."""
    return np.column_stack([table, np.zeros(len(table)) if bias is None else bias])


def _logits(model: np.ndarray, sources: np.ndarray, out=None):
    """The sources' logit rows [e_u, 1] model^T, and [e_u, 1].

    Each row is shifted by its max unless every row's max lies in [-LOGIT_SPAN, LOGIT_SPAN].
    A shifted row's max becomes exactly 0 and every smaller finite entry stays strictly
    negative, so a finite row's argmax survives the shift.
    """
    W = model[sources]
    W[:, -1] = 1.0
    Z = np.dot(W, model.T, out=out)
    peaks = Z.max(axis=1)
    if not np.all(np.abs(peaks) <= LOGIT_SPAN):  # a NaN max fails the test: its row is shifted
        Z -= peaks[:, None]
    return Z, W


def score_pairs(model: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's negative log-likelihood, and whether its target is the top-1 prediction.

    Argmax ties resolve to the smallest id. One row of logits is built per
    distinct source, max(1, embedding.BLOCK_ELEMENTS // n) at a time; the argmax
    and the target logit are read from it before it is exponentiated in place.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    nlls, hits = np.empty(pairs.shape[0]), np.empty(pairs.shape[0], dtype=bool)
    sources, inverse, counts = distinct_sources(pairs)
    by_source = np.argsort(inverse)
    bounds = np.cumsum(np.concatenate([[0], counts]))  # u's pairs: by_source[bounds[u]:bounds[u+1]]
    rows = max(1, embedding.BLOCK_ELEMENTS // model.shape[0])
    for start in range(0, sources.shape[0], rows):
        block = sources[start:start + rows]
        members = by_source[bounds[start]:bounds[start + block.shape[0]]]
        local, targets = inverse[members] - start, pairs[members, 1]
        Z, _ = _logits(model, block)
        hits[members] = np.argmax(Z, axis=1)[local] == targets
        picked = Z[local, targets]
        nlls[members] = np.log(np.sum(np.exp(Z, out=Z), axis=1))[local] - picked
    return nlls, hits


def distinct_sources(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch's distinct sources, each pair's index among them, and each source's pair count."""
    sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    return sources, inverse, np.bincount(inverse)


def ce_batch_gradients(
    model: np.ndarray,
    pairs: np.ndarray,
    distinct: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy loss and its analytic gradient.

    Returns (loss, grad), grad (n, d+1) like the model. Its table columns
    carry both the output-side term (p - y) e_w and the tied input-side
    term E^T (p - y) on the source rows; its last column is the bias's.

    Each distinct source u gets one row Z_u = exp(logits_u - c_u), summing
    to t_u, where c_u is 0 while every row's max lies in [-LOGIT_SPAN,
    LOGIT_SPAN] and the row's max otherwise; the shift cancels from the loss
    and from r_u. Subtracting t_u / count_u at each of u's pairs' targets
    (repeats accumulate) and scaling by r_u = count_u / (t_u B) gives u's rows
    of (P - Y) / B without a normalized (B, n) matrix. Output side and bias:
    Z^T [r e_u, r]. Input side: r (Z E), onto the distinct sources.

    distinct, if given, is distinct_sources(pairs).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    B = pairs.shape[0]
    sources, inverse, counts = distinct_sources(pairs) if distinct is None else distinct
    tgt = pairs[:, 1]
    n = model.shape[0]
    # one (r, n) buffer holds the logits, then their exponentials; it is cut from B rows, so
    # each step asks malloc for the same size and reuses the heap instead of growing and
    # trimming it, which costs page faults
    Z, W = _logits(model, sources, out=np.empty((B, n))[: sources.shape[0]])
    picked = Z[inverse, tgt]
    np.exp(Z, out=Z)
    totals = np.dot(Z, np.ones(n))  # row sums; the matrix-vector product is faster than np.sum
    loss = float(np.add.reduce(np.log(totals)[inverse] - picked) / B)
    # a 2-D index, so an out-of-range target raises instead of reading the next row
    np.subtract.at(Z, (inverse, tgt), (totals / counts)[inverse])
    r = counts / (totals * B)
    W *= r[:, None]
    grad = np.dot(W.T, Z).T  # an F-ordered (n, d+1) view; BLAS runs this shape faster than Z^T W
    inside = np.dot(Z, model)  # the whole model, not a strided view that np.dot would copy
    inside *= r[:, None]
    grad[sources, :-1] += inside[:, :-1]  # the sources are distinct: no accumulating scatter
    return loss, grad


def train_joint(
    model: np.ndarray,
    documents: list[corpus.Document],
    spec: KernelSpec,
    config: TrainConfig,
    on_batch=None,
    on_epoch=None,
) -> tuple[np.ndarray, list[EpochLog]]:
    """Cross-entropy plus lam times the coherence objective, on [E | b].

    The coherence gradient is computed over the batch's distinct source
    tokens and added to their rows; with lam = 0 the coherence code path
    is skipped, which is the pure cross-entropy baseline. run_epochs trains
    a copy, so the input model is left untouched; the trained [E | b] is
    returned together with the per-epoch logs.
    """
    use_sca = config.lam != 0.0
    bound = (config.rho, config.spectral_mode)

    def step(work: np.ndarray, batch: tuple, lr: float) -> tuple:
        pairs, distinct = batch
        loss, grad = ce_batch_gradients(work, pairs, distinct)
        score = float("nan")
        if use_sca:
            sca_loss, sca_grad, score = coherence.compute_batch_state(
                spec, work[:, :-1], distinct[0], *bound)
            grad[distinct[0], :-1] += config.lam * sca_grad
            loss += config.lam * sca_loss
        grad *= lr
        np.subtract(work, grad, out=work)
        return loss, score, ...  # it wrote all of [E | b], which the finite check then covers

    return trainer.run_epochs(model, corpus.bigram_pools(documents), config, step, on_batch,
                              on_epoch, prepare=lambda pairs: (pairs, distinct_sources(pairs)))

"""Reference implementations that the tests hold the program to.

Each one follows its definition directly, on one pair, one token, one dense
(d, d) field or one dense (B, n) softmax delta at a time, and nothing here
imports sca, so no oracle runs the code it checks. Gradients are checked
against central differences of these definitions. Embedding tables are
plain (n, d) arrays and joint models plain (n, d+1) arrays [E | b], the
bias as the last column; a kernel spec is read through its attributes
only, spec.family and spec.bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCORE_GUARD = 1e-12


@dataclass
class TensorField:
    """Rank-1 field scale * outer(left, right)."""

    left: np.ndarray
    right: np.ndarray
    scale: float = 1.0

    def dense(self) -> np.ndarray:
        return self.scale * np.outer(self.left, self.right)


def _kernel_row(spec, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K(x, y) for each row y of Y, from the differences x - y or the products x * y."""
    if spec.family == "rbf":
        h = spec.bandwidth
        diff = x - Y
        return np.exp(-np.sum(diff * diff, axis=1) / (2.0 * h * h))
    dots = np.sum(x * Y, axis=1)
    if spec.family == "dot":
        return dots
    nx = np.sqrt(np.sum(x * x))
    ny = np.sqrt(np.sum(Y * Y, axis=1))
    zero = (nx == 0.0) | (ny == 0.0)
    return np.where(zero, 0.0, dots / np.where(zero, 1.0, nx * ny))


def kernel_eval(spec, x, y) -> float:
    """K(x, y) for a single vector pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(_kernel_row(spec, x, y[None, :])[0])


def context_vector(spec, table, i: int, batch) -> np.ndarray:
    """Kernel-weighted empirical mean of the batch embeddings around token i."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("batch is empty")
    Y = table[batch]
    row = _kernel_row(spec, table[i], Y)
    return (row[:, None] * Y).sum(axis=0) / batch.size


def mean_field(fields: list[TensorField]) -> np.ndarray:
    """Dense batch-average of the fields, scales included.

    Taken as first field plus mean deviation, so identical fields average to
    themselves bitwise.
    """
    if not fields:
        raise ValueError("mean_field needs at least one field")
    stack = np.stack([f.dense() for f in fields])
    return stack[0] + (stack - stack[0]).mean(axis=0)


def spectral_norm(f: TensorField) -> float:
    """Largest singular value of the field, exact for rank 1."""
    return abs(f.scale) * float(np.linalg.norm(f.left)) * float(np.linalg.norm(f.right))


def spectral_project(f: TensorField, rho: float, mode: str = "clip") -> TensorField:
    """The field scaled by rho / max(sigma, rho) (clip) or 1 / max(sigma, rho) (alg1).

    A field that clip leaves at scale 1 is returned as is.
    """
    sigma = spectral_norm(f)
    s = (rho if mode == "clip" else 1.0) / max(sigma, rho)
    return f if s == 1.0 else TensorField(f.left, f.right, f.scale * s)


def sca_loss(fields: list[TensorField], mean: np.ndarray) -> float:
    """Sum of squared Frobenius distances from each field to the mean field."""
    if not fields:
        raise ValueError("sca_loss needs at least one field")
    total = 0.0
    for f in fields:
        diff = f.dense() - mean
        total += float(np.sum(diff * diff))
    return total


def coherence_score(fields: list[TensorField], mean: np.ndarray) -> float:
    """Mean Frobenius cosine between each field and the mean field.

    The guard term sends zero fields (or a zero mean) to score 0.
    """
    if not fields:
        raise ValueError("coherence_score needs at least one field")
    stack = np.stack([f.dense() for f in fields])
    mean = np.asarray(mean, float)
    numer = np.sum(stack * mean, axis=(1, 2))
    norms = np.sqrt(np.sum(stack * stack, axis=(1, 2)))
    return float(np.mean(numer / (norms * np.sqrt(np.sum(mean * mean)) + SCORE_GUARD)))


def batch_fields(spec, table, batch, rho: float | None = None,
                 mode: str = "clip") -> list[TensorField]:
    """Each batch token's field e_t c_t^T, bounded by spectral_project when rho is set."""
    fields = [TensorField(table[t], context_vector(spec, table, int(t), batch)) for t in batch]
    return fields if rho is None else [spectral_project(f, rho, mode) for f in fields]


def batch_loss(spec, table, batch, rho: float | None = None, mode: str = "clip") -> float:
    """The coherence loss of a batch, every term rebuilt from the table.

    Each token's context vector, its field and the mean field are derived
    afresh by batch_fields and mean_field, so this is the fully coupled
    objective that training's detached direction descends.
    """
    fields = batch_fields(spec, table, batch, rho, mode)
    return sca_loss(fields, mean_field(fields))


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


def fd_gradient_detached(table, i: int, context, mean, eps: float = 1e-5,
                         scale: float = 1.0) -> np.ndarray:
    """Central differences of f(e) = |scale * outer(e, context) - mean|_F^2 at row i."""

    def f(e: np.ndarray) -> float:
        diff = scale * np.outer(e, context) - mean
        return float(np.sum(diff * diff))

    return _central_differences(f, np.array(table[i], dtype=float), eps)


def fd_gradient_full(spec, table, batch, i: int, eps: float = 1e-5) -> np.ndarray:
    """Central differences of the unbounded batch_loss as a function of row i.

    Kernel rows, context vectors, and the mean field are all recomputed per
    perturbation, so this is the true gradient of the discrete objective.
    """
    base = np.array(table, dtype=float)

    def loss_at(e: np.ndarray) -> float:
        snapshot = base.copy()
        snapshot[i] = e
        return batch_loss(spec, snapshot, batch)

    return _central_differences(loss_at, base[i].copy(), eps)


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.sqrt(np.sum(u * u)))
    nv = float(np.sqrt(np.sum(v * v)))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for a zero vector")
    return float(np.sum(u * v) / (nu * nv))


def nll(model, pair) -> float:
    """Negative log-likelihood (natural log) of a (token, next-token) pair.

    The next-token logits are E e_w + b, with the one table E on both sides.
    """
    w, nxt = int(pair[0]), int(pair[1])
    E, bias = model[:, :-1], model[:, -1]
    n = E.shape[0]
    if not (0 <= w < n and 0 <= nxt < n):
        raise ValueError(f"token pair ({w}, {nxt}) outside vocabulary of size {n}")
    z = E @ E[w] + bias
    shifted = z - z.max()
    return float(np.log(np.sum(np.exp(shifted)))) - float(shifted[nxt])


def ce_gradients(model, pairs) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy loss and its (n, d+1) gradient from the dense (B, n) delta.

    delta = (softmax(E e_source + b) - onehot(target)) / B, one row per pair.
    The bias gradient (last column) is delta's column sum; the embedding
    gradient is the output-side delta^T E[sources] plus, pair by pair, the
    input-side delta_k E added onto the pair's source row.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    B = pairs.shape[0]
    src, tgt = pairs[:, 0], pairs[:, 1]
    E = model[:, :-1]
    logits = E[src] @ E.T + model[:, -1]
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    delta = p.copy()
    delta[np.arange(B), tgt] -= 1.0
    delta /= B
    emb_grad = delta.T @ E[src]
    for k in range(B):
        emb_grad[src[k]] += delta[k] @ E
    loss = float(np.mean([nll(model, pair) for pair in pairs]))
    return loss, np.column_stack([emb_grad, delta.sum(axis=0)])


def batch_histograms(batch_scores, edges, segments: int) -> list[list]:
    """coherence_hist.csv rows from the (epoch, score) pair of every batch, segment by segment.

    Non-finite scores are dropped; the epochs 1 to the last scored one are cut into `segments`
    contiguous runs, and each run's scores, clipped into [edges[0], edges[-1]], are counted
    per bin. A row is [f"epochs {lo}-{hi}", bin_lo, bin_hi, count].
    """
    scored = [(e, s) for e, s in batch_scores if np.isfinite(s)]
    last_epoch = max(e for e, _ in scored)
    rows = []
    for segment in np.array_split(np.arange(1, last_epoch + 1), segments):
        if not segment.size:
            continue
        lo, hi = int(segment[0]), int(segment[-1])
        scores = np.array([s for e, s in scored if lo <= e <= hi])
        counts, _ = np.histogram(np.clip(scores, edges[0], edges[-1]), bins=edges)
        rows += [[f"epochs {lo}-{hi}", edges[b], edges[b + 1], int(count)]
                 for b, count in enumerate(counts)]
    return rows

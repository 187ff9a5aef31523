"""Independent reference for the output check.

Re-derives, from the generated documents alone, the numbers a correct
`sca train` run must report: the first and final epoch losses and the
held-out perplexity. It follows the program's documented recipe (seeded
frequency-ordered vocabulary, stratified 0.8/0.1/0.1 split, N(0, 0.1^2)
init, median-heuristic rbf bandwidth, stratified batches with one seeded
schedule reused every epoch, lr halving on an epoch-loss uptick) but
computes every batch in Gram form (G = E E^T, Gamma = C C^T), so it shares
no arithmetic with the program's dense (m, d, d) path. The two agree to
rounding, which is what the check's tolerance admits.

The fields are never spectrally projected here; `sigma_max` reports the
largest field norm seen, so a caller can tell whether the bound rho = 1
could have acted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from workloads import RawDoc, Workload

RATIOS = (0.8, 0.1, 0.1)
LR = 0.5
LR_FLOOR = 1e-8
SIGMA_INIT = 0.1
BANDWIDTH_SAMPLE = 2000


@dataclass
class Reference:
    loss_first: float
    loss_final: float
    perplexity_heldout: float
    rows_trained: int  # batch rows (tokens or pairs) over the whole run
    sigma_max: float


def _largest_remainder(exact: np.ndarray, total: int) -> np.ndarray:
    base = np.floor(exact).astype(np.int64)
    short = int(total - base.sum())
    if short:
        order = np.argsort(-(exact - base), kind="stable")
        base[order[:short]] += 1
    return base


def _encode(docs: list[RawDoc]) -> tuple[int, list[tuple[str, np.ndarray]]]:
    counts = Counter(t for d in docs for t in d.tokens)
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    ids = {t: i + 1 for i, t in enumerate(kept)}  # id 0 is the reserved unknown token
    return len(kept) + 1, [(d.category, np.array([ids[t] for t in d.tokens])) for d in docs]


def _split(docs: list[tuple[str, np.ndarray]], seed: int):
    by_category: dict[str, list] = {}
    for doc in docs:
        by_category.setdefault(doc[0], []).append(doc)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for name in sorted(by_category):
        group = by_category[name]
        order = rng.permutation(len(group))
        n_train, n_val, n_test = _largest_remainder(np.asarray(RATIOS) * len(group), len(group))
        train += [group[j] for j in order[:n_train]]
        test += [group[j] for j in order[n_train + n_val : n_train + n_val + n_test]]
    return train, test


def _pools(docs, pairs: bool) -> list[np.ndarray]:
    grouped: dict[str, list[np.ndarray]] = {}
    for category, ids in docs:
        if pairs:
            if ids.size < 2:
                continue
            ids = np.stack([ids[:-1], ids[1:]], axis=1)
        grouped.setdefault(category, []).append(ids)
    return [np.concatenate(grouped[c]) for c in sorted(grouped)]


def _schedule(pools: list[np.ndarray], batch: int, seed: int) -> list[np.ndarray]:
    masses = np.array([p.shape[0] for p in pools], dtype=np.int64)
    total = int(masses.sum())
    quotas = _largest_remainder(batch * masses / total, batch)
    out = []
    for step in range(max(1, total // batch)):
        rng = np.random.default_rng([seed, step])
        out.append(
            np.concatenate(
                [p[rng.choice(p.shape[0], size=int(q), replace=False)] for p, q in zip(pools, quotas) if q]
            )
        )
    return out


def _median_bandwidth(E: np.ndarray, seed: int) -> float:
    n = E.shape[0]
    if BANDWIDTH_SAMPLE >= n * (n - 1) // 2:
        iu, ju = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        iu = rng.integers(0, n, size=BANDWIDTH_SAMPLE)
        ju = rng.integers(0, n - 1, size=BANDWIDTH_SAMPLE)
        ju = np.where(ju >= iu, ju + 1, ju)
    return max(float(np.median(np.linalg.norm(E[iu] - E[ju], axis=1))), 1e-6)


def _coherence(E: np.ndarray, kernel: str, h: float | None):
    """Loss, detached gradients and largest field norm of one batch, in Gram form."""
    m = E.shape[0]
    G = E @ E.T
    sq = np.diag(G)
    if kernel == "rbf":
        K = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * G, 0.0) / (2.0 * h * h))
    else:  # cosine
        norms = np.sqrt(sq)
        denom = norms[:, None] * norms[None, :]
        K = np.divide(G, denom, out=np.zeros_like(G), where=denom != 0.0)
    C = K @ E / m
    Gamma = C @ C.T
    cc = np.diag(Gamma)
    loss = float(np.sum(sq * cc) - np.sum(G * Gamma) / m)
    grads = 2.0 * (cc[:, None] * E - Gamma @ E / m)
    return loss, grads, float(np.sqrt(np.max(sq * cc)))


def _pair_nll(E: np.ndarray, bias: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    Z = E[pairs[:, 0]] @ E.T + bias
    zmax = Z.max(axis=1)
    lse = np.log(np.exp(Z - zmax[:, None]).sum(axis=1)) + zmax
    return lse - Z[np.arange(pairs.shape[0]), pairs[:, 1]]


def reference(docs: list[RawDoc], w: Workload, seed: int) -> Reference:
    n, encoded = _encode(docs)
    train, test = _split(encoded, seed)
    E = np.random.default_rng(seed).normal(0.0, SIGMA_INIT, size=(n, w.dim))
    h = _median_bandwidth(E, seed) if w.kernel == "rbf" else None
    joint = w.lam is not None
    schedule = _schedule(_pools(train, pairs=joint), w.batch, seed)
    bias = np.zeros(n)
    lr = LR
    losses: list[float] = []
    sigma_max = 0.0
    for _ in range(w.epochs):
        batch_losses = []
        for rows in schedule:
            if not joint:
                loss, grads, sigma = _coherence(E[rows], w.kernel, h)
                np.add.at(E, rows, -lr * grads)
            else:
                src, tgt = rows[:, 0], rows[:, 1]
                B = rows.shape[0]
                W = E[src]
                Z = W @ E.T + bias
                P = np.exp(Z - Z.max(axis=1, keepdims=True))
                P /= P.sum(axis=1, keepdims=True)
                loss = float(-np.mean(np.log(P[np.arange(B), tgt])))
                P[np.arange(B), tgt] -= 1.0
                P /= B
                emb_grad = P.T @ W
                np.add.at(emb_grad, src, P @ E)
                ids = np.unique(src)
                sca_loss, grads, sigma = _coherence(E[ids], w.kernel, h)
                emb_grad[ids] += w.lam * grads
                loss += w.lam * sca_loss
                E -= lr * emb_grad
                bias -= lr * P.sum(axis=0)
            sigma_max = max(sigma_max, sigma)
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
        if len(losses) >= 2 and losses[-1] > losses[-2]:
            lr = max(lr / 2.0, LR_FLOOR)
    test_pairs = np.concatenate(_pools(test, pairs=True))
    return Reference(
        loss_first=losses[0],
        loss_final=losses[-1],
        perplexity_heldout=float(np.exp(np.mean(_pair_nll(E, bias, test_pairs)))),
        rows_trained=w.epochs * len(schedule) * w.batch,
        sigma_max=sigma_max,
    )

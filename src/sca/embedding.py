"""Token embedding table and elementary vector queries."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import UNK_TOKEN, Vocabulary


@dataclass
class EmbeddingTable:
    """Dense n x d table of token embeddings, one row per vocabulary id."""

    vectors: np.ndarray
    vocab: Vocabulary | None = None
    seed: int = 0

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def init_embeddings(
    n: int, d: int, seed: int, scale: float = 0.1, vocab: Vocabulary | None = None
) -> EmbeddingTable:
    """Gaussian-initialized table with entries ~ N(0, scale^2), seeded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    return EmbeddingTable(vectors=rng.normal(0.0, scale, size=(n, d)), vocab=vocab, seed=seed)


def nearest_neighbor_similarity(table: EmbeddingTable, token: int) -> tuple[int, float]:
    """Most-cosine-similar other token, ties broken by smallest id."""
    n = len(table)
    if n < 2:
        raise ValueError("need at least two embeddings")
    vectors = table.vectors
    norms = np.sqrt(np.sum(vectors * vectors, axis=1))
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise ValueError(f"zero-norm embedding row {int(zero_rows[0])}")
    sims = np.sum(vectors * vectors[token], axis=1) / (norms * norms[token])
    sims[token] = -np.inf
    best = int(np.argmax(sims))
    return best, float(sims[best])


def save_model(table: EmbeddingTable, path: str | Path, bias: np.ndarray | None = None) -> None:
    """Write the table as JSON: {dim, seed, tokens:[{token, id, vector}]}.

    A bias vector, when given, is stored under an additional "bias" key.
    """
    names = table.vocab.id_to_token if table.vocab is not None else [str(i) for i in range(len(table))]
    payload: dict = {
        "dim": table.dim,
        "seed": table.seed,
        "tokens": [
            {"token": names[i], "id": i, "vector": [float(x) for x in table.vectors[i]]}
            for i in range(len(table))
        ],
    }
    if bias is not None:
        payload["bias"] = [float(x) for x in bias]
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[EmbeddingTable, np.ndarray | None]:
    """Read a model written by save_model.

    The returned table carries a vocabulary rebuilt from the stored token
    names (frequencies unknown, hence zero).
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    records = payload.get("tokens") if isinstance(payload, dict) and "dim" in payload else None
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and type(r.get("id")) is int and isinstance(r.get("token"), str)
        and "vector" in r
        for r in records
    ):
        raise ValueError(
            f"{path}: expected an object with dim and tokens, a list of "
            "{id: integer, token: string, vector}"
        )
    records = sorted(records, key=lambda r: r["id"])
    if [r["id"] for r in records] != list(range(len(records))):
        raise ValueError(f"{path}: token ids are not dense 0..n-1")
    vectors = np.array([r["vector"] for r in records], dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != payload["dim"]:
        raise ValueError(f"{path}: vectors do not match declared dim {payload['dim']}")
    bias = payload.get("bias")
    if not np.all(np.isfinite(vectors)) or (bias is not None and not np.all(np.isfinite(bias))):
        raise ValueError(f"{path}: non-finite embedding vector or bias")
    names = [r["token"] for r in records]
    unk_id = names.index(UNK_TOKEN) if UNK_TOKEN in names else 0
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(names)},
        id_to_token=names,
        frequencies=np.zeros(len(names), dtype=np.int64),
        unk_id=unk_id,
    )
    table = EmbeddingTable(vectors=vectors, vocab=vocab, seed=int(payload.get("seed", 0)))
    return table, (np.array(bias, dtype=float) if bias is not None else None)

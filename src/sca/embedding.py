"""Embedding tables as (n, d) arrays, one row per token id: init, cosine queries, model JSON."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .corpus import write_text

BLOCK_ELEMENTS = 2**18  # float64 entries (2 MB) per block of each (rows, n) pass, here and in lm


def init_embeddings(n: int, d: int, seed: int, scale: float = 0.1) -> np.ndarray:
    """Gaussian-initialized (n, d) table with entries ~ N(0, scale^2), seeded."""
    return np.random.default_rng(seed).normal(0.0, scale, size=(n, d))


def nearest_neighbor_similarity(
    table: np.ndarray, tokens: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Most-cosine-similar other token of each of tokens, ties broken by smallest id.

    Returns (ids, sims), one entry per token, from the product of the
    queried rows with the whole table, max(1, BLOCK_ELEMENTS // n) rows at a time.
    """
    if len(table) < 2:
        raise ValueError("need at least two embeddings")
    norms = np.sqrt(np.sum(table * table, axis=1))
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise ValueError(f"zero-norm embedding row {int(zero_rows[0])}")
    tokens = np.asarray(tokens, dtype=np.int64)
    ids, best = [], []
    rows = max(1, BLOCK_ELEMENTS // len(table))
    for block in np.split(tokens, range(rows, tokens.shape[0], rows)):
        queries = np.arange(block.shape[0])
        sims = table[block] @ table.T
        sims /= np.outer(norms[block], norms)  # in place: two (block, n) arrays at most are alive
        sims[queries, block] = -np.inf
        ids.append(np.argmax(sims, axis=1))
        best.append(sims[queries, ids[-1]])
    return np.concatenate(ids), np.concatenate(best)


def save_model(
    table: np.ndarray, path: str | Path, names: list[str], seed: int, bias: np.ndarray | None = None
) -> None:
    """Write the table as JSON: {dim, seed, tokens:[{token, id, vector}]}.

    names[i] is row i's token and seed the init seed of the run. A bias
    vector, when given, is stored under an additional "bias" key.
    """
    payload: dict = {
        "dim": table.shape[1],
        "seed": seed,
        "tokens": [
            {"token": names[i], "id": i, "vector": vector}
            for i, vector in enumerate(np.asarray(table, dtype=float).tolist())
        ],
    }
    if bias is not None:
        payload["bias"] = np.asarray(bias, dtype=float).tolist()
    write_text(path, json.dumps(payload) + "\n")


def _finite_numbers(values, length: int) -> bool:
    """True if values is a list of `length` JSON numbers, each finite as a float."""
    return (
        isinstance(values, list) and len(values) == length
        and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in values)
    )


def load_model(path: str | Path) -> tuple[np.ndarray, list[str], np.ndarray | None]:
    """Read a model written by save_model: the (n, d) table, the token names, the bias or None.

    dim must be >= 1, each vector dim finite numbers and a bias n; else a ValueError names the file.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    d = payload.get("dim") if isinstance(payload, dict) else None
    records = payload.get("tokens") if type(d) is int and d >= 1 else None
    if not isinstance(records, list) or not records or not all(
        isinstance(r, dict) and type(r.get("id")) is int and isinstance(r.get("token"), str)
        and "vector" in r
        for r in records
    ):
        raise ValueError(
            f"{path}: expected an object with dim, a positive integer, and tokens, a non-empty "
            "list of {id: integer, token: string, vector}"
        )
    records = sorted(records, key=lambda r: r["id"])
    if [r["id"] for r in records] != list(range(len(records))):
        raise ValueError(f"{path}: token ids are not dense 0..n-1")
    n = len(records)
    for r in records:
        if not _finite_numbers(r["vector"], d):
            raise ValueError(f"{path}: token {r['id']}: vector is not {d} numbers, or non-finite")
    bias = payload.get("bias")
    if bias is not None and not _finite_numbers(bias, n):
        raise ValueError(f"{path}: bias is not {n} numbers, or non-finite")
    table = np.array([r["vector"] for r in records], dtype=float)
    return table, [r["token"] for r in records], (None if bias is None else np.array(bias, float))

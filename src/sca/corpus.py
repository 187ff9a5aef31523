"""Corpus ingestion, vocabulary construction, and stratified sampling.

Documents are category-tagged UTF-8 texts listed in a manifest file with
one ``<category><TAB><path>`` line per document. Ingestion lowercases and
splits text into word and punctuation tokens, builds a frequency-ordered
vocabulary with a reserved unknown token, and produces integer-encoded
documents that feed the document splitter and the batch samplers. Every
sampling is seeded and reproducible. write_text is the one file writer.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
import re

import numpy as np

UNK_TOKEN = "<unk>"
UNK_ID = 0  # the unknown token's id in every vocabulary

# word runs, or single non-word non-space characters (punctuation et al.)
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CorpusError(Exception):
    """Raised for ingestion, vocabulary, split, or sampling failures."""


@dataclass
class RawDocument:
    """A tokenized document before vocabulary encoding."""

    doc_id: str
    category: str
    tokens: list[str]


@dataclass
class Document:
    """A vocabulary-encoded document."""

    doc_id: str
    category: str
    token_ids: np.ndarray


@dataclass
class Vocabulary:
    """Bijective token/id mapping with per-token corpus frequencies.

    Ids are dense 0..n-1. Id 0 is the reserved unknown token; it absorbs
    every corpus token whose count fell below ``min_count`` and records
    the total count it absorbed, so frequencies always sum to the corpus
    token count.
    """

    token_to_id: dict[str, int]
    id_to_token: list[str]
    frequencies: np.ndarray

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> np.ndarray:
        table = self.token_to_id
        return np.array([table.get(t, UNK_ID) for t in tokens], dtype=np.int64)


@dataclass
class SplitCorpus:
    """Disjoint train/validation/test document lists."""

    train: list[Document]
    validation: list[Document]
    test: list[Document]


@dataclass
class Pools:
    """Per-category sampling pools (token positions or bigram positions)."""

    values: list[np.ndarray]
    masses: np.ndarray


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation boundaries.

    Punctuation marks come out as standalone tokens; whitespace-only
    input yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def _decode_utf8(data: bytes, origin: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{origin}: invalid UTF-8 at byte offset {exc.start}") from exc


def read_manifest(manifest_path: str | Path) -> list[RawDocument]:
    """Ingest every document listed in a manifest file.

    Each non-empty manifest line is ``<category><TAB><path>`` with the path
    resolved relative to the manifest's directory.
    """
    manifest = Path(manifest_path)
    if not manifest.is_file():
        raise CorpusError(f"manifest not found: {manifest}")
    text = _decode_utf8(manifest.read_bytes(), str(manifest))
    documents = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise CorpusError(f"{manifest}:{lineno}: expected '<category>\\t<path>'")
        category, rel_path = line.split("\t", 1)
        category = category.strip()
        if not category:
            raise CorpusError(f"{manifest}:{lineno}: empty category")
        doc_path = manifest.parent / rel_path.strip()
        if not doc_path.is_file():
            raise CorpusError(f"{manifest}:{lineno}: document not found: {doc_path}")
        tokens = tokenize(_decode_utf8(doc_path.read_bytes(), str(doc_path)))
        if not tokens:
            raise CorpusError(f"{doc_path}: document has no tokens")
        documents.append(RawDocument(doc_id=rel_path.strip(), category=category, tokens=tokens))
    if not documents:
        raise CorpusError(f"{manifest}: no documents listed")
    return documents


def build_vocabulary(documents: list[RawDocument], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary over every token with count >= min_count.

    Real tokens get ids in descending frequency order, ties broken
    lexicographically; id 0 is the reserved unknown token.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for doc in documents:
        counts.update(doc.tokens)
    if not counts:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    dropped_total = sum(c for c in counts.values() if c < min_count)
    id_to_token = [UNK_TOKEN] + kept
    frequencies = np.array([dropped_total] + [counts[t] for t in kept], dtype=np.int64)
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token, frequencies=frequencies)


def encode_documents(documents: list[RawDocument], vocab: Vocabulary) -> list[Document]:
    """Map raw tokens to ids, sending out-of-vocabulary tokens to unk."""
    return [
        Document(doc_id=d.doc_id, category=d.category, token_ids=vocab.encode(d.tokens))
        for d in documents
    ]


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8, without newline translation, whole or not at all.

    The parent directory is created first, so a run directory appears with its first file. The
    text goes to .<name>.tmp beside path, and os.replace moves it onto path; on any error the
    temporary file is removed. There is no fsync, so power loss is not covered.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write {tokens: [{token, id, frequency}]} in id order as indented JSON, keys unsorted."""
    pairs = zip(vocab.id_to_token, vocab.frequencies.tolist())
    records = [{"token": tok, "id": i, "frequency": freq} for i, (tok, freq) in enumerate(pairs)]
    write_text(path, json.dumps({"tokens": records}, indent=2) + "\n")


def largest_remainder_counts(exact: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative quotas summing to ``total`` to integers.

    Floors first, then hands the remaining units to the largest fractional
    parts; ties go to the earlier position.
    """
    exact = np.asarray(exact, dtype=float)
    base = np.floor(exact).astype(np.int64)
    short = int(total - base.sum())
    if short < 0 or short > exact.size:
        raise ValueError(f"quotas {exact} do not sum to {total}")
    if short:
        order = np.argsort(-(exact - base), kind="stable")
        base[order[:short]] += 1
    return base


def stratified_split(
    documents: list[Document], ratios: tuple[float, float, float], seed: int
) -> SplitCorpus:
    """Split documents into train/validation/test, stratified by category.

    Within each category the allocation follows the largest-remainder rule,
    so per-category counts stay within one document of the exact
    proportional share. Deterministic for a fixed seed.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("expected (train, validation, test) ratios")
    if min(ratios) < 0:
        raise ValueError("split ratios must be non-negative")
    if max(ratios) <= 0:
        raise ValueError("at least one split ratio must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    if not documents:
        raise CorpusError("no documents to split")

    by_category: dict[str, list[Document]] = {}
    for doc in documents:
        by_category.setdefault(doc.category, []).append(doc)
    rng = np.random.default_rng(seed)
    buckets: tuple[list[Document], ...] = ([], [], [])
    for name in sorted(by_category):
        docs = by_category[name]
        order = rng.permutation(len(docs))
        counts = largest_remainder_counts(np.asarray(ratios) * len(docs), len(docs))
        start = 0
        for bucket, count in zip(buckets, counts):
            bucket.extend(docs[j] for j in order[start : start + int(count)])
            start += int(count)
    return SplitCorpus(train=buckets[0], validation=buckets[1], test=buckets[2])


def _category_pools(documents: list[Document], rows, what: str) -> Pools:
    """Concatenate rows(doc) per category, categories sorted; a doc without rows adds none."""
    grouped: dict[str, list[np.ndarray]] = {}
    for doc in documents:
        values = rows(doc)
        if values.shape[0]:
            grouped.setdefault(doc.category, []).append(values)
    if not grouped:
        raise CorpusError(f"no document has {what} to sample from")
    values = [np.concatenate(grouped[c], axis=0) for c in sorted(grouped)]
    masses = np.array([v.shape[0] for v in values], dtype=np.int64)
    return Pools(values=values, masses=masses)


def token_pools(documents: list[Document]) -> Pools:
    """Group token occurrences by category for stratified batch sampling."""
    return _category_pools(documents, lambda doc: doc.token_ids, "tokens")


def adjacent_pairs(doc: Document) -> np.ndarray:
    """The document's (token, next-token) id pairs, shape (len - 1, 2); none below two tokens."""
    ids = doc.token_ids
    return np.stack([ids[:-1], ids[1:]], axis=1)


def bigram_pools(documents: list[Document]) -> Pools:
    """Group adjacent token pairs by category for stratified pair sampling."""
    return _category_pools(documents, adjacent_pairs, "token pairs")


def sample_from_pools(pools: Pools, batch_size: int, seed: int, step: int) -> np.ndarray:
    """Draw a stratified batch from precomputed pools.

    Per-category quotas are proportional to category mass, rounded by the
    largest-remainder rule, and drawn without replacement within the
    category. Deterministic for a fixed (seed, step) pair.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if seed < 0 or step < 0:
        raise ValueError("seed and step must be non-negative")
    total = int(pools.masses.sum())
    if batch_size > total:
        raise CorpusError(f"batch size {batch_size} exceeds total count {total}")
    quotas = largest_remainder_counts(batch_size * pools.masses / total, batch_size)
    rng = np.random.default_rng([seed, step])
    picks = []
    for values, mass, quota in zip(pools.values, pools.masses, quotas):
        if quota == 0:
            continue
        idx = rng.choice(int(mass), size=int(quota), replace=False)
        picks.append(values[idx])
    return np.concatenate(picks, axis=0)

"""Corpus ingestion, vocabulary construction, and stratified sampling.

Documents are category-tagged UTF-8 texts listed in a manifest file with
one ``<category><TAB><path>`` line per document. read_manifest is all of
ingestion: it splits each lowercased text into word and punctuation tokens,
builds a frequency-ordered vocabulary with a reserved unknown token, and
returns it with the integer-encoded documents that feed the splitter and the
pools (a list of arrays, one per category in sorted order). Every sampling is
seeded and reproducible. write_text is the one file writer.
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
class Document:
    """A vocabulary-encoded document."""

    category: str
    token_ids: np.ndarray


@dataclass
class Vocabulary:
    """Tokens in id order with their corpus frequencies.

    Ids are dense 0..n-1. Id 0 is the reserved unknown token; it absorbs
    every corpus token whose count fell below ``min_count`` and records
    the total count it absorbed, so frequencies always sum to the corpus
    token count.
    """

    id_to_token: list[str]
    frequencies: np.ndarray

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class SplitCorpus:
    """Disjoint train/validation/test document lists."""

    train: list[Document]
    validation: list[Document]
    test: list[Document]


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


def read_manifest(manifest_path: str | Path,
                  min_count: int = 1) -> tuple[Vocabulary, list[Document]]:
    """Ingest every document listed in a manifest file: its vocabulary and encoded documents.

    Each non-empty manifest line is ``<category><TAB><path>`` with the path
    resolved relative to the manifest's directory. Tokens below min_count map to the unknown id.
    """
    manifest = Path(manifest_path)
    if not manifest.is_file():
        raise CorpusError(f"manifest not found: {manifest}")
    text = _decode_utf8(manifest.read_bytes(), str(manifest))
    listed = []
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
        listed.append((category, tokens))
    if not listed:
        raise CorpusError(f"{manifest}: no documents listed")
    vocab = build_vocabulary([tokens for _, tokens in listed], min_count)
    ids = {tok: i for i, tok in enumerate(vocab.id_to_token)}
    return vocab, [
        Document(category, np.array([ids.get(t, UNK_ID) for t in tokens], dtype=np.int64))
        for category, tokens in listed
    ]


def build_vocabulary(token_lists: list[list[str]], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary over every token with count >= min_count.

    Real tokens get ids in descending frequency order, ties broken
    lexicographically; id 0 is the reserved unknown token.
    """
    counts: Counter[str] = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    dropped_total = sum(c for c in counts.values() if c < min_count)
    id_to_token = [UNK_TOKEN] + kept
    frequencies = np.array([dropped_total] + [counts[t] for t in kept], dtype=np.int64)
    return Vocabulary(id_to_token=id_to_token, frequencies=frequencies)


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
    proportional share. Deterministic for a fixed seed. The three ratios
    are non-negative and sum to 1, as cli.KNOBS checks.
    """
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


def _category_pools(documents: list[Document], rows) -> list[np.ndarray]:
    """Concatenate rows(doc) per category, categories sorted; a doc without rows adds none."""
    grouped: dict[str, list[np.ndarray]] = {}
    for doc in documents:
        values = rows(doc)
        if values.shape[0]:
            grouped.setdefault(doc.category, []).append(values)
    return [np.concatenate(grouped[c], axis=0) for c in sorted(grouped)]


def token_pools(documents: list[Document]) -> list[np.ndarray]:
    """Group token occurrences by category for stratified batch sampling."""
    return _category_pools(documents, lambda doc: doc.token_ids)


def adjacent_pairs(doc: Document) -> np.ndarray:
    """The document's (token, next-token) id pairs, shape (len - 1, 2); none below two tokens."""
    ids = doc.token_ids
    return np.stack([ids[:-1], ids[1:]], axis=1)


def bigram_pools(documents: list[Document]) -> list[np.ndarray]:
    """Group adjacent token pairs by category for stratified pair sampling."""
    return _category_pools(documents, adjacent_pairs)


def sample_from_pools(pools: list[np.ndarray], batch: int, seed: int, step: int) -> np.ndarray:
    """Draw a stratified batch of batch >= 1 entries from precomputed pools.

    Per-category quotas are proportional to category mass, rounded by the
    largest-remainder rule, and drawn without replacement within the
    category. Deterministic for a fixed (seed, step) pair, both non-negative.
    A zero quota's choice(mass, size=0) advances no random state.
    """
    masses = np.array([len(values) for values in pools], dtype=np.int64)
    total = int(masses.sum())
    if batch > total:
        raise CorpusError(f"batch size {batch} exceeds total count {total}")
    quotas = largest_remainder_counts(batch * masses / total, batch)
    rng = np.random.default_rng([seed, step])
    picks = [values[rng.choice(int(mass), size=int(quota), replace=False)]
             for values, mass, quota in zip(pools, masses, quotas)]
    return np.concatenate(picks, axis=0)

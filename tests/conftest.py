"""Shared fixtures: deterministic category-tagged corpora, ingested by corpus.read_manifest."""

from __future__ import annotations

import os
from collections import namedtuple

# One BLAS thread per process, set before numpy loads its BLAS: the acceptance suite builds
# its runs in a 2-process pool, and threaded BLAS in each process would oversubscribe the cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from sca import corpus

# a document to write as a corpus file, before ingestion
RawDocument = namedtuple("RawDocument", "doc_id category tokens")


def make_toy_raw_docs(seed: int = 13) -> list[RawDocument]:
    """Two-category corpus over 99 word types with a long-tail profile.

    Type r appears round(2510 / (r + 10)) times (251 down to 23), split
    between the categories with an alternating bias, shuffled, and chopped
    into ~70-token documents. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    types = [f"w{r:02d}" for r in range(99)]
    streams: dict[str, list[str]] = {"prose": [], "dialog": []}
    for r, tok in enumerate(types):
        count = round(2510 / (r + 10))
        first = count // 2 + (count % 2 if r % 2 == 0 else 0)
        streams["prose"].extend([tok] * first)
        streams["dialog"].extend([tok] * (count - first))
    docs = []
    for category, stream in streams.items():
        stream = list(stream)
        rng.shuffle(stream)
        for i in range(0, len(stream), 70):
            chunk = stream[i : i + 70]
            if len(chunk) >= 5:
                docs.append(RawDocument(f"{category}-{i // 70:03d}", category, chunk))
    return docs


def make_small_raw_docs() -> list[RawDocument]:
    """Small two-category corpus for fast CLI and trainer tests.

    Big enough that the default 0.8/0.1/0.1 split leaves every part
    non-empty (10 documents per category).
    """
    rng = np.random.default_rng(99)
    words = [f"t{i}" for i in range(12)]
    docs = []
    for k in range(20):
        category = "prose" if k % 2 == 0 else "dialog"
        tokens = [words[int(j)] for j in rng.integers(0, len(words), size=40)]
        docs.append(RawDocument(f"{category}-{k}", category, tokens))
    return docs


def write_corpus_files(raw_docs: list[RawDocument], root: Path) -> Path:
    """Materialize raw documents as text files plus a manifest."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for doc in raw_docs:
        name = f"{doc.doc_id}.txt"
        (root / name).write_text(" ".join(doc.tokens) + "\n", encoding="utf-8")
        lines.append(f"{doc.category}\t{name}")
    manifest = root / "corpus.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """(vocabulary, documents) of the toy corpus."""
    manifest = write_corpus_files(make_toy_raw_docs(), tmp_path_factory.mktemp("toy"))
    return corpus.read_manifest(manifest)


@pytest.fixture(scope="session")
def toy_vocab(toy_corpus):
    return toy_corpus[0]


@pytest.fixture(scope="session")
def toy_docs(toy_corpus):
    return toy_corpus[1]


@pytest.fixture(scope="session")
def small_docs(tmp_path_factory):
    manifest = write_corpus_files(make_small_raw_docs(), tmp_path_factory.mktemp("small"))
    vocab, docs = corpus.read_manifest(manifest)
    return docs, vocab

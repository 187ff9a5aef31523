"""Benchmark workloads: seeded corpus generators and the `sca train` flags.

Every workload fixes its work amount independently of the seed: the seed
only shuffles tokens between documents and picks the split and the batch
schedule, so run-to-run differences in time come from the machine, not
from the input size.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class RawDoc:
    doc_id: str
    category: str
    tokens: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    documents: Callable[[int], list[RawDoc]]  # seed -> corpus
    dim: int
    batch: int
    epochs: int
    kernel: str
    lam: float | None = None  # None trains embeddings only

    def train_flags(self, seed: int) -> list[str]:
        """Flags for `sca train`.

        Only knobs meant to stay are passed: no --threads, --rho,
        --spectral-mode or --checkpoint-every.
        """
        flags = [
            "--dim", str(self.dim),
            "--batch", str(self.batch),
            "--epochs", str(self.epochs),
            "--kernel", self.kernel,
            "--seed", str(seed),
        ]
        if self.kernel == "rbf":
            flags += ["--bandwidth", "median"]
        if self.lam is not None:
            flags += ["--lambda", repr(self.lam)]
        return flags


def toy_docs(seed: int) -> list[RawDoc]:
    """The acceptance-fixture recipe with the workload seed.

    Two categories over 99 word types with a long tail: type r appears
    round(2510 / (r + 10)) times, split between the categories with an
    alternating bias, shuffled, and chopped into ~70-token documents.
    """
    rng = np.random.default_rng(seed)
    streams: dict[str, list[str]] = {"prose": [], "dialog": []}
    for r in range(99):
        tok = f"w{r:02d}"
        count = round(2510 / (r + 10))
        first = count // 2 + (count % 2 if r % 2 == 0 else 0)
        streams["prose"].extend([tok] * first)
        streams["dialog"].extend([tok] * (count - first))
    return _chop(streams, rng, 70)


def zipf_docs(seed: int) -> list[RawDoc]:
    """Zipf corpus: 2,000 types, three categories, about 30k tokens.

    Type r appears round(5660 / (r + 10)) times (at least 3, so every type
    survives any split into the vocabulary); half of its occurrences go to
    its home category r % 3 and the rest to the other two. Documents are
    ~100 tokens.
    """
    rng = np.random.default_rng(seed)
    names = ("news", "prose", "dialog")
    streams: dict[str, list[str]] = {c: [] for c in names}
    for r in range(2000):
        tok = f"z{r:04d}"
        count = round(5660 / (r + 10))
        home = count - count // 2
        rest = count - home
        streams[names[r % 3]].extend([tok] * home)
        streams[names[(r + 1) % 3]].extend([tok] * (rest - rest // 2))
        streams[names[(r + 2) % 3]].extend([tok] * (rest // 2))
    return _chop(streams, rng, 100)


def _chop(streams: dict[str, list[str]], rng: np.random.Generator, size: int) -> list[RawDoc]:
    docs = []
    for category, stream in streams.items():
        stream = list(stream)
        rng.shuffle(stream)
        for i in range(0, len(stream), size):
            chunk = stream[i : i + size]
            if len(chunk) >= 5:
                docs.append(RawDoc(f"{category}-{i // size:03d}", category, chunk))
    return docs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy_sca",
            why="the README recipe (d=16, batch 32, rbf, median bandwidth) at 30 epochs: "
            "small batches, so fixed per-step cost (sampling, per-call overhead) shows",
            documents=toy_docs, dim=16, batch=32, epochs=30, kernel="rbf",
        ),
        Workload(
            name="joint_lm",
            why="2,000-type Zipf corpus, joint LM at lambda 0.5, cosine kernel, 2 epochs: "
            "full-vocabulary cross-entropy dominates, rbf and bandwidth are bypassed",
            documents=zipf_docs, dim=32, batch=64, epochs=2, kernel="cosine", lam=0.5,
        ),
    )
}


def write_corpus(docs: list[RawDoc], root: Path) -> Path:
    """Write one text file per document plus the manifest; return the manifest."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for doc in docs:
        name = f"{doc.doc_id}.txt"
        (root / name).write_text(" ".join(doc.tokens) + "\n", encoding="utf-8")
        lines.append(f"{doc.category}\t{name}")
    manifest = root / "corpus.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def write_config(root: Path) -> Path:
    """Config file that disables the convergence rule, so epochs are fixed."""
    path = root / "bench_config.json"
    path.write_text(json.dumps({"tol": None}) + "\n", encoding="utf-8")
    return path

"""Reports: coherence histogram rows, rare-word similarity rows, 2-D
principal-component projections, the JSON and CSV file formats, and
emit_reports, which writes the report files of `sca train` and `sca eval`.

Plots are out of scope; deterministic CSV/JSON files are the contract.
Every float is written with repr precision so re-emission from the same
artifacts is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import UNK_ID, Vocabulary, write_text
from .embedding import nearest_neighbor_similarity

HISTOGRAM_EDGES = np.linspace(0.0, 1.0, 21)  # 0.05-wide bins over [0, 1]
HISTOGRAM_SEGMENTS = 4  # contiguous epoch segments, one histogram each
RARE_QUANTILE = 0.05  # rare words: real tokens at or below this frequency quantile

COHERENCE_SCORE_NOTE = (
    "coherence score is artifact-defined: mean Frobenius cosine between "
    "per-token fields and the batch mean field"
)


@dataclass
class PCAResult:
    coordinates: np.ndarray  # (n, 2)
    eigenvalues: np.ndarray  # (2,)
    components: np.ndarray  # (2, d)


def pca_project(table: np.ndarray) -> PCAResult:
    """Project rows onto the top two covariance eigenvectors.

    The eigenpairs come from one symmetric eigendecomposition of the d x d
    covariance, taken in descending eigenvalue order; each component's
    sign is fixed so its largest-magnitude entry is positive. A dim-1 table,
    which sca eval --before/--after accepts, has no second component.
    """
    X = np.asarray(table, dtype=float)
    n, d = X.shape
    if n <= 2:
        raise ValueError(f"need more rows than components: n={n}, k=2")
    if d < 2:
        raise ValueError(f"cannot extract 2 components from dimension {d}")
    centered = X - X.mean(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered / (n - 1))
    components = eigenvectors[:, ::-1][:, :2].T
    pivots = np.argmax(np.abs(components), axis=1)
    components = components * np.sign(components[[0, 1], pivots])[:, None]
    return PCAResult(
        coordinates=centered @ components.T,
        eigenvalues=eigenvalues[::-1][:2],
        components=components,
    )


def rare_word_report(
    table_before: np.ndarray, table_after: np.ndarray, vocab: Vocabulary
) -> list[list]:
    """Nearest-neighbor similarities, before vs after, for low-frequency tokens.

    The rare set is every real token (the reserved unknown id is excluded)
    whose frequency sits at or below the RARE_QUANTILE quantile. Returns
    the rare_words.csv rows [token, frequency, similarity_before,
    similarity_after], ordered by ascending frequency, then token.
    """
    if table_before.shape != table_after.shape:
        raise ValueError("tables must share vocabulary size and dimension")
    if len(vocab) != len(table_before):
        raise ValueError("vocabulary does not match the tables")
    real_ids = [i for i in range(len(vocab)) if i != UNK_ID]
    # on integer frequencies "lower" keeps the interpolated quantile's rare set, minus numpy.ma
    threshold = float(np.quantile(vocab.frequencies[real_ids], RARE_QUANTILE, method="lower"))
    rare = [i for i in real_ids if vocab.frequencies[i] <= threshold]
    rare.sort(key=lambda i: (int(vocab.frequencies[i]), vocab.id_to_token[i]))
    before = nearest_neighbor_similarity(table_before, rare)[1].tolist()
    after = nearest_neighbor_similarity(table_after, rare)[1].tolist()
    return [
        [vocab.id_to_token[i], int(vocab.frequencies[i]), b, a]
        for i, b, a in zip(rare, before, after)
    ]


def coherence_histograms(epoch_scores: list[np.ndarray]) -> list[list]:
    """Histogram the per-batch scores over HISTOGRAM_SEGMENTS contiguous epoch segments.

    epoch_scores holds each epoch's batch scores, epoch 1 first. Returns the
    coherence_hist.csv rows [checkpoint, bin_lo, bin_hi, count], one per bin
    of each segment. Non-finite scores (unscored batches) are left out; the
    rest are clipped into [0, 1] so each lands in some bin and counts are conserved.
    """
    segments = np.array_split(np.arange(1, len(epoch_scores) + 1), HISTOGRAM_SEGMENTS)
    rows = []
    for segment in (s for s in segments if s.size):
        lo, hi = int(segment[0]), int(segment[-1])
        scores = np.concatenate(epoch_scores[lo - 1 : hi])
        clipped = np.clip(scores[np.isfinite(scores)], HISTOGRAM_EDGES[0], HISTOGRAM_EDGES[-1])
        counts, _ = np.histogram(clipped, bins=HISTOGRAM_EDGES)
        rows += [
            [f"epochs {lo}-{hi}", HISTOGRAM_EDGES[b], HISTOGRAM_EDGES[b + 1], int(count)]
            for b, count in enumerate(counts)
        ]
    return rows


def write_json(path: Path, payload: dict) -> None:
    """Write strict JSON (ValueError on NaN or infinity), indented, keys sorted, newline-ended."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write a header and rows with "\\n" line ends; float cells get repr precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)
    write_text(path, buffer.getvalue())


def emit_reports(
    out_dir: str | Path, epoch_scores: list[np.ndarray], rare_rows: list[list] | None,
    pca: PCAResult | None, vocab: Vocabulary, summary: dict,
) -> None:
    """Write the report files into out_dir.

    coherence_hist.csv (from each epoch's batch coherence scores) only when
    some score is finite (a lam = 0 joint run and eval score no batch);
    rare_words.csv (rare_word_report's rows) and pca.csv (the
    first two coordinates of each token) only when given; summary.json
    always. Every row is built before the first file is written. Emission is a
    pure function of the arguments, so re-emitting yields byte-identical
    files.
    """
    tables = {}  # file stem: (header, rows)
    if any(np.isfinite(scores).any() for scores in epoch_scores):
        hist = coherence_histograms(epoch_scores)
        tables["coherence_hist"] = (["checkpoint", "bin_lo", "bin_hi", "count"], hist)
    if rare_rows is not None:
        tables["rare_words"] = (
            ["token", "frequency", "similarity_before", "similarity_after"], rare_rows
        )
    if pca is not None:
        rows = [[vocab.id_to_token[i], x, y] for i, (x, y) in enumerate(pca.coordinates)]
        tables["pca"] = (["token", "x", "y"], rows)
    out = Path(out_dir)
    for name, (header, rows) in tables.items():
        write_csv(out / f"{name}.csv", header, rows)
    write_json(out / "summary.json", summary)

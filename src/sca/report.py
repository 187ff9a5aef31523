"""Report emitters: coherence histograms, rare-word similarity tables,
and 2-D principal-component projections.

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

from .corpus import Vocabulary
from .embedding import EmbeddingTable, nearest_neighbor_similarity

HISTOGRAM_EDGES = np.linspace(0.0, 1.0, 21)  # 0.05-wide bins over [0, 1]

COHERENCE_SCORE_NOTE = (
    "coherence score is artifact-defined: mean Frobenius cosine between "
    "per-token fields and the batch mean field"
)


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


@dataclass
class PCAResult:
    coordinates: np.ndarray  # (n, k)
    eigenvalues: np.ndarray  # (k,)
    components: np.ndarray  # (k, d)


@dataclass
class CoherenceHistogram:
    checkpoint: str
    edges: np.ndarray
    counts: np.ndarray


@dataclass
class RareWordRow:
    token: str
    frequency: int
    similarity_before: float
    similarity_after: float


@dataclass
class RareWordReport:
    rows: list[RareWordRow]
    quantile: float
    threshold: float

    def mean_delta(self) -> float:
        return float(np.mean([r.similarity_after - r.similarity_before for r in self.rows]))


def _orthogonalize(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        x = x - (x @ b) * b
    return x


def _start_vector(d: int, basis: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    x = _orthogonalize(rng.standard_normal(d), basis)
    norm = np.linalg.norm(x)
    if norm > 1e-12:
        return x / norm
    # seeded draw landed in the found subspace; fall back to basis vectors
    for k in range(d):
        x = np.zeros(d)
        x[k] = 1.0
        x = _orthogonalize(x, basis)
        norm = np.linalg.norm(x)
        if norm > 1e-12:
            return x / norm
    raise PowerIterationError("no direction left orthogonal to the found components")


def _power_iteration(
    A: np.ndarray,
    basis: list[np.ndarray],
    tol: float,
    max_iter: int,
    rng: np.random.Generator,
    component: int,
) -> tuple[np.ndarray, float]:
    # the residual is measured inside the deflated subspace (the image is
    # re-orthogonalized against found components first), otherwise earlier
    # components' deflation error puts an artificial floor under it
    x = _start_vector(A.shape[0], basis, rng)
    residual = np.inf
    for _ in range(max_iter):
        y = _orthogonalize(A @ x, basis)
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        if residual <= tol * max(abs(lam), 1.0):
            return x, lam
        # an unconverged residual bounds |y| away from zero (|r| <= 2|y|)
        x = y / float(np.linalg.norm(y))
    raise PowerIterationError(
        f"component {component} did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )


def pca_project(
    table: EmbeddingTable,
    k: int = 2,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> PCAResult:
    """Project rows onto the top-k covariance eigenvectors.

    Eigenvectors come from power iteration with deflation; each one's sign
    is fixed so its largest-magnitude entry is positive.
    """
    X = np.asarray(table.vectors, dtype=float)
    n, d = X.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError(f"need more rows than components: n={n}, k={k}")
    if k > d:
        raise ValueError(f"cannot extract {k} components from dimension {d}")
    centered = X - X.mean(axis=0)
    A = centered.T @ centered / (n - 1)
    rng = np.random.default_rng(seed)
    basis: list[np.ndarray] = []
    eigenvalues = []
    for c in range(k):
        v, lam = _power_iteration(A, basis, tol, max_iter, rng, component=c)
        pivot = int(np.argmax(np.abs(v)))
        if v[pivot] < 0:
            v = -v
        basis.append(v)
        eigenvalues.append(lam)
        A = A - lam * np.outer(v, v)
    components = np.stack(basis)
    return PCAResult(
        coordinates=centered @ components.T,
        eigenvalues=np.array(eigenvalues),
        components=components,
    )


def rare_word_report(
    table_before: EmbeddingTable,
    table_after: EmbeddingTable,
    vocab: Vocabulary,
    rare_quantile: float = 0.05,
) -> RareWordReport:
    """Nearest-neighbor similarities, before vs after, for low-frequency tokens.

    The rare set is every real token (the reserved unknown id is excluded)
    whose frequency sits at or below the requested quantile. Rows are
    ordered by ascending frequency, then token.
    """
    if table_before.vectors.shape != table_after.vectors.shape:
        raise ValueError("tables must share vocabulary size and dimension")
    if len(vocab) != len(table_before):
        raise ValueError("vocabulary does not match the tables")
    if not 0 < rare_quantile <= 1:
        raise ValueError("rare_quantile must lie in (0, 1]")
    real_ids = [i for i in range(len(vocab)) if i != vocab.unk_id]
    if not real_ids:
        raise ValueError("vocabulary has no real tokens")
    threshold = float(np.quantile(vocab.frequencies[real_ids], rare_quantile))
    rare = [i for i in real_ids if vocab.frequencies[i] <= threshold]
    if not rare:
        raise ValueError("rare set is empty")
    rare.sort(key=lambda i: (int(vocab.frequencies[i]), vocab.id_to_token[i]))
    rows = [
        RareWordRow(
            token=vocab.id_to_token[i],
            frequency=int(vocab.frequencies[i]),
            similarity_before=nearest_neighbor_similarity(table_before, i)[1],
            similarity_after=nearest_neighbor_similarity(table_after, i)[1],
        )
        for i in rare
    ]
    return RareWordReport(rows=rows, quantile=rare_quantile, threshold=threshold)


def coherence_histograms(
    batch_scores: list[tuple[int, float]],
    num_checkpoints: int = 4,
    edges: np.ndarray | None = None,
) -> list[CoherenceHistogram]:
    """Histogram the per-batch scores over contiguous epoch segments.

    Scores are clipped into the edge range so every scored batch lands in
    some bin and counts are conserved.
    """
    if not batch_scores:
        raise ValueError("no batch scores to histogram")
    if num_checkpoints < 1:
        raise ValueError("num_checkpoints must be >= 1")
    edges = HISTOGRAM_EDGES if edges is None else np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with at least two values")
    last_epoch = max(e for e, _ in batch_scores)
    segments = [s for s in np.array_split(np.arange(1, last_epoch + 1), num_checkpoints) if s.size]
    out = []
    for segment in segments:
        lo, hi = int(segment[0]), int(segment[-1])
        scores = np.array([s for e, s in batch_scores if lo <= e <= hi])
        clipped = np.clip(scores, edges[0], edges[-1]) if scores.size else scores
        counts, _ = np.histogram(clipped, bins=edges)
        out.append(CoherenceHistogram(checkpoint=f"epochs {lo}-{hi}", edges=edges, counts=counts))
    return out


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_coherence_histograms(histograms: list[CoherenceHistogram], path: Path) -> None:
    rows = []
    for hist in histograms:
        for b in range(hist.counts.size):
            rows.append(
                [hist.checkpoint, _fmt(hist.edges[b]), _fmt(hist.edges[b + 1]), str(int(hist.counts[b]))]
            )
    _write_csv(path, ["checkpoint", "bin_lo", "bin_hi", "count"], rows)


def write_rare_words(rep: RareWordReport, path: Path) -> None:
    rows = [
        [r.token, str(r.frequency), _fmt(r.similarity_before), _fmt(r.similarity_after)]
        for r in rep.rows
    ]
    _write_csv(path, ["token", "frequency", "similarity_before", "similarity_after"], rows)


def write_pca(result: PCAResult, vocab: Vocabulary, path: Path) -> None:
    rows = [
        [vocab.id_to_token[i], _fmt(result.coordinates[i, 0]), _fmt(result.coordinates[i, 1])]
        for i in range(result.coordinates.shape[0])
    ]
    _write_csv(path, ["token", "x", "y"], rows)


def emit_reports(
    out_dir: str | Path, batch_scores: list[tuple[int, float]], table_before: EmbeddingTable,
    table_after: EmbeddingTable, vocab: Vocabulary, summary: dict,
) -> dict[str, Path]:
    """Write the report files for a completed run.

    coherence_hist.csv (from the (epoch, coherence score) pair of every
    batch), rare_words.csv, pca.csv, and summary.json; coherence_hist.csv
    only when some batch was scored (a lam = 0 joint run scores none). The
    loss curve is the run's own loss_curve.csv, outside these reports.
    Emission is a pure function of the arguments, so re-emitting yields
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "rare_words": out / "rare_words.csv",
        "pca": out / "pca.csv",
        "summary": out / "summary.json",
    }
    if batch_scores:
        paths["coherence_hist"] = out / "coherence_hist.csv"
        write_coherence_histograms(coherence_histograms(batch_scores), paths["coherence_hist"])
    write_rare_words(rare_word_report(table_before, table_after, vocab), paths["rare_words"])
    write_pca(pca_project(table_after), vocab, paths["pca"])
    paths["summary"].write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths

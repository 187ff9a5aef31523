import csv
import json

import numpy as np
import pytest

from sca import corpus, report
from sca.embedding import init_embeddings


def _principal_angle(U, V):
    """Largest principal angle between the row spaces of U and V (radians).

    Taken from the sine (the part of U's basis outside V's span), which
    stays accurate for small angles where the cosine rounds to 1.
    """
    qu, _ = np.linalg.qr(U.T)
    qv, _ = np.linalg.qr(V.T)
    sine = np.linalg.norm(qu - qv @ (qv.T @ qu), ord=2)
    return float(np.arcsin(min(sine, 1.0)))


def _svd_oracle(X, k):
    """Top-k covariance eigenvalues and eigenvectors from an SVD of the centred data."""
    centered = X - X.mean(axis=0)
    _, S, Vt = np.linalg.svd(centered, full_matrices=False)
    return S[:k] ** 2 / (X.shape[0] - 1), Vt[:k]


class TestPca:
    def test_collinear_data_has_zero_second_component(self):
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(5)
        X = np.outer(rng.standard_normal(30), direction)
        coords = report.pca_project(X)
        assert np.max(np.abs(coords[:, 1])) < 1e-9

    def test_isometric_on_data_in_a_plane(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        coords_true = rng.standard_normal((25, 2))
        X = coords_true @ basis.T
        coords = report.pca_project(X)
        for i in range(0, 25, 5):
            for j in range(25):
                want = np.linalg.norm(coords_true[i] - coords_true[j])
                got = np.linalg.norm(coords[i] - coords[j])
                assert got == pytest.approx(want, abs=1e-8)

    def test_explained_variance_ordering(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 6)) * np.array([3.0, 1.5, 1.0, 0.5, 0.2, 0.1])
        coords = report.pca_project(X)
        assert np.var(coords[:, 0]) >= np.var(coords[:, 1])

    def test_matches_full_eigendecomposition(self):
        # a coordinate's sample variance is its component's eigenvalue, and the coordinates
        # span the data's projection onto the top two right singular vectors
        rng = np.random.default_rng(3)
        for trial in range(5):
            X = rng.standard_normal((30, 7))
            coords = report.pca_project(X)
            eigenvalues, basis = _svd_oracle(X, 2)
            np.testing.assert_allclose(coords.var(axis=0, ddof=1), eigenvalues, rtol=0, atol=1e-12)
            projected = (X - X.mean(axis=0)) @ basis.T
            assert _principal_angle(coords.T, projected.T) < 1e-10

    def test_sign_convention(self):
        # each component's largest-magnitude entry is positive: the oracle's components, signed
        # by that rule, give coordinates of the same signs
        X = np.random.default_rng(4).standard_normal((20, 4))
        coords = report.pca_project(X)
        _, basis = _svd_oracle(X, 2)
        pivots = basis[[0, 1], np.argmax(np.abs(basis), axis=1)]
        want = (X - X.mean(axis=0)) @ (basis * np.sign(pivots)[:, None]).T
        assert np.array_equal(np.sign(coords), np.sign(want))
        np.testing.assert_allclose(coords, want, rtol=0, atol=1e-12)

    def test_near_degenerate_spectrum_matches_svd(self):
        # leading eigenvalues split by 1e-6 relative, far too close for an
        # iterative solver to separate them quickly
        a = np.sqrt(1.0 - 1e-6)
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, a], [0.0, -a]])
        coords = report.pca_project(X)
        eigenvalues, _ = _svd_oracle(X, 2)
        np.testing.assert_allclose(coords.var(axis=0, ddof=1), eigenvalues, rtol=0, atol=1e-12)
        for i in range(4):
            for j in range(4):
                want = np.linalg.norm(X[i] - X[j])
                got = np.linalg.norm(coords[i] - coords[j])
                assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            report.pca_project(np.ones((2, 3)))


class TestRareWords:
    def _vocab(self, freqs):
        tokens = [corpus.UNK_TOKEN] + [f"t{i}" for i in range(len(freqs))]
        return corpus.Vocabulary(
            id_to_token=tokens,
            frequencies=np.array([0] + list(freqs), dtype=np.int64),
        )

    def test_identical_tables_have_zero_deltas(self, monkeypatch):
        monkeypatch.setattr(report, "RARE_QUANTILE", 0.5)
        vocab = self._vocab([100, 50, 3, 2])
        table = init_embeddings(5, 4, seed=0)
        rows = report.rare_word_report(table, table, vocab)
        assert rows
        assert np.mean([after - before for _, _, before, after in rows]) == 0.0
        for _, _, before, after in rows:
            assert before == after

    def test_matches_manual_cosines_on_hand_tables(self):
        vocab = self._vocab([9, 5, 1])  # t2 is the rare one
        before = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        after = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
        rows = report.rare_word_report(before, after, vocab)  # at RARE_QUANTILE 0.05
        assert [(token, frequency) for token, frequency, _, _ in rows] == [("t2", 1)]
        # token t2 is id 3: nearest neighbor before is id 0 (cos 1/sqrt 2),
        # after is id 2 (cos 1.5 / (sqrt(1.25) sqrt(2)))
        assert rows[0][2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        want_after = 1.5 / (np.sqrt(1.25) * np.sqrt(2.0))
        assert rows[0][3] == pytest.approx(want_after, abs=1e-12)

    def test_quantile_picks_low_frequency_tokens(self, monkeypatch):
        monkeypatch.setattr(report, "RARE_QUANTILE", 0.25)
        vocab = self._vocab([100, 90, 80, 5, 4])
        table = init_embeddings(6, 4, seed=1)
        rows = report.rare_word_report(table, table, vocab)
        assert [row[0] for row in rows] == ["t4", "t3"]  # ascending frequency
        assert corpus.UNK_TOKEN not in {row[0] for row in rows}

    def test_rare_set_holds_every_minimum_frequency_token(self):
        # the "lower" quantile is an element of the frequencies, so the rare set is never empty
        rng = np.random.default_rng(8)
        for kind in ("tied", "low_outlier", "random"):
            for _ in range(20):
                n = int(rng.integers(2, 60))
                if kind == "tied":
                    freqs = np.full(n, rng.integers(1, 50))
                elif kind == "low_outlier":
                    freqs = rng.integers(20, 50, size=n)
                    freqs[rng.integers(n)] = 1
                else:
                    freqs = rng.integers(1, 50, size=n)
                table = init_embeddings(n + 1, 3, seed=int(rng.integers(1000)))
                rows = report.rare_word_report(table, table, self._vocab(freqs))
                assert rows
                minimum = {f"t{i}" for i in np.flatnonzero(freqs == freqs.min())}
                assert minimum <= {row[0] for row in rows}

    def test_vocabulary_length_mismatch_rejected(self):
        # a vocabulary shorter than the tables would silently score a subset of their rows
        table = init_embeddings(4, 4, seed=0)
        with pytest.raises(ValueError, match="vocabulary does not match"):
            report.rare_word_report(table, table, self._vocab([3, 2]))

    def test_shape_mismatch_rejected(self):
        vocab = self._vocab([3, 2])
        a = init_embeddings(3, 4, seed=0)
        b = init_embeddings(3, 5, seed=0)
        with pytest.raises(ValueError):
            report.rare_word_report(a, b, vocab)


class TestHistograms:
    def _scores(self):
        rng = np.random.default_rng(5)
        return [rng.uniform(-0.1, 1.0, size=3) for _ in range(40)]

    def test_counts_conserved(self):
        scores = self._scores()
        rows = report.coherence_histograms(scores)
        assert sum(count for _, _, _, count in rows) == sum(s.size for s in scores)

    def test_checkpoint_segments_cover_epochs(self):
        rows = report.coherence_histograms(self._scores())
        assert len(rows) == 4 * (len(report.HISTOGRAM_EDGES) - 1)
        assert list(dict.fromkeys(row[0] for row in rows)) == [
            "epochs 1-10",
            "epochs 11-20",
            "epochs 21-30",
            "epochs 31-40",
        ]

    def test_non_finite_scores_are_left_out(self):
        scores = self._scores()
        unscored = [s.copy() for s in scores]
        unscored[12] = np.array([scores[12][0], np.nan, scores[12][2], np.inf])
        counted = [s.copy() for s in scores]
        counted[12] = scores[12][[0, 2]]
        rows = report.coherence_histograms(unscored)
        assert rows == report.coherence_histograms(counted)
        assert sum(count for _, _, _, count in rows) == sum(s.size for s in scores) - 1


def _toy_artifacts(toy_vocab):
    rng = np.random.default_rng(6)
    scores = [rng.uniform(0, 1, size=4) for _ in range(12)]
    before = init_embeddings(len(toy_vocab), 6, seed=1)
    after = init_embeddings(len(toy_vocab), 6, seed=2)
    rare = report.rare_word_report(before, after, toy_vocab)
    summary = {"seed": 1, "lambda": 0.0, "loss_final": float(np.exp(-3.0))}
    return scores, rare, report.pca_project(after), toy_vocab, summary


def _emit(out_dir, *artifacts):
    """Run emit_reports into out_dir and return the files it wrote, by stem."""
    assert report.emit_reports(out_dir, *artifacts) is None
    return {path.stem: path for path in out_dir.iterdir()}


class TestEmitReports:
    def test_all_files_exist_and_parse(self, tmp_path, toy_vocab):
        paths = _emit(tmp_path / "reports", *_toy_artifacts(toy_vocab))
        assert set(paths) == {"coherence_hist", "rare_words", "pca", "summary"}
        assert not (tmp_path / "reports" / "loss_curve.csv").exists()
        for name, path in paths.items():
            assert path.is_file()
            if path.suffix == ".csv":
                rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
                assert len(rows) > 1
            else:
                json.loads(path.read_text(encoding="utf-8"))

    def test_only_given_rows_are_written(self, tmp_path, toy_vocab):
        _, _, _, vocab, summary = _toy_artifacts(toy_vocab)
        paths = _emit(tmp_path / "reports", [], None, None, vocab, summary)
        assert set(paths) == {"summary"}
        assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == ["summary.json"]

    def test_unscored_epochs_write_no_histogram(self, tmp_path, toy_vocab):
        _, rare, pca, vocab, summary = _toy_artifacts(toy_vocab)
        unscored = [np.full(4, np.nan) for _ in range(12)]
        paths = _emit(tmp_path / "reports", unscored, rare, pca, vocab, summary)
        assert set(paths) == {"rare_words", "pca", "summary"}
        assert not (tmp_path / "reports" / "coherence_hist.csv").exists()

    def test_non_finite_json_is_refused(self, tmp_path):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                report.write_json(tmp_path / "summary.json", {"perplexity_train": value})
        assert list(tmp_path.iterdir()) == []

    def test_reemission_is_byte_identical(self, tmp_path, toy_vocab):
        artifacts = _toy_artifacts(toy_vocab)
        first = _emit(tmp_path / "a", *artifacts)
        second = _emit(tmp_path / "b", *artifacts)
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_csv_round_trip_is_byte_identical(self, tmp_path, toy_vocab):
        paths = _emit(tmp_path, *_toy_artifacts(toy_vocab))
        for name, path in paths.items():
            if path.suffix != ".csv":
                continue
            text = path.read_text(encoding="utf-8")
            rows = list(csv.reader(text.splitlines()))
            import io

            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerows(rows)
            assert buffer.getvalue() == text

import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import cosine
from sca import corpus, embedding


class TestInit:
    def test_deterministic_per_seed(self):
        a = embedding.init_embeddings(20, 8, seed=4)
        b = embedding.init_embeddings(20, 8, seed=4)
        c = embedding.init_embeddings(20, 8, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_mean_near_zero(self):
        table = embedding.init_embeddings(1000, 10, seed=0, scale=0.1)
        assert abs(float(table.mean())) < 0.01


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        # 1 / sqrt(2), evaluated independently
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-4
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            assert cosine(u, v) == cosine(v, u)
            assert abs(cosine(u, v)) <= 1.0 + 1e-12


def _nn_bruteforce(table, token):
    best_id, best_sim = -1, -np.inf
    for other in range(len(table)):
        if other == token:
            continue
        sim = cosine(table[other], table[token])
        if sim > best_sim:
            best_id, best_sim = other, sim
    return best_id, best_sim


class TestNearestNeighbor:
    def test_duplicate_vector_gives_similarity_one(self):
        vectors = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        neighbors, sims = embedding.nearest_neighbor_similarity(vectors, [0])
        assert neighbors[0] == 1
        assert sims[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_tokens_returns_the_other(self):
        vectors = np.array([[1.0, 0.0], [0.5, 0.5]])
        neighbors, _ = embedding.nearest_neighbor_similarity(vectors, [0])
        assert neighbors[0] == 1

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(21)
        tables = [rng.standard_normal((n, 5)) for n in (3, 10, 50)]
        tables.append(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))  # token 0 ties 1 and 2
        for table in tables:
            n = len(table)
            ids, sims = embedding.nearest_neighbor_similarity(table, list(range(n)))
            for token in range(n):
                want = _nn_bruteforce(table, token)
                assert ids[token] == want[0]
                assert sims[token] == pytest.approx(want[1], abs=1e-12)

    def test_zero_row_names_the_row(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            embedding.nearest_neighbor_similarity(vectors, [0])

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            embedding.nearest_neighbor_similarity(np.ones((1, 3)), [0])

    def test_ragged_blocks_match_one_block_in_bounded_memory(self, monkeypatch):
        rng = np.random.default_rng(22)
        n = 3000
        table = rng.standard_normal((n, 8))
        tokens = rng.integers(0, n, size=23)  # blocks of 5: four full, one of 3; repeats allowed
        whole_ids, whole_sims = embedding.nearest_neighbor_similarity(table, tokens)
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", 5 * n)
        tracemalloc.start()
        try:
            ids, sims = embedding.nearest_neighbor_similarity(table, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ids, whole_ids) and np.array_equal(sims, whole_sims)
        assert peak < 3 * embedding.BLOCK_ELEMENTS * 8

    def test_width_over_the_budget_takes_one_row_per_block(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 3000
        table = rng.standard_normal((n, 8))
        tokens = rng.integers(0, n, size=23)
        whole_ids, whole_sims = embedding.nearest_neighbor_similarity(table, tokens)
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", n - 1)
        ids, sims = embedding.nearest_neighbor_similarity(table, tokens)
        # a one-row block is a matrix-vector product, whose rounding may differ in the last bit
        assert np.array_equal(ids, whole_ids)
        np.testing.assert_allclose(sims, whole_sims, rtol=1e-15, atol=0)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        vocab = corpus.build_vocabulary([["a", "b", "a"]], min_count=1)
        table = embedding.init_embeddings(len(vocab), 4, seed=3)
        bias = np.array([0.5, -1.0, 0.25])
        path = tmp_path / "model.json"
        embedding.save_model(table, path, vocab.id_to_token, 3, bias=bias)
        loaded, names, loaded_bias = embedding.load_model(path)
        assert np.array_equal(loaded, table)
        assert np.array_equal(loaded_bias, bias)
        assert names == vocab.id_to_token
        assert json.loads(path.read_text())["seed"] == 3

    def test_round_trip_without_bias(self, tmp_path):
        table = embedding.init_embeddings(5, 3, seed=0)
        path = tmp_path / "model.json"
        embedding.save_model(table, path, [str(i) for i in range(5)], 0)
        loaded, _, bias = embedding.load_model(path)
        assert bias is None
        assert np.array_equal(loaded, table)

    def test_ids_not_dense_rejected_with_path(self, tmp_path):
        path = tmp_path / "model.json"
        embedding.save_model(embedding.init_embeddings(2, 3, seed=0), path, ["a", "b"], 0)
        payload = json.loads(path.read_text())
        payload["tokens"][1]["id"] = 2  # ids 0, 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not dense 0..n-1") as exc:
            embedding.load_model(path)
        assert str(path) in str(exc.value)

    def test_non_finite_entries_rejected_with_path(self, tmp_path):
        table = embedding.init_embeddings(3, 2, seed=0)
        broken = np.array([[0.0, np.nan]] * 3)
        for vectors, bias in ((broken, None), (table, [0.0, np.inf, 0.0])):
            path = tmp_path / "model.json"
            embedding.save_model(vectors, path, ["a", "b", "c"], 0, bias=bias)
            with pytest.raises(ValueError, match="non-finite") as exc:
                embedding.load_model(path)
            assert str(path) in str(exc.value)

import stat

import numpy as np
import pytest

from sca import corpus
from sca.corpus import CorpusError


class TestTokenize:
    def test_empty_input(self):
        assert corpus.tokenize("") == []
        assert corpus.tokenize(" \t\n ") == []

    def test_punctuation_split(self):
        assert corpus.tokenize("Hello, world") == ["hello", ",", "world"]

    def test_lowercasing_idempotent(self):
        assert corpus.tokenize("A A a") == ["a", "a", "a"]

    def test_punctuation_standalone(self):
        assert corpus.tokenize("don't stop!") == ["don", "'", "t", "stop", "!"]

    def test_retokenization_of_joined_output_is_stable(self):
        rng = np.random.default_rng(5)
        alphabet = list("abc célkø1 ,.!?;:-'\"()")
        for _ in range(50):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = corpus.tokenize(text)
            again = corpus.tokenize(" ".join(once))
            assert once == again


class TestBuildVocabulary:
    def test_min_count_filters(self):
        vocab = corpus.build_vocabulary([["a", "a", "a", "b"]], min_count=2)
        assert vocab.id_to_token == [corpus.UNK_TOKEN, "a"]
        # dropped counts are absorbed by the unknown token
        assert vocab.frequencies.tolist() == [1, 3]

    def test_min_count_one(self):
        vocab = corpus.build_vocabulary([["a"]], min_count=1)
        assert vocab.id_to_token == [corpus.UNK_TOKEN, "a"]
        assert vocab.frequencies.tolist() == [0, 1]

    def test_frequency_ties_break_lexicographically(self):
        vocab = corpus.build_vocabulary([["b", "a", "b", "a"]])
        assert vocab.id_to_token == [corpus.UNK_TOKEN, "a", "b"]

    def test_frequencies_sum_to_corpus_token_count(self):
        rng = np.random.default_rng(3)
        tokens = [f"t{i}" for i in rng.integers(0, 30, size=500)]
        for min_count in (1, 2, 5):
            vocab = corpus.build_vocabulary([tokens[:250], tokens[250:]], min_count=min_count)
            assert int(vocab.frequencies.sum()) == 500
            assert vocab.id_to_token[0] == corpus.UNK_TOKEN
            assert len(set(vocab.id_to_token)) == len(vocab) == len(vocab.frequencies)


class TestStratifiedSplit:
    def _docs(self, per_category):
        return [corpus.Document(cat, np.arange(3, dtype=np.int64))
                for cat, n in per_category.items() for _ in range(n)]

    def test_exact_allocation_single_category(self):
        split = corpus.stratified_split(self._docs({"c": 10}), (0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_all_in_train_with_zero_ratios(self):
        split = corpus.stratified_split(self._docs({"c": 7}), (1.0, 0.0, 0.0), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (7, 0, 0)

    def test_deterministic_for_fixed_seed(self):
        docs = self._docs({"a": 13, "b": 9})
        one = corpus.stratified_split(docs, (0.6, 0.2, 0.2), seed=42)
        two = corpus.stratified_split(docs, (0.6, 0.2, 0.2), seed=42)
        assert [id(d) for d in one.train] == [id(d) for d in two.train]
        assert [id(d) for d in one.test] == [id(d) for d in two.test]

    def test_partition_and_per_category_tolerance(self):
        rng = np.random.default_rng(11)
        docs = self._docs({"a": 23, "b": 17, "c": 5})
        for seed in range(5):
            ratios = (0.7, 0.2, 0.1)
            split = corpus.stratified_split(docs, ratios, seed=seed)
            ids = [id(d) for part in (split.train, split.validation, split.test) for d in part]
            assert sorted(ids) == sorted(id(d) for d in docs)
            assert len(set(ids)) == len(docs)
            for cat, size in (("a", 23), ("b", 17), ("c", 5)):
                for part, ratio in zip((split.train, split.validation, split.test), ratios):
                    got = sum(1 for d in part if d.category == cat)
                    assert abs(got - ratio * size) <= 1.0


class TestSampleBatch:
    def _two_category_docs(self, mass_a=75, mass_b=25):
        return [
            corpus.Document("a", np.zeros(mass_a, dtype=np.int64)),
            corpus.Document("b", np.ones(mass_b, dtype=np.int64)),
        ]

    def test_quotas_follow_largest_remainder(self):
        docs = self._two_category_docs()
        batch = corpus.sample_from_pools(corpus.token_pools(docs), 4, seed=0, step=0)
        # token ids encode the category here: 0 -> a, 1 -> b
        assert (batch == 0).sum() == 3 and (batch == 1).sum() == 1

    def test_single_category_plain_sample(self):
        docs = [corpus.Document("a", np.arange(50, dtype=np.int64))]
        batch = corpus.sample_from_pools(corpus.token_pools(docs), 10, seed=1, step=0)
        assert batch.shape == (10,)
        assert np.unique(batch).size == 10  # without replacement within category

    def test_deterministic_per_seed_and_step(self):
        docs = [
            corpus.Document("a", np.arange(60, dtype=np.int64)),
            corpus.Document("b", np.arange(60, 100, dtype=np.int64)),
        ]
        one = corpus.sample_from_pools(corpus.token_pools(docs), 16, seed=9, step=3)
        two = corpus.sample_from_pools(corpus.token_pools(docs), 16, seed=9, step=3)
        other = corpus.sample_from_pools(corpus.token_pools(docs), 16, seed=9, step=4)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_quotas_sum_to_batch_size(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            masses = rng.integers(1, 40, size=rng.integers(1, 5))
            total = int(masses.sum())
            B = int(rng.integers(1, total + 1))
            quotas = corpus.largest_remainder_counts(B * masses / total, B)
            assert int(quotas.sum()) == B
            assert np.all(quotas >= 0) and np.all(quotas <= masses)

    def test_zero_quota_category_takes_no_draw(self):
        # quotas (0, 2): the one-token pool takes no draw, so the batch is the other pool's alone
        rare, common = np.array([100], dtype=np.int64), np.arange(9, dtype=np.int64)
        for seed, step in [(0, 0), (1, 5), (7, 2), (42, 9)]:
            batch = corpus.sample_from_pools([rare, common], 2, seed, step)
            assert np.array_equal(batch, corpus.sample_from_pools([common], 2, seed, step))

    def test_batch_too_large_rejected(self):
        docs = self._two_category_docs(5, 5)
        with pytest.raises(CorpusError):
            corpus.sample_from_pools(corpus.token_pools(docs), 11, seed=0, step=0)

    def test_no_pool_left_rejected(self):
        # a one-token document has no adjacent pair, so no bigram pool is left to sample from
        pools = corpus.bigram_pools([corpus.Document("a", np.zeros(1, dtype=np.int64))])
        assert pools == []
        with pytest.raises(CorpusError, match="exceeds total count 0"):
            corpus.sample_from_pools(pools, 1, seed=0, step=0)

    def test_bigram_batch_shape_and_determinism(self):
        docs = [
            corpus.Document("a", np.arange(30, dtype=np.int64)),
            corpus.Document("b", np.arange(20, dtype=np.int64)),
        ]
        one = corpus.sample_from_pools(corpus.bigram_pools(docs), 8, seed=2, step=0)
        two = corpus.sample_from_pools(corpus.bigram_pools(docs), 8, seed=2, step=0)
        assert one.shape == (8, 2)
        assert np.array_equal(one, two)
        # pairs are within-document adjacent ids
        assert np.all(one[:, 1] - one[:, 0] == 1)


def _manifest(root, text, documents=()):
    """Write the manifest text and each (name, text) document beside it."""
    for name, body in documents:
        (root / name).write_text(body, encoding="utf-8")
    manifest = root / "m.tsv"
    manifest.write_text(text, encoding="utf-8")
    return manifest


class TestManifestIngestion:
    def test_round_trip(self, tmp_path):
        # blank and whitespace-only lines, a lone tab among them, are skipped
        manifest = _manifest(tmp_path, "\nlit\ta.txt\n  \n\t \nconv\tb.txt\n\n",
                             [("a.txt", "Alpha beta, gamma."), ("b.txt", "delta delta")])
        vocab, docs = corpus.read_manifest(manifest)
        assert [d.category for d in docs] == ["lit", "conv"]
        assert [vocab.id_to_token[i] for i in docs[0].token_ids] == [
            "alpha", "beta", ",", "gamma", "."]
        assert vocab.id_to_token[docs[1].token_ids[0]] == "delta"
        assert vocab.frequencies.tolist() == [0, 2, 1, 1, 1, 1, 1]

    def test_min_count_maps_rare_tokens_to_unk(self, tmp_path):
        manifest = _manifest(tmp_path, "c\ta.txt\nc\tb.txt\n",
                             [("a.txt", "a a rare"), ("b.txt", "a b b")])
        vocab, docs = corpus.read_manifest(manifest, min_count=2)
        assert vocab.id_to_token == [corpus.UNK_TOKEN, "a", "b"]
        assert [d.token_ids.tolist() for d in docs] == [[1, 1, 0], [1, 2, 2]]
        assert vocab.frequencies.tolist() == [1, 3, 2]

    @pytest.mark.parametrize("text, error", [
        ("c\ta.txt\nno tab here\n", ":2: expected '<category>\\t<path>'"),
        ("c\ta.txt\n\nc\ta.txt\n \ta.txt\n", ":4: empty category"),
        ("c\ta.txt\nc\tabsent.txt\n", ":2: document not found"),
        ("\n \n", ": no documents listed"),
    ], ids=["no-tab", "empty-category", "missing-document", "no-documents"])
    def test_bad_manifest_names_manifest_and_line(self, tmp_path, text, error):
        manifest = _manifest(tmp_path, text, [("a.txt", "x y")])
        with pytest.raises(CorpusError) as caught:
            corpus.read_manifest(manifest)
        assert str(caught.value).startswith(f"{manifest}{error}")

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok \xff nope")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("c\tbad.txt\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="byte offset 3"):
            corpus.read_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            corpus.read_manifest(tmp_path / "absent.tsv")

    def test_empty_document_rejected(self, tmp_path):
        (tmp_path / "empty.txt").write_text("   \n ", encoding="utf-8")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("c\tempty.txt\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="no tokens"):
            corpus.read_manifest(manifest)

    def test_vocabulary_json(self, tmp_path):
        vocab = corpus.build_vocabulary([["b", "a", "b"]])
        out = tmp_path / "vocab.json"
        corpus.write_vocabulary(vocab, out)
        import json

        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["tokens"][0] == {"token": corpus.UNK_TOKEN, "id": 0, "frequency": 0}
        assert {r["token"]: r["frequency"] for r in payload["tokens"]}["b"] == 2


class TestWriteText:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        corpus.write_text(path, "old")
        with pytest.raises(UnicodeEncodeError):
            corpus.write_text(path, "new\udc80")  # a lone surrogate has no UTF-8 encoding
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_bytes_and_mode_match_a_plain_write(self, tmp_path):
        plain, written = tmp_path / "plain.txt", tmp_path / "written.txt"
        with open(plain, "w", encoding="utf-8", newline="") as f:
            f.write("a\r\nb\ncé\n")
        corpus.write_text(written, "a\r\nb\ncé\n")
        assert written.read_bytes() == plain.read_bytes() == "a\r\nb\ncé\n".encode()
        assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

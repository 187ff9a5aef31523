import math
import tracemalloc

import numpy as np
import pytest

from oracles import ce_gradients, nll
from sca import coherence, corpus, embedding, lm
from sca.embedding import init_embeddings
from sca.kernel import KernelSpec
from sca.trainer import TrainConfig, TrainingError

RBF = KernelSpec("rbf", 0.5)


def _uniform_model(n=7, d=4):
    return np.zeros((n, d + 1))


class TestNll:
    def test_uniform_model_gives_log_n(self):
        model = _uniform_model(n=7)
        assert nll(model, (0, 3)) == pytest.approx(math.log(7), abs=1e-12)

    def test_dominant_logit_gives_tiny_nll(self):
        model = _uniform_model(n=5)
        model[2, -1] = 25.0
        assert nll(model, (0, 2)) < 1e-8

    def test_nonnegative_for_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            model = lm.make_model(rng.standard_normal((6, 3)), rng.standard_normal(6))
            pair = tuple(rng.integers(0, 6, size=2))
            assert nll(model, pair) >= 0.0

    def test_out_of_vocabulary_rejected(self):
        model = _uniform_model(n=4)
        with pytest.raises(ValueError, match="vocabulary"):
            nll(model, (0, 4))

    def test_softmax_normalization(self):
        rng = np.random.default_rng(1)
        for n, d in ((5, 3), (50, 16), (500, 32)):
            model = lm.make_model(rng.standard_normal((n, d)), rng.standard_normal(n))
            p = np.exp([-nll(model, (0, nxt)) for nxt in range(n)])
            assert p.sum() == pytest.approx(1.0, abs=1e-9)


def _one_doc(seq):
    return [corpus.Document("c", np.asarray(seq, dtype=np.int64))]


def _perplexity(model, docs):
    """exp of the mean nll over the documents' pairs, as the run summaries report it."""
    return float(np.exp(np.mean(lm.score_pairs(model, _pairs(docs))[0])))


def _pairs(docs):
    return np.concatenate([corpus.adjacent_pairs(doc) for doc in docs])


def _accuracy(model, pairs):
    return float(np.mean(lm.score_pairs(model, pairs)[1]))


class TestPerplexity:
    def test_uniform_model_equals_vocabulary_size(self):
        model = _uniform_model(n=9)
        seq = np.array([0, 1, 2, 3, 4])
        assert _perplexity(model, _one_doc(seq)) == pytest.approx(9.0, rel=1e-12)

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(2)
        model = lm.make_model(rng.standard_normal((8, 4)), rng.standard_normal(8))
        seq = rng.integers(0, 8, size=10)
        want = math.exp(
            np.mean([nll(model, (seq[i], seq[i + 1])) for i in range(len(seq) - 1)])
        )
        assert _perplexity(model, _one_doc(seq)) == pytest.approx(want, rel=1e-12)

    def test_small_blocks_match_per_pair_oracle(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = lm.make_model(rng.standard_normal((9, 4)), rng.standard_normal(9))
        # repeated sources in unsorted order; both pair sets have the 7
        # distinct sources {0, 1, 2, 3, 5, 7, 8}, so blocks of 3 end ragged
        seq = np.array([5, 2, 7, 5, 0, 2, 8, 5, 3, 7, 1, 2])
        docs = [corpus.Document("c", seq[:6]), corpus.Document("c", seq[6:])]
        pairs = _pairs(docs)
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", 3 * 9)  # 3 rows of the 9-word vocabulary

        def oracle(pair_list):
            return math.exp(np.mean([nll(model, pair) for pair in pair_list]))

        seq_pairs = [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
        assert _perplexity(model, _one_doc(seq)) == pytest.approx(
            oracle(seq_pairs), rel=1e-12
        )
        assert _perplexity(model, docs) == pytest.approx(oracle(pairs), rel=1e-12)
        E, bias = model[:, :-1], model[:, -1]
        argmaxes = np.array([np.argmax(E @ E[s] + bias) for s in pairs[:, 0]])
        assert _accuracy(model, pairs) == np.mean(argmaxes == pairs[:, 1])
        assert _accuracy(model, np.column_stack([pairs[:, 0], argmaxes])) == 1.0

    def test_memorized_bigram_approaches_one(self):
        # the one bigram (0 -> 1), repeated; a tied model can drive its
        # nll to zero through the bias alone
        docs = [
            corpus.Document("c", np.array([0, 1], dtype=np.int64)) for _ in range(40)
        ]
        model = lm.make_model(init_embeddings(2, 4, seed=0))
        config = TrainConfig(lr=0.5, batch=8, epochs=80, seed=0, tol=None)
        trained, _ = lm.train_joint(model, docs, RBF, config)
        assert _perplexity(trained, docs) < 1.05


class TestScorePairs:
    def test_each_pair_matches_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(6)
        model = lm.make_model(rng.standard_normal((11, 4)), rng.standard_normal(11))
        pairs = rng.integers(0, 11, size=(40, 2))
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", 4 * 11)  # ragged blocks of 4 sources
        nlls, hits = lm.score_pairs(model, pairs)
        want = [nll(model, pair) for pair in pairs]
        np.testing.assert_allclose(nlls, want, rtol=1e-12, atol=1e-14)
        E, bias = model[:, :-1], model[:, -1]
        argmaxes = [np.argmax(E @ E[s] + bias) for s in pairs[:, 0]]
        assert hits.tolist() == [int(a) == t for a, t in zip(argmaxes, pairs[:, 1])]

    def test_ragged_blocks_match_one_block_in_bounded_memory(self, monkeypatch):
        # 300 sources in one block would take 300 * 4,000 * 8 B = 9.6 MB
        rng = np.random.default_rng(5)
        n = 4000
        model = lm.make_model(0.1 * rng.standard_normal((n, 8)), rng.standard_normal(n))
        pairs = np.column_stack([rng.integers(0, 300, 20_000), rng.integers(0, n, 20_000)])
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", 300 * n)
        whole_nlls, whole_hits = lm.score_pairs(model, pairs)
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", 64 * n)  # four blocks of 64, one of 44
        tracemalloc.start()
        try:
            nlls, hits = lm.score_pairs(model, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(nlls, whole_nlls) and np.array_equal(hits, whole_hits)
        assert peak < 3 * embedding.BLOCK_ELEMENTS * 8

    def test_width_over_the_budget_takes_one_row_per_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 500
        model = lm.make_model(0.3 * rng.standard_normal((n, 6)), rng.standard_normal(n))
        pairs = np.column_stack([rng.integers(0, 40, 2000), rng.integers(0, n, 2000)])
        whole_nlls, whole_hits = lm.score_pairs(model, pairs)
        monkeypatch.setattr(embedding, "BLOCK_ELEMENTS", n - 1)
        nlls, hits = lm.score_pairs(model, pairs)
        # a one-row block is a matrix-vector product, whose rounding may differ in the last bit
        np.testing.assert_allclose(nlls, whole_nlls, rtol=1e-15, atol=0)
        assert np.array_equal(hits, whole_hits)

    @pytest.mark.parametrize(
        "logits",
        [
            [0.25, np.nextafter(0.5, 0.0), 0.5, -1.0],  # the two largest one ulp apart
            [0.5, np.nextafter(0.5, 0.0), 0.25, -1.0],
            [-7.5, -3.0, np.nextafter(-3.0, 0.0)],
            [-1.0, 1e300, np.nextafter(1e300, np.inf)],
            [0.0, -5e-324, 5e-324],  # subnormals: the gap is the smallest float
            [0.25, 0.75, -0.5, 0.75, 0.75],  # exact ties: the smallest id wins
        ],
        ids=["later", "earlier", "negative", "huge", "subnormal", "ties"],
    )
    def test_argmax_after_the_shift_matches_the_unshifted_oracle(self, logits):
        # a zero table makes every source's logits exactly the bias column
        n = len(logits)
        model = lm.make_model(np.zeros((n, 3)), np.array(logits))
        pairs = np.array([(s, t) for s in range(n) for t in range(n)])
        _, hits = lm.score_pairs(model, pairs)
        E, bias = model[:, :-1], model[:, -1]
        argmaxes = np.array([np.argmax(E @ E[s] + bias) for s in pairs[:, 0]])
        assert hits.tolist() == (argmaxes == pairs[:, 1]).tolist()
        assert hits.sum() == n


class TestAccuracy:
    def test_memorized_set(self):
        model = _uniform_model(n=4)
        # separate each source deterministically via huge pairwise logits
        model[:, :-1] = np.eye(4) * 10.0
        pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert _accuracy(model, pairs) == 1.0

    def test_never_correct_set(self):
        model = _uniform_model(n=4)
        model[3, -1] = 10.0
        pairs = np.array([[0, 0], [1, 1], [2, 2]])
        assert _accuracy(model, pairs) == 0.0

    def test_hand_counted_fraction(self):
        model = _uniform_model(n=3)
        model[:, -1] = [0.0, 1.0, 2.0]  # argmax always token 2
        pairs = np.array([[0, 2], [1, 2], [2, 2], [0, 1], [1, 0]])
        assert _accuracy(model, pairs) == pytest.approx(3 / 5)

    def test_argmax_ties_take_smallest_id(self):
        model = _uniform_model(n=4)  # all logits equal
        pairs = np.array([[1, 0], [2, 0], [3, 1]])
        assert _accuracy(model, pairs) == pytest.approx(2 / 3)


class TestCeGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        n, d = 12, 6
        eps = 1e-5
        for trial in range(5):
            model = lm.make_model(rng.standard_normal((n, d)), rng.standard_normal(n))
            pair = tuple(rng.integers(0, n, size=2))
            _, grad = lm.ce_batch_gradients(model, np.array([pair]))
            assert grad.shape == (n, d + 1)
            for i, j in np.ndindex(model.shape):  # the embedding columns, then the bias column
                plus, minus = model.copy(), model.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                fd = (nll(plus, pair) - nll(minus, pair)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_batch_matches_dense_delta_oracle(self):
        batches = [
            # repeated sources (3, 5), repeated targets (0, 3), a pair with source == target
            # (3, 3) and one with the source of another pair as target (5, 3)
            [[3, 0], [5, 3], [3, 3], [1, 0], [5, 7], [3, 0], [9, 5], [3, 8]],
            [[4, 2]] * 8,  # one pair B times: the target correction lands B times on one entry
            [[i, i] for i in (3, 5, 3, 1, 11, 0)],  # every target equals its source
        ]
        rng = np.random.default_rng(21)
        for pairs in map(np.array, batches):
            for trial in range(5):
                model = lm.make_model(rng.standard_normal((12, 6)), rng.standard_normal(12))
                loss, grad = lm.ce_batch_gradients(model, pairs)
                want_loss, want = ce_gradients(model, pairs)
                assert loss == pytest.approx(want_loss, rel=1e-12)
                for part in (np.s_[:, :-1], np.s_[:, -1]):  # the table's columns, the bias's
                    gap = np.max(np.abs(grad[part] - want[part]))
                    assert gap <= 1e-12 * np.max(np.abs(want[part]))

    # row maxima placed against LOGIT_SPAN by a common bias offset (every row moves with it), or
    # by one source alone: a first coordinate that only that source's row and column carry
    SPAN_CASES = {
        "inside": (lambda peaks: lm.LOGIT_SPAN - 1e-6 - peaks.max(), "none"),
        "just_above": (lambda peaks: lm.LOGIT_SPAN + 1e-6 - peaks.max(), "some"),
        "just_below": (lambda peaks: -lm.LOGIT_SPAN - 1e-6 - peaks.min(), "some"),
        "far_above": (lambda peaks: 1e3, "all"),
        "far_below": (lambda peaks: -1e3, "all"),
        "one_row": (None, "one"),
    }

    @pytest.mark.parametrize("case", list(SPAN_CASES))
    def test_logit_span_matches_dense_oracle(self, case):
        # training and evaluation shift their logit rows only when some row's max leaves
        # [-LOGIT_SPAN, LOGIT_SPAN]; either way the loss, gradient, nlls and hits are the
        # unshifted softmax's
        offset, expected = self.SPAN_CASES[case]
        pairs = np.array([[3, 0], [5, 3], [3, 3], [1, 0], [5, 7], [3, 0], [9, 5], [3, 8]])
        sources = np.unique(pairs[:, 0])
        rng = np.random.default_rng(34)
        for trial in range(5):
            model = lm.make_model(rng.standard_normal((12, 6)), rng.standard_normal(12))
            if offset is None:
                model[:, 0] = 0.0
                model[9, 0] = math.sqrt(1e3)
            else:
                logits = model[sources, :-1] @ model[:, :-1].T + model[:, -1]
                model[:, -1] += offset(logits.max(axis=1))
            logits = model[sources, :-1] @ model[:, :-1].T + model[:, -1]
            out = np.abs(logits.max(axis=1)) > lm.LOGIT_SPAN
            assert {"none": not out.any(), "some": 0 < out.sum() < out.size, "all": out.all(),
                    "one": out.tolist() == [False, False, False, True]}[expected]
            loss, grad = lm.ce_batch_gradients(model, pairs)
            want_loss, want = ce_gradients(model, pairs)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            for part in (np.s_[:, :-1], np.s_[:, -1]):
                gap = np.max(np.abs(grad[part] - want[part]))
                assert gap <= 1e-12 * np.max(np.abs(want[part]))
            # the per-batch invariants the training schedule computes once give the same bits
            again, regrad = lm.ce_batch_gradients(model, pairs, lm.distinct_sources(pairs))
            assert again == loss and np.array_equal(regrad, grad)
            # score_pairs takes the four sources in one block: it shifts exactly when training does
            nlls, hits = lm.score_pairs(model, pairs)
            np.testing.assert_allclose(nlls, [nll(model, pair) for pair in pairs], rtol=1e-12)
            dense = model[pairs[:, 0], :-1] @ model[:, :-1].T + model[:, -1]
            assert hits.tolist() == (np.argmax(dense, axis=1) == pairs[:, 1]).tolist()


class TestJointTraining:
    def test_lambda_zero_matches_baseline_bitwise(self, small_docs):
        docs, vocab = small_docs
        config = TrainConfig(lr=0.2, batch=8, epochs=4, seed=6, tol=None, lam=0.0)
        base_model, base_logs = lm.train_joint(
            lm.make_model(init_embeddings(len(vocab), 6, seed=6)), docs, None, config
        )
        joint_model, joint_logs = lm.train_joint(
            lm.make_model(init_embeddings(len(vocab), 6, seed=6)),
            docs,
            RBF,
            config,
        )
        assert np.array_equal(base_model, joint_model)
        assert [l.loss for l in base_logs] == [l.loss for l in joint_logs]

    def test_one_step_applies_both_terms(self, small_docs):
        # a one-batch, one-epoch joint run applies exactly one update: the cross-entropy
        # gradient plus lam times the coherence rows of the batch's distinct sources
        docs, vocab = small_docs
        pools = corpus.bigram_pools(docs)
        total = sum(map(len, pools))
        config = TrainConfig(lr=0.3, batch=total, epochs=1, seed=4, tol=None, lam=0.5)
        model = lm.make_model(init_embeddings(len(vocab), 6, seed=2))
        model[:, -1] = np.random.default_rng(2).standard_normal(len(vocab))
        trained, logs = lm.train_joint(model, docs, RBF, config)
        pairs = corpus.sample_from_pools(pools, total, config.seed, 0)
        sources = np.unique(pairs[:, 0])
        assert len(sources) < len(pairs)  # repeated sources: a per-pair scatter would differ
        loss, grad = lm.ce_batch_gradients(model, pairs)
        state = coherence.compute_batch_state(
            RBF, model[:, :-1], sources, config.rho, config.spectral_mode
        )
        grad[sources, :-1] += config.lam * state.gradients
        assert logs[0].loss == loss + config.lam * state.loss
        np.testing.assert_allclose(trained, model - config.lr * grad, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("column", [0, -1], ids=["table", "bias"])
    def test_nonfinite_model_aborts_with_location(self, small_docs, column, lam):
        # a NaN anywhere in [E | b] reaches every logit row, so the first batch's check fires
        docs, vocab = small_docs
        model = lm.make_model(init_embeddings(len(vocab), 6, seed=0))
        model[1, column] = np.nan
        config = TrainConfig(batch=8, epochs=2, seed=0, tol=None, lam=lam)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0$"):
            lm.train_joint(model, docs, RBF, config)

    def test_positive_lambda_raises_coherence(self, toy_docs):
        config = TrainConfig(lr=0.3, batch=32, epochs=25, seed=4, tol=None, lam=0.5)
        table = init_embeddings(100, 8, seed=4)
        spec = KernelSpec("rbf", 0.45)
        trained, logs = lm.train_joint(lm.make_model(table), toy_docs, spec, config)
        before, after = coherence.evaluate_coherence([table, trained[:, :-1]], toy_docs, spec, 32,
                                                     seed=4)
        assert after > before
        assert all(np.isfinite(l.coherence) for l in logs)

    def test_heldout_perplexity_finite_for_both_settings(self, small_docs):
        docs, vocab = small_docs
        for lam in (0.0, 0.5):
            config = TrainConfig(lr=0.2, batch=8, epochs=3, seed=1, tol=None, lam=lam)
            model, _ = lm.train_joint(
                lm.make_model(init_embeddings(len(vocab), 6, seed=1)),
                docs,
                RBF,
                config,
            )
            ppl = _perplexity(model, docs)
            assert np.isfinite(ppl) and ppl >= 1.0

    def test_joint_and_baseline_sample_identical_batches(self, small_docs):
        docs, _ = small_docs
        pools = corpus.bigram_pools(docs)
        a = corpus.sample_from_pools(pools, 8, seed=2, step=0)
        b = corpus.sample_from_pools(pools, 8, seed=2, step=0)
        assert np.array_equal(a, b)

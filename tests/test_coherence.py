import numpy as np
import pytest

from sca import coherence, field, kernel
from sca.coherence import compute_batch_state
from sca.embedding import EmbeddingTable
from sca.field import TensorField
from sca.kernel import KernelSpec

RBF = KernelSpec("rbf", 1.0)


def _random_state(seed, n=8, d=4, m=5, spec=RBF):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rng.standard_normal((n, d)))
    batch = rng.integers(0, n, size=m)
    return table, batch, compute_batch_state(spec, table, batch)


def _loss_oracle(dense_fields, mean):
    """Plain double-sum Frobenius distance, no factored shortcuts."""
    total = 0.0
    for T in dense_fields:
        for r in range(mean.shape[0]):
            for c in range(mean.shape[1]):
                total += (T[r, c] - mean[r, c]) ** 2
    return total


class TestBatchState:
    def test_pipeline_matches_per_token_operations(self):
        table, batch, _ = _random_state(0)
        # rho 0.5 binds: the batch's field norms run from below 0.5 to about 0.8
        for rho, mode in ((None, "clip"), (0.5, "clip"), (0.5, "alg1")):
            state = compute_batch_state(RBF, table, batch, rho, mode)
            fields = []
            for p in range(batch.size):
                c = field.context_vector(RBF, table, int(batch[p]), batch)
                np.testing.assert_allclose(state.rights[p], c, atol=1e-12)
                f = TensorField(table.vectors[int(batch[p])], c)
                fields.append(f if rho is None else field.spectral_project(f, rho, mode))
            if rho is not None:
                assert np.any(state.scales != 1.0)
            np.testing.assert_allclose(state.mean, field.mean_field(fields), atol=1e-12)
            assert state.loss == pytest.approx(coherence.sca_loss(fields, state.mean), abs=1e-12)
            assert state.score == pytest.approx(
                coherence.coherence_score(fields, state.mean), abs=1e-12
            )

    def test_rejects_bad_ids(self):
        table = EmbeddingTable(np.ones((3, 2)))
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([3]))


class TestLoss:
    def test_single_member_batch_is_zero(self):
        table, _, state = _random_state(2, m=1)
        assert state.loss == 0.0
        assert coherence.sca_loss(state.fields(), state.mean) == 0.0

    def test_identical_embedding_batch_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(rng.standard_normal((4, 6)) * 0.1)
        for m in (2, 3, 5, 32):
            state = compute_batch_state(RBF, table, np.full(m, 2))
            assert state.loss == 0.0

    def test_matches_double_sum_oracle(self):
        _, _, state = _random_state(4, m=3, d=2)
        want = _loss_oracle([f.dense() for f in state.fields()], state.mean)
        assert state.loss == pytest.approx(want, rel=1e-12)

    def test_loss_nonnegative_and_permutation_invariant(self):
        for seed in range(10):
            table, batch, state = _random_state(seed, m=7)
            assert state.loss >= 0.0
            perm = np.random.default_rng(seed).permutation(batch)
            state_perm = compute_batch_state(RBF, table, perm)
            assert state_perm.loss == pytest.approx(state.loss, rel=1e-12)

    def test_positive_for_distinct_fields(self):
        _, _, state = _random_state(5, m=4)
        assert state.loss > 0.0

    def test_arbitrary_scaled_fields_against_given_mean(self):
        rng = np.random.default_rng(6)
        fields = [
            TensorField(rng.standard_normal(3), rng.standard_normal(3), float(rng.uniform(0.2, 1)))
            for _ in range(4)
        ]
        mean = rng.standard_normal((3, 3))
        want = _loss_oracle([f.dense() for f in fields], mean)
        assert coherence.sca_loss(fields, mean) == pytest.approx(want, rel=1e-12)


class TestGradient:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(rng.standard_normal((5, 4)))
        state = compute_batch_state(RBF, table, np.full(6, 3))
        assert np.all(coherence.sca_gradient(state) == 0.0)

    def test_zero_for_single_member_batch(self):
        _, _, state = _random_state(8, m=1)
        assert np.all(coherence.sca_gradient(state) == 0.0)

    def test_matches_detached_finite_differences(self):
        for seed in range(20):
            table, batch, state = _random_state(seed, n=10, d=5, m=6)
            # the bound also runs at the median field norm, so s_i != 1 is covered
            rho = float(np.median([field.spectral_norm(f) for f in state.fields()]))
            for bound in ((None, "clip"), (rho, "clip"), (rho, "alg1")):
                state = compute_batch_state(RBF, table, batch, *bound)
                assert bound[0] is None or np.any(state.scales != 1.0)
                grads = coherence.sca_gradient(state)
                for p in range(batch.size):
                    fd = coherence.fd_gradient_detached(
                        table, int(batch[p]), state.rights[p], state.mean, 1e-5, state.scales[p]
                    )
                    rel = np.linalg.norm(grads[p] - fd) / max(np.linalg.norm(fd), 1e-12)
                    assert rel < 1e-5

    def test_closed_form_on_hand_state(self):
        # gradient of |e c^T - M|_F^2 in e is 2 (e c^T - M) c
        _, batch, state = _random_state(9, m=3, d=2)
        grads = coherence.sca_gradient(state)
        for p in range(batch.size):
            T = np.outer(state.lefts[p], state.rights[p])
            want = 2.0 * (T - state.mean) @ state.rights[p]
            np.testing.assert_allclose(grads[p], want, atol=1e-12)


class TestDetachedOracle:
    def test_zero_context_gives_zero_vector(self):
        table = EmbeddingTable(np.random.default_rng(10).standard_normal((3, 4)))
        fd = coherence.fd_gradient_detached(table, 0, np.zeros(4), np.zeros((4, 4)))
        assert np.all(fd == 0.0)

    def test_matches_analytic_form(self):
        rng = np.random.default_rng(11)
        table = EmbeddingTable(rng.standard_normal((5, 4)))
        context = rng.standard_normal(4)
        mean = rng.standard_normal((4, 4))
        fd = coherence.fd_gradient_detached(table, 1, context, mean, eps=1e-5)
        analytic = 2.0 * (np.outer(table.vectors[1], context) - mean) @ context
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-6

    def test_eps_bounds_enforced(self):
        table = EmbeddingTable(np.ones((2, 2)))
        for eps in (1e-8, 1e-2):
            with pytest.raises(ValueError):
                coherence.fd_gradient_detached(table, 0, np.ones(2), np.zeros((2, 2)), eps=eps)


class TestFullOracle:
    def test_identical_embedding_batch_is_a_minimum(self):
        rng = np.random.default_rng(12)
        table = EmbeddingTable(rng.standard_normal((4, 3)))
        fd = coherence.fd_gradient_full(RBF, table, np.full(5, 1), 1, eps=1e-5)
        np.testing.assert_allclose(fd, 0.0, atol=1e-8)

    def test_single_member_batch_is_exactly_flat(self):
        rng = np.random.default_rng(13)
        table = EmbeddingTable(rng.standard_normal((4, 3)))
        fd = coherence.fd_gradient_full(RBF, table, np.array([2]), 2, eps=1e-5)
        assert np.all(fd == 0.0)

    def test_differs_from_detached_gradient_in_general(self):
        table, batch, state = _random_state(14, m=6, d=4)
        token = int(batch[0])
        fd_full = coherence.fd_gradient_full(RBF, table, batch, token, eps=1e-5)
        semi = coherence.sca_gradient(state)[batch == token].sum(axis=0)
        assert np.linalg.norm(fd_full - semi) > 1e-6

    def test_second_order_accuracy(self):
        # central differences: D(eps) = g + C eps^2, so successive
        # halvings shrink D(eps) - D(eps/2) by ~4x
        table, batch, _ = _random_state(15, m=5, d=3)
        token = int(batch[0])
        d1 = coherence.fd_gradient_full(RBF, table, batch, token, eps=8e-4)
        d2 = coherence.fd_gradient_full(RBF, table, batch, token, eps=4e-4)
        d3 = coherence.fd_gradient_full(RBF, table, batch, token, eps=2e-4)
        ratio = np.linalg.norm(d1 - d2) / np.linalg.norm(d2 - d3)
        assert 3.0 < ratio < 5.5


class TestCoherenceScore:
    def test_identical_nonzero_fields_score_one(self):
        f = TensorField(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        fields = [f, f, f]
        mean = field.mean_field(fields)
        assert coherence.coherence_score(fields, mean) == pytest.approx(1.0, abs=1e-9)

    def test_cancelling_fields_guard_to_zero(self):
        left, right = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        fields = [TensorField(left, right), TensorField(-left, right)]
        mean = field.mean_field(fields)
        assert np.all(mean == 0.0)
        assert coherence.coherence_score(fields, mean) == 0.0

    def test_matches_scalar_arithmetic(self):
        rng = np.random.default_rng(16)
        fields = [TensorField(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(3)]
        mean = field.mean_field(fields)
        want = 0.0
        for f in fields:
            T = f.dense()
            num = float(np.sum(T * mean))
            den = float(np.linalg.norm(T) * np.linalg.norm(mean)) + 1e-12
            want += num / den
        want /= 3.0
        assert coherence.coherence_score(fields, mean) == pytest.approx(want, rel=1e-12)

    def test_bounded(self):
        for seed in range(20):
            _, _, state = _random_state(seed + 100, m=6)
            assert -1.0 - 1e-12 <= state.score <= 1.0 + 1e-12


class TestEvaluateCoherence:
    def test_deterministic(self, toy_docs):
        table = EmbeddingTable(
            np.random.default_rng(0).standard_normal((100, 8)) * 0.1
        )
        spec = KernelSpec("rbf", 0.5)
        a = coherence.evaluate_coherence(table, toy_docs, spec, 16, seed=5)
        b = coherence.evaluate_coherence(table, toy_docs, spec, 16, seed=5)
        assert a == b

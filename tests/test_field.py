import numpy as np
import pytest

from oracles import (
    TensorField,
    context_vector,
    kernel_eval,
    mean_field,
    spectral_norm,
    spectral_project,
)
from sca.kernel import KernelSpec

RBF = KernelSpec("rbf", 1.0)


def _sigma_max_power_iteration(A, iters=500):
    """Largest singular value of A via power iteration on A^T A."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.linalg.norm(A @ v))


class TestContextVector:
    def test_self_batch_returns_own_embedding(self):
        table = np.array([[0.5, -1.0], [2.0, 0.0]])
        c = context_vector(RBF, table, 0, np.array([0]))
        np.testing.assert_array_equal(c, table[0])

    def test_empty_batch_rejected(self):
        table = np.ones((3, 2))
        with pytest.raises(ValueError):
            context_vector(KernelSpec("dot"), table, 0, np.array([], dtype=np.int64))

    def test_identical_batch_scales_by_kernel_value(self):
        e = np.array([1.0, 2.0])
        other = np.array([0.0, 1.0])
        table = np.stack([other, e, e, e])
        c = context_vector(RBF, table, 0, np.array([1, 2, 3]))
        k = kernel_eval(RBF, other, e)
        np.testing.assert_allclose(c, k * e, rtol=0, atol=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((6, 3))
        batch = np.array([1, 4, 5])
        got = context_vector(RBF, table, 2, batch)
        want = np.zeros(3)
        for j in batch:
            want += kernel_eval(RBF, table[2], table[j]) * table[j]
        want /= batch.size
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((8, 4))
        batch = np.array([0, 3, 5, 6, 7])
        base = context_vector(RBF, table, 1, batch)
        for _ in range(5):
            perm = rng.permutation(batch)
            np.testing.assert_allclose(
                context_vector(RBF, table, 1, perm), base, atol=1e-12
            )

    def test_concatenation_averages_halves(self):
        rng = np.random.default_rng(4)
        table = rng.standard_normal((10, 4))
        b1 = np.array([0, 1, 2, 3])
        b2 = np.array([4, 5, 6, 7])
        both = context_vector(RBF, table, 9, np.concatenate([b1, b2]))
        half = 0.5 * (
            context_vector(RBF, table, 9, b1) + context_vector(RBF, table, 9, b2)
        )
        np.testing.assert_allclose(both, half, atol=1e-12)


class TestTensorField:
    def test_dense_outer_product(self):
        np.testing.assert_array_equal(
            TensorField(np.array([1.0, 0.0]), np.array([0.0, 1.0])).dense(),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        )

    def test_zero_context_gives_zero_matrix(self):
        f = TensorField(np.array([1.0, 2.0]), np.zeros(2))
        assert np.all(f.dense() == 0.0)

    def test_transpose_equals_swapped_factors(self):
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_array_equal(
            TensorField(left, right).dense().T, TensorField(right, left).dense()
        )


class TestMeanField:
    def test_single_field_is_its_dense_form(self):
        f = TensorField(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(mean_field([f]), f.dense())

    def test_opposite_fields_cancel_exactly(self):
        left, right = np.array([1.0, -0.5]), np.array([0.25, 2.0])
        fields = [TensorField(left, right), TensorField(-left, right)]
        assert np.all(mean_field(fields) == 0.0)

    def test_matches_elementwise_mean(self):
        rng = np.random.default_rng(6)
        fields = [
            TensorField(rng.standard_normal(3), rng.standard_normal(3), float(rng.uniform(0.5, 1)))
            for _ in range(3)
        ]
        want = sum(f.dense() for f in fields) / 3.0
        np.testing.assert_allclose(mean_field(fields), want, atol=1e-15)

    def test_identical_fields_average_to_themselves_bitwise(self):
        rng = np.random.default_rng(7)
        f = TensorField(rng.standard_normal(4), rng.standard_normal(4))
        for m in (2, 3, 5, 7):
            mean = mean_field([f] * m)
            assert np.array_equal(mean, f.dense())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_field([])


class TestSpectralNorm:
    def test_product_of_norms(self):
        f = TensorField(np.array([3.0, 0.0]), np.array([0.0, 4.0]))
        assert spectral_norm(f) == 12.0

    def test_zero_context(self):
        assert spectral_norm(TensorField(np.ones(3), np.zeros(3))) == 0.0

    def test_matches_power_iteration_on_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = TensorField(
                rng.standard_normal(5), rng.standard_normal(5), float(rng.uniform(0.1, 2))
            )
            assert spectral_norm(f) == pytest.approx(
                _sigma_max_power_iteration(f.dense()), abs=1e-9
            )


class TestSpectralProject:
    def test_clip_rescales_to_threshold(self):
        f = TensorField(np.array([3.0, 0.0]), np.array([0.0, 4.0]))  # sigma 12
        clipped = spectral_project(f, rho=6.0, mode="clip")
        assert spectral_norm(clipped) == pytest.approx(6.0, rel=1e-12)

    def test_clip_inactive_leaves_field_untouched(self):
        f = TensorField(np.array([0.3, 0.0]), np.array([0.0, 0.4]))
        assert spectral_project(f, rho=1.0, mode="clip") is f

    def test_alg1_divides_by_max(self):
        f = TensorField(np.array([3.0, 0.0]), np.array([0.0, 4.0]))  # sigma 12
        out = spectral_project(f, rho=6.0, mode="alg1")
        assert spectral_norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_alg1_shrinks_small_fields_by_rho(self):
        f = TensorField(np.array([1.0, 0.0]), np.array([0.0, 3.0]))  # sigma 3
        out = spectral_project(f, rho=6.0, mode="alg1")
        assert spectral_norm(out) == pytest.approx(0.5, rel=1e-12)

    def test_clip_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = TensorField(rng.standard_normal(4) * 3, rng.standard_normal(4) * 3)
            once = spectral_project(f, rho=1.0, mode="clip")
            twice = spectral_project(once, rho=1.0, mode="clip")
            assert spectral_norm(once) <= 1.0 * (1 + 1e-12)
            assert abs(twice.scale - once.scale) <= 1e-12 * max(abs(once.scale), 1.0)

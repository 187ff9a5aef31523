import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import kernel_eval
from sca import kernel
from sca.kernel import KernelSpec


RBF = KernelSpec("rbf", 1.0)
DOT = KernelSpec("dot")
COS = KernelSpec("cosine")


class TestEval:
    def test_rbf_zero_distance_is_one(self):
        x = np.array([0.4, -2.0, 1.0])
        assert kernel_eval(RBF, x, x) == 1.0

    def test_rbf_unit_vectors(self):
        got = kernel_eval(RBF, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dot_orthogonal_is_zero(self):
        assert kernel_eval(DOT, np.array([2.0, 0.0]), np.array([0.0, 3.0])) == 0.0

    def test_cosine_zero_vector_maps_to_zero(self):
        assert kernel_eval(COS, np.zeros(3), np.ones(3)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_eval(DOT, np.ones(3), np.ones(4))

    @pytest.mark.parametrize("spec", [RBF, DOT, COS])
    def test_symmetry(self, spec):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            assert abs(kernel_eval(spec, x, y) - kernel_eval(spec, y, x)) <= 1e-15

    def test_rbf_range(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            k = kernel_eval(KernelSpec("rbf", 0.7), x, y)
            assert 0.0 < k <= 1.0
            assert (k == 1.0) == bool(np.array_equal(x, y))


def _sums(spec, X):
    """kernel_block's K a and K 1 for the batch X, a = X - X[0]."""
    return kernel.kernel_block(spec, X, X - X[0])


class TestBlock:
    @pytest.mark.parametrize("spec", [RBF, DOT, COS])
    def test_matches_eval(self, spec):
        X = np.random.default_rng(11).standard_normal((7, 5))
        K = np.array([[kernel_eval(spec, x, y) for y in X] for x in X])
        Ka, K1 = _sums(spec, X)
        np.testing.assert_allclose(Ka, K @ (X - X[0]), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(K1, K.sum(axis=1), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("spec", [RBF, DOT, COS])
    def test_equal_rows_give_equal_sums(self, spec):
        # shapes up to (129, 32), since BLAS blocking changes with the shape. dot and cosine
        # reduce K 1 row by row, so equal rows get bit-equal entries; BLAS rounds a product's
        # edge rows (and rbf's Gram matrix) differently, so the rest agree only to rounding.
        # A collapsed batch, whose a is 0, gets K a == 0 and one K 1 for every row exactly
        rng = np.random.default_rng(17)
        for m, d in itertools.product((2, 5, 12, 33, 70, 129), (2, 3, 6, 17, 32)):
            X = rng.standard_normal((m, d))
            for _ in range(2):
                group = rng.choice(m, size=max(2, m // 3), replace=False)
                X[group] = X[group[0]]
            X[group[:2]] = X[0]  # a group that holds the anchor row
            Ka, K1 = _sums(spec, X)
            for i in range(m):
                same = np.all(X == X[i], axis=1)
                assert np.abs(Ka[same] - Ka[i]).max() <= 1e-14 * np.abs(Ka).max()
                assert np.abs(K1[same] - K1[i]).max() <= 1e-14 * np.abs(K1).max()
                assert spec.family == "rbf" or np.all(K1[same] == K1[i])
            Ka, K1 = _sums(spec, np.tile(X[-1], (m, 1)))
            assert np.all(Ka == 0.0) and np.all(K1 == K1[0])

    def test_rbf_self_block_diagonal_is_exactly_one(self):
        # rows this far apart have off-diagonal kernels that underflow to 0, so K is the diagonal
        X = np.random.default_rng(14).standard_normal((40, 9)) * 300.0
        Ka, K1 = _sums(RBF, X)
        assert np.all(K1 == 1.0) and np.array_equal(Ka, X - X[0])

    def test_rbf_rows_equal_to_the_first_are_exactly_one(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 6)) * 300.0
        same = [0, 3, 4, 9]
        X[same] = X[0]
        Ka, K1 = _sums(RBF, X)
        assert np.all(K1[same] == len(same)) and np.all(Ka[same] == 0.0)
        collapsed = np.tile(X[1], (33, 1))
        Ka, K1 = _sums(RBF, collapsed)
        assert np.all(Ka == 0.0) and np.all(K1 == 33.0)

    def test_cosine_zero_row_gives_zero(self):
        # a zero row anywhere has cosine 0 with every row, exactly and without a warning: its
        # own sums are 0, and its entry of a never reaches another row's K a
        for seed in range(300):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((rng.integers(2, 41), rng.integers(2, 41)))
            i = rng.integers(0, X.shape[0])
            X[i] = 0.0
            a = X - X[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Ka, K1 = kernel.kernel_block(COS, X, a)
            assert np.all(Ka[i] == 0.0) and K1[i] == 0.0
            a[i] = rng.standard_normal(X.shape[1])
            assert np.array_equal(kernel.kernel_block(COS, X, a)[0], Ka)


class TestMedianBandwidth:
    def test_single_pair(self):
        table = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert kernel.median_bandwidth(table) == 2.0

    def test_identical_table_floors_with_warning(self):
        table = np.ones((5, 3))
        with pytest.warns(RuntimeWarning):
            got = kernel.median_bandwidth(table)
        assert got == kernel.BANDWIDTH_FLOOR

    def test_full_coverage_matches_bruteforce_median(self):
        rng = np.random.default_rng(12)
        table = rng.standard_normal((10, 4))
        dists = []
        for i in range(10):
            for j in range(i + 1, 10):
                dists.append(float(np.linalg.norm(table[i] - table[j])))
        want = float(np.median(dists))
        got = kernel.median_bandwidth(table)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 80], ids=["10_pairs", "15_pairs", "2000_sampled"])
    def test_equals_numpy_median_bit_for_bit(self, n):
        table = np.random.default_rng(14).standard_normal((n, 4))
        if n * (n - 1) // 2 <= kernel.BANDWIDTH_PAIRS:
            iu, ju = np.triu_indices(n, k=1)
        else:  # the sample median_bandwidth draws, redrawn here
            rng = np.random.default_rng(3)
            iu = rng.integers(0, n, size=kernel.BANDWIDTH_PAIRS)
            ju = rng.integers(0, n - 1, size=kernel.BANDWIDTH_PAIRS)
            ju = np.where(ju >= iu, ju + 1, ju)
        diff = table[iu] - table[ju]
        want = float(np.median(np.sqrt(np.sum(diff * diff, axis=1))))
        assert kernel.median_bandwidth(table, seed=3) == want

    def test_subsample_is_seeded(self):
        rng = np.random.default_rng(13)
        table = rng.standard_normal((80, 4))
        assert 80 * 79 // 2 > kernel.BANDWIDTH_PAIRS  # so a sample is drawn
        a = kernel.median_bandwidth(table, seed=3)
        b = kernel.median_bandwidth(table, seed=3)
        assert a == b

    def test_tiny_table_rejected(self):
        with pytest.raises(ValueError):
            kernel.median_bandwidth(np.ones((1, 2)))

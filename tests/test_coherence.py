import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (
    TensorField,
    coherence_score,
    context_vector,
    fd_gradient_detached,
    fd_gradient_full,
    mean_field,
    sca_loss,
    spectral_norm,
    spectral_project,
    state_fields,
)
from sca import coherence, corpus, kernel
from sca.coherence import compute_batch_state
from sca.kernel import KernelSpec

RBF = KernelSpec("rbf", 1.0)
KERNELS = [RBF, KernelSpec("dot"), KernelSpec("cosine")]


def _random_state(seed, n=8, d=4, m=5, spec=RBF):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, d))
    batch = rng.integers(0, n, size=m)
    return table, batch, compute_batch_state(spec, table, batch)


def _assert_close(got, want, scale=None, tol=1e-12):
    """Agreement to tol relative to scale, by default the largest entry of want."""
    scale = float(np.max(np.abs(want))) if scale is None else scale
    assert float(np.max(np.abs(np.asarray(got) - want))) <= tol * scale


def _loss_oracle(dense_fields, mean):
    """Plain double-sum Frobenius distance, no factored shortcuts."""
    total = 0.0
    for T in dense_fields:
        for r in range(mean.shape[0]):
            for c in range(mean.shape[1]):
                total += (T[r, c] - mean[r, c]) ** 2
    return total


def _table_with_zero_row(seed, n, d):
    vectors = np.random.default_rng(seed).standard_normal((n, d))
    vectors[3] = 0.0
    return vectors


class TestBatchState:
    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.family)
    @pytest.mark.parametrize(
        "n, d, batch",
        [
            (9, 4, np.array([5, 3, 0, 5, 8, 1, 3])),  # repeats and the zero row
            (9, 4, np.array([5])),
            (300, 128, np.random.default_rng(1).integers(0, 300, size=256)),
        ],
        ids=["m7", "m1", "m256"],
    )
    def test_pipeline_matches_per_token_operations(self, spec, n, d, batch):
        table = _table_with_zero_row(0, n, d)
        unbounded = compute_batch_state(spec, table, batch)
        # half the largest field norm, so the bound binds for at least one field
        rho = 0.5 * float(np.max([spectral_norm(f) for f in state_fields(unbounded)]))
        for bound in ((None, "clip"), (rho, "clip"), (rho, "alg1")):
            state = compute_batch_state(spec, table, batch, *bound)
            assert bound[0] is None or np.any(state.scales != 1.0)
            contexts = np.array([context_vector(spec, table, int(t), batch) for t in batch])
            _assert_close(state.rights, contexts)
            fields = []
            for e, c in zip(table[batch], contexts):
                f = TensorField(e, c)
                fields.append(f if bound[0] is None else spectral_project(f, *bound))
            _assert_close(state.mean, mean_field(fields))
            total = sum(spectral_norm(f) ** 2 for f in fields)
            assert state.loss == pytest.approx(
                sca_loss(fields, state.mean), rel=1e-12, abs=1e-12 * total
            )
            assert state.score == pytest.approx(
                coherence_score(fields, state.mean), abs=1e-12
            )
            # the closed form on the dense fields, then central differences, which at d = 128
            # resolve the gradient only to about 4e-12 (their rounding floor); both relative to
            # the size of the terms, 2 s_i |T_i| |c_i|, since an m = 1 gradient is 0
            scale = max(2.0 * spectral_norm(f) * np.linalg.norm(f.right) for f in fields)
            dense = np.array([2.0 * f.scale * (f.dense() - state.mean) @ f.right for f in fields])
            _assert_close(state.gradients, dense, scale)
            for p in range(min(batch.size, 3)):
                fd = fd_gradient_detached(
                    table, int(batch[p]), state.rights[p], state.mean, 1e-3, state.scales[p]
                )
                _assert_close(state.gradients[p], fd, scale, tol=1e-12 if d < 100 else 1e-10)

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.family)
    def test_near_collapsed_batch_matches_extended_precision(self, spec):
        # rows v + 1e-6 noise, as a late-training table: the fields differ from each other
        # a million times less than they differ from zero
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        table = v + 1e-6 * rng.standard_normal((32, 16))
        state = compute_batch_state(spec, table, np.arange(32))
        lefts = state.lefts.astype(np.longdouble)
        rights = state.rights.astype(np.longdouble)
        stack = lefts[:, :, None] * rights[:, None, :]
        diff = stack - stack.mean(axis=0)
        loss = np.sum(diff * diff)
        grads = 2.0 * np.einsum("ijk,ik->ij", diff, rights)
        assert state.loss >= 0.0
        assert abs(state.loss - loss) <= 1e-12 * loss
        assert np.linalg.norm(state.gradients - grads) <= 1e-12 * np.linalg.norm(grads)

    def test_memory_stays_quadratic_in_batch(self):
        # the dense engine's (512, 512, 64) kernel broadcast alone took 134 MB; rbf holds two
        # (m, m) buffers, and dot and cosine none: at m = 2048 one would take 32 MB
        for spec, m, d, bound in ((RBF, 512, 64, 32), (KERNELS[1], 2048, 16, 4),
                                  (KERNELS[2], 2048, 16, 4)):
            rng = np.random.default_rng(2)
            table = rng.standard_normal((600, d)) * 0.1
            batch = rng.integers(0, 600, size=m)
            tracemalloc.start()
            try:
                compute_batch_state(spec, table, batch, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, spec.family

    def test_rejects_bad_ids(self):
        table = np.ones((3, 2))
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([3]))
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([-1]))  # table[-1] would read the last row
        with pytest.raises(ValueError):
            compute_batch_state(RBF, table, np.array([[0, 1], [1, 2]]))

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.family)
    def test_clip_bound_inside_the_ball_is_exact(self, spec):
        table, batch, free = _random_state(11, n=9, d=4, m=7, spec=spec)
        largest = max(spectral_norm(f) for f in state_fields(free))
        for rho in ((1.0 + 1e-9) * largest, 2.0 * largest):
            clipped = compute_batch_state(spec, table, batch, rho, "clip")
            assert np.all(clipped.scales == 1.0)
            assert clipped.loss == free.loss and clipped.score == free.score
            assert np.array_equal(clipped.gradients, free.gradients)
            assert np.array_equal(clipped.mean, free.mean)
            # alg1 divides by max(sigma, rho), so it rescales every field inside the ball
            rescaled = compute_batch_state(spec, table, batch, rho, "alg1")
            assert np.all(rescaled.scales == 1.0 / rho) and rescaled.loss != free.loss


BOUNDS = [(None, "clip"), (1e-3, "clip"), (1e-3, "alg1")]


def _repeated_batches(count=20, n=6, d=4, m=12):
    """(table, ids) pairs whose batches of m ids over n rows repeat ids."""
    for seed in range(count):
        rng = np.random.default_rng(seed + 700)
        yield rng.standard_normal((n, d)), rng.integers(0, n, size=m)


class TestExactIdentities:
    # sum_i e_i . g_i = 2 sum_i <A_i, A_i - M> = 2L since sum_i (A_i - M) = 0, with the scales
    # held fixed as the detached gradient holds them; kernel and bound see E only through inner
    # products, so a rotation moves every quantity with it
    @pytest.mark.parametrize("bound", BOUNDS, ids=["unbounded", "clip", "alg1"])
    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.family)
    def test_gradients_against_embeddings_sum_to_twice_the_loss(self, spec, bound):
        for table, ids in _repeated_batches():
            state = compute_batch_state(spec, table, ids, *bound)
            assert bound[0] is None or np.all(state.scales != 1.0)
            assert np.vdot(state.lefts, state.gradients) == pytest.approx(2.0 * state.loss,
                                                                          rel=1e-12)

    @pytest.mark.parametrize(
        "spec, power", [(RBF, 4), (KernelSpec("dot"), 8), (KernelSpec("cosine"), 4)],
        ids=["rbf", "dot", "cosine"],
    )
    def test_scaling_the_table_scales_the_loss_by_a_power(self, spec, power):
        # T_i = e_i c_i^T has degree 2 in E, or 4 for dot, whose kernel has degree 2; rbf keeps
        # its kernel only if the bandwidth scales with the table
        for s in (0.3, 1.7):
            scaled = KernelSpec("rbf", s * spec.bandwidth) if spec.family == "rbf" else spec
            for table, ids in _repeated_batches():
                state = compute_batch_state(spec, table, ids)
                moved = compute_batch_state(scaled, s * table, ids)
                assert moved.loss == pytest.approx(s**power * state.loss, rel=1e-12)
                _assert_close(moved.gradients, s ** (power - 1) * state.gradients)

    @pytest.mark.parametrize("bound", BOUNDS, ids=["unbounded", "clip", "alg1"])
    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.family)
    def test_rotating_the_table_rotates_the_gradients(self, spec, bound):
        for k, (table, ids) in enumerate(_repeated_batches()):
            Q = np.linalg.qr(np.random.default_rng(k).standard_normal((4, 4)))[0]
            state = compute_batch_state(spec, table, ids, *bound)
            moved = compute_batch_state(spec, table @ Q, ids, *bound)
            assert moved.loss == pytest.approx(state.loss, rel=1e-12)
            _assert_close(moved.gradients, state.gradients @ Q)


class TestLoss:
    def test_single_member_batch_is_zero(self):
        table, _, state = _random_state(2, m=1)
        assert state.loss == 0.0
        assert sca_loss(state_fields(state), state.mean) == 0.0

    def test_identical_embedding_batch_is_exactly_zero(self):
        # every kernel, batch size up to 70 and several widths: BLAS blocking changes with the
        # shape, the zeros may not
        rng = np.random.default_rng(3)
        for spec, d in itertools.product(KERNELS, (2, 3, 6, 17)):
            table = rng.standard_normal((4, d)) * 0.1
            collapsed = np.tile(table[2], (70, 1))
            for m in range(2, 71):
                for state in (
                    compute_batch_state(spec, table, np.full(m, 2), 0.01),
                    compute_batch_state(spec, collapsed, np.arange(m)),
                ):
                    assert state.loss == 0.0
                    assert np.all(state.gradients == 0.0)

    def test_matches_double_sum_oracle(self):
        _, _, state = _random_state(4, m=3, d=2)
        want = _loss_oracle([f.dense() for f in state_fields(state)], state.mean)
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
        assert sca_loss(fields, mean) == pytest.approx(want, rel=1e-12)


class TestGradient:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((5, 4))
        state = compute_batch_state(RBF, table, np.full(6, 3))
        assert np.all(state.gradients == 0.0)

    def test_zero_for_single_member_batch(self):
        _, _, state = _random_state(8, m=1)
        assert np.all(state.gradients == 0.0)

    def test_matches_detached_finite_differences(self):
        # (n, d, m) with rbf at bandwidth 1, and at the median bandwidth with d 8, batch 16
        shapes = [(10, 5, 6, False), (32, 8, 16, True)]
        for (n, d, m, median), seed in itertools.product(shapes, range(20)):
            table, batch, _ = _random_state(seed, n=n, d=d, m=m)
            spec = KernelSpec("rbf", kernel.median_bandwidth(table, seed=seed)) if median else RBF
            # the bound also runs at a field norm strictly inside the batch's range, the median
            # or halfway between the extremes, so the largest field's s_i != 1 by a margin
            norms = [spectral_norm(f) for f in state_fields(compute_batch_state(spec, table, batch))]
            rho = float(np.median(norms)) if median else (min(norms) + max(norms)) / 2.0
            assert min(norms) < rho < max(norms)
            for bound in ((None, "clip"), (rho, "clip"), (rho, "alg1")):
                state = compute_batch_state(spec, table, batch, *bound)
                assert bound[0] is None or np.any(state.scales != 1.0)
                grads = state.gradients
                for p in range(batch.size):
                    fd = fd_gradient_detached(
                        table, int(batch[p]), state.rights[p], state.mean, 1e-5, state.scales[p]
                    )
                    rel = np.linalg.norm(grads[p] - fd) / max(np.linalg.norm(fd), 1e-12)
                    assert rel < 1e-5

    def test_closed_form_on_hand_state(self):
        # gradient of |e c^T - M|_F^2 in e is 2 (e c^T - M) c
        _, batch, state = _random_state(9, m=3, d=2)
        grads = state.gradients
        for p in range(batch.size):
            T = np.outer(state.lefts[p], state.rights[p])
            want = 2.0 * (T - state.mean) @ state.rights[p]
            np.testing.assert_allclose(grads[p], want, atol=1e-12)


class TestDetachedOracle:
    def test_zero_context_gives_zero_vector(self):
        table = np.random.default_rng(10).standard_normal((3, 4))
        fd = fd_gradient_detached(table, 0, np.zeros(4), np.zeros((4, 4)))
        assert np.all(fd == 0.0)

    def test_matches_analytic_form(self):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((5, 4))
        context = rng.standard_normal(4)
        mean = rng.standard_normal((4, 4))
        fd = fd_gradient_detached(table, 1, context, mean, eps=1e-5)
        analytic = 2.0 * (np.outer(table[1], context) - mean) @ context
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-6

    def test_eps_bounds_enforced(self):
        table = np.ones((2, 2))
        for eps in (1e-8, 1e-2):
            with pytest.raises(ValueError):
                fd_gradient_detached(table, 0, np.ones(2), np.zeros((2, 2)), eps=eps)


class TestFullOracle:
    def test_identical_embedding_batch_is_a_minimum(self):
        rng = np.random.default_rng(12)
        table = rng.standard_normal((4, 3))
        fd = fd_gradient_full(RBF, table, np.full(5, 1), 1, eps=1e-5)
        np.testing.assert_allclose(fd, 0.0, atol=1e-8)

    def test_single_member_batch_is_exactly_flat(self):
        rng = np.random.default_rng(13)
        table = rng.standard_normal((4, 3))
        fd = fd_gradient_full(RBF, table, np.array([2]), 2, eps=1e-5)
        assert np.all(fd == 0.0)

    def test_differs_from_detached_gradient_in_general(self):
        table, batch, state = _random_state(14, m=6, d=4)
        token = int(batch[0])
        fd_full = fd_gradient_full(RBF, table, batch, token, eps=1e-5)
        semi = state.gradients[batch == token].sum(axis=0)
        assert np.linalg.norm(fd_full - semi) > 1e-6

    def test_second_order_accuracy(self):
        # central differences: D(eps) = g + C eps^2, so successive
        # halvings shrink D(eps) - D(eps/2) by ~4x
        table, batch, _ = _random_state(15, m=5, d=3)
        token = int(batch[0])
        d1 = fd_gradient_full(RBF, table, batch, token, eps=8e-4)
        d2 = fd_gradient_full(RBF, table, batch, token, eps=4e-4)
        d3 = fd_gradient_full(RBF, table, batch, token, eps=2e-4)
        ratio = np.linalg.norm(d1 - d2) / np.linalg.norm(d2 - d3)
        assert 3.0 < ratio < 5.5


class TestCoherenceScore:
    def test_identical_nonzero_fields_score_one(self):
        f = TensorField(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        fields = [f, f, f]
        mean = mean_field(fields)
        assert coherence_score(fields, mean) == pytest.approx(1.0, abs=1e-9)

    def test_cancelling_fields_guard_to_zero(self):
        left, right = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        fields = [TensorField(left, right), TensorField(-left, right)]
        mean = mean_field(fields)
        assert np.all(mean == 0.0)
        assert coherence_score(fields, mean) == 0.0

    def test_matches_scalar_arithmetic(self):
        rng = np.random.default_rng(16)
        fields = [TensorField(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(3)]
        mean = mean_field(fields)
        want = 0.0
        for f in fields:
            T = f.dense()
            num = float(np.sum(T * mean))
            den = float(np.linalg.norm(T) * np.linalg.norm(mean)) + 1e-12
            want += num / den
        want /= 3.0
        assert coherence_score(fields, mean) == pytest.approx(want, rel=1e-12)

    def test_bounded(self):
        for seed in range(20):
            _, _, state = _random_state(seed + 100, m=6)
            assert -1.0 - 1e-12 <= state.score <= 1.0 + 1e-12


class TestEvaluateCoherence:
    def test_deterministic(self, toy_docs):
        table = np.random.default_rng(0).standard_normal((100, 8)) * 0.1
        spec = KernelSpec("rbf", 0.5)
        a = coherence.evaluate_coherence([table], toy_docs, spec, 16, seed=5)
        b = coherence.evaluate_coherence([table, table], toy_docs, spec, 16, seed=5)
        assert a * 2 == b

    def test_every_table_is_scored_on_the_same_batches(self, toy_docs):
        rng = np.random.default_rng(1)
        tables = [0.1 * rng.standard_normal((100, 8)) for _ in range(3)]
        spec = KernelSpec("rbf", 0.5)
        pools = corpus.token_pools(toy_docs)
        batches = [corpus.sample_from_pools(pools, 16, 5, step)
                   for step in range(coherence.EVAL_BATCHES)]
        want = [float(np.mean([compute_batch_state(spec, table, ids).score for ids in batches]))
                for table in tables]
        assert coherence.evaluate_coherence(tables, toy_docs, spec, 16, seed=5) == want

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The toy runs share a session fixture, which builds them in a
two-process pool, so the whole suite stays within its runtime budgets.
"""

import multiprocessing
import time

import numpy as np
import pytest

from oracles import (
    TensorField,
    batch_fields,
    cosine,
    fd_gradient_detached,
    mean_field,
    sca_loss,
    spectral_norm,
)
from sca import coherence, corpus, embedding, kernel, lm, report, trainer
from sca.coherence import compute_batch_state
from sca.embedding import init_embeddings
from sca.kernel import KernelSpec
from sca.trainer import EpochLog, TrainConfig

TOY_SEEDS = (1, 2, 3, 4, 5)


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {message}")


def _toy_run(seed, toy_docs, n):
    """One toy training run (n-token vocabulary, d=16, B=32, 150 epochs)."""
    split = corpus.stratified_split(toy_docs, (0.8, 0.1, 0.1), seed=seed)
    initial = init_embeddings(n, 16, seed=seed, scale=0.1)
    spec = KernelSpec("rbf", kernel.median_bandwidth(initial, seed=seed))
    config = TrainConfig(batch=32, epochs=150, seed=seed, tol=None)
    started = time.perf_counter()
    trained, logs = trainer.train_sca(initial, split.train, spec, config)
    elapsed = time.perf_counter() - started
    return {
        "initial": initial,
        "trained": trained,
        "logs": logs,
        "spec": spec,
        "split": split,
        "seconds": elapsed,
    }


@pytest.fixture(scope="session")
def toy_runs(toy_docs, toy_vocab):
    """Toy training runs per seed, built two at a time in worker processes.

    The workers are spawned, not forked, since this process may already run BLAS threads.
    """
    seeds = TOY_SEEDS + (7,)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        runs = pool.starmap(_toy_run, [(seed, toy_docs, len(toy_vocab)) for seed in seeds])
    return dict(zip(seeds, runs))


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    errors = []  # folded by np.max, which keeps a NaN that max() would drop
    for trial in range(100):
        rng = np.random.default_rng([1000, trial])
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 17))
        n = max(2 * m, 4)
        table = rng.standard_normal((n, d))
        batch = rng.integers(0, n, size=m)
        spec = KernelSpec("rbf", kernel.median_bandwidth(table, seed=trial))
        grads = compute_batch_state(spec, table, batch)[1]
        fields = batch_fields(spec, table, batch)
        mean = mean_field(fields)
        for p in range(m):
            fd = fd_gradient_detached(table, int(batch[p]), fields[p].right, mean, eps=1e-5)
            # the 1e-6 floor covers exactly-stationary instances (m=1),
            # where the oracle returns only rounding residue ~1e-15
            errors.append(np.linalg.norm(grads[p] - fd) / max(np.linalg.norm(fd), 1e-6))
    elapsed = time.perf_counter() - started
    worst = float(np.max(errors))
    assert worst < 1e-5
    assert elapsed < 10.0
    _pass(1, f"max relative gradient error {worst:.2e} over 100 instances in {elapsed:.1f}s")


def test_criterion_2_spectral_constraint():
    rho = 1.0
    checked = 0
    for trial in range(100):
        rng = np.random.default_rng([2000, trial])
        d = int(rng.integers(2, 17))
        m = int(rng.integers(1, 33))
        fields = [
            TensorField(rng.standard_normal(d) * 2.0, rng.standard_normal(d) * 2.0)
            for _ in range(m)
        ]
        sigma = np.array([spectral_norm(f) for f in fields])
        scales = coherence.spectral_scales(sigma, rho, mode="clip")
        assert np.all(scales * sigma <= rho * (1 + 1e-12))
        again = scales * coherence.spectral_scales(scales * sigma, rho, mode="clip")
        assert np.all(np.abs(again - scales) <= 1e-12 * np.maximum(np.abs(scales), 1.0))
        checked += m
    # divide-by-max rule on hand instances: new norm = sigma / max(sigma, rho)
    hand = [(12.0, 6.0, 1.0), (3.0, 6.0, 0.5), (6.0, 6.0, 1.0)]
    for sigma, rho_h, want in hand:
        f = TensorField(np.array([sigma, 0.0]), np.array([0.0, 1.0]))
        assert spectral_norm(f) == sigma
        out = sigma * coherence.spectral_scales(sigma, rho_h, mode="alg1")
        assert out == pytest.approx(want, rel=1e-12)
    _pass(2, f"clip bound and idempotence on {checked} fields; divide-by-max rule exact")


def test_criterion_3_loss_curve_shape(toy_runs):
    run = toy_runs[7]
    losses = np.array([log.loss for log in run["logs"]])
    assert losses.shape[0] == 150
    ratio = losses[149] / losses[9]
    assert ratio <= 0.30
    windows = losses.reshape(15, 10).mean(axis=1)
    assert np.all(np.diff(windows) <= 0.0)
    assert run["seconds"] < 120.0
    _pass(
        3,
        f"epoch-150/epoch-10 loss ratio {ratio:.2e}, 15 window means non-increasing, "
        f"run took {run['seconds']:.0f}s",
    )


def test_criterion_4_coherence_direction(toy_runs):
    ups = []
    for seed in TOY_SEEDS:
        run = toy_runs[seed]
        before, after = coherence.evaluate_coherence(
            [run["initial"], run["trained"]], run["split"].train, run["spec"], 32, seed
        )
        ups.append(after > before)
    assert all(ups), f"coherence failed to increase on seeds {[s for s, u in zip(TOY_SEEDS, ups) if not u]}"
    _pass(4, f"coherence score strictly increased on {sum(ups)} of {len(TOY_SEEDS)} seeds")


def test_criterion_5_rare_word_direction(toy_runs, toy_vocab):
    deltas = []
    for seed in TOY_SEEDS:
        run = toy_runs[seed]
        rows = report.rare_word_report(run["initial"], run["trained"], toy_vocab)
        deltas.append(float(np.mean([after - before for _, _, before, after in rows])))
    positive = sum(1 for d in deltas if d > 0)
    assert positive >= 4, f"mean deltas {deltas}"
    _pass(5, f"rare-word mean similarity delta positive on {positive} of {len(deltas)} seeds")


def test_criterion_6_lambda_zero_isolation(small_docs):
    docs, vocab = small_docs
    config = TrainConfig(lr=0.2, batch=16, epochs=6, seed=9, tol=None, lam=0.0)
    spec = KernelSpec("rbf", 0.5)
    baseline, base_logs = lm.train_joint(
        lm.make_model(init_embeddings(len(vocab), 8, seed=9)), docs, None, config
    )
    joint, joint_logs = lm.train_joint(
        lm.make_model(init_embeddings(len(vocab), 8, seed=9)), docs, spec, config
    )
    assert np.array_equal(baseline, joint)  # the table and the bias column
    assert [l.loss for l in base_logs] == [l.loss for l in joint_logs]
    _pass(6, "lambda=0 joint run bit-identical to the pure cross-entropy baseline")


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(7000)

    # factored tensor operations against plain dense arithmetic, d <= 16
    for _ in range(50):
        d = int(rng.integers(2, 17))
        m = int(rng.integers(1, 9))
        fields = [
            TensorField(rng.standard_normal(d), rng.standard_normal(d), float(rng.uniform(0.2, 2)))
            for _ in range(m)
        ]
        dense = [f.scale * np.outer(f.left, f.right) for f in fields]
        for f, D in zip(fields, dense):
            assert np.max(np.abs(f.dense() - D)) <= 1e-12
            assert abs(spectral_norm(f) - np.linalg.svd(D, compute_uv=False)[0]) <= 1e-12
        mean = mean_field(fields)
        assert np.max(np.abs(mean - sum(dense) / m)) <= 1e-12
        want_loss = sum(float(np.sum((D - mean) ** 2)) for D in dense)
        assert sca_loss(fields, mean) == pytest.approx(want_loss, rel=1e-12, abs=1e-12)

    # PCA coordinate variances against an independent eigendecomposition of the covariance
    for trial in range(10):
        X = rng.standard_normal((40, int(rng.integers(3, 9))))
        coords = report.pca_project(X)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        eigenvalues = np.linalg.eigh(cov)[0][::-1][:2]
        assert np.max(np.abs(coords.var(axis=0, ddof=1) - eigenvalues)) <= 1e-8

    # vectorized nearest-neighbor similarity against an exhaustive python scan
    for n in (2, 10, 50):
        table = rng.standard_normal((n, 6))
        got = embedding.nearest_neighbor_similarity(table, list(range(n)))
        for token in range(n):
            best = max(cosine(table[other], table[token]) for other in range(n) if other != token)
            assert got[token] == pytest.approx(best, abs=1e-12)
    _pass(7, "factored ops, projection variances, and neighbor similarities match their oracles")


def test_criterion_8_invariance_suite(small_docs):
    rng = np.random.default_rng(8000)
    spec = KernelSpec("rbf", 0.8)

    # permutation invariance and non-negativity
    for _ in range(25):
        table = rng.standard_normal((12, 6))
        batch = rng.integers(0, 12, size=8)
        loss = compute_batch_state(spec, table, batch)[0]
        assert loss >= 0.0
        permuted = compute_batch_state(spec, table, rng.permutation(batch))[0]
        assert abs(permuted - loss) <= 1e-12 * max(loss, 1.0)

    # exact zeros on identical-embedding batches
    for m in (2, 3, 5, 32):
        table = rng.standard_normal((6, 8))
        loss, gradients, _ = compute_batch_state(spec, table, np.full(m, 4))
        assert loss == 0.0
        assert np.all(gradients == 0.0)

    # bitwise determinism of repeated seeded runs
    docs, vocab = small_docs
    config = TrainConfig(batch=16, epochs=5, seed=17, tol=None)
    first, first_logs = trainer.train_sca(
        init_embeddings(len(vocab), 8, seed=17), docs, spec, config
    )
    second, second_logs = trainer.train_sca(
        init_embeddings(len(vocab), 8, seed=17), docs, spec, config
    )
    assert np.array_equal(first, second)
    assert [l.loss for l in first_logs] == [l.loss for l in second_logs]
    _pass(8, "permutation invariance, L >= 0, exact zeros, and bitwise determinism hold")


def test_criterion_9_convergence_detector():
    series = (23.5, 17.8, 12.9, 9.2, 6.7, 5.1, 4.9, 4.8)
    logs = [EpochLog(i + 1, v, 0.1, 0.0) for i, v in enumerate(series)]
    for upto in range(1, len(series)):
        assert not trainer.check_convergence(logs[:upto], window=2, tol=0.05)
    assert trainer.check_convergence(logs, window=2, tol=0.05)
    _pass(9, "detector fires exactly at the final window of the flattening loss series")

import itertools

import numpy as np
import pytest

from oracles import (
    batch_fields,
    batch_loss,
    coherence_score,
    mean_field,
    nll,
    sca_loss,
    spectral_norm,
)
from sca import cli, corpus, lm, trainer
from sca.coherence import compute_batch_state
from sca.corpus import CorpusError
from sca.embedding import init_embeddings
from sca.kernel import KernelSpec
from sca.trainer import EpochLog, TrainConfig, TrainingError

RBF = KernelSpec("rbf", 1.0)


def _logs(losses):
    return [EpochLog(i + 1, float(v), 0.1, 0.0) for i, v in enumerate(losses)]


# loss series that drops steeply then flattens; the detector must fire at
# the final entry and never before (with window 2, tolerance 0.05)
FLATTENING_SERIES = (23.5, 17.8, 12.9, 9.2, 6.7, 5.1, 4.9, 4.8)


class TestCheckConvergence:
    def test_short_history_is_not_converged(self):
        assert not trainer.check_convergence(_logs([1.0, 0.9, 0.8]), window=2, tol=0.5)

    def test_flat_history_converges(self):
        assert trainer.check_convergence(_logs([1.0] * 8), window=2, tol=0.05)

    def test_none_tolerance_disables(self):
        assert not trainer.check_convergence(_logs([1.0] * 40), window=2, tol=None)

    def test_flattening_series_triggers_only_at_the_end(self):
        for upto in range(1, len(FLATTENING_SERIES) + 1):
            logs = _logs(FLATTENING_SERIES[:upto])
            converged = trainer.check_convergence(logs, window=2, tol=0.05)
            assert converged == (upto == len(FLATTENING_SERIES))

    def test_final_window_arithmetic(self):
        # mean(5.1, 4.9) = 5.0 vs mean(4.9, 4.8) = 4.85: improvement 0.03
        logs = _logs(FLATTENING_SERIES)
        losses = [h.loss for h in logs]
        previous = np.mean(losses[-3:-1])
        latest = np.mean(losses[-2:])
        assert (previous - latest) / previous == pytest.approx(0.03, abs=1e-12)


class TestAdaptLearningRate:
    def test_decreasing_history_keeps_rate(self):
        assert trainer.adapt_learning_rate(_logs([3.0, 2.0, 1.0]), 0.2) == 0.2

    def test_uptick_halves(self):
        assert trainer.adapt_learning_rate(_logs([1.0, 2.0]), 0.2) == 0.1

    def test_floor(self):
        lr = 0.2
        logs = _logs([1.0, 2.0])
        for _ in range(60):
            lr = trainer.adapt_learning_rate(logs, lr)
        assert lr == trainer.LR_FLOOR

    def test_single_epoch_keeps_rate(self):
        assert trainer.adapt_learning_rate(_logs([1.0]), 0.3) == 0.3


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_loss_or_entry_names_the_step(self, bad):
        with pytest.raises(TrainingError, match="epoch 3, batch 7"):
            trainer.check_finite(bad, np.ones((4, 3)), 3, 7)
        for i, j in np.ndindex(4, 3):
            rows = np.ones((4, 3))
            rows[i, j] = bad
            with pytest.raises(TrainingError, match="epoch 3, batch 7"):
                trainer.check_finite(1.0, rows, 3, 7)

    def test_largest_finite_values_pass(self):
        # 128 entries of +-1e153 square to a sum of 1.28e308, below the largest float (1.8e308);
        # entries of +-1e155 are finite, but each square (1e310) overflows the squared norm
        for rows in (np.full((8, 16), 1e153), np.full((8, 16), -1e153)):
            rows[::3] *= -1.0
            trainer.check_finite(1e308, rows, 1, 0)
            trainer.check_finite(-1e308, np.abs(rows), 1, 0)
            with pytest.raises(TrainingError, match="epoch 1, batch 0"):
                trainer.check_finite(1.0, rows * 100.0, 1, 0)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(TrainingError, match="epoch 1, batch 0"):
                    trainer.check_finite(bad, rows, 1, 0)
                for i, j in np.ndindex(rows.shape):
                    broken = rows.copy()
                    broken[i, j] = bad
                    with pytest.raises(TrainingError, match="epoch 1, batch 0"):
                        trainer.check_finite(1.0, broken, 1, 0)


class TestConfig:
    # TrainConfig checks nothing itself: the range of each field is that of the cli.KNOBS row
    # that sets it, which the CLI checks before a run starts; a field is named as its knob,
    # but lam, since lambda is a Python keyword
    KNOB = {"lam": "lambda"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"batch": 0},
            {"rho": -1.0},
            {"lam": -0.1},
            {"epochs": 0},
            {"window": 0},
            {"seed": -1},
            {"spectral_mode": "none"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        ((name, value),) = kwargs.items()
        (knob,) = [k for k in cli.KNOBS if k.name == self.KNOB.get(name, name)]
        _, accepts = knob.accepts
        assert not accepts(value)
        assert accepts(getattr(TrainConfig(), name))


def _repeated_token_docs(n_tokens=64):
    return [corpus.Document("c", np.zeros(n_tokens, dtype=np.int64))]


class TestInputsLeftAlone:
    # the trainers update copies; cmd_train saves initial_model.json after training
    @pytest.mark.parametrize("joint", [False, True], ids=["train_sca", "train_joint"])
    def test_table_and_bias_are_bit_identical_after_training(self, small_docs, joint):
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=4)
        bias = np.random.default_rng(4).standard_normal(len(vocab))
        kept = table.tobytes(), bias.tobytes()
        config = TrainConfig(batch=8, epochs=2, seed=4, tol=None, lam=0.5)
        if joint:
            model = lm.make_model(table, bias)
            kept_model = model.tobytes()
            trained, _ = lm.train_joint(model, docs, RBF, config)
            assert model.tobytes() == kept_model
            assert trained[:, -1].tobytes() != kept[1]
            trained = trained[:, :-1]
        else:
            trained, _ = trainer.train_sca(table, docs, RBF, config)
        assert trained.tobytes() != kept[0]
        assert (table.tobytes(), bias.tobytes()) == kept


class TestTrainSca:
    def test_repeated_token_corpus_is_stationary(self):
        table = init_embeddings(3, 4, seed=0)
        config = TrainConfig(batch=8, epochs=5, seed=1, tol=None)
        trained, logs = trainer.train_sca(table, _repeated_token_docs(), RBF, config)
        assert [log.loss for log in logs] == [0.0] * 5
        assert np.array_equal(trained, table)

    def test_deterministic_for_fixed_seed(self, small_docs):
        docs, vocab = small_docs
        config = TrainConfig(batch=8, epochs=4, seed=3, tol=None)
        results = []
        for _ in range(2):
            table = init_embeddings(len(vocab), 6, seed=3)
            spec = KernelSpec("rbf", 0.5)
            trained, logs = trainer.train_sca(table, docs, spec, config)
            results.append((trained, [(l.loss, l.scores.tolist(), l.lr) for l in logs]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_tokens_outside_batches_are_unchanged(self, small_docs):
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=0)
        seen: set[int] = set()
        config = TrainConfig(batch=8, epochs=1, seed=5, tol=None)

        def collect(epoch, step, loss, score):
            ids = corpus.sample_from_pools(
                corpus.token_pools(docs), config.batch, config.seed, step
            )
            seen.update(int(i) for i in ids)

        trained, _ = trainer.train_sca(table, docs, KernelSpec("rbf", 0.5), config, on_batch=collect)
        untouched = [i for i in range(len(vocab)) if i not in seen]
        for i in untouched:
            assert np.array_equal(trained[i], table[i])

    def test_early_stop_on_convergence(self, small_docs):
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=2)
        config = TrainConfig(batch=8, epochs=200, window=2, tol=0.5, seed=2)
        _, logs = trainer.train_sca(table, docs, KernelSpec("rbf", 0.5), config)
        assert len(logs) < 200

    def test_vectorized_projection_matches_field_operation(self):
        rng = np.random.default_rng(4)
        for mode in ("clip", "alg1"):
            table = rng.standard_normal((10, 5)) * 2.0
            ids = rng.integers(0, 10, size=8)
            loss, gradients, score = compute_batch_state(RBF, table, ids, rho=1.0, mode=mode)
            # the fields bounded one at a time by spectral_project
            fields = batch_fields(RBF, table, ids, 1.0, mode)
            assert any(f.scale != 1.0 for f in fields)
            mean = mean_field(fields)
            assert loss == pytest.approx(sca_loss(fields, mean), rel=1e-12)
            assert score == pytest.approx(coherence_score(fields, mean), abs=1e-12)
            want = np.array([2.0 * f.scale * (f.dense() - mean) @ f.right for f in fields])
            np.testing.assert_allclose(gradients, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_alg1_mode_runs(self, small_docs):
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=2)
        config = TrainConfig(batch=8, epochs=3, seed=2, tol=None, spectral_mode="alg1")
        _, logs = trainer.train_sca(table, docs, KernelSpec("rbf", 0.5), config)
        assert all(np.isfinite(log.loss) for log in logs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_aborts_with_location(self, small_docs):
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=0)
        table[1, 0] = np.inf  # most frequent real token, sampled immediately
        config = TrainConfig(batch=8, epochs=2, seed=0, tol=None)
        with pytest.raises(TrainingError, match=r"epoch 1, batch \d+"):
            trainer.train_sca(table, docs, KernelSpec("rbf", 0.5), config)

    def test_batch_schedule_drawn_once_per_run(self, small_docs, monkeypatch):
        docs, vocab = small_docs
        config = TrainConfig(batch=8, epochs=3, seed=1, tol=None, lam=0.5)
        calls = []
        sample = corpus.sample_from_pools

        def counted(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(corpus, "sample_from_pools", counted)
        runs = (
            (corpus.token_pools, lambda table: trainer.train_sca(table, docs, RBF, config)),
            (corpus.bigram_pools, lambda table: lm.train_joint(lm.make_model(table), docs, RBF, config)),
        )
        for pools, train in runs:
            calls.clear()
            _, logs = train(init_embeddings(len(vocab), 6, seed=1))
            assert len(logs) == 3
            assert len(calls) == sum(map(len, pools(docs))) // config.batch

    def test_batch_larger_than_corpus_rejected(self):
        table = init_embeddings(3, 4, seed=0)
        config = TrainConfig(batch=100, epochs=1)
        with pytest.raises(CorpusError, match="batch size 100 exceeds total count 10"):
            trainer.train_sca(table, _repeated_token_docs(10), RBF, config)


def _numbered(steps_per_epoch, step):
    """A run_epochs step that calls step(model, epoch, b), counting the calls to know the step."""
    calls = itertools.count()

    def numbered(model, batch, lr):
        epoch, b = divmod(next(calls), steps_per_epoch)
        return step(model, epoch + 1, b)

    return numbered


class TestRunEpochs:
    @pytest.mark.parametrize("width, column, written", [(6, 0, [0, 1]), (7, -1, ...)],
                             ids=["table", "bias"])
    def test_overflowing_last_step_names_the_epoch_and_batch(self, small_docs, width, column,
                                                            written):
        # the last step leaves every entry finite and the squared norm of the rows it wrote
        # overflowing, which no later step's loss can show; the bias case writes the last
        # column of a joint [E | b] and, as train_joint's step does, names the whole model
        docs, vocab = small_docs
        pools = corpus.token_pools(docs)
        config = TrainConfig(batch=8, epochs=2, tol=None)
        last = sum(map(len, pools)) // config.batch - 1

        def stepping(value):
            def step(model, epoch, b):
                if (epoch, b) == (2, last):
                    model[:2, column] = value
                return 1.0, 0.0, written

            return _numbered(last + 1, step)

        with pytest.raises(TrainingError, match=f"at epoch 2, batch {last}$"):
            trainer.run_epochs(np.zeros((len(vocab), width)), pools, config, stepping(1e307))
        # a squared norm near 1e307 is finite
        trained, logs = trainer.run_epochs(np.zeros((len(vocab), width)), pools, config,
                                           stepping(1e153))
        assert len(logs) == 2 and trained[0, column] == 1e153

    def test_overflow_in_an_early_epoch_stops_before_its_observer(self, small_docs):
        # the check runs after every step, before on_batch and on_epoch, so no observer and no
        # checkpoint sees such a model
        docs, vocab = small_docs
        pools = corpus.token_pools(docs)
        config = TrainConfig(batch=8, epochs=2, tol=None)
        last = sum(map(len, pools)) // config.batch - 1
        batches, epochs = [], []

        def step(model, epoch, b):
            if (epoch, b) == (1, last):
                model[:2, 0] = 1e307
            return 1.0, 0.0, slice(0, 2)

        with pytest.raises(TrainingError, match=f"at epoch 1, batch {last}$"):
            trainer.run_epochs(np.zeros((len(vocab), 6)), pools, config, _numbered(last + 1, step),
                               on_batch=lambda epoch, b, *_: batches.append((epoch, b)),
                               on_epoch=lambda epoch, *_: epochs.append(epoch))
        assert batches == [(1, b) for b in range(last)] and epochs == []

    def test_steps_and_observers_share_the_one_copy_that_is_returned(self, small_docs):
        docs, vocab = small_docs
        pools = corpus.token_pools(docs)
        config = TrainConfig(batch=8, epochs=3, tol=None)
        model = np.zeros((len(vocab), 6))
        seen = []

        def step(work, batch, lr):
            seen.append(work)
            work[0, 0] += 1.0
            return 1.0, 0.0, 0

        trained, logs = trainer.run_epochs(model, pools, config, step,
                                           on_epoch=lambda epoch, work, log: seen.append(work))
        assert all(work is trained for work in seen) and trained is not model
        assert trained[0, 0] == len(seen) - len(logs)  # one increment per step
        assert not model.any()


def _stepped(table, ids, gradients, dt):
    """A copy of the table after one explicit Euler step of length dt along batch ids' gradients.

    A token repeated in the batch moves by the sum of its rows' steps.
    """
    stepped = table.copy()
    np.add.at(stepped, ids, -dt * gradients)
    return stepped


class TestGradientFlowStep:
    def test_zero_gradient_leaves_table_unchanged(self):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((4, 3))
        ids = np.full(6, 1)
        stepped = _stepped(table, ids, compute_batch_state(RBF, table, ids)[1], dt=0.1)
        assert np.array_equal(stepped, table)

    def test_small_step_decreases_loss(self):
        rng = np.random.default_rng(1)
        table = rng.standard_normal((8, 4))
        batch = np.arange(6)
        loss, gradients, _ = compute_batch_state(RBF, table, batch)
        stepped = _stepped(table, batch, gradients, dt=1e-4)
        assert compute_batch_state(RBF, stepped, batch)[0] < loss

    def test_half_step_difference_shrinks_quadratically(self):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((8, 4))
        batch = np.arange(6)

        def endpoint(dt, halves):
            current = table
            step = dt / halves
            for _ in range(halves):
                gradients = compute_batch_state(RBF, current, batch)[1]
                current = _stepped(current, batch, gradients, step)
            return current

        def gap(dt):
            return np.linalg.norm(endpoint(dt, 1) - endpoint(dt, 2))

        ratio = gap(2e-3) / gap(1e-3)
        assert 2.5 < ratio < 6.0

    def test_monotone_descent_with_backtracked_rate(self):
        # pick a step by backtracking, then the same batch's loss must
        # decrease monotonically for at least 50 repeated steps
        rng = np.random.default_rng(3)
        table = rng.standard_normal((12, 5))
        batch = rng.integers(0, 12, size=10)
        dt = 0.5
        base_loss, base_gradients, _ = compute_batch_state(RBF, table, batch)
        while True:
            stepped = _stepped(table, batch, base_gradients, dt)
            if compute_batch_state(RBF, stepped, batch)[0] < base_loss:
                break
            dt /= 2.0
        current = table.copy()
        last = np.inf
        for _ in range(50):
            loss, gradients, _ = compute_batch_state(RBF, current, batch)
            assert loss < last
            last = loss
            current = _stepped(current, batch, gradients, dt)

    def test_one_batch_training_is_one_step(self, small_docs):
        # a one-batch, one-epoch train_sca applies exactly the Euler step
        docs, vocab = small_docs
        table = init_embeddings(len(vocab), 6, seed=2)
        total = sum(map(len, corpus.token_pools(docs)))
        config = TrainConfig(lr=0.3, batch=total, epochs=1, seed=4, tol=None)
        trained, logs = trainer.train_sca(table, docs, RBF, config)
        ids = corpus.sample_from_pools(corpus.token_pools(docs), total, config.seed, 0)
        loss, gradients, _ = compute_batch_state(RBF, table, ids, config.rho, config.spectral_mode)
        expected = _stepped(table, ids, gradients, config.lr)
        assert np.array_equal(trained, expected)
        assert logs[0].loss == loss


class TestAppliedStepDescends:
    # A whole-corpus batch and one epoch make each run one step. The detached direction is not
    # the gradient of the batch loss, in which the kernel rows, context vectors, bounds and mean
    # all move with the table, but a small step along it must lower that loss.

    @pytest.mark.parametrize("spec", [RBF, KernelSpec("dot"), KernelSpec("cosine")],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("mode, binding", [("clip", False), ("clip", True), ("alg1", True)],
                             ids=["unbounded", "clip", "alg1"])
    def test_train_sca_lowers_the_coupled_batch_loss(self, toy_docs, toy_vocab, spec, mode,
                                                     binding):
        docs = [toy_docs[0], toy_docs[-1]]  # one document of each category
        pools = corpus.token_pools(docs)
        total = sum(map(len, pools))
        for seed in range(1, 6):
            table = init_embeddings(len(toy_vocab), 8, seed=seed)
            ids = corpus.sample_from_pools(pools, total, seed, 0)
            norms = [spectral_norm(f) for f in batch_fields(spec, table, ids)]
            # the median field norm binds; the default rho lies above every field at init
            rho = float(np.median(norms)) if binding else TrainConfig.rho
            assert (rho < max(norms)) == binding
            config = TrainConfig(lr=1e-3, batch=total, epochs=1, seed=seed, tol=None,
                                 rho=rho, spectral_mode=mode)
            trained, _ = trainer.train_sca(table, docs, spec, config)
            before = batch_loss(spec, table, ids, rho, mode)
            assert batch_loss(spec, trained, ids, rho, mode) < before

    def test_train_joint_lowers_the_coupled_batch_loss(self, small_docs):
        docs, vocab = small_docs
        pools = corpus.bigram_pools(docs)
        total = sum(map(len, pools))
        spec = KernelSpec("cosine")

        def coupled(model, pairs, config):
            # mean cross-entropy of the pairs plus lam times the coherence loss of their sources
            ce = float(np.mean([nll(model, pair) for pair in pairs]))
            sources = np.unique(pairs[:, 0])
            bound = config.rho, config.spectral_mode
            return ce + config.lam * batch_loss(spec, model[:, :-1], sources, *bound)

        for seed in range(1, 6):
            config = TrainConfig(lr=1e-3, batch=total, epochs=1, seed=seed, tol=None,
                                 lam=0.5)
            model = lm.make_model(init_embeddings(len(vocab), 8, seed=seed))
            trained, _ = lm.train_joint(model, docs, spec, config)
            pairs = corpus.sample_from_pools(pools, total, seed, 0)
            assert coupled(trained, pairs, config) < coupled(model, pairs, config)

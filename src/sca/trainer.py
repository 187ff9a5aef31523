"""Mini-batch training loop for coherence alignment of an embedding table.

run_epochs is the one epoch loop: it copies the array being trained once,
draws the batch schedule once and owns the adaptive learning rate, the
windowed stopping rule, the observers and the one finite check, run after
every update on the rows that update wrote; each trainer supplies a
per-batch step on that array. Both steps take the coherence part from the
one batch pass, coherence.compute_batch_state, with the fields bounded by
config.rho under config.spectral_mode. train_sca's step is one explicit
Euler step of the gradient flow de/dt = -g at the current learning rate.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import coherence, corpus
from .kernel import KernelSpec

LR_FLOOR = 1e-8


class TrainingError(Exception):
    """Raised when a step leaves a non-finite loss or model rows."""


@dataclass
class TrainConfig:
    """Training settings, each named as the cli.KNOBS row that checks its range (lam is lambda)."""

    lr: float = 0.5
    batch: int = 32
    rho: float = 1.0
    lam: float = 0.0
    epochs: int = 150
    window: int = 10
    tol: float | None = 1e-3  # None disables early stopping
    seed: int = 0
    spectral_mode: str = "clip"


@dataclass
class EpochLog:
    """Per-epoch training record; scores holds each batch's coherence score, in schedule order."""

    epoch: int
    loss: float
    lr: float
    seconds: float
    scores: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)


def check_convergence(history: list[EpochLog], window: int, tol: float | None) -> bool:
    """Windowed stopping rule over the epoch losses.

    True once at least 2*window epochs exist and the mean loss of the
    latest window improved on the window ending one epoch earlier by less
    than tol, relatively. A tol of None disables the rule. The window is
    at least 1, as cli.KNOBS checks before the corpus is read.
    """
    if tol is None:
        return False
    if len(history) < 2 * window:
        return False
    losses = [h.loss for h in history]
    latest = float(np.mean(losses[-window:]))
    previous = float(np.mean(losses[-window - 1 : -1]))
    improvement = (previous - latest) / max(previous, 1e-12)
    return improvement < tol


def adapt_learning_rate(history: list[EpochLog], lr: float) -> float:
    """Halve the rate after a loss uptick, floored at LR_FLOOR."""
    if len(history) >= 2 and history[-1].loss > history[-2].loss:
        return max(lr / 2.0, LR_FLOOR)
    return lr


def check_finite(loss: float, rows: np.ndarray, epoch: int, batch: int) -> None:
    """Raise TrainingError, naming the step, unless the loss and the rows' squared norm are finite.

    A NaN or an infinity in any entry makes the squared norm non-finite too.
    """
    if not (math.isfinite(loss) and math.isfinite(np.vdot(rows, rows))):
        raise TrainingError(f"non-finite loss or model at epoch {epoch}, batch {batch}")


def run_epochs(
    model: np.ndarray,
    pools: list[np.ndarray],
    config: TrainConfig,
    step: Callable[[np.ndarray, object, float], tuple[float, float, object]],
    on_batch=None,
    on_epoch=None,
    prepare: Callable[[np.ndarray], object] = lambda batch: batch,
) -> tuple[np.ndarray, list[EpochLog]]:
    """The epoch loop that every trainer runs; returns the trained model and the per-epoch logs.

    The model, the one array being trained, is copied once, so the input is left untouched.
    Draws the seeded batch schedule from the pools once, total // config.batch stratified
    batches but at least one, and runs it every epoch, so epoch losses stay directly
    comparable. prepare maps each drawn batch once to what the step receives as its batch, so
    work that depends on the batch alone is done once per run, not once per epoch.
    step(model, batch, lr) updates the copy in place and returns the batch loss, the coherence
    score (NaN when no coherence term is trained) and an index of the model rows it wrote, which
    check_finite checks at once, so a TrainingError names the step that broke the model and no
    later step or observer sees it. Training stops after config.epochs epochs or on the windowed
    convergence rule; the learning rate halves after a loss uptick.

    on_batch(epoch, b, loss, score) and on_epoch(epoch, model, log) are optional observers.
    The config is in range, as cli.KNOBS checks; a batch larger than the pools fails at its one
    draw (CorpusError).
    """
    total = sum(map(len, pools))
    schedule = [
        prepare(corpus.sample_from_pools(pools, config.batch, config.seed, b))
        for b in range(max(total // config.batch, 1))
    ]
    model = model.copy()
    logs: list[EpochLog] = []
    lr = config.lr
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        losses = np.empty(len(schedule))
        scores = np.empty(len(schedule))
        for b, batch in enumerate(schedule):
            loss, score, written = step(model, batch, lr)
            check_finite(loss, model[written], epoch, b)
            losses[b] = loss
            scores[b] = score
            if on_batch is not None:
                on_batch(epoch, b, loss, score)
        seconds = time.perf_counter() - started
        logs.append(EpochLog(epoch, float(losses.mean()), lr, seconds, scores))
        if on_epoch is not None:
            on_epoch(epoch, model, logs[-1])
        if check_convergence(logs, config.window, config.tol):
            break
        lr = adapt_learning_rate(logs, lr)
    return model, logs


def train_sca(
    table: np.ndarray,
    documents: list[corpus.Document],
    spec: KernelSpec,
    config: TrainConfig,
    on_batch=None,
    on_epoch=None,
) -> tuple[np.ndarray, list[EpochLog]]:
    """Train the (n, d) embedding table against the coherence objective.

    Runs the shared epoch loop (run_epochs) over stratified token batches;
    each step moves the batch tokens' rows along their coherence gradients,
    a repeated token by the sum of its rows' steps, and names those rows as
    written. run_epochs trains a copy, so the input table is left untouched;
    the trained table is returned together with the per-epoch logs. The
    coherence score passed to on_batch is that of the bounded fields, at the
    same snapshot as the loss.
    """
    columns = np.arange(table.shape[1])

    def step(work: np.ndarray, batch: tuple, lr: float) -> tuple:
        ids, flat = batch
        loss, grad, score = coherence.compute_batch_state(
            spec, work, ids, config.rho, config.spectral_mode)
        # a 1-D scatter onto the flat entries of the rows adds in the same order as a 2-D one
        np.add.at(work.reshape(-1), flat, grad.reshape(-1) * -lr)
        return loss, score, ids

    return run_epochs(table, corpus.token_pools(documents), config, step, on_batch, on_epoch,
                      prepare=lambda ids: (ids, (ids[:, None] * columns.size + columns).ravel()))

"""Run one `sca train` in this process and record where its time went.

Usage: child.py <report.json> <trace 0|1> train <sca train flags...>

With trace 0 only the training call (`trainer.train_sca` or
`lm.train_joint`) is wrapped, to mark its start and end on the
system-wide monotonic clock the parent also reads. With trace 1 every
public function of every `sca` module (plus the named private ones the
per-layer metrics need) is wrapped in a span that records its caller, so
self time, call counts and the training-versus-evaluation split fall out
of the aggregated spans. Nothing under src/ is edited: the wrappers
replace module attributes, which is where the program looks its callees
up. The report is written when `sca train` returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
import types

TRAINING = ("trainer.train_sca", "lm.train_joint")
PRIVATE = ("trainer._project_scales",)
# tracemalloc peaks are taken on the first calls only, so they barely touch the timings
PEAK_SAMPLES = {"coherence.compute_batch_state": 8, "lm.corpus_perplexity": 4}


class Tracer:
    """Aggregates spans by (function, caller) as they close."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.rows: dict[tuple[str, str | None], list] = {}
        self.training_depth = 0
        self.sample_keys: set = set()
        self.sample_calls_training = 0
        self.state_rows = 0
        self.state_calls_training = 0
        self.peaks_mb: dict[str, float] = {}
        self.samples_left = dict(PEAK_SAMPLES)
        self.steps = 0
        self.epochs = 0

    def wrap(self, name: str, fn):
        training = name in TRAINING

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if training:
                self.training_depth += 1
                self._count_observers(kwargs)
            elif name == "corpus.sample_from_pools" and self.training_depth:
                self.sample_calls_training += 1
                self.sample_keys.add((args[1:], tuple(sorted(kwargs.items()))))
            elif name == "coherence.compute_batch_state":
                ids = args[2] if len(args) > 2 else kwargs["token_ids"]
                self.state_rows += len(ids)
                self.state_calls_training += self.training_depth > 0
            peak = self.samples_left.get(name, 0) > 0 and not tracemalloc.is_tracing()
            if peak:
                self.samples_left[name] -= 1
                tracemalloc.start()
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                row = self.rows.setdefault((name, parent), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), mb)
                if training:
                    self.training_depth -= 1

        return span

    def _count_observers(self, kwargs: dict) -> None:
        on_batch, on_epoch = kwargs.get("on_batch"), kwargs.get("on_epoch")

        def batch(*a):
            self.steps += 1
            if on_batch is not None:
                on_batch(*a)

        def epoch(*a):
            self.epochs += 1
            if on_epoch is not None:
                on_epoch(*a)

        kwargs["on_batch"], kwargs["on_epoch"] = batch, epoch

    def install(self) -> None:
        """Replace every traced function in every sca module namespace."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("sca.")]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("sca."):
                    continue
                name = f"{obj.__module__[4:]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in PRIVATE:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(name, obj)
                setattr(module, attr, wrapped[id(obj)])

    def report(self) -> dict:
        return {
            "spans": [[n, p, *row] for (n, p), row in self.rows.items()],
            "sample_calls_training": self.sample_calls_training,
            "sample_distinct_training": len(self.sample_keys),
            "state_rows": self.state_rows,
            "state_calls_training": self.state_calls_training,
            "peaks_mb": self.peaks_mb,
            "steps": self.steps,
            "epochs": self.epochs,
        }


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from sca import cli, lm, trainer

    marks: dict = {}

    def mark_training(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            marks["train_start"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                marks["train_end"] = time.monotonic()

        return timed

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    trainer.train_sca = mark_training(trainer.train_sca)
    lm.train_joint = mark_training(lm.train_joint)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            marks["trace"] = tracer.report()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of `sca train`, as a user runs it.

    python3 benchmarks/run.py --workload toy_sca --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the program is imported from
./src; nothing is installed). For the chosen workload the benchmark writes
a corpus generated from --seed, computes the reference outputs with
benchmarks/reference.py, then launches `sca train` in a fresh process,
again and again, for about --seconds seconds (at least three times, or
one untraced and one traced launch with --trace 1). Every launch is checked: exit code 0, every artifact in
manifest.json present and parseable, finite embeddings, and loss_first,
loss_final and perplexity_heldout equal to the reference within
tolerance.

--trace 0 reports the end-to-end metrics, each the median over launches:
  run_s               launch to exit
  setup_s             launch to the start of the training call
  train_tokens_per_s  batch rows trained (tokens, or pairs for joint_lm) per
                      second of the training call
  finish_s            end of the training call to exit
  peak_rss_mb         peak resident memory of the launched process
  ok_share            launches that exited 0 and passed the check, over
                      launches attempted (the complement of the failed share;
                      `attempted` and `failed` in the result give the base)
--trace 1 alternates untraced launches with traced ones (benchmarks/child.py
wraps every sca function in a span) and reports the per-layer metrics of
the traced launches, medians again, plus trace.overhead_ratio, the traced
over the untraced run_s.

The last line of standard output is the result object; the line before it
carries ungated metadata (commit, versions, core and BLAS thread counts,
src/ line count).
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread, in this process and in every launch; this
# has to happen before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import csv
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import Reference, reference
from workloads import WORKLOADS, Workload, write_config, write_corpus

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_work")
MIN_LAUNCHES = 3  # with --trace 1: one untraced and one traced
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

# Check tolerance |got - ref| <= RTOL * |ref| + ATOL_SCALE * loss_first. The
# relative part admits reassociated arithmetic (a Gram-form engine agrees
# with the dense one to ~1e-15); the absolute part, scaled by the run's
# first epoch loss, covers toy_sca's loss_final, which ends near 1e-7 after
# the losses cancel. A wrong gradient moves every checked value far more.
RTOL = 1e-6
ATOL_SCALE = 1e-6
CHECKED = ("loss_first", "loss_final", "perplexity_heldout")

MODULES = ("cli", "corpus", "embedding", "kernel", "field", "coherence", "trainer", "lm", "report")


@dataclass
class Launch:
    ok: bool
    reason: str
    traced: bool
    started: float  # monotonic clock, just before the process was created
    ended: float  # monotonic clock, once it was reaped
    peak_rss_mb: float
    marks: dict  # the child's own monotonic marks

    @property
    def run_s(self) -> float:
        return self.ended - self.started


def launch(cmd: list[str], env: dict, out: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run cmd to completion; return exit code, start and end instants, and its peak RSS."""
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=so, stderr=se)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
            # the running maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, started, ended, usage.ru_maxrss / 1024.0


def _parse(path: Path) -> object:
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    if path.suffix == ".csv":
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        if not rows or len({len(r) for r in rows}) != 1:
            raise ValueError(f"{path.name}: empty or ragged CSV")
        return rows
    return path.read_text(encoding="utf-8")


def check_outputs(out: Path, ref: Reference) -> str:
    """Empty string when the run directory is correct, else the first problem found."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        parsed: dict[Path, object] = {}
        for rel in manifest["artifacts"].values():
            path = out / rel
            if not path.exists():
                return f"artifact {rel} listed in manifest.json is missing"
            files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
            for p in files:
                parsed[p] = _parse(p)
        for key in ("model", "initial_model"):
            model = parsed[out / manifest["artifacts"][key]]
            values = [x for r in model["tokens"] for x in r["vector"]] + list(model.get("bias", []))
            if not np.all(np.isfinite(np.asarray(values, dtype=float))):
                return f"{key} has non-finite values"
        summaries = [v for v in parsed.values() if isinstance(v, dict) and "loss_first" in v]
        if not summaries:
            return "no summary with loss_first among the artifacts"
        summary = summaries[0]
        for key in CHECKED:
            got, want = float(summary[key]), getattr(ref, key)
            if not abs(got - want) <= RTOL * abs(want) + ATOL_SCALE * ref.loss_first:
                return f"{key} = {got!r}, reference {want!r}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return ""


def run_once(
    w: Workload, seed: int, paths: dict, env: dict, index: int, traced: bool, timeout: float, ref: Reference
) -> Launch:
    out = paths["work"] / f"run-{index}"
    out.mkdir()
    report = out / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report), "1" if traced else "0", "train",
           "--corpus", str(paths["manifest"]), "--config", str(paths["config"]),
           "--out", str(out / "sca")] + w.train_flags(seed)
    code, started, ended, rss = launch(cmd, env, out, timeout)
    marks: dict = {}
    if code != 0:
        tail = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        reason = f"exit code {code}: {tail}"
    else:
        try:
            marks = json.loads(report.read_text(encoding="utf-8"))
            reason = "" if "train_end" in marks else "training call never ran"
        except (OSError, ValueError) as exc:
            reason = f"no timing report: {exc!r}"
        reason = reason or check_outputs(out / "sca", ref)
    shutil.rmtree(out, ignore_errors=True)
    return Launch(not reason, reason, traced, started, ended, rss, marks)


def end_to_end(launches: list[Launch], ref: Reference) -> dict:
    timed = [l for l in launches if "train_end" in l.marks]

    def med(values):
        return statistics.median(values) if values else None

    return {
        "run_s": (med([l.run_s for l in launches]), "s"),
        "setup_s": (med([l.marks["train_start"] - l.started for l in timed]), "s"),
        "train_tokens_per_s": (
            med([ref.rows_trained / (l.marks["train_end"] - l.marks["train_start"]) for l in timed]),
            "rows/s",
        ),
        "finish_s": (med([l.ended - l.marks["train_end"] for l in timed]), "s"),
        "peak_rss_mb": (med([l.peak_rss_mb for l in launches]), "MB"),
        "ok_share": (sum(l.ok for l in launches) / len(launches), "ratio"),
    }


def per_layer(t: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced launch, from its aggregated spans."""
    spans = t["spans"]  # [name, caller, calls, total_s, self_s]

    def calls(*names):
        return sum(s[2] for s in spans if s[0] in names)

    def total(*names):
        # a span nested under a span of the same group is already in the outer total
        return sum(s[3] for s in spans if s[0] in names and s[1] not in names)

    def self_s(*names):
        return sum(s[4] for s in spans if s[0] in names)

    state_calls = calls("coherence.compute_batch_state")
    sample_training = t["sample_calls_training"]
    m: dict[str, tuple[float, str]] = {
        "corpus.ingest_s": (total("corpus.read_manifest", "corpus.build_vocabulary",
                                  "corpus.encode_documents", "corpus.stratified_split"), "s"),
        "corpus.pools_s": (total("corpus.token_pools", "corpus.bigram_pools"), "s"),
        "corpus.sample_calls": (calls("corpus.sample_from_pools"), "count"),
        "corpus.sample_s": (total("corpus.sample_from_pools"), "s"),
        "corpus.sample_distinct_ratio": (
            t["sample_distinct_training"] / sample_training if sample_training else 0.0, "ratio"),
        "kernel.bandwidth_s": (total("kernel.median_bandwidth"), "s"),
        "kernel.block_calls": (calls("kernel.kernel_block"), "count"),
        "kernel.block_s": (total("kernel.kernel_block"), "s"),
        "field.mean_calls": (calls("field.dense_mean"), "count"),
        "field.mean_s": (total("field.dense_mean"), "s"),
        "coherence.state_calls": (state_calls, "count"),
        "coherence.state_self_s": (self_s("coherence.compute_batch_state"), "s"),
        "coherence.state_mean_m": (t["state_rows"] / state_calls if state_calls else 0.0, "rows"),
        "coherence.state_peak_mb": (t["peaks_mb"].get("coherence.compute_batch_state", 0.0), "MB"),
        "coherence.score_s": (total("coherence.batch_coherence"), "s"),
        "coherence.eval_calls": (calls("coherence.evaluate_coherence"), "count"),
        "coherence.eval_s": (total("coherence.evaluate_coherence"), "s"),
        "coherence.grad_used_ratio": (
            t["state_calls_training"] / state_calls if state_calls else 0.0, "ratio"),
        "trainer.loop_self_s": (self_s("trainer.train_sca"), "s"),
        "trainer.project_s": (total("trainer._project_scales"), "s"),
        "trainer.steps": (t["steps"], "count"),
        "trainer.epochs": (t["epochs"], "count"),
        "lm.ce_calls": (calls("lm.ce_batch_gradients"), "count"),
        "lm.ce_s": (total("lm.ce_batch_gradients"), "s"),
        "lm.loop_self_s": (self_s("lm.train_joint"), "s"),
        "lm.perplexity_s": (total("lm.corpus_perplexity"), "s"),
        "lm.perplexity_peak_mb": (t["peaks_mb"].get("lm.corpus_perplexity", 0.0), "MB"),
        "lm.accuracy_s": (total("lm.classification_accuracy"), "s"),
        "embedding.init_s": (total("embedding.init_embeddings"), "s"),
        "embedding.save_s": (total("embedding.save_model"), "s"),
        "embedding.nn_calls": (calls("embedding.nearest_neighbor_similarity"), "count"),
        "embedding.nn_s": (total("embedding.nearest_neighbor_similarity"), "s"),
        "report.emit_s": (total("report.emit_reports"), "s"),
        "report.pca_s": (total("report.pca_project"), "s"),
        "report.rare_words_s": (total("report.rare_word_report"), "s"),
    }
    attributed = 0.0
    for module in MODULES:
        module_self = sum(s[4] for s in spans if s[0].startswith(module + "."))
        m[f"{module}.self_s"] = (module_self, "s")
        attributed += module_self
    m["trace.run_s"] = (run_s, "s")
    m["trace.unattributed_s"] = (run_s - attributed, "s")
    return m


def metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in Path("src").rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.monotonic()
    # a terminated benchmark unwinds, so the launched process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not Path("src/sca/cli.py").is_file():
        print("run.py: no src/sca here; run from the root of an sca checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{w.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        docs = w.documents(args.seed)
        paths = {"work": work, "manifest": write_corpus(docs, work / "corpus"), "config": write_config(work)}
        ref = reference(docs, w, args.seed)
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        # warm the bytecode and file caches so the first launch starts like the rest
        subprocess.run([sys.executable, "-c", "import sca.cli"], env=env, check=True)

        launches: list[Launch] = []
        window_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(launches) % 2 == 1
            remaining = DEADLINE_S - (time.monotonic() - begun)
            one = run_once(w, args.seed, paths, env, len(launches), traced, remaining, ref)
            launches.append(one)
            print(f"run.py: launch {len(launches) - 1} traced={traced} run_s={one.run_s:.4f} "
                  f"marks={ {k: v - one.started for k, v in one.marks.items() if k != 'trace'} } "
                  f"rss_mb={one.peak_rss_mb:.1f} {'ok' if one.ok else 'FAILED: ' + one.reason}",
                  file=sys.stderr)
            elapsed = time.monotonic() - window_start
            mean = elapsed / len(launches)
            need_more = len(launches) < (2 if args.trace else MIN_LAUNCHES)
            if time.monotonic() - begun + mean > DEADLINE_S:
                break
            if not need_more and elapsed + mean > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    failed = sum(not l.ok for l in launches)
    if args.trace:
        untraced = [l for l in launches if not l.traced]
        traced_runs = sorted((l for l in launches if "trace" in l.marks), key=lambda l: l.run_s)
        metrics = {}
        if traced_runs and untraced:
            # one whole launch, the one with the median wall time, so its module
            # self times and unattributed remainder add up to its trace.run_s
            typical = traced_runs[(len(traced_runs) - 1) // 2]
            metrics = per_layer(typical.marks["trace"], typical.run_s)
            metrics["trace.overhead_ratio"] = (
                typical.run_s / statistics.median(l.run_s for l in untraced), "ratio"
            )
    else:
        metrics = end_to_end(launches, ref)

    print(json.dumps({"metadata": metadata(), "workload": w.name, "seed": args.seed,
                      "launches": len(launches), "sigma_max": ref.sigma_max}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(launches),
        "failed": failed,
        "metrics": {
            name: {"value": value if value is None or math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

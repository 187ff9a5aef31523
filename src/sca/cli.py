"""Command-line pipeline: train, gradcheck, eval."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, coherence, corpus, embedding, field, kernel, lm, report, trainer
from .corpus import CorpusError
from .embedding import EmbeddingTable
from .kernel import KernelSpec
from .trainer import TrainingError

log = logging.getLogger("sca")

TRAIN_DEFAULTS = {
    "corpus": None,
    "dim": 16,
    "kernel": "rbf",
    "bandwidth": "median",
    "rho": 1.0,
    "spectral_mode": "clip",
    "lr": 0.5,
    "batch": 32,
    "epochs": 150,
    "lambda": None,  # None = embeddings-only training; a value selects joint LM training
    "seed": 0,
    "out": None,
    "checkpoint_every": 0,
    "min_count": 1,
    "ratios": (0.8, 0.1, 0.1),
    "sigma_init": 0.1,
    "window": 10,
    "tol": 1e-3,
}

EVAL_DEFAULTS = {
    "corpus": None,
    "kernel": "rbf",
    "bandwidth": "median",
    "batch": 32,
    "seed": 0,
    "min_count": 1,
    "ratios": (0.8, 0.1, 0.1),
    "out": None,
}


def _load_config_file(path: str) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    # a run manifest nests the resolved config under "config"
    if "config" in payload and isinstance(payload["config"], dict):
        payload = payload["config"]
    return payload


_FLAG_ALIASES = {"lambda": "lam"}  # "lambda" is a Python keyword


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicitly passed flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key in cfg:
                cfg[key] = value
    for key in defaults:
        flag = getattr(args, _FLAG_ALIASES.get(key, key), None)
        if flag is not None:
            cfg[key] = flag
    if isinstance(cfg.get("ratios"), list):
        cfg["ratios"] = tuple(cfg["ratios"])
    return cfg


def _resolve_kernel(cfg: dict, table: EmbeddingTable) -> KernelSpec:
    family = cfg["kernel"]
    bandwidth = cfg["bandwidth"]
    if family != "rbf":
        return KernelSpec(family=family)
    if bandwidth == "median":
        return KernelSpec(family="rbf", bandwidth=kernel.median_bandwidth(table, seed=cfg["seed"]))
    try:
        value = float(bandwidth)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"--bandwidth must be a number or 'median', got {bandwidth!r}") from exc
    return KernelSpec(family="rbf", bandwidth=value)


def _build_corpus(cfg: dict):
    """Vocabulary and split; both the train and test parts need a document of two tokens or more."""
    raw = corpus.read_manifest(cfg["corpus"])
    vocab = corpus.build_vocabulary(raw, min_count=int(cfg["min_count"]))
    docs = corpus.encode_documents(raw, vocab)
    split = corpus.stratified_split(docs, cfg["ratios"], seed=int(cfg["seed"]))
    for part in ("train", "test"):
        if not any(doc.token_ids.shape[0] >= 2 for doc in getattr(split, part)):
            raise CorpusError(
                f"split ratios {cfg['ratios']} leave the {part} part without a document "
                "of two or more tokens"
            )
    return vocab, split


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: dict[str, str]) -> None:
    serializable = {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}
    payload = {
        "version": __version__,
        "command": command,
        "config": serializable,
        "artifacts": artifacts,
    }
    report.write_json(out / "manifest.json", payload)


def _lm_metrics(table: EmbeddingTable, bias, split) -> dict:
    model = lm.BigramModel(table=table, bias=bias if bias is not None else np.zeros(len(table)))
    return {
        "perplexity_train": lm.corpus_perplexity(model, split.train),
        "perplexity_heldout": lm.corpus_perplexity(model, split.test),
        "accuracy": lm.classification_accuracy(model, lm.corpus_pairs(split.test)),
    }


def _model_metrics(table: EmbeddingTable, bias, split, spec: KernelSpec, cfg: dict) -> dict:
    """The LM metrics plus the coherence score that `sca eval` reports."""
    metrics = _lm_metrics(table, bias, split)
    metrics["coherence_score"] = coherence.evaluate_coherence(
        table, split.train, spec, int(cfg["batch"]), int(cfg["seed"])
    )
    return metrics


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, TRAIN_DEFAULTS)
    if not cfg["corpus"] or not cfg["out"]:
        raise ValueError("train requires --corpus and --out")
    vocab, split = _build_corpus(cfg)
    initial = embedding.init_embeddings(
        len(vocab), int(cfg["dim"]), seed=int(cfg["seed"]), scale=float(cfg["sigma_init"]), vocab=vocab
    )
    spec = _resolve_kernel(cfg, initial)
    joint = cfg["lambda"] is not None
    config = trainer.TrainConfig(
        lr=float(cfg["lr"]),
        batch_size=int(cfg["batch"]),
        rho=float(cfg["rho"]),
        lam=float(cfg["lambda"]) if joint else 0.0,
        max_epochs=int(cfg["epochs"]),
        window=int(cfg["window"]),
        tol=cfg["tol"],
        seed=int(cfg["seed"]),
        spectral_mode=cfg["spectral_mode"],
    )
    # the config and the batch size are checked before --out is created
    pools = corpus.bigram_pools if joint else corpus.token_pools
    trainer.check_config(config, pools(split.train))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    batch_scores: list[tuple[int, float]] = []

    def collect(epoch, _step, _loss, score):
        if np.isfinite(score):
            batch_scores.append((epoch, score))

    checkpoint_every = int(cfg["checkpoint_every"])
    checkpoint_dir = out / "checkpoints"

    def checkpoint(epoch, snapshot, _log):
        if checkpoint_every <= 0 or epoch % checkpoint_every:
            return
        checkpoint_dir.mkdir(exist_ok=True)
        if isinstance(snapshot, lm.BigramModel):
            embedding.save_model(
                snapshot.table, checkpoint_dir / f"epoch_{epoch:04d}.json", bias=snapshot.bias
            )
        else:
            embedding.save_model(snapshot, checkpoint_dir / f"epoch_{epoch:04d}.json")

    log.info("training: %d tokens of vocabulary, dim %s, joint=%s", len(vocab), cfg["dim"], joint)
    bias = None
    if joint:
        model, logs = lm.train_joint(
            lm.make_model(initial), split.train, spec, config, on_batch=collect, on_epoch=checkpoint
        )
        trained = model.table
        bias = model.bias
    else:
        trained, logs = trainer.train_sca(
            initial, split.train, spec, config, on_batch=collect, on_epoch=checkpoint
        )

    embedding.save_model(trained, out / "model.json", bias=bias)
    embedding.save_model(initial, out / "initial_model.json")
    corpus.write_vocabulary(vocab, out / "vocab.json")
    report.write_csv(
        out / "loss_curve.csv",
        ["epoch", "loss", "coherence", "lr", "seconds"],
        [[e.epoch, e.loss, e.coherence, e.lr, e.seconds] for e in logs],
    )

    summary = {
        "seed": int(cfg["seed"]),
        "lambda": float(cfg["lambda"]) if joint else 0.0,
        "kernel_family": spec.family,
        "bandwidth": spec.bandwidth,
        "epochs_run": len(logs),
        "loss_first": logs[0].loss,
        "loss_final": logs[-1].loss,
        "coherence_initial": coherence.evaluate_coherence(
            initial, split.train, spec, config.batch_size, config.seed
        ),
        "coherence_final": coherence.evaluate_coherence(
            trained, split.train, spec, config.batch_size, config.seed
        ),
        "coherence_score_note": report.COHERENCE_SCORE_NOTE,
    }
    summary.update(_lm_metrics(trained, bias, split))
    report.emit_reports(out / "reports", batch_scores, initial, trained, vocab, summary)

    artifact_paths = {
        "model": "model.json",
        "initial_model": "initial_model.json",
        "vocab": "vocab.json",
        "epoch_log": "loss_curve.csv",
        "reports": "reports",
    }
    cfg_frozen = dict(cfg)
    cfg_frozen["bandwidth_resolved"] = spec.bandwidth
    _write_manifest(out, "train", cfg_frozen, artifact_paths)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    eps = args.epsilon
    m = args.batch
    d = args.dim
    max_detached = 0.0
    max_gap = 0.0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        n = max(2 * m, 4)
        table = EmbeddingTable(vectors=rng.standard_normal((n, d)), seed=args.seed)
        ids = rng.integers(0, n, size=m)
        spec = KernelSpec("rbf", kernel.median_bandwidth(table, seed=args.seed))
        state = coherence.compute_batch_state(spec, table, ids)
        # also check with the fields bounded at the median field norm, where s_i != 1
        rho = float(np.median([field.spectral_norm(f) for f in state.fields()]))
        for bound in ((None, "clip"), (rho, "clip"), (rho, "alg1")):
            checked = coherence.compute_batch_state(spec, table, ids, *bound)
            grads = coherence.sca_gradient(checked)
            if args.perturb_gradient:
                grads = grads + 1e-3
            for p in range(m):
                fd = coherence.fd_gradient_detached(
                    table, int(ids[p]), checked.rights[p], checked.mean, eps, checked.scales[p]
                )
                # floor guards stationary instances where fd is rounding residue
                rel = np.linalg.norm(grads[p] - fd) / max(np.linalg.norm(fd), 1e-6)
                max_detached = max(max_detached, float(rel))
        token = int(ids[0])
        fd_full = coherence.fd_gradient_full(spec, table, ids, token, eps)
        semi = coherence.sca_gradient(state)[ids == token].sum(axis=0)
        gap = np.linalg.norm(semi - fd_full) / max(np.linalg.norm(fd_full), 1e-12)
        max_gap = max(max_gap, float(gap))
    print(f"gradcheck: max relative error vs detached finite differences = {max_detached:.3e}")
    print(f"gradcheck: diagnostic gap vs full-loss finite differences    = {max_gap:.3e}")
    if max_detached < 1e-5:
        print(f"gradcheck: PASS ({args.trials} instances unbounded and bounded at the median "
              f"field norm in clip and alg1, d={d}, batch={m}, eps={eps:g})")
        return 0
    print(f"gradcheck: FAIL (threshold 1e-05)")
    return 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, EVAL_DEFAULTS)
    if not cfg["corpus"] or not cfg["out"]:
        raise ValueError("eval requires --corpus and --out")
    single = args.model is not None
    paired = args.before is not None or args.after is not None
    if single == paired or (paired and (args.before is None or args.after is None)):
        raise ValueError("pass either --model, or both --before and --after")
    vocab, split = _build_corpus(cfg)

    def load_checked(path: str):
        table, bias = embedding.load_model(path)
        if table.vocab.id_to_token != vocab.id_to_token:
            raise ValueError(f"vocabulary mismatch between {path} and corpus {cfg['corpus']}")
        table.vocab = vocab
        return table, bias

    # the model files and the kernel are checked before --out is created
    models = [load_checked(p) for p in ([args.model] if single else [args.before, args.after])]
    spec = _resolve_kernel(cfg, models[0][0])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    summary: dict
    if single:
        table, bias = models[0]
        summary = _model_metrics(table, bias, split, spec, cfg)
        summary.update({"lambda": args.lam if args.lam is not None else 0.0, "seed": int(cfg["seed"])})
    else:
        (before, bias_before), (after, bias_after) = models
        rare = report.rare_word_report(before, after, vocab)
        report.write_rare_words(rare, out / "rare_words.csv")
        report.write_pca(report.pca_project(after), vocab, out / "pca.csv")
        summary = {
            "before": _model_metrics(before, bias_before, split, spec, cfg),
            "after": _model_metrics(after, bias_after, split, spec, cfg),
            "rare_word_mean_delta": rare.mean_delta(),
            "lambda": args.lam if args.lam is not None else 0.0,
            "seed": int(cfg["seed"]),
        }
    summary["coherence_score_note"] = report.COHERENCE_SCORE_NOTE
    report.write_json(out / "summary.json", summary)
    artifacts = {"summary": "summary.json"}
    if not single:
        artifacts.update({"rare_words": "rare_words.csv", "pca": "pca.csv"})
    _write_manifest(out, "eval", cfg, artifacts)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="ingest a corpus and train embeddings")
    train.add_argument("--corpus", help="manifest file: one '<category>\\t<path>' line per document")
    train.add_argument("--config", help="JSON config file (flags take precedence)")
    train.add_argument("--dim", type=int)
    train.add_argument("--kernel", choices=kernel.FAMILIES)
    train.add_argument("--bandwidth", help="rbf bandwidth: a number or 'median'")
    train.add_argument("--rho", type=float, help="spectral norm threshold")
    train.add_argument("--spectral-mode", choices=("clip", "alg1"), dest="spectral_mode")
    train.add_argument("--lr", type=float)
    train.add_argument("--batch", type=int)
    train.add_argument("--epochs", type=int)
    train.add_argument("--lambda", type=float, dest="lam",
                       help="joint LM training weight; omit for embeddings-only training")
    train.add_argument("--seed", type=int)
    train.add_argument("--out", help="output directory")
    train.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    train.set_defaults(func=cmd_train)

    grad = sub.add_parser("gradcheck", help="verify the closed-form gradient numerically")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--epsilon", type=float, default=1e-5)
    grad.add_argument("--dim", type=_positive_int, default=8)
    grad.add_argument("--batch", type=_positive_int, default=16)
    grad.add_argument("--trials", type=_positive_int, default=20)
    grad.add_argument("--perturb-gradient", action="store_true", help=argparse.SUPPRESS)
    grad.set_defaults(func=cmd_gradcheck)

    ev = sub.add_parser("eval", help="evaluate trained model files against a corpus")
    ev.add_argument("--corpus")
    ev.add_argument("--config", help="JSON config file (flags take precedence)")
    ev.add_argument("--model", help="single model JSON to evaluate")
    ev.add_argument("--before", help="model JSON before training")
    ev.add_argument("--after", help="model JSON after training")
    ev.add_argument("--kernel", choices=kernel.FAMILIES)
    ev.add_argument("--bandwidth")
    ev.add_argument("--batch", type=int)
    ev.add_argument("--lambda", type=float, dest="lam", help="recorded in the summary")
    ev.add_argument("--seed", type=int)
    ev.add_argument("--out", help="output directory")
    ev.set_defaults(func=cmd_eval)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("SCA_LOG", "").lower()
    if level in ("debug", "info"):
        logging.basicConfig(level=getattr(logging, level.upper()))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging()
    try:
        return args.func(args)
    except (
        CorpusError,
        TrainingError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"sca {args.command}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line pipeline: train, eval.

Files are closed before main returns; at exit, gc.freeze keeps teardown off the run's objects."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, coherence, corpus, embedding, kernel, lm, report, trainer
from .coherence import PROJECTION_MODES
from .corpus import CorpusError
from .kernel import KernelSpec
from .trainer import TrainConfig, TrainingError

# at exit, objects still alive go to the permanent generation: teardown skips, not frees, them
atexit.register(gc.freeze)


def _parser(expected: str, accepts: tuple[type, ...], convert: Callable) -> Callable:
    """Parse a flag's text, or a config value of an accepted JSON type, into a finite value.

    Exact types are matched, so a JSON true or false is not taken for an integer.
    """

    def parse(value):
        try:
            if type(value) in accepts:
                parsed = convert(value)
                if not isinstance(parsed, float) or math.isfinite(parsed):
                    return parsed
        except (ValueError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


NUMBER = (str, int, float)
_text = _parser("a string", (str,), str)
_path_or_null = _parser("a string or null", (str, type(None)), lambda v: v)  # null: unset
_integer = _parser("an integer", (str, int), int)
_number = _parser("a finite number", NUMBER, float)
_number_or_null = _parser("a finite number or null", (*NUMBER, type(None)),
                          lambda v: v if v is None else float(v))
# text ('median' or a number) is checked and converted by _resolve_config, as from the flag
_bandwidth = _parser("a string or a finite number", NUMBER,
                     lambda v: v if isinstance(v, str) else float(v))
_ratios = _parser("a list of finite numbers", (list, tuple), lambda v: tuple(map(_number, v)))

# a knob's range: (phrase, test), the phrase ending "<knob> must be ..."
POSITIVE = ("positive", lambda v: v > 0)
AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
NON_NEGATIVE_OR_NULL = ("non-negative, or null", lambda v: v is None or v >= 0)


def _one_of(choices: tuple[str, ...]) -> tuple:
    return ("one of " + "/".join(choices), lambda v: v in choices)


def _positive_or_median(value) -> bool:
    """'median', or a number or numeric text in (0, inf); _resolve_config then makes it a float."""
    try:
        return value == "median" or 0 < float(value) < math.inf
    except ValueError:
        return False


# one train/eval setting: config and manifest key, flag unless help is None (config file only),
# and the range its merged value must be in, unless accepts is None
Knob = namedtuple("Knob", "name parse default commands help accepts", defaults=(None,))
BOTH = ("train", "eval")
KNOBS = (
    Knob("corpus", _text, None, BOTH, "manifest file: one '<category>\\t<path>' line per document"),
    Knob("model", _path_or_null, None, ("eval",), "single model JSON to evaluate"),
    Knob("before", _path_or_null, None, ("eval",), "model JSON before training"),
    Knob("after", _path_or_null, None, ("eval",), "model JSON after training"),
    Knob("dim", _integer, 16, ("train",), "embedding dimension", (">= 2", lambda v: v >= 2)),
    Knob("kernel", _text, "rbf", BOTH, "kernel family: " + "/".join(kernel.FAMILIES),
         _one_of(kernel.FAMILIES)),
    Knob("bandwidth", _bandwidth, "median", BOTH, "rbf bandwidth: a number or 'median'",
         ("a positive number or 'median'", _positive_or_median)),
    Knob("rho", _number, TrainConfig.rho, ("train",), "spectral norm threshold", POSITIVE),
    Knob("spectral_mode", _text, TrainConfig.spectral_mode, ("train",),
         "spectral bound rule: " + "/".join(PROJECTION_MODES), _one_of(PROJECTION_MODES)),
    Knob("lr", _number, TrainConfig.lr, ("train",), "initial learning rate", POSITIVE),
    Knob("batch", _integer, TrainConfig.batch, BOTH, "batch size", AT_LEAST_ONE),
    Knob("epochs", _integer, TrainConfig.epochs, ("train",), "maximum number of epochs",
         AT_LEAST_ONE),
    Knob("lambda", _number_or_null, None, ("train",), "joint LM weight; omit: embeddings only",
         NON_NEGATIVE_OR_NULL),
    Knob("seed", _integer, TrainConfig.seed, BOTH, "seed of the split, init and batches",
         NON_NEGATIVE),
    Knob("out", _text, None, BOTH, "output directory: new, or an empty directory"),
    Knob("checkpoint_every", _integer, 0, ("train",), "save the model every N epochs; 0: never",
         NON_NEGATIVE),
    Knob("min_count", _integer, 1, BOTH, None, AT_LEAST_ONE),
    Knob("ratios", _ratios, (0.8, 0.1, 0.1), BOTH, None,
         ("three non-negative (train, validation, test) shares that sum to 1",
          lambda r: len(r) == 3 and min(r) >= 0 and abs(sum(r) - 1.0) <= 1e-9)),
    Knob("sigma_init", _number, 0.1, ("train",), None, POSITIVE),
    Knob("window", _integer, TrainConfig.window, ("train",), None, AT_LEAST_ONE),
    Knob("tol", _number_or_null, TrainConfig.tol, ("train",), None, NON_NEGATIVE_OR_NULL),
)


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _resolve_config(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults < config file < flags; each config value is parsed like its flag.

    Every merged value is then checked against its knob's range, before the corpus is read; an
    error names the knob as it was set: --lr for a flag, config <file>: lr for a file value.
    """
    cfg = {k.name: k.default for k in KNOBS if command in k.commands}
    named = {}  # how each value was set, when not by its default
    if args.config:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if isinstance(payload, dict) and isinstance(payload.get("config"), dict):
            payload = payload["config"]  # a run manifest nests the resolved config
        if not isinstance(payload, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        knobs = {k.name: k for k in KNOBS}
        for key, value in payload.items():
            if key not in knobs and key != "bandwidth_resolved":  # a manifest-only key
                raise ValueError(f"config {args.config}: unknown key {key!r}")
            named[key] = f"config {args.config}: {key}"
            try:
                if key in cfg:
                    cfg[key] = knobs[key].parse(value)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{named[key]}: {exc}") from None
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key], named[key] = flag, _flag(key)
    if not cfg["corpus"] or not cfg["out"]:
        raise ValueError(f"{command} requires --corpus and --out")
    for knob in KNOBS:
        if knob.name in cfg and knob.accepts and not knob.accepts[1](cfg[knob.name]):
            raise ValueError(f"{named.get(knob.name, knob.name)} must be {knob.accepts[0]}, "
                             f"got {cfg[knob.name]!r}")
    if cfg["bandwidth"] != "median":  # numeric text from the flag, now checked
        cfg["bandwidth"] = float(cfg["bandwidth"])
    out = Path(cfg["out"])  # each run directory holds one run
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"--out {out} exists and is not an empty directory")
    return cfg


def _resolve_kernel(cfg: dict, table: np.ndarray) -> KernelSpec:
    """The kernel spec; rbf takes the bandwidth, a number or the table's median distance."""
    if cfg["kernel"] != "rbf":
        return KernelSpec(family=cfg["kernel"])
    if cfg["bandwidth"] == "median":
        return KernelSpec("rbf", kernel.median_bandwidth(table, seed=cfg["seed"]))
    return KernelSpec("rbf", cfg["bandwidth"])


def _build_corpus(cfg: dict, reports: bool):
    """Vocabulary and split from one read_manifest call, and the adjacent pairs of each scored
    part: train, test and (ratio > 0) validation, each of which needs a document of 2+ tokens."""
    vocab, docs = corpus.read_manifest(cfg["corpus"], cfg["min_count"])
    if reports and len(vocab) < 3:  # a rare word needs a nearest neighbour, pca.csv three rows
        raise CorpusError(f"the vocabulary has {len(vocab)} entries; the reports need at least 3 "
                          "(the unknown token and two real tokens)")
    split = corpus.stratified_split(docs, cfg["ratios"], seed=cfg["seed"])
    parts = ("train", "test", "validation") if cfg["ratios"][1] > 0 else ("train", "test")
    pairs = [[corpus.adjacent_pairs(doc) for doc in getattr(split, part)] for part in parts]
    for part, chunks in zip(parts, pairs):
        if not any(map(len, chunks)):  # checked before np.concatenate, which needs one chunk
            raise CorpusError(
                f"split ratios {cfg['ratios']} leave the {part} part without a document "
                "of two or more tokens"
            )
    return vocab, split, [np.concatenate(chunks) for chunks in pairs]


def _write_manifest(out: Path, command: str, cfg: dict) -> None:
    """Written last, so the artifacts it lists by stem are every entry of the (once empty) --out."""
    payload = {
        "version": __version__,
        "command": command,
        "config": cfg,
        "artifacts": {entry.stem: entry.name for entry in out.iterdir()},
    }
    report.write_json(out / "manifest.json", payload)


def _score(tables, models, vocab, split, pairs, spec, cfg) -> tuple:
    """The one report pass: each table's coherence over one draw of seeded batches; each
    (table, bias) model's perplexity and accuracy on each part that _build_corpus paired, from
    one scoring call; and, for a (before, after) pair of tables, the rare rows and after's PCA."""
    scores = coherence.evaluate_coherence(tables, split.train, spec, cfg["batch"], cfg["seed"])
    ends = np.cumsum([len(p) for p in pairs])[:-1]
    metrics = []
    for table, bias in models:
        nlls, hits = lm.score_pairs(lm.make_model(table, bias), np.concatenate(pairs))
        with np.errstate(over="ignore"):  # a mean nll above ~709.8 has no float perplexity: null
            ppl = [float(np.exp(np.mean(part))) for part in np.split(nlls, ends)]
        ppl = [None if p == math.inf else p for p in ppl] + [None]
        acc = [float(np.mean(part)) for part in np.split(hits, ends)] + [None]
        metrics.append(dict(perplexity_train=ppl[0], perplexity_heldout=ppl[1], accuracy=acc[1],
                            perplexity_validation=ppl[2], accuracy_validation=acc[2]))
    rare = pca = None
    if len(tables) == 2:
        rare, pca = report.rare_word_report(*tables, vocab), report.pca_project(tables[1])
    return scores, metrics, rare, pca


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, "train")
    vocab, split, pairs = _build_corpus(cfg, reports=True)
    initial = embedding.init_embeddings(len(vocab), cfg["dim"], cfg["seed"], cfg["sigma_init"])
    spec = _resolve_kernel(cfg, initial)
    joint = cfg["lambda"] is not None
    config = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name != "lam"},
                         lam=cfg["lambda"] or 0.0)  # each field but lam is named as its knob
    checkpoint_every = cfg["checkpoint_every"]
    out = Path(cfg["out"])

    def table_and_bias(model):  # a model file's parts: the joint [E | b] is split, a table is not
        return (model[:, :-1], model[:, -1]) if joint else (model, None)

    def checkpoint(epoch, model, _log):
        if checkpoint_every > 0 and epoch % checkpoint_every == 0:
            table, bias = table_and_bias(model)
            path = out / "checkpoints" / f"epoch_{epoch:04d}.json"
            embedding.save_model(table, path, vocab.id_to_token, cfg["seed"], bias)

    if os.environ.get("SCA_LOG", "").lower() in ("debug", "info"):
        print(f"INFO:sca:training: {len(vocab)} tokens of vocabulary, dim {cfg['dim']}, "
              f"joint={joint}", file=sys.stderr)
    train = lm.train_joint if joint else trainer.train_sca
    model, logs = train(lm.make_model(initial) if joint else initial, split.train, spec, config,
                        on_epoch=checkpoint)
    trained, bias = table_and_bias(model)

    (coherence_initial, coherence_final), (metrics,), rare, pca = _score(
        [initial, trained], [(trained, bias)], vocab, split, pairs, spec, cfg)
    summary = {
        "seed": config.seed,
        "lambda": cfg["lambda"],
        "kernel_family": spec.family,
        "bandwidth": spec.bandwidth,
        "epochs_run": len(logs),
        "loss_first": logs[0].loss,
        "loss_final": logs[-1].loss,
        "coherence_initial": coherence_initial,
        "coherence_final": coherence_final,
        "coherence_score_note": report.COHERENCE_SCORE_NOTE,
        **metrics,
    }
    embedding.save_model(trained, out / "model.json", vocab.id_to_token, cfg["seed"], bias)
    embedding.save_model(initial, out / "initial_model.json", vocab.id_to_token, cfg["seed"])
    corpus.write_vocabulary(vocab, out / "vocab.json")
    report.write_csv(out / "loss_curve.csv", ["epoch", "loss", "coherence", "lr"],
                     [[e.epoch, e.loss, e.coherence, e.lr] for e in logs])
    report.write_json(out / "timing.json", {"epoch_seconds": [e.seconds for e in logs]})
    report.emit_reports(out / "reports", [e.scores for e in logs], rare, pca, vocab, summary)
    _write_manifest(out, "train", {**cfg, "bandwidth_resolved": spec.bandwidth})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, "eval")
    paths = [cfg[key] for key in ("model", "before", "after") if cfg[key] is not None]
    single = cfg["model"] is not None
    if len(paths) != (1 if single else 2):
        raise ValueError("pass either --model, or both --before and --after")
    vocab, split, pairs = _build_corpus(cfg, reports=not single)

    def load_checked(path: str):
        table, names, bias = embedding.load_model(path)
        if names != vocab.id_to_token:
            raise ValueError(f"vocabulary mismatch between {path} and corpus {cfg['corpus']}")
        return table, bias

    # everything is computed before --out is created, so a bad model, kernel or batch leaves none
    models = [load_checked(p) for p in paths]
    spec = _resolve_kernel(cfg, models[0][0])
    scores, metrics, rare, pca = _score([table for table, _ in models], models, vocab, split,
                                        pairs, spec, cfg)
    metrics = [{**m, "coherence_score": s} for m, s in zip(metrics, scores)]
    summary = metrics[0] if single else {"before": metrics[0], "after": metrics[1]}
    if rare is not None:
        summary["rare_word_mean_delta"] = float(np.mean([a - b for _, _, b, a in rare]))
    summary["seed"] = cfg["seed"]
    summary["coherence_score_note"] = report.COHERENCE_SCORE_NOTE
    report.emit_reports(cfg["out"], [], rare, pca, vocab, summary)
    _write_manifest(Path(cfg["out"]), "eval", cfg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """train and eval each take --config, then a flag for each of their knobs that has a help."""
    parser = argparse.ArgumentParser(prog="sca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, about in (
        ("train", cmd_train, "ingest a corpus and train embeddings"),
        ("eval", cmd_eval, "evaluate trained model files against a corpus"),
    ):
        child = sub.add_parser(command, help=about)
        child.set_defaults(func=handler)
        child.add_argument("--config", help="JSON config file (flags take precedence)")
        for knob in KNOBS:
            if command in knob.commands and knob.help is not None:
                shown = "" if knob.default is None else f" (default {knob.default})"
                child.add_argument(_flag(knob.name), type=knob.parse, help=knob.help + shown)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, TrainingError, ValueError, OSError, KeyError) as exc:
        print(f"sca {args.command}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
